//! # noftl-regions — workspace facade
//!
//! Reproduction of *"Revisiting DBMS Space Management for Native Flash"*
//! (Hardock, Petrov, Gottstein, Buchmann — EDBT 2016).  This crate simply
//! re-exports the workspace members under short names so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`flash`] — the native NAND flash device simulator (`flash-sim`);
//! * [`noftl`] — NoFTL regions, the paper's contribution (`noftl-core`);
//! * [`dbms`] — the storage engine that runs on NoFTL regions (`dbms-engine`);
//! * [`tpcc`] — the TPC-C workload and placement configurations
//!   (`tpcc-workload`);
//! * [`workload`] — deterministic YCSB A, B and C generators and the
//!   NoFTL-KV backend they drive (`noftl-workload`);
//! * [`bench`](mod@bench) — the experiment harness behind the `noftl`
//!   binary, `noftl fig2 | fig3` (`noftl-bench`);
//! * [`obs`] — the cross-layer observability layer: metrics registry,
//!   latency histograms and the event tracer (`noftl-obs`).
//!
//! See `README.md` for a tour and the "Figure 3 reference" block of
//! `benchmark/README.md` for the paper-vs-measured comparison.

#![warn(missing_docs)]

pub use dbms_engine as dbms;
pub use flash_sim as flash;
pub use noftl_bench as bench;
pub use noftl_core as noftl;
pub use noftl_obs as obs;
pub use noftl_workload as workload;
pub use tpcc_workload as tpcc;

// The one-call rendering facade (`obs::dump::{table, chrome_trace}`) is
// what examples reach for, so it gets a root alias.
pub use noftl_obs::dump;
