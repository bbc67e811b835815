//! # noftl-benchmark — the benchmark every performance claim is measured with
//!
//! Six pinned workloads drive stacks built from the layer crates' public
//! constructors; every result is reported on two clocks (simulated time:
//! the result; host allocations and wall time: the cost of producing it)
//! and decomposed layer by layer.  See `benchmark/README.md`.
//!
//! * [`pins`] — every pinned constant.
//! * [`workloads`] — the six workloads.
//! * [`stack`], [`seams`] — stack construction and the two trait seams a
//!   traced run decorates.
//! * [`metrics`], [`contract`] — metric computation, and `BENCHMARK.json`
//!   as the list of what is end-to-end.
//! * [`run`], [`report`], [`compare`], [`cli`] — running, printing,
//!   comparing.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod contract;
pub mod metrics;
pub mod pins;
pub mod report;
pub mod run;
pub mod seams;
pub mod stack;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
