//! # noftl-workload — YCSB generators and the backends they drive
//!
//! Deterministic op streams for the NoFTL-regions stack and the storage
//! surface that consumes them.  This crate generates; it does not
//! measure: `benchmark/` drives these generators (closed- and open-loop)
//! and is the one instrument that turns them into numbers.
//!
//! * [`rng`] — keyed SplitMix64 streams and the uniform / Zipfian /
//!   latest key distributions.  Same `(seed, stream)` ⇒ byte-identical
//!   draws on every run and machine.
//! * [`ycsb`] — the six YCSB core workloads A–F as pure-function op
//!   streams ([`ycsb::YcsbSpec::core`]); backends never influence the
//!   stream, so every backend consumes *identical* keys, which
//!   [`stream_digest`] proves.
//! * [`backend`] — the [`backend::WorkloadBackend`] surface, its
//!   implementation over NoFTL-KV ([`backend::KvBackend`]) and
//!   [`load_phase`].  The benchmark's B+-tree table (the dbms heap + key
//!   index, one auto-commit transaction per op) implements the trait
//!   itself.
//!
//! Every backend verb takes a simulated issue instant and returns the
//! simulated completion, so whatever drives them gets deterministic
//! timing for free.

#![warn(missing_docs)]

pub mod backend;
pub mod rng;
pub mod ycsb;

pub use backend::{load_phase, KvBackend, Result, WorkloadBackend, WorkloadError};
pub use rng::{KeyDistribution, KeyedRng, Zipfian};
pub use ycsb::{key_bytes, stream_digest, Op, OpKind, YcsbSpec};
