//! Command-line arguments shared by `bench` and `bench-trace`.

use crate::pins;
use crate::workloads::{self, Id};

/// Usage text of both binaries.
pub const USAGE: &str = "\
usage: bench       [--workload <name>|all] [--seed N] [--seconds S] [--smoke] [--out FILE] [--trace 0]
       bench-trace [--workload <name>|all] [--seed N] [--smoke] [--out FILE] [--spans FILE] [--trace 1]
                   (one traced and one untraced round per workload; --seconds is accepted and ignored;
                    --spans needs a single workload)
       bench compare <base.json> <new.json>
workloads: tpcc_traditional tpcc_regions kv_update kv_read btree_read_mostly oltp_beside_compaction";

/// Parsed arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workloads to run, in order.
    pub workloads: Vec<Id>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: measure at least this long per workload.
    pub seconds: f64,
    /// `--smoke`.
    pub smoke: bool,
    /// `--out`: where to write the full report.
    pub out: Option<String>,
    /// `--spans`: where `bench-trace` dumps the spans of the first ops.
    pub spans: Option<String>,
    /// `--trace`, if given.
    pub trace: Option<u8>,
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: workloads::ALL.to_vec(),
        seed: pins::DEFAULT_SEED,
        seconds: 0.0,
        smoke: false,
        out: None,
        spans: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    parsed.workloads =
                        vec![Id::from_name(name).ok_or(format!("unknown workload `{name}`"))?];
                }
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&parsed.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(value()?.parse().map_err(|e| format!("--trace: {e}"))?)
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--spans" => parsed.spans = Some(value()?.clone()),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}
