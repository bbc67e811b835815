//! The traced benchmark: every per-layer metric comes from here.
//!
//! Each workload is run twice from the same seed — once untraced, once
//! with both trait seams decorated — and the two must agree on
//! `sim_digest`.  Counter-derived metrics are read from the untraced
//! round, span-derived ones from the traced round; the difference in wall
//! time is `harness.trace_overhead_share`.  `oltp_beside_compaction`
//! additionally climbs its offered-rate ladder.

mod decorators;
mod spans;

use std::process::ExitCode;
use std::sync::Arc;

use noftl_benchmark::contract::Contract;
use noftl_benchmark::run::{self, Options, Outcome};
use noftl_benchmark::seams::Untraced;
use noftl_benchmark::workloads::{tenants, Id};
use noftl_benchmark::{cli, report};

use decorators::Tracing;
use spans::Tracer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Contract::load().and_then(|contract| trace(&args, &contract)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench-trace: {message}\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}

fn trace_one(opts: &Options, spans_out: Option<&str>) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new());
    let traced = run::round(opts, &Tracing(Arc::clone(&tracer)))?;
    let untraced = run::round(opts, &Untraced)?;
    let (traced_wall, untraced_wall) =
        (traced.measured.window.wall_s, untraced.measured.window.wall_s);
    let digests = (traced.sim_digest, untraced.sim_digest);
    let traced_setup_s = traced.setup_s;
    drop(traced);

    let mut outcome = run::conclude(opts, vec![untraced], &[traced_setup_s]);
    if digests.0 != digests.1 {
        outcome.problems.push(format!(
            "traced sim_digest {:#018x} differs from the untraced {:#018x}: the decorators changed the simulation",
            digests.0, digests.1
        ));
    }
    outcome.problems.extend(tracer.problems());
    outcome.metrics.extend(tracer.metrics());
    outcome
        .metrics
        .insert("harness.trace_overhead_share".into(), traced_wall / untraced_wall - 1.0);
    if opts.id == Id::OltpBesideCompaction {
        let rungs = tenants::ladder(opts.seed, opts.smoke)?;
        outcome
            .metrics
            .insert("oltp.max_rate_ops_per_s_sim".into(), tenants::max_rate(&rungs) as f64);
        for rung in &rungs {
            outcome.metrics.insert(
                format!("oltp.ladder.p99_us_sim_at_{}", rung.rate),
                rung.p99_ns as f64 / 1e3,
            );
        }
        if !rungs.iter().any(tenants::Rung::passes) || rungs.iter().all(tenants::Rung::passes) {
            eprintln!(
                "note: the ladder no longer brackets the capacity (no rung passed, or none failed)"
            );
        }
    }
    if let Some(path) = spans_out {
        std::fs::write(path, tracer.dump()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(outcome)
}

fn trace(args: &[String], contract: &Contract) -> Result<(), String> {
    let args = cli::parse(args)?;
    if args.trace.is_some_and(|t| t != 1) {
        return Err("--trace 0 is the bench binary's (benchmark/run.sh picks it)".into());
    }
    if args.spans.is_some() && args.workloads.len() != 1 {
        return Err("--spans dumps one workload's spans: name it with --workload".into());
    }
    let mut outcomes: Vec<Outcome> = Vec::new();
    for id in &args.workloads {
        let opts = Options { id: *id, seed: args.seed, seconds: 0.0, smoke: args.smoke };
        let outcome = trace_one(&opts, args.spans.as_deref())?;
        eprint!("{}", report::table(&outcome, contract));
        outcomes.push(outcome);
    }
    report::finish(&outcomes, &contract.per_layer, args.out.as_deref(), contract)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use noftl_benchmark::{pins, workloads};

    use super::*;

    /// Traced `--smoke` runs of all six workloads: the decorators leave the
    /// simulation alone, self times balance, and every metric
    /// `BENCHMARK.json` lists is one some workload produces.
    #[test]
    fn traced_smoke_runs_are_correct_and_cover_the_contract() {
        let contract = Contract::load().unwrap();
        let mut produced = BTreeSet::new();
        for id in workloads::ALL {
            let opts = Options { id, seed: pins::DEFAULT_SEED, seconds: 0.0, smoke: true };
            let outcome = trace_one(&opts, None).unwrap();
            assert_eq!(outcome.problems, Vec::<String>::new(), "{}", id.name());
            produced.extend(outcome.metrics.into_keys());
        }
        for spec in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(produced.contains(&spec.name), "no workload produces `{}`", spec.name);
        }
    }
}
