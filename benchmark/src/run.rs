//! One run of one workload: rounds of set-up and measurement until
//! `--seconds` of measuring is done, and the correctness gates over them.

use std::time::Instant;

use crate::metrics::{self, Metrics};
use crate::pins;
use crate::seams::Seams;
use crate::stats;
use crate::workloads::{self, Id, Measured};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub id: Id,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measure for at least this long, in whole rounds.
    pub seconds: f64,
    /// 1/20 size: quick, flagged, never comparable.
    pub smoke: bool,
}

/// One set-up followed by one measured phase.
pub struct Round {
    /// Host time of build + load + warm-up.
    pub setup_s: f64,
    /// The measured phase.
    pub measured: Measured,
    /// Every untraced metric of it.
    pub metrics: Metrics,
    /// Digest of the simulated ones.
    pub sim_digest: u64,
}

/// Set `opts.id` up once and measure it once, through `seams`.
pub fn round(opts: &Options, seams: &dyn Seams) -> Result<Round, String> {
    let started = Instant::now();
    let prepared = workloads::setup(opts.id, opts.seed, opts.smoke, seams)?;
    let setup_s = started.elapsed().as_secs_f64();
    let measured = prepared.measure(seams);
    let metrics = metrics::of(&measured);
    let sim_digest = metrics::sim_digest(&metrics, &measured);
    Ok(Round { setup_s, measured, metrics, sim_digest })
}

/// The result of a run.
pub struct Outcome {
    /// What was run.
    pub options: Options,
    /// Every untraced metric; host-clock ones are medians over the rounds.
    pub metrics: Metrics,
    /// Ops the measured phase was pinned to issue.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Correctness gates that failed, in words; empty means correct.
    pub problems: Vec<String>,
    /// Fingerprint of the generated inputs.
    pub stream_digest: u64,
    /// Fingerprint of the simulated results.
    pub sim_digest: u64,
    /// Every set-up time of the run; `setup_s` is their median.
    pub setup_samples_s: Vec<f64>,
    /// Measured phases run.
    pub rounds: usize,
}

/// Fold finished rounds (at least one) and extra set-up times into an
/// [`Outcome`], applying the gates every run has.
pub fn conclude(opts: &Options, rounds: Vec<Round>, extra_setups_s: &[f64]) -> Outcome {
    let mut setup_samples_s: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    setup_samples_s.extend_from_slice(extra_setups_s);
    let walls: Vec<f64> = rounds.iter().map(|r| r.measured.window.wall_s).collect();
    let count = rounds.len();
    let mut problems = Vec::new();
    if rounds.iter().any(|r| r.sim_digest != rounds[0].sim_digest) {
        problems
            .push("rounds of one seed disagree on sim_digest: the run is not deterministic".into());
    }
    let last = rounds.into_iter().next_back().expect("a run has at least one round");
    let mut metrics = last.metrics;
    let run = last.measured;
    problems.extend(run.problems.iter().cloned());
    let pinned = opts.id.pinned_stream_digest();
    if opts.seed == pins::DEFAULT_SEED && !opts.smoke && run.stream_digest != pinned {
        problems.push(format!(
            "stream_digest {:#018x} differs from the pinned {pinned:#018x}: the generated load changed",
            run.stream_digest
        ));
    }
    let wall_s = stats::median(&walls);
    metrics.insert("setup_s".into(), stats::median(&setup_samples_s));
    metrics.insert("harness.run_wall_s".into(), wall_s);
    metrics.insert("harness.ops_per_wall_s".into(), run.ops as f64 / wall_s);
    Outcome {
        options: *opts,
        metrics,
        attempted: run.attempted,
        failed: run.failed,
        problems,
        stream_digest: run.stream_digest,
        sim_digest: last.sim_digest,
        setup_samples_s,
        rounds: count,
    }
}

/// Run rounds until `opts.seconds` of measuring is done, then set up
/// again until `setup_s` is a median of [`pins::MIN_SETUPS`] samples.
pub fn run(opts: &Options, seams: &dyn Seams) -> Result<Outcome, String> {
    let mut rounds = Vec::new();
    let mut measured_s = 0.0;
    while rounds.is_empty() || measured_s < opts.seconds {
        let r = round(opts, seams)?;
        measured_s += r.measured.window.wall_s;
        rounds.push(r);
    }
    let mut extra_setups_s = Vec::new();
    while rounds.len() + extra_setups_s.len() < pins::MIN_SETUPS {
        let started = Instant::now();
        let prepared = workloads::setup(opts.id, opts.seed, opts.smoke, seams)?;
        extra_setups_s.push(started.elapsed().as_secs_f64());
        drop(prepared);
    }
    Ok(conclude(opts, rounds, &extra_setups_s))
}
