//! CI perf-smoke harness: run the headline measurements of the
//! `queue_depth`, `kv_ops`, `recovery` and `mirror` benches in quick
//! mode — plus the `latency` section's
//! histogram percentiles read back out of the shared metrics registry and,
//! with `--scenarios`, the workload lab's YCSB/replay/multi-tenant
//! scenario matrix — write them to a perf-trajectory point and
//! optionally gate against the committed baseline, `BENCH_BASELINE.json`
//! (a copy of the newest numbered `BENCH_PR<n>.json` point).
//!
//! ```text
//! cargo run --release -p noftl-bench --bin perf_smoke -- \
//!     --scenarios all --out target/bench_point.json --compare BENCH_BASELINE.json
//! ```
//!
//! Flags: `--out <path>` (default `BENCH_PR<n>.json` for the `n` stamped
//! into the point, [`smoke::PERF_POINT_PR`]), `--full` for the
//! larger workloads, `--scenarios <kv|btree|mixed|all>` to append the
//! `scenarios` section, `--only-scenarios` to emit *only* that section
//! (the CI scenario matrix runs one group per job), and
//! `--compare <baseline.json>` to fail (exit 1) when any simulated
//! metric shared with the baseline regressed by more than 20 % —
//! direction-aware: simulated time and latency percentiles gate on
//! increases; simulated throughput, `x` speedups and utilisation floors
//! on decreases; `x` penalties on increases (metrics new in this PR are
//! warn-only, and skipped non-gating metrics are listed by name; a
//! baseline that does not parse or shares no gated metric with the run
//! fails the gate too).  All
//! numbers except the `_wall_ms` ones are simulated device time and
//! therefore deterministic across runs and machines — exactly what a CI
//! artifact needs to be comparable.

use std::path::PathBuf;

use noftl_bench::scenarios::{self, ScenarioGroup};
use noftl_bench::smoke;

/// Gate: fail on simulated-time regressions beyond this fraction.
const TOLERANCE: f64 = 0.20;

fn main() {
    let mut out = PathBuf::from(format!("BENCH_PR{}.json", smoke::PERF_POINT_PR));
    let mut baseline: Option<PathBuf> = None;
    let mut quick = true;
    let mut scenario_group: Option<ScenarioGroup> = None;
    let mut only_scenarios = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(args.next().expect("--out needs a path"));
            }
            "--compare" => {
                baseline = Some(PathBuf::from(args.next().expect("--compare needs a path")));
            }
            "--full" => quick = false,
            "--quick" => quick = true,
            "--scenarios" => {
                let which = args.next().expect("--scenarios needs kv|btree|mixed|all");
                scenario_group = Some(ScenarioGroup::parse(&which).unwrap_or_else(|| {
                    eprintln!("unknown scenario group '{which}' (expected kv|btree|mixed|all)");
                    std::process::exit(2);
                }));
            }
            "--only-scenarios" => only_scenarios = true,
            other => {
                eprintln!(
                    "unknown flag '{other}' \
                     (expected --out <path>, --compare <path>, --quick, --full, \
                     --scenarios <kv|btree|mixed|all>, --only-scenarios)"
                );
                std::process::exit(2);
            }
        }
    }
    if only_scenarios && scenario_group.is_none() {
        // `--only-scenarios` without an explicit group means the whole matrix.
        scenario_group = Some(ScenarioGroup::All);
    }
    let mode = if quick { "quick" } else { "full" };
    println!("perf smoke ({mode} mode):");
    let mut sections = Vec::new();
    if !only_scenarios {
        sections.extend([
            smoke::queue_depth_section(),
            smoke::kv_ops_section(quick),
            smoke::recovery_section(quick),
            smoke::mirror_section(quick),
            smoke::latency_section(quick),
        ]);
    }
    if let Some(group) = scenario_group {
        sections.push(scenarios::scenarios_section(quick, group));
    }
    print!("{}", smoke::render_table(&sections));
    smoke::write_json(&out, mode, &sections).expect("write bench JSON");
    println!("wrote {}", out.display());

    if let Some(baseline) = baseline {
        let old_text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", baseline.display()));
        let cmp = smoke::compare_perf_points(&old_text, &sections, TOLERANCE);
        println!("comparison against {}:", baseline.display());
        for note in &cmp.notes {
            println!("  note: {note}");
        }
        if cmp.failures.is_empty() {
            println!(
                "  OK — no shared simulated metric regressed by more than {:.0}%",
                TOLERANCE * 100.0
            );
        } else {
            for failure in &cmp.failures {
                eprintln!("  REGRESSION: {failure}");
            }
            std::process::exit(1);
        }
    }
}
