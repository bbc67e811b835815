//! The untraced benchmark: every end-to-end metric comes from here.
//!
//! `bench --workload <name> --seed <n> --seconds <s> --trace 0` prints the
//! metric table on standard error and, as the last line of standard
//! output, the result object `BENCHMARK.json` describes.

use std::process::ExitCode;

use noftl_benchmark::contract::Contract;
use noftl_benchmark::run::{self, Options};
use noftl_benchmark::seams::Untraced;
use noftl_benchmark::workloads::Id;
use noftl_benchmark::{cli, compare, report};

fn compare_files(base: &str, new: &str, contract: &Contract) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (table, any_worse) = compare::compare(&read(base)?, &read(new)?, contract)?;
    print!("{table}");
    Ok(any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Contract::load().and_then(|contract| match args.as_slice() {
        [cmd, base, new] if cmd == "compare" => compare_files(base, new, &contract),
        _ => bench(&args, &contract).map(|()| false),
    });
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}

fn bench(args: &[String], contract: &Contract) -> Result<(), String> {
    let args = cli::parse(args)?;
    if args.trace.is_some_and(|t| t != 0) {
        return Err("--trace 1 is the bench-trace binary's (benchmark/run.sh picks it)".into());
    }
    let mut outcomes = Vec::new();
    for id in &args.workloads {
        let opts = Options { id: *id, seed: args.seed, seconds: args.seconds, smoke: args.smoke };
        let outcome = run::run(&opts, &Untraced)?;
        eprint!("{}", report::table(&outcome, contract));
        outcomes.push(outcome);
    }
    let metrics_of = |id: Id| outcomes.iter().find(|o| o.options.id == id).map(|o| &o.metrics);
    if let (Some(t), Some(r)) = (metrics_of(Id::TpccTraditional), metrics_of(Id::TpccRegions)) {
        eprint!("{}", report::figure3_block(t, r));
    }
    report::finish(&outcomes, &contract.end_to_end, args.out.as_deref(), contract)
}
