//! `--smoke` (1/20 size) runs of all six workloads, twice in one process:
//! the same seed must give the same `sim_digest`, another seed another.

use noftl_benchmark::contract::Contract;
use noftl_benchmark::pins;
use noftl_benchmark::run::{self, Options};
use noftl_benchmark::seams::Untraced;
use noftl_benchmark::workloads;

#[test]
fn smoke_runs_repeat_exactly() {
    let contract = Contract::load().unwrap();
    for id in workloads::ALL {
        let opts = Options { id, seed: pins::DEFAULT_SEED, seconds: 0.0, smoke: true };
        let first = run::run(&opts, &Untraced).unwrap();
        let second = run::run(&opts, &Untraced).unwrap();
        let name = id.name();
        assert_eq!(first.problems, Vec::<String>::new(), "{name}");
        assert_eq!(first.failed, 0, "{name}");
        assert!(first.attempted >= pins::TPCC_MEASURED_TXNS / pins::SMOKE_DIVISOR, "{name}");
        assert_eq!(first.sim_digest, second.sim_digest, "{name}: same seed, different simulation");
        assert_eq!(first.stream_digest, second.stream_digest, "{name}");
        assert_eq!(first.setup_samples_s.len(), pins::MIN_SETUPS, "{name}");
        for spec in &contract.end_to_end {
            assert!(
                first.metrics.contains_key(&spec.name),
                "{name} lacks end-to-end metric {}",
                spec.name
            );
        }
        let other = run::run(&Options { seed: 7, ..opts }, &Untraced).unwrap();
        assert_ne!(
            first.sim_digest, other.sim_digest,
            "{name}: the seed does not reach the simulation"
        );
    }
}
