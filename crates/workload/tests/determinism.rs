//! The generators' core promise: a fixed seed produces byte-identical
//! op streams on every run, every backend consumes the *identical* stream
//! — NoFTL-KV and an in-memory ordered map, the reference its rows are
//! held against — and the Zipfian sampler's empirical skew tracks its
//! theta.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use flash_sim::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_core::kv::KvConfig;
use noftl_core::{NoFtl, NoFtlConfig, RegionSpec};
use noftl_workload::rng::{KeyedRng, Zipfian};
use noftl_workload::{
    load_phase, stream_digest, KvBackend, OpKind, Result, WorkloadBackend, YcsbSpec,
};
use proptest::prelude::*;

fn kv_stack() -> (KvBackend, SimTime) {
    let dev = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(dev, NoFtlConfig::default()));
    let rid = noftl
        .create_region(RegionSpec::named("rgYcsb").with_die_count(4))
        .expect("example device has 8 dies");
    let (backend, t) = KvBackend::create(noftl, rid, "ycsb", KvConfig::default(), SimTime::ZERO)
        .expect("fresh store");
    (backend, t)
}

/// The reference backend: an ordered map with the verbs' meaning and no
/// storage underneath (every op completes at its issue instant).
#[derive(Default)]
struct Model(RefCell<BTreeMap<Vec<u8>, Vec<u8>>>);

impl WorkloadBackend for Model {
    fn tag(&self) -> &'static str {
        "model"
    }

    fn insert(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        self.0.borrow_mut().insert(key.to_vec(), value.to_vec());
        Ok(at)
    }

    fn update(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        self.insert(key, value, at)
    }

    fn read(&self, key: &[u8], at: SimTime) -> Result<(bool, SimTime)> {
        Ok((self.0.borrow().contains_key(key), at))
    }

    fn delete(&self, key: &[u8], at: SimTime) -> Result<SimTime> {
        self.0.borrow_mut().remove(key);
        Ok(at)
    }

    fn scan(&self, start: &[u8], limit: usize, at: SimTime) -> Result<(usize, SimTime)> {
        Ok((self.0.borrow().range(start.to_vec()..).take(limit).count(), at))
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        Ok(at)
    }
}

/// What one backend made of a spec's stream.
#[derive(Debug)]
struct Consumed {
    /// Operations issued.
    ops: u64,
    /// Digest of the ops issued, in issue order.
    digest: u64,
    /// Rows each scan returned, in stream order.
    scan_rows: Vec<usize>,
}

/// Load `spec` into `backend`, then issue its stream closed-loop (each op
/// at the previous op's completion).
fn consume(spec: &YcsbSpec, backend: &dyn WorkloadBackend, at: SimTime) -> Consumed {
    let mut now = load_phase(spec, backend, at).expect("load");
    let (mut issued, mut scan_rows) = (Vec::new(), Vec::new());
    for op in spec.stream() {
        let (key, value) = (spec.key(op.key), spec.value_for(op.key));
        now = match op.kind {
            OpKind::Read => backend.read(&key, now).expect("read").1,
            OpKind::Update => backend.update(&key, &value, now).expect("update"),
            OpKind::Insert => backend.insert(&key, &value, now).expect("insert"),
            OpKind::Delete => backend.delete(&key, now).expect("delete"),
            OpKind::ReadModifyWrite => {
                let (_, read) = backend.read(&key, now).expect("read");
                backend.update(&key, &value, read).expect("update")
            }
            OpKind::Scan => {
                let (rows, done) = backend.scan(&key, op.scan_len as usize, now).expect("scan");
                scan_rows.push(rows);
                done
            }
        };
        issued.push(op);
    }
    Consumed { ops: issued.len() as u64, digest: stream_digest(issued), scan_rows }
}

fn run_kv(spec: &YcsbSpec) -> Consumed {
    let (backend, t) = kv_stack();
    consume(spec, &backend, t)
}

fn run_model(spec: &YcsbSpec) -> Consumed {
    consume(spec, &Model::default(), SimTime::ZERO)
}

/// Fixed seed ⇒ the generated op stream is byte-identical across
/// independent generations — the property CI gating leans on.
#[test]
fn fixed_seed_yields_byte_identical_streams() {
    let spec = YcsbSpec::core('A', 200, 400, 0xfeed).expect("A is core");
    let first: Vec<_> = spec.stream().collect();
    let second: Vec<_> = spec.stream().collect();
    assert_eq!(first, second);

    // A different seed really changes the stream.
    let other = YcsbSpec::core('A', 200, 400, 0xbeef).expect("A is core");
    let third: Vec<_> = other.stream().collect();
    assert_ne!(first, third);
}

/// KV and the model consume the *same* key stream (equal order-sensitive
/// digests), and every scan sees the same number of rows on both: KV's
/// merged scan against the ordered map.
#[test]
fn kv_and_the_model_consume_identical_streams() {
    for which in ['A', 'B', 'C', 'D', 'E', 'F'] {
        let spec = YcsbSpec::core(which, 150, 250, 0x5eed).expect("core workload");
        let kv = run_kv(&spec);
        let model = run_model(&spec);
        assert_eq!(kv.ops, spec.op_count, "workload {which}");
        assert_eq!(model.ops, spec.op_count, "workload {which}");
        assert_eq!(
            kv.digest, model.digest,
            "workload {which}: backends must consume identical streams"
        );
        assert_eq!(
            kv.scan_rows, model.scan_rows,
            "workload {which}: identical streams over identical data must scan identical rows"
        );
    }
}

/// The cross-backend stream equality extends to both other modes: the
/// scrambled-key rendering and the delete-bearing mix.  Deletes land on
/// both backends identically, so scans over the surviving rows agree —
/// which exercises the KV scan's drain-past-tombstones fill against the
/// model's tombstone-free reference.
#[test]
fn scrambled_and_delete_modes_match_across_backends() {
    let scrambled = YcsbSpec::core('A', 150, 250, 0x5eed).expect("core workload").scrambled();
    let deletes = YcsbSpec::core('E', 150, 250, 0xde1).expect("core workload").with_deletes(0.15);
    let scrambled_deletes = scrambled.clone().with_deletes(0.1);
    for (label, spec) in [
        ("scrambled A", &scrambled),
        ("E+deletes", &deletes),
        ("scrambled A+deletes", &scrambled_deletes),
    ] {
        let kv = run_kv(spec);
        let model = run_model(spec);
        assert_eq!(kv.ops, spec.op_count, "{label}");
        assert_eq!(kv.digest, model.digest, "{label}: backends must consume identical streams");
        assert_eq!(
            kv.scan_rows, model.scan_rows,
            "{label}: scans over identically-deleted data must see identical rows"
        );
    }
    // Scrambling really changes the consumed key space but not the op
    // stream shape: digests cover (kind, key id, scan_len), so the
    // scrambled and ordered runs share a digest yet touch different keys.
    let plain = YcsbSpec::core('A', 150, 250, 0x5eed).expect("core workload");
    assert_eq!(run_kv(&plain).digest, run_kv(&scrambled).digest);
}

/// Scans actually return rows (workload E is 95% scans).
#[test]
fn workload_e_scans_return_rows() {
    let spec = YcsbSpec::core('E', 150, 200, 0x0e).expect("E is core");
    let rows: usize = run_kv(&spec).scan_rows.iter().sum();
    assert!(rows > 0, "E must touch scanned rows, got {rows}");
}

/// More theta, more skew: the hottest rank's share grows monotonically.
#[test]
fn zipfian_skew_grows_with_theta() {
    let share = |theta: f64| {
        let mut rng = KeyedRng::new(0x51ef, "skew");
        let zipf = Zipfian::new(100, theta);
        let draws = 4000;
        let hot = (0..draws).filter(|_| zipf.next(&mut rng) == 0).count();
        hot as f64 / draws as f64
    };
    let (low, high) = (share(0.5), share(0.95));
    assert!(
        high > low + 0.02,
        "theta 0.95 should concentrate more than 0.5: {high:.3} vs {low:.3}"
    );
}

proptest! {
    /// The empirical frequency of the hottest rank matches the
    /// analytical `1/zeta` head probability for any theta in the range
    /// YCSB uses, within sampling tolerance.
    #[test]
    fn zipfian_head_matches_theta(theta_pct in 40u32..99, seed in any::<u64>()) {
        let theta = theta_pct as f64 / 100.0;
        let zipf = Zipfian::new(100, theta);
        let expected = zipf.top_probability();
        let mut rng = KeyedRng::new(seed, "zipf-prop");
        let draws = 4000u64;
        let hot = (0..draws).filter(|_| zipf.next(&mut rng) == 0).count();
        let empirical = hot as f64 / draws as f64;
        let tolerance = 0.25 * expected + 0.01;
        prop_assert!(
            (empirical - expected).abs() <= tolerance,
            "theta {}: empirical {:.4} vs analytical {:.4} (tolerance {:.4})",
            theta, empirical, expected, tolerance
        );
    }
}
