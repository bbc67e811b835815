//! The generators' core promise: a fixed seed produces byte-identical
//! op streams on every run, every backend consumes the *identical* stream
//! — NoFTL-KV and an in-memory ordered map, the reference its rows are
//! held against — and the Zipfian sampler's empirical skew tracks its
//! theta.  `KvBackend`'s delete and scan, which no mix issues, are held
//! against the same map.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use flash_sim::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_core::kv::KvConfig;
use noftl_core::{NoFtl, NoFtlConfig, RegionSpec};
use noftl_workload::rng::{KeyedRng, Zipfian};
use noftl_workload::{
    key_bytes, load_phase, stream_digest, KvBackend, OpKind, Result, WorkloadBackend, YcsbSpec,
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
    /// Reads that found their key.
    hits: u64,
}

/// Load `spec` into `backend`, then issue its stream closed-loop (each op
/// at the previous op's completion).
fn consume(spec: &YcsbSpec, backend: &dyn WorkloadBackend, at: SimTime) -> Consumed {
    let mut now = load_phase(spec, backend, at).expect("load");
    let (mut issued, mut hits) = (Vec::new(), 0);
    for op in spec.stream() {
        let key = spec.key(op.key);
        now = match op.kind {
            OpKind::Read => {
                let (found, done) = backend.read(&key, now).expect("read");
                hits += u64::from(found);
                done
            }
            OpKind::Update => backend.update(&key, &spec.value_for(op.key), now).expect("update"),
            other => panic!("no mix emits {other:?}"),
        };
        issued.push(op);
    }
    Consumed { ops: issued.len() as u64, digest: stream_digest(issued), hits }
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
/// digests), and every read finds its loaded key on both.
#[test]
fn kv_and_the_model_consume_identical_streams() {
    for which in ['A', 'B', 'C'] {
        let spec = YcsbSpec::core(which, 150, 250, 0x5eed).expect("core workload");
        let (backend, t) = kv_stack();
        let kv = consume(&spec, &backend, t);
        let model = consume(&spec, &Model::default(), SimTime::ZERO);
        assert_eq!(kv.ops, spec.op_count, "workload {which}");
        assert_eq!(model.ops, spec.op_count, "workload {which}");
        assert_eq!(
            kv.digest, model.digest,
            "workload {which}: backends must consume identical streams"
        );
        let reads = spec.stream().filter(|op| op.kind == OpKind::Read).count() as u64;
        assert_eq!((kv.hits, model.hits), (reads, reads), "workload {which}");
    }
}

/// `KvBackend`'s delete and bounded scan, which no mix issues, against
/// the model: a fixed script of inserts (one flush in between, so the
/// scans merge a run with the memtable), deletes — one of an absent key —
/// and re-inserts, scanned at several starts and limits, sees the same
/// rows on both.
#[test]
fn kv_scans_and_deletes_match_the_model() {
    fn script(backend: &dyn WorkloadBackend, mut now: SimTime) -> Vec<usize> {
        let value = [b'v'; 100];
        let mut rows = Vec::new();
        let mut scans = |mut now: SimTime| {
            for (start, limit) in [(0, 10), (47, 25), (190, 50), (0, usize::MAX)] {
                let (seen, done) = backend.scan(&key_bytes(start), limit, now).expect("scan");
                rows.push(seen);
                now = done;
            }
            now
        };
        for id in 0..200 {
            now = backend.insert(&key_bytes(id), &value, now).expect("insert");
            if id == 120 {
                now = backend.flush(now).expect("flush");
            }
        }
        now = scans(now);
        for id in (0..200).step_by(3).chain([1_000]) {
            now = backend.delete(&key_bytes(id), now).expect("delete");
        }
        now = scans(now);
        for id in (0..60).step_by(6) {
            now = backend.insert(&key_bytes(id), &value, now).expect("re-insert");
        }
        scans(now);
        rows
    }
    let (backend, t) = kv_stack();
    let kv = script(&backend, t);
    let model = script(&Model::default(), SimTime::ZERO);
    assert_eq!(kv, model);
    // 200 keys; 67 deleted; 10 of them back.
    assert_eq!([model[3], model[7], model[11]], [200, 133, 143]);
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
