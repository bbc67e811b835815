//! Service classes and the cross-region I/O arbiter's admission state.
//!
//! The paper's region abstraction lets the DBMS tell the flash layer what
//! an I/O *is for*; this module gives that intent a vocabulary.  Every
//! submitted command carries an [`IoTag`] naming its [`ServiceClass`] and
//! originating region, and an arbiter-enabled device runs each
//! `Background`-class channel transfer through a per-`(region, channel)`
//! [`TokenBucket`] before scheduling it:
//!
//! * the bucket holds *channel busy-nanoseconds*, refilled in simulated
//!   time at [`ArbiterConfig::background_fraction`] ns of budget per ns of
//!   sim time, capped at one window's worth of burst;
//! * a transfer that overdraws the bucket is **deferred** — issued later
//!   by exactly the refill time its deficit needs — so a compaction or GC
//!   burst spreads over the window instead of occupying the channel as
//!   one contiguous block;
//! * deferral is bounded by [`ArbiterConfig::max_defer_ns`] (anti-starvation
//!   aging): a `Background` op never waits longer than the aging window,
//!   no matter how saturated the channel budget is.
//!
//! Foreground (`Latency`/`Throughput`) and [`IoTag::exempt`] traffic is
//! never metered.  Pacing is all the arbiter does: the channel time a
//! deferral leaves idle is ordinary free time on the channel's occupancy
//! timeline, which every transfer — any class, arbiter on or off — may
//! claim (first fit into idle windows is the device's one reservation
//! rule, see the `sched` module).  With the arbiter disabled every tag is
//! ignored and scheduling is byte-identical to the untagged path.

use crate::time::SimTime;

/// Priority class of one submitted flash command.
///
/// The class travels with the command down the device's issue path; the
/// region layer above resolves it from the region's spec (or the
/// manager-wide default) and overrides it for maintenance I/O (GC
/// relocation, compaction merges, rebuild copies are `Background`
/// regardless of the region's class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceClass {
    /// Tail-latency sensitive (OLTP point I/O): never metered.
    Latency,
    /// Ordinary throughput-oriented traffic — the default.
    #[default]
    Throughput,
    /// Maintenance traffic (GC, compaction, rebuild): subject to the
    /// per-region channel-bandwidth budget.
    Background,
}

impl ServiceClass {
    /// Every class, in codec/slot order.
    pub const ALL: [ServiceClass; 3] =
        [ServiceClass::Latency, ServiceClass::Throughput, ServiceClass::Background];

    /// Stable lower-case name (metric fragments, DDL rendering).
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Latency => "latency",
            ServiceClass::Throughput => "throughput",
            ServiceClass::Background => "background",
        }
    }

    /// Parse a DDL-style class name (case-insensitive).
    pub fn parse(s: &str) -> Option<ServiceClass> {
        match s.to_ascii_lowercase().as_str() {
            "latency" => Some(ServiceClass::Latency),
            "throughput" => Some(ServiceClass::Throughput),
            "background" => Some(ServiceClass::Background),
            _ => None,
        }
    }

    /// Stable codec byte (checkpoint persistence).
    pub fn code(self) -> u8 {
        match self {
            ServiceClass::Latency => 0,
            ServiceClass::Throughput => 1,
            ServiceClass::Background => 2,
        }
    }

    /// Inverse of [`ServiceClass::code`].
    pub fn from_code(code: u8) -> Option<ServiceClass> {
        match code {
            0 => Some(ServiceClass::Latency),
            1 => Some(ServiceClass::Throughput),
            2 => Some(ServiceClass::Background),
            _ => None,
        }
    }

    /// Dense slot index (obs arrays).
    pub fn slot(self) -> usize {
        self.code() as usize
    }
}

/// Per-command arbiter tag: who is doing this I/O and how it should be
/// treated.  The default tag (`Throughput`, no region, not exempt)
/// reproduces pre-arbiter behavior on every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoTag {
    /// Priority class.
    pub class: ServiceClass,
    /// Originating region id (`None` for raw-device traffic); the bucket
    /// key, so each region is budgeted independently per channel.
    pub region: Option<u32>,
    /// Exempt from budget throttling regardless of class — durability
    /// traffic (metadata-journal and checkpoint writes) is never deferred.
    pub exempt: bool,
}

impl IoTag {
    /// Tag for regular traffic of `class` from `region`.
    pub fn new(class: ServiceClass, region: Option<u32>) -> Self {
        IoTag { class, region, exempt: false }
    }

    /// Background (maintenance) traffic from `region`.
    pub fn background(region: Option<u32>) -> Self {
        IoTag { class: ServiceClass::Background, region, exempt: false }
    }

    /// Durability traffic: never metered, whatever its class.
    pub fn durability(class: ServiceClass, region: Option<u32>) -> Self {
        IoTag { class, region, exempt: true }
    }
}

/// Tuning of the device-level arbiter.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterConfig {
    /// Fraction of each channel's bandwidth one region's `Background`
    /// traffic may consume, as ns of channel busy time per ns of
    /// simulated time (also the bucket refill rate).
    pub background_fraction: f64,
    /// Budget accounting window: the bucket's burst capacity is
    /// `window_ns * background_fraction` busy-ns.
    pub window_ns: u64,
    /// Anti-starvation aging bound: a metered transfer is never deferred
    /// past this many ns after its issue time.
    pub max_defer_ns: u64,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig { background_fraction: 0.35, window_ns: 1_000_000, max_defer_ns: 2_000_000 }
    }
}

impl ArbiterConfig {
    /// The bucket's burst capacity in busy-ns.
    pub fn burst_ns(&self) -> f64 {
        self.window_ns as f64 * self.background_fraction
    }
}

/// Verdict of one token-bucket admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// When the op may issue (`>= at`; equals `at` when not deferred).
    pub issue: SimTime,
    /// Whether the budget pushed the op later than its issue time.
    pub deferred: bool,
    /// Whether the deferral was clipped by the aging bound.
    pub aged: bool,
}

/// One region's channel-bandwidth budget on one channel.
///
/// Tokens are channel busy-nanoseconds.  The bucket may go into debt down
/// to one burst below zero — a deferred op spends its full cost at its
/// deferred issue time — which keeps a saturating background stream paced
/// at the configured fraction instead of letting each op individually
/// wait out the whole deficit.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A fresh bucket holding a full burst.
    pub fn new(config: &ArbiterConfig) -> Self {
        TokenBucket { tokens: config.burst_ns(), last: SimTime::ZERO }
    }

    /// Current token balance (busy-ns; negative = in debt).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Admit a transfer costing `cost_ns` of channel busy time at `at`.
    ///
    /// Refills the bucket for the simulated time elapsed since the last
    /// admission, then either issues immediately (balance covers the
    /// cost) or defers by the refill time the deficit needs, clipped at
    /// [`ArbiterConfig::max_defer_ns`].  The cost is always spent; the
    /// balance is clamped at one burst of debt.
    pub fn admit(&mut self, config: &ArbiterConfig, at: SimTime, cost_ns: u64) -> Admission {
        let rate = config.background_fraction.max(1e-9);
        let burst = config.burst_ns();
        if at > self.last {
            let elapsed = (at.as_nanos() - self.last.as_nanos()) as f64;
            self.tokens = (self.tokens + elapsed * rate).min(burst);
            self.last = at;
        }
        let cost = cost_ns as f64;
        if self.tokens >= cost {
            self.tokens -= cost;
            return Admission { issue: at, deferred: false, aged: false };
        }
        // The op becomes affordable at the bucket's pacing horizon:
        // `last` plus the refill time of the deficit.  Advancing `last`
        // to the deferred issue below is what makes a same-instant burst
        // stack — each successive overdraw paces `cost/rate` after the
        // previous one instead of re-measuring from `at`.
        let deficit = cost - self.tokens;
        let ready = self.last.as_nanos() + (deficit / rate).ceil() as u64;
        let wait = ready.saturating_sub(at.as_nanos());
        let aged = wait > config.max_defer_ns;
        let wait = wait.min(config.max_defer_ns);
        let issue = SimTime(at.as_nanos() + wait);
        if issue > self.last {
            let elapsed = (issue.as_nanos() - self.last.as_nanos()) as f64;
            self.tokens = (self.tokens + elapsed * rate).min(burst);
            self.last = issue;
        }
        self.tokens = (self.tokens - cost).max(-burst);
        Admission { issue, deferred: wait > 0, aged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ArbiterConfig {
        ArbiterConfig { background_fraction: 0.5, window_ns: 1_000, max_defer_ns: 10_000 }
    }

    #[test]
    fn class_codec_roundtrips_and_parses() {
        for class in ServiceClass::ALL {
            assert_eq!(ServiceClass::from_code(class.code()), Some(class));
            assert_eq!(ServiceClass::parse(class.name()), Some(class));
            assert_eq!(ServiceClass::parse(&class.name().to_ascii_uppercase()), Some(class));
        }
        assert_eq!(ServiceClass::from_code(9), None);
        assert_eq!(ServiceClass::parse("bogus"), None);
        assert_eq!(ServiceClass::default(), ServiceClass::Throughput);
        assert_eq!(IoTag::default().class, ServiceClass::Throughput);
        assert!(!IoTag::default().exempt);
        assert!(IoTag::durability(ServiceClass::Throughput, Some(3)).exempt);
    }

    #[test]
    fn bucket_admits_within_burst_then_defers() {
        let cfg = config(); // burst = 500 busy-ns
        let mut b = TokenBucket::new(&cfg);
        // Two 200-ns transfers fit the burst, issued immediately.
        assert_eq!(b.admit(&cfg, SimTime::ZERO, 200).issue, SimTime::ZERO);
        assert_eq!(b.admit(&cfg, SimTime::ZERO, 200).issue, SimTime::ZERO);
        // The third overdraws: deficit 100 at rate 0.5 → 200 ns deferral.
        let a = b.admit(&cfg, SimTime::ZERO, 200);
        assert!(a.deferred && !a.aged);
        assert_eq!(a.issue, SimTime(200));
    }

    #[test]
    fn same_instant_burst_paces_at_the_refill_rate() {
        let cfg = config(); // rate 0.5 busy-ns per ns
        let mut b = TokenBucket::new(&cfg);
        assert!(!b.admit(&cfg, SimTime::ZERO, 500).deferred); // drain the burst
                                                              // Each further same-instant op stacks cost/rate after the previous
                                                              // one — the burst spreads over the window instead of re-measuring
                                                              // its deferral from the (unchanged) submission time.
        assert_eq!(b.admit(&cfg, SimTime::ZERO, 100).issue, SimTime(200));
        assert_eq!(b.admit(&cfg, SimTime::ZERO, 100).issue, SimTime(400));
        assert_eq!(b.admit(&cfg, SimTime::ZERO, 100).issue, SimTime(600));
    }

    #[test]
    fn bucket_refills_in_simulated_time() {
        let cfg = config();
        let mut b = TokenBucket::new(&cfg);
        assert!(!b.admit(&cfg, SimTime::ZERO, 500).deferred); // drain the burst
                                                              // 1000 ns later the bucket refilled 500 busy-ns (back to burst cap).
        let a = b.admit(&cfg, SimTime(1_000), 500);
        assert!(!a.deferred, "refilled bucket admits immediately");
        // Refill never exceeds the burst: an immediate second op defers.
        assert!(b.admit(&cfg, SimTime(1_000), 500).deferred);
    }

    #[test]
    fn deferral_is_clipped_by_the_aging_bound() {
        let cfg = ArbiterConfig { background_fraction: 0.01, window_ns: 1_000, max_defer_ns: 300 };
        let mut b = TokenBucket::new(&cfg);
        // Burst is 10 busy-ns; a 500-ns transfer would need 49_000 ns of
        // refill — the aging bound clips it to 300.
        let a = b.admit(&cfg, SimTime::ZERO, 500);
        assert!(a.deferred && a.aged);
        assert_eq!(a.issue, SimTime(300));
    }

    #[test]
    fn debt_is_clamped_to_one_burst() {
        let cfg = config();
        let mut b = TokenBucket::new(&cfg);
        for _ in 0..50 {
            let a = b.admit(&cfg, SimTime::ZERO, 400);
            assert!(a.issue.as_nanos() <= cfg.max_defer_ns, "deferral bounded");
        }
        assert!(b.tokens() >= -cfg.burst_ns() - 1e-9, "debt clamped at one burst");
    }

    #[test]
    fn out_of_order_issue_times_never_refill_backwards() {
        let cfg = config();
        let mut b = TokenBucket::new(&cfg);
        b.admit(&cfg, SimTime(10_000), 500);
        let before = b.tokens();
        // An earlier-timestamped admission must not produce a negative
        // elapsed refill.
        b.admit(&cfg, SimTime(5_000), 100);
        assert!(b.tokens() <= before, "no retroactive refill");
    }
}
