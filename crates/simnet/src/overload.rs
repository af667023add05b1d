//! Overload-protection primitives: admission gates, retry budgets and
//! circuit breakers.
//!
//! Three small deterministic state machines, shared by every tier that
//! answers requests or retries them:
//!
//! * [`AdmissionGate`] — a leaky-bucket admission controller bounding
//!   the work a server accepts. Requests past the bound are *shed*
//!   with a `Retry-After` hint instead of queued without limit, so an
//!   overloaded endpoint answers cheaply instead of collapsing.
//! * [`RetryBudget`] — a shared token bucket capping the *global*
//!   retry volume of a client population, so correlated failure decays
//!   into budget exhaustion instead of a retry storm.
//! * [`CircuitBreaker`] — a per-target closed/open/half-open breaker
//!   driven by both error rate and latency (a slow target is as broken
//!   as a dead one: gray failure), with single-probe half-open
//!   recovery.
//!
//! All three are driven exclusively by [`SimTime`] so behaviour is
//! deterministic and replayable; metric emission goes through the
//! caller-supplied [`Registry`] under the `admission.*` / `breaker.*`
//! names inventoried in `docs/metrics.txt`.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use telemetry::metrics::{CounterHandle, GaugeHandle, Registry};

use crate::time::{SimDuration, SimTime};

/// Outcome of [`AdmissionGate::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// The request is admitted; serve it.
    Admitted,
    /// The request is shed; answer a cheap 503 carrying `retry_after`.
    Shed {
        /// How long the client should wait before retrying: the time
        /// until the bucket drains below capacity.
        retry_after: SimDuration,
    },
}

/// A leaky-bucket admission controller for one endpoint.
///
/// Each admitted request adds one unit to the bucket; the bucket
/// drains at `drain_per_sec` (the endpoint's sustainable service
/// rate). Once the level reaches `capacity` (the queue bound), further
/// requests are shed until the bucket drains.
///
/// ```
/// use simnet::overload::{Admission, AdmissionGate};
/// use simnet::telemetry::metrics::Registry;
/// use simnet::SimTime;
///
/// let metrics = Registry::new();
/// // Bound of 2 outstanding requests, draining 1/s.
/// let mut gate = AdmissionGate::new(2, 1.0);
/// let t = SimTime::ZERO;
/// assert_eq!(gate.try_admit(t, &metrics), Admission::Admitted);
/// assert_eq!(gate.try_admit(t, &metrics), Admission::Admitted);
/// assert!(matches!(gate.try_admit(t, &metrics), Admission::Shed { .. }));
/// // A second later one unit has drained and a slot is free again.
/// let later = SimTime::from_secs(1);
/// assert_eq!(gate.try_admit(later, &metrics), Admission::Admitted);
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    capacity: u64,
    drain_per_sec: f64,
    level: f64,
    last: SimTime,
    admitted: u64,
    shed: u64,
    /// Resolved from the registry of the first
    /// [`try_admit`](AdmissionGate::try_admit); a gate serves one node,
    /// so it only ever sees that node's registry.
    series: OnceCell<GateSeries>,
}

#[derive(Debug, Clone)]
struct GateSeries {
    admitted: CounterHandle,
    shed: CounterHandle,
    depth: GaugeHandle,
}

impl AdmissionGate {
    /// A gate admitting at most `capacity` queued units, draining at
    /// `drain_per_sec` units per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `drain_per_sec` is not positive.
    pub fn new(capacity: u64, drain_per_sec: f64) -> Self {
        assert!(capacity > 0, "admission capacity must be positive");
        assert!(drain_per_sec > 0.0, "drain rate must be positive");
        AdmissionGate {
            capacity,
            drain_per_sec,
            level: 0.0,
            last: SimTime::ZERO,
            admitted: 0,
            shed: 0,
            series: OnceCell::new(),
        }
    }

    fn drain(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last).as_secs_f64();
        self.last = self.last.max(now);
        self.level = (self.level - elapsed * self.drain_per_sec).max(0.0);
    }

    /// Admits or sheds one request at `now`, counting the outcome as
    /// `admission.admitted` / `admission.shed` in `metrics`.
    pub fn try_admit(&mut self, now: SimTime, metrics: &Registry) -> Admission {
        self.drain(now);
        let series = self.series.get_or_init(|| GateSeries {
            admitted: metrics.counter_handle("admission.admitted"),
            shed: metrics.counter_handle("admission.shed"),
            depth: metrics.gauge_handle("admission.depth"),
        });
        let outcome = if self.level + 1.0 <= self.capacity as f64 {
            self.level += 1.0;
            self.admitted += 1;
            series.admitted.incr();
            Admission::Admitted
        } else {
            self.shed += 1;
            series.shed.incr();
            // Wait until enough has drained that one more unit fits.
            let overflow = self.level + 1.0 - self.capacity as f64;
            let secs = overflow / self.drain_per_sec;
            Admission::Shed {
                retry_after: SimDuration::from_nanos((secs * 1e9).ceil() as u64),
            }
        };
        series.depth.set(self.level);
        outcome
    }
}

#[derive(Debug)]
struct BudgetInner {
    tokens: f64,
    max_tokens: f64,
    refill_per_sec: f64,
    last: SimTime,
    exhausted: u64,
}

/// A shared token bucket bounding fleet-wide retry volume.
///
/// Every retry must claim one token; the bucket refills at
/// `refill_per_sec` up to `max_tokens`. Clones share state, so one
/// budget can be handed to many [`rpc::RequestTracker`]s and the cap
/// holds across all of them — under correlated failure the fleet's
/// retries stop at the budget instead of storming the network.
///
/// ```
/// use simnet::overload::RetryBudget;
/// use simnet::rpc::RequestTracker;
///
/// let budget = RetryBudget::new(2.0, 1.0);
/// let (mut a, mut b) = (RequestTracker::new(0), RequestTracker::new(1 << 32));
/// a.set_retry_budget(budget.clone());
/// b.set_retry_budget(budget.clone());
/// assert_eq!(budget.exhausted(), 0); // no retry has been refused yet
/// ```
///
/// [`rpc::RequestTracker`]: crate::rpc::RequestTracker
#[derive(Debug, Clone)]
pub struct RetryBudget {
    inner: Arc<Mutex<BudgetInner>>,
}

impl RetryBudget {
    /// A budget holding at most `max_tokens`, refilling at
    /// `refill_per_sec` tokens per second. Starts full.
    ///
    /// # Panics
    ///
    /// Panics if `max_tokens` or `refill_per_sec` is not positive.
    pub fn new(max_tokens: f64, refill_per_sec: f64) -> Self {
        assert!(max_tokens > 0.0, "budget must be positive");
        assert!(refill_per_sec > 0.0, "refill rate must be positive");
        RetryBudget {
            inner: Arc::new(Mutex::new(BudgetInner {
                tokens: max_tokens,
                max_tokens,
                refill_per_sec,
                last: SimTime::ZERO,
                exhausted: 0,
            })),
        }
    }

    /// Claims one retry token at `now`. Returns `false` (and counts
    /// the exhaustion) when the budget is empty.
    pub(crate) fn try_claim(&self, now: SimTime) -> bool {
        let mut g = self.inner.lock().unwrap();
        let elapsed = now.saturating_since(g.last).as_secs_f64();
        g.last = g.last.max(now);
        g.tokens = (g.tokens + elapsed * g.refill_per_sec).min(g.max_tokens);
        if g.tokens >= 1.0 {
            g.tokens -= 1.0;
            true
        } else {
            g.exhausted += 1;
            false
        }
    }

    /// Tokens currently available (after refilling to `now`).
    pub(crate) fn tokens(&self, now: SimTime) -> f64 {
        let mut g = self.inner.lock().unwrap();
        let elapsed = now.saturating_since(g.last).as_secs_f64();
        g.last = g.last.max(now);
        g.tokens = (g.tokens + elapsed * g.refill_per_sec).min(g.max_tokens);
        g.tokens
    }

    /// Claims denied over the budget's lifetime.
    pub fn exhausted(&self) -> u64 {
        self.inner.lock().unwrap().exhausted
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes are sampled into the rolling window.
    Closed,
    /// Traffic is rejected until the cool-down elapses.
    Open,
    /// One probe request at a time is allowed through.
    HalfOpen,
}

/// Trip and recovery thresholds of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Rolling outcome-window length.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Error fraction in the window that trips the breaker.
    pub error_threshold: f64,
    /// A success slower than this counts as *slow* (gray failure).
    pub latency_threshold: SimDuration,
    /// Slow fraction in the window that trips the breaker.
    pub slow_threshold: f64,
    /// Cool-down in the open state before half-open probing.
    pub open_for: SimDuration,
    /// Probe successes required to close from half-open.
    pub probes_to_close: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 20,
            min_samples: 8,
            error_threshold: 0.5,
            latency_threshold: SimDuration::from_secs(1),
            slow_threshold: 0.5,
            open_for: SimDuration::from_secs(10),
            probes_to_close: 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Outcome {
    ok: bool,
    slow: bool,
}

/// A per-target circuit breaker with latency awareness.
///
/// Closed → open when the rolling window shows too many errors *or*
/// too many slow successes; open → half-open after the cool-down;
/// half-open admits exactly one probe at a time, closing after
/// `probes_to_close` consecutive probe successes and reopening on any
/// probe failure.
///
/// ```
/// use simnet::overload::{BreakerConfig, BreakerState, CircuitBreaker};
/// use simnet::telemetry::metrics::Registry;
/// use simnet::{SimDuration, SimTime};
///
/// let metrics = Registry::new();
/// let mut b = CircuitBreaker::new(BreakerConfig {
///     window: 4,
///     min_samples: 4,
///     ..BreakerConfig::default()
/// });
/// let t = SimTime::ZERO;
/// for _ in 0..4 {
///     assert!(b.allow(t, &metrics));
///     b.record_failure(t, &metrics);
/// }
/// assert_eq!(b.state(), BreakerState::Open);
/// assert!(!b.allow(t, &metrics));
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    outcomes: VecDeque<Outcome>,
    opened_at: SimTime,
    probe_inflight: bool,
    probe_successes: u32,
    trips: u64,
    /// `breaker.rejected` is written per refused request, so it goes
    /// through a handle (resolved on first use, like
    /// [`AdmissionGate`]'s); state transitions are rare and by-name.
    rejected: OnceCell<CounterHandle>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            outcomes: VecDeque::with_capacity(config.window),
            opened_at: SimTime::ZERO,
            probe_inflight: false,
            probe_successes: 0,
            trips: 0,
            rejected: OnceCell::new(),
        }
    }

    /// Current state (after any cool-down transition would apply on
    /// the next [`CircuitBreaker::allow`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a request may be sent to the target at `now`. Rejections
    /// count as `breaker.rejected`.
    pub fn allow(&mut self, now: SimTime, metrics: &Registry) -> bool {
        let rejected = self
            .rejected
            .get_or_init(|| metrics.counter_handle("breaker.rejected"));
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.saturating_since(self.opened_at) >= self.config.open_for {
                    self.state = BreakerState::HalfOpen;
                    self.probe_inflight = true;
                    self.probe_successes = 0;
                    metrics.incr("breaker.half_open");
                    true
                } else {
                    rejected.incr();
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    rejected.incr();
                    false
                } else {
                    self.probe_inflight = true;
                    true
                }
            }
        }
    }

    /// Records a successful request that took `latency`, counted as
    /// slow when it exceeds the configured threshold.
    pub fn record_success(&mut self, now: SimTime, latency: SimDuration, metrics: &Registry) {
        let slow = latency > self.config.latency_threshold;
        match self.state {
            BreakerState::Closed => {
                self.push(Outcome { ok: true, slow });
                self.maybe_trip(now, metrics);
            }
            BreakerState::HalfOpen => {
                self.probe_inflight = false;
                if slow {
                    // A slow probe is not a recovery: reopen.
                    self.trip(now, metrics);
                } else {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.config.probes_to_close {
                        self.state = BreakerState::Closed;
                        self.outcomes.clear();
                        metrics.incr("breaker.close");
                    }
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a failed (errored or timed-out) request.
    pub fn record_failure(&mut self, now: SimTime, metrics: &Registry) {
        match self.state {
            BreakerState::Closed => {
                self.push(Outcome {
                    ok: false,
                    slow: false,
                });
                self.maybe_trip(now, metrics);
            }
            BreakerState::HalfOpen => {
                self.probe_inflight = false;
                self.trip(now, metrics);
            }
            BreakerState::Open => {}
        }
    }

    fn push(&mut self, outcome: Outcome) {
        if self.outcomes.len() == self.config.window {
            self.outcomes.pop_front();
        }
        self.outcomes.push_back(outcome);
    }

    fn maybe_trip(&mut self, now: SimTime, metrics: &Registry) {
        let n = self.outcomes.len();
        if n < self.config.min_samples {
            return;
        }
        let errors = self.outcomes.iter().filter(|o| !o.ok).count() as f64;
        let slow = self.outcomes.iter().filter(|o| o.ok && o.slow).count() as f64;
        let n = n as f64;
        if errors / n >= self.config.error_threshold || slow / n >= self.config.slow_threshold {
            self.trip(now, metrics);
        }
    }

    fn trip(&mut self, now: SimTime, metrics: &Registry) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.outcomes.clear();
        self.probe_inflight = false;
        self.probe_successes = 0;
        self.trips += 1;
        metrics.incr("breaker.open");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;

    fn metrics() -> Registry {
        Registry::new()
    }

    #[test]
    fn gate_sheds_past_capacity_and_recovers_by_draining() {
        let m = metrics();
        let mut gate = AdmissionGate::new(4, 2.0);
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            assert_eq!(gate.try_admit(t0, &m), Admission::Admitted);
        }
        let Admission::Shed { retry_after } = gate.try_admit(t0, &m) else {
            panic!("fifth request must shed");
        };
        // Level 4, capacity 4, drain 2/s: one unit frees in 0.5 s.
        assert_eq!(retry_after, SimDuration::from_millis(500));
        assert_eq!(gate.try_admit(t0 + retry_after, &m), Admission::Admitted);
        assert_eq!(gate.admitted, 5);
        assert_eq!(gate.shed, 1);
        assert_eq!(m.counter("admission.admitted"), 5);
        assert_eq!(m.counter("admission.shed"), 1);
    }

    #[test]
    fn gate_conserves_offered_into_admitted_plus_shed() {
        let m = metrics();
        let mut gate = AdmissionGate::new(8, 100.0);
        let mut rng = DeterministicRng::seed_from(0x0AD1);
        let mut offered = 0u64;
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            t += SimDuration::from_micros(rng.next_bounded(20_000));
            offered += 1;
            gate.try_admit(t, &m);
        }
        assert_eq!(gate.admitted + gate.shed, offered);
        assert!(gate.shed > 0, "offered load above drain rate must shed");
        assert!(gate.admitted > 0);
    }

    #[test]
    fn budget_is_shared_across_clones_and_never_overdrawn() {
        // Property: under N concurrent claimants hammering clones of
        // one budget, total claims granted within any interval never
        // exceed max_tokens + refill over that interval.
        for seed in 0..20u64 {
            let mut rng = DeterministicRng::seed_from(0xB0D6 ^ seed);
            let max = 1.0 + rng.next_bounded(16) as f64;
            let rate = 0.5 + rng.next_f64() * 8.0;
            let budget = RetryBudget::new(max, rate);
            let claimants: Vec<RetryBudget> = (0..8).map(|_| budget.clone()).collect();
            let mut granted = 0u64;
            let mut t = SimTime::ZERO;
            let horizon = SimDuration::from_secs(20);
            while t.saturating_since(SimTime::ZERO) < horizon {
                let who = rng.next_bounded(claimants.len() as u64) as usize;
                if claimants[who].try_claim(t) {
                    granted += 1;
                }
                t += SimDuration::from_millis(rng.next_bounded(100));
            }
            let elapsed = t.as_secs_f64();
            let ceiling = max + rate * elapsed;
            assert!(
                (granted as f64) <= ceiling + 1e-6,
                "seed {seed}: granted {granted} > ceiling {ceiling}"
            );
            assert!(budget.exhausted() > 0, "seed {seed}: load must exhaust");
        }
    }

    #[test]
    fn budget_refills_to_cap_only() {
        let budget = RetryBudget::new(3.0, 1.0);
        for _ in 0..3 {
            assert!(budget.try_claim(SimTime::ZERO));
        }
        assert!(!budget.try_claim(SimTime::ZERO));
        // A long quiet period refills to the cap, not beyond.
        let later = SimTime::from_secs(1000);
        assert!((budget.tokens(later) - 3.0).abs() < 1e-9);
    }

    fn quick_breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window: 8,
            min_samples: 4,
            error_threshold: 0.5,
            latency_threshold: SimDuration::from_millis(100),
            slow_threshold: 0.5,
            open_for: SimDuration::from_secs(5),
            probes_to_close: 2,
        })
    }

    #[test]
    fn breaker_trips_on_errors_probes_then_closes() {
        let m = metrics();
        let mut b = quick_breaker();
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            assert!(b.allow(t0, &m));
            b.record_failure(t0, &m);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(t0 + SimDuration::from_secs(1), &m));
        // Cool-down elapses: exactly one probe at a time.
        let t1 = t0 + SimDuration::from_secs(5);
        assert!(b.allow(t1, &m));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(t1, &m), "second concurrent probe refused");
        b.record_success(t1, SimDuration::from_millis(1), &m);
        assert!(b.allow(t1, &m));
        b.record_success(t1, SimDuration::from_millis(1), &m);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn breaker_trips_on_slow_successes() {
        let m = metrics();
        let mut b = quick_breaker();
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            assert!(b.allow(t0, &m));
            b.record_success(t0, SimDuration::from_secs(2), &m);
        }
        assert_eq!(b.state(), BreakerState::Open, "gray failure must trip");
    }

    #[test]
    fn breaker_probe_failure_reopens() {
        let m = metrics();
        let mut b = quick_breaker();
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            b.allow(t0, &m);
            b.record_failure(t0, &m);
        }
        let t1 = t0 + SimDuration::from_secs(5);
        assert!(b.allow(t1, &m));
        b.record_failure(t1, &m);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2);
        assert!(!b.allow(t1 + SimDuration::from_secs(1), &m));
    }

    #[test]
    fn breaker_state_machine_invariants_under_random_sequences() {
        // Property sweep standing in for a proptest harness: across
        // many random error/latency sequences the breaker (1) never
        // admits while open and inside the cool-down, (2) admits at
        // most one concurrent probe in half-open, and (3) only reaches
        // closed from half-open via probes_to_close successes.
        for seed in 0..64u64 {
            let m = metrics();
            let mut rng = DeterministicRng::seed_from(0xC1BC ^ (seed * 0x9E37));
            let config = BreakerConfig {
                window: 4 + rng.next_bounded(12) as usize,
                min_samples: 2 + rng.next_bounded(4) as usize,
                error_threshold: 0.3 + rng.next_f64() * 0.5,
                latency_threshold: SimDuration::from_millis(50 + rng.next_bounded(200)),
                slow_threshold: 0.3 + rng.next_f64() * 0.5,
                open_for: SimDuration::from_secs(1 + rng.next_bounded(10)),
                probes_to_close: 1 + rng.next_bounded(3) as u32,
            };
            let mut b = CircuitBreaker::new(config);
            let mut t = SimTime::ZERO;
            let mut inflight_probes = 0u32;
            let mut opened_at = SimTime::ZERO;
            for _ in 0..400 {
                t += SimDuration::from_millis(rng.next_bounded(2_000));
                let before = b.state();
                let allowed = b.allow(t, &m);
                match before {
                    BreakerState::Open => {
                        if allowed {
                            assert!(
                                t.saturating_since(opened_at) >= config.open_for,
                                "seed {seed}: served inside the cool-down"
                            );
                            assert_eq!(b.state(), BreakerState::HalfOpen);
                            inflight_probes = 1;
                        }
                    }
                    BreakerState::HalfOpen => {
                        if allowed {
                            inflight_probes += 1;
                        }
                        assert!(
                            inflight_probes <= 1,
                            "seed {seed}: more than one concurrent half-open probe"
                        );
                    }
                    BreakerState::Closed => assert!(allowed, "seed {seed}: closed must admit"),
                }
                if !allowed {
                    continue;
                }
                let in_probe = b.state() == BreakerState::HalfOpen;
                let trips_before = b.trips;
                if rng.chance(0.4) {
                    b.record_failure(t, &m);
                } else {
                    let latency = SimDuration::from_millis(rng.next_bounded(500));
                    b.record_success(t, latency, &m);
                }
                if in_probe {
                    inflight_probes = 0;
                }
                if b.trips > trips_before {
                    opened_at = t;
                }
            }
        }
    }
}
