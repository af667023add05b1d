//! Overload-protection primitives: admission gates and circuit
//! breakers.
//!
//! Two small deterministic state machines, shared by every tier that
//! answers requests or sends them:
//!
//! * [`AdmissionGate`] — a leaky-bucket admission controller bounding
//!   the work a server accepts. Requests past the bound are *shed*
//!   with a `Retry-After` hint instead of queued without limit, so an
//!   overloaded endpoint answers cheaply instead of collapsing.
//! * [`CircuitBreaker`] — a per-target closed/open/half-open breaker
//!   driven by both error rate and latency (a slow target is as broken
//!   as a dead one: gray failure), with single-probe half-open
//!   recovery.
//!
//! Both are driven exclusively by [`SimTime`] so behaviour is
//! deterministic and replayable; metric emission goes through handles
//! resolved from the caller-supplied [`Registry`] under the
//! `admission.*` / `breaker.*` names inventoried in `docs/metrics.txt`.

use std::cell::OnceCell;
use std::collections::VecDeque;

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
    /// Fraction of the window that trips the breaker, counted over
    /// errors and, separately, over slow successes.
    pub trip_threshold: f64,
    /// A success slower than this counts as *slow* (gray failure).
    pub latency_threshold: SimDuration,
    /// Cool-down in the open state before half-open probing.
    pub open_for: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 20,
            min_samples: 8,
            trip_threshold: 0.5,
            latency_threshold: SimDuration::from_secs(1),
            open_for: SimDuration::from_secs(10),
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
/// half-open admits exactly one probe at a time, closing on a probe
/// success and reopening on a probe failure or a slow probe.
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
    trips: u64,
    /// Resolved on first use, like [`AdmissionGate`]'s.
    series: OnceCell<BreakerSeries>,
}

#[derive(Debug, Clone)]
struct BreakerSeries {
    rejected: CounterHandle,
    open: CounterHandle,
    half_open: CounterHandle,
    close: CounterHandle,
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
            trips: 0,
            series: OnceCell::new(),
        }
    }

    fn series(&self, metrics: &Registry) -> &BreakerSeries {
        self.series.get_or_init(|| BreakerSeries {
            rejected: metrics.counter_handle("breaker.rejected"),
            open: metrics.counter_handle("breaker.open"),
            half_open: metrics.counter_handle("breaker.half_open"),
            close: metrics.counter_handle("breaker.close"),
        })
    }

    /// Current state (after any cool-down transition would apply on
    /// the next [`CircuitBreaker::allow`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a request may be sent to the target at `now`. Rejections
    /// count as `breaker.rejected`.
    pub fn allow(&mut self, now: SimTime, metrics: &Registry) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.saturating_since(self.opened_at) >= self.config.open_for {
                    self.state = BreakerState::HalfOpen;
                    self.probe_inflight = true;
                    self.series(metrics).half_open.incr();
                    true
                } else {
                    self.series(metrics).rejected.incr();
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    self.series(metrics).rejected.incr();
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
                    self.state = BreakerState::Closed;
                    self.outcomes.clear();
                    self.series(metrics).close.incr();
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
        let threshold = self.config.trip_threshold;
        if errors / n >= threshold || slow / n >= threshold {
            self.trip(now, metrics);
        }
    }

    fn trip(&mut self, now: SimTime, metrics: &Registry) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.outcomes.clear();
        self.probe_inflight = false;
        self.trips += 1;
        self.series(metrics).open.incr();
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

    fn quick_breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window: 8,
            min_samples: 4,
            trip_threshold: 0.5,
            latency_threshold: SimDuration::from_millis(100),
            open_for: SimDuration::from_secs(5),
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
        assert_eq!(b.state(), BreakerState::Closed, "one probe success closes");
        assert_eq!(b.trips, 1);
        assert_eq!(
            ["open", "half_open", "close", "rejected"].map(|s| m.counter(&format!("breaker.{s}"))),
            [1, 1, 1, 2]
        );
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
        // closed from half-open via a probe success.
        for seed in 0..64u64 {
            let m = metrics();
            let mut rng = DeterministicRng::seed_from(0xC1BC ^ (seed * 0x9E37));
            let config = BreakerConfig {
                window: 4 + rng.next_bounded(12) as usize,
                min_samples: 2 + rng.next_bounded(4) as usize,
                trip_threshold: 0.3 + rng.next_f64() * 0.5,
                latency_threshold: SimDuration::from_millis(50 + rng.next_bounded(200)),
                open_for: SimDuration::from_secs(1 + rng.next_bounded(10)),
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
