//! Link quality models.
//!
//! Every ordered pair of nodes communicates over a link described by a
//! [`LinkModel`]: a base propagation latency, a serialization rate
//! (bandwidth), symmetric jitter and an independent loss probability.
//! The simulator uses the model to compute per-packet delivery delay.

use crate::rng::DeterministicRng;
use crate::time::SimDuration;

/// Describes the quality of a directed link between two nodes.
///
/// ```
/// use simnet::{LinkModel, SimDuration};
/// let wan = LinkModel::builder()
///     .latency(SimDuration::from_millis(20))
///     .bandwidth_bps(10_000_000)
///     .jitter(SimDuration::from_millis(2))
///     .loss(0.001)
///     .build();
/// assert_ne!(wan, LinkModel::lan());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    latency: SimDuration,
    bandwidth_bps: u64,
    jitter: SimDuration,
    loss: f64,
}

impl LinkModel {
    /// A builder starting from [`LinkModel::ideal`]: only the properties
    /// you set degrade the link.
    pub fn builder() -> LinkModelBuilder {
        LinkModelBuilder {
            inner: LinkModel::ideal(),
        }
    }

    /// An ideal link: zero latency, infinite bandwidth, no jitter, no loss.
    /// Useful in unit tests where timing is irrelevant.
    pub fn ideal() -> Self {
        LinkModel {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
            jitter: SimDuration::ZERO,
            loss: 0.0,
        }
    }

    /// A typical wired LAN segment: 0.5 ms latency, 100 Mbit/s, light jitter.
    pub fn lan() -> Self {
        LinkModel {
            latency: SimDuration::from_micros(500),
            bandwidth_bps: 100_000_000,
            jitter: SimDuration::from_micros(100),
            loss: 0.0,
        }
    }

    /// A metro backbone hop between broker shards: 5 ms latency,
    /// 1 Gbit/s, no jitter, no loss.
    ///
    /// Every cross-shard pair of a sharded [`Simulator`](crate::Simulator)
    /// without an override uses it; being jitter- and loss-free it
    /// contributes its full 5 ms latency as conservative lookahead.
    pub(crate) const fn backbone() -> Self {
        LinkModel {
            latency: SimDuration::from_millis(5),
            bandwidth_bps: 1_000_000_000,
            jitter: SimDuration::ZERO,
            loss: 0.0,
        }
    }

    /// Base propagation latency.
    pub(crate) fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Serialization rate in bits per second.
    pub(crate) fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Maximum symmetric jitter added or subtracted from the latency.
    pub(crate) fn jitter(&self) -> SimDuration {
        self.jitter
    }

    /// Independent per-packet loss probability in `[0, 1]`.
    pub(crate) fn loss_probability(&self) -> f64 {
        self.loss
    }

    /// The earliest delay this link can ever produce, or `None` when the
    /// link drops every packet (loss ≥ 1.0) and therefore never delivers.
    ///
    /// Used by the parallel runner to derive its conservative lookahead:
    /// a cross-shard packet sampled at time `t` arrives no earlier than
    /// `t + min_delay()`.
    pub(crate) fn min_delay(&self) -> Option<SimDuration> {
        if self.loss >= 1.0 {
            return None;
        }
        Some(self.latency.saturating_sub(self.jitter))
    }

    /// Decides the fate of one packet of `wire_size` bytes: `None` if the
    /// packet is lost, otherwise the delivery delay.
    pub(crate) fn sample_delay(
        &self,
        wire_size: usize,
        rng: &mut DeterministicRng,
    ) -> Option<SimDuration> {
        if rng.chance(self.loss) {
            return None;
        }
        let serialization = if self.bandwidth_bps == u64::MAX {
            SimDuration::ZERO
        } else {
            let bits = wire_size as u128 * 8 * 1_000_000_000;
            SimDuration::from_nanos((bits / self.bandwidth_bps as u128) as u64)
        };
        let mut delay = self.latency + serialization;
        if !self.jitter.is_zero() {
            // Uniform offset in [-jitter, +jitter], clamped so the total
            // delay never goes negative.
            let offset = rng.next_range(0, 2 * self.jitter.as_nanos()) as i128
                - self.jitter.as_nanos() as i128;
            let total = delay.as_nanos() as i128 + offset;
            delay = SimDuration::from_nanos(total.max(0) as u64);
        }
        Some(delay)
    }
}

impl Default for LinkModel {
    /// The default link is [`LinkModel::lan`].
    fn default() -> Self {
        LinkModel::lan()
    }
}

/// Builder for [`LinkModel`].
#[derive(Debug, Clone)]
pub struct LinkModelBuilder {
    inner: LinkModel,
}

impl LinkModelBuilder {
    /// Sets the base propagation latency.
    pub fn latency(mut self, latency: SimDuration) -> Self {
        self.inner.latency = latency;
        self
    }

    /// Sets the serialization rate in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn bandwidth_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.inner.bandwidth_bps = bps;
        self
    }

    /// Sets the symmetric jitter bound.
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.inner.jitter = jitter;
        self
    }

    /// Sets the per-packet loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.inner.loss = p;
        self
    }

    /// Finalizes the model.
    pub fn build(self) -> LinkModel {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_delivers_instantly() {
        let mut rng = DeterministicRng::seed_from(1);
        let d = LinkModel::ideal().sample_delay(1000, &mut rng);
        assert_eq!(d, Some(SimDuration::ZERO));
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let link = LinkModel::builder()
            .latency(SimDuration::ZERO)
            .bandwidth_bps(8_000) // 1 byte per millisecond
            .build();
        let mut rng = DeterministicRng::seed_from(2);
        let d = link.sample_delay(100, &mut rng).unwrap();
        assert_eq!(d, SimDuration::from_millis(100));
    }

    #[test]
    fn latency_is_floor_without_jitter() {
        let link = LinkModel::builder()
            .latency(SimDuration::from_millis(7))
            .bandwidth_bps(u64::MAX - 1)
            .build();
        let mut rng = DeterministicRng::seed_from(3);
        let d = link.sample_delay(10, &mut rng).unwrap();
        assert!(d >= SimDuration::from_millis(7));
        assert!(d < SimDuration::from_millis(8));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let link = LinkModel::builder()
            .latency(SimDuration::from_millis(10))
            .bandwidth_bps(u64::MAX - 1)
            .jitter(SimDuration::from_millis(3))
            .build();
        let mut rng = DeterministicRng::seed_from(4);
        for _ in 0..500 {
            let d = link.sample_delay(1, &mut rng).unwrap();
            assert!(d >= SimDuration::from_millis(7), "{d}");
            assert!(
                d <= SimDuration::from_millis(13) + SimDuration::from_nanos(200),
                "{d}"
            );
        }
    }

    #[test]
    fn total_loss_drops_everything() {
        let link = LinkModel::builder().loss(1.0).build();
        let mut rng = DeterministicRng::seed_from(5);
        for _ in 0..32 {
            assert!(link.sample_delay(10, &mut rng).is_none());
        }
    }

    #[test]
    fn partial_loss_rate_roughly_observed() {
        let link = LinkModel::builder().loss(0.2).build();
        let mut rng = DeterministicRng::seed_from(6);
        let lost = (0..10_000)
            .filter(|_| link.sample_delay(10, &mut rng).is_none())
            .count();
        assert!((1_700..2_300).contains(&lost), "lost {lost}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn builder_rejects_bad_loss() {
        LinkModel::builder().loss(1.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn builder_rejects_zero_bandwidth() {
        LinkModel::builder().bandwidth_bps(0);
    }
}
