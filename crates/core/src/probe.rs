//! Probe scheduling and probe messages.
//!
//! All metrics estimate link quality from **broadcast** probes (§2.2 of the
//! paper): ETX, METX and SPP send one small probe every 5 s; PP and ETT send
//! a packet *pair* — a small probe immediately followed by a large one —
//! every 10 s. Receivers never acknowledge probes; everything is measured in
//! the forward direction.

use mesh_sim::ids::NodeId;
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use mesh_sim::time::SimDuration;

/// Default single-probe interval (ETX / METX / SPP).
pub const DEFAULT_SINGLE_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Default packet-pair interval (PP / ETT).
pub const DEFAULT_PAIR_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Size of a small probe in bytes (as in the Roofnet/LQSR measurements).
pub const SMALL_PROBE_BYTES: u32 = 137;
/// Size of the large packet of a pair in bytes.
pub const LARGE_PROBE_BYTES: u32 = 1137;

/// What kind of probing a metric requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbePlan {
    /// No probing (hop count / original ODMRP).
    None,
    /// A single small probe per interval.
    Single {
        /// Time between probes.
        interval: SimDuration,
        /// Probe size in bytes.
        bytes: u32,
    },
    /// A small+large packet pair per interval (PP, ETT).
    Pair {
        /// Time between pairs.
        interval: SimDuration,
        /// Small packet size in bytes.
        small_bytes: u32,
        /// Large packet size in bytes.
        large_bytes: u32,
    },
}

impl ProbePlan {
    /// The standard single-probe plan, with the interval divided by `rate`
    /// (`rate = 5.0` reproduces the paper's "high overhead" configuration,
    /// `rate = 0.1` its low-rate note).
    ///
    /// Never panics: a non-positive or NaN rate saturates to the slowest
    /// supported interval (effectively "probing off"), an infinite rate to
    /// the fastest. Decks still reject such rates at compile time with a
    /// line-anchored error; the saturation here is the in-core backstop.
    pub fn single_at_rate(rate: f64) -> ProbePlan {
        ProbePlan::Single {
            interval: scale_interval(DEFAULT_SINGLE_INTERVAL, rate),
            bytes: SMALL_PROBE_BYTES,
        }
    }

    /// The standard packet-pair plan at the given rate factor. Saturates on
    /// invalid rates exactly like [`ProbePlan::single_at_rate`].
    pub fn pair_at_rate(rate: f64) -> ProbePlan {
        ProbePlan::Pair {
            interval: scale_interval(DEFAULT_PAIR_INTERVAL, rate),
            small_bytes: SMALL_PROBE_BYTES,
            large_bytes: LARGE_PROBE_BYTES,
        }
    }

    /// The interval between probe rounds, if any probing happens.
    pub fn interval(&self) -> Option<SimDuration> {
        match *self {
            ProbePlan::None => None,
            ProbePlan::Single { interval, .. } | ProbePlan::Pair { interval, .. } => Some(interval),
        }
    }

    /// Bytes sent per probing round.
    pub fn bytes_per_round(&self) -> u32 {
        match *self {
            ProbePlan::None => 0,
            ProbePlan::Single { bytes, .. } => bytes,
            ProbePlan::Pair {
                small_bytes,
                large_bytes,
                ..
            } => small_bytes + large_bytes,
        }
    }
}

// Interval scale factor bounds: 1e9 turns the 5 s default into ~158 years of
// sim time ("probing off" for any practical run, still finite in u64 nanos);
// 1e-9 bottoms out at a few nanoseconds between probes.
const MIN_SCALE: f64 = 1.0e-9;
const MAX_SCALE: f64 = 1.0e9;

fn scale_interval(base: SimDuration, rate: f64) -> SimDuration {
    // Saturate instead of panicking: a rate of 0 (or NaN, or negative) used
    // to trip an assert that was reachable straight from a scenario deck's
    // `probe_rate` knob. Valid rates land inside the clamp window, so their
    // intervals are bit-identical to the unclamped computation.
    let scale = if rate > 0.0 {
        (1.0 / rate).clamp(MIN_SCALE, MAX_SCALE)
    } else {
        MAX_SCALE
    };
    base.mul_f64(scale)
}

/// A probe on the air.
///
/// `reverse_df` piggybacks the sender's own forward-delivery measurements of
/// its neighbors (as classic unicast ETX probes do); it is ignored by all of
/// the paper's multicast metrics and exists for the *bidirectional-ETX
/// ablation*, which demonstrates why reverse-path quality must not be used
/// for broadcast routing.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeMsg {
    /// A standalone small probe.
    Single {
        /// Sender's probe sequence number.
        seq: u64,
        /// Sender's probing interval in nanoseconds.
        interval_ns: u64,
        /// Sender's measured forward ratios `neighbor -> df` (see above).
        reverse_df: Vec<(NodeId, f32)>,
    },
    /// The small packet of a pair.
    PairSmall {
        /// Sender's pair sequence number.
        seq: u64,
        /// Sender's probing interval in nanoseconds.
        interval_ns: u64,
    },
    /// The large packet of a pair.
    PairLarge {
        /// Pair sequence number matching the preceding small packet.
        seq: u64,
        /// Size of this packet in bytes (receivers use it for the bandwidth
        /// estimate).
        bytes: u32,
    },
}

impl Snap for ProbeMsg {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            ProbeMsg::Single {
                seq,
                interval_ns,
                reverse_df,
            } => {
                w.put_u8(0);
                w.put_u64(*seq);
                w.put_u64(*interval_ns);
                reverse_df.snap(w);
            }
            ProbeMsg::PairSmall { seq, interval_ns } => {
                w.put_u8(1);
                w.put_u64(*seq);
                w.put_u64(*interval_ns);
            }
            ProbeMsg::PairLarge { seq, bytes } => {
                w.put_u8(2);
                w.put_u64(*seq);
                w.put_u32(*bytes);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => ProbeMsg::Single {
                seq: r.u64()?,
                interval_ns: r.u64()?,
                reverse_df: Snap::unsnap(r)?,
            },
            1 => ProbeMsg::PairSmall {
                seq: r.u64()?,
                interval_ns: r.u64()?,
            },
            2 => ProbeMsg::PairLarge {
                seq: r.u64()?,
                bytes: r.u32()?,
            },
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

/// Sender-side probe generator: owns the sequence counters.
#[derive(Debug, Clone)]
pub struct Prober {
    plan: ProbePlan,
    seq: u64,
}

impl Prober {
    /// Create a prober for the given plan.
    pub fn new(plan: ProbePlan) -> Self {
        Prober { plan, seq: 0 }
    }

    /// The plan this prober follows.
    pub fn plan(&self) -> ProbePlan {
        self.plan
    }

    /// Write the prober's mutable state (the sequence counter) into a
    /// checkpoint; the plan is configuration and is not serialized.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        let Prober {
            plan: _, // configuration
            seq,
        } = self;
        seq.snap(w);
    }

    /// Restore the mutable state written by [`Prober::snapshot_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the checkpoint is truncated.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.seq = r.u64()?;
        Ok(())
    }

    /// Produce the messages for the next probing round, with their payload
    /// sizes in bytes. Empty for [`ProbePlan::None`].
    ///
    /// `reverse_df` is embedded into single probes (pass an empty vec unless
    /// running the bidirectional ablation).
    pub fn next_round(&mut self, reverse_df: Vec<(NodeId, f32)>) -> Vec<(ProbeMsg, u32)> {
        match self.plan {
            ProbePlan::None => Vec::new(),
            ProbePlan::Single { interval, bytes } => {
                let seq = self.seq;
                self.seq += 1;
                // Each piggybacked entry costs 6 bytes (4B id + 2B ratio).
                let total = bytes + 6 * reverse_df.len() as u32;
                vec![(
                    ProbeMsg::Single {
                        seq,
                        interval_ns: interval.as_nanos(),
                        reverse_df,
                    },
                    total,
                )]
            }
            ProbePlan::Pair {
                interval,
                small_bytes,
                large_bytes,
            } => {
                let seq = self.seq;
                self.seq += 1;
                vec![
                    (
                        ProbeMsg::PairSmall {
                            seq,
                            interval_ns: interval.as_nanos(),
                        },
                        small_bytes,
                    ),
                    (
                        ProbeMsg::PairLarge {
                            seq,
                            bytes: large_bytes,
                        },
                        large_bytes,
                    ),
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plans_match_paper() {
        let s = ProbePlan::single_at_rate(1.0);
        assert_eq!(
            s,
            ProbePlan::Single {
                interval: SimDuration::from_secs(5),
                bytes: 137
            }
        );
        let p = ProbePlan::pair_at_rate(1.0);
        assert_eq!(p.interval(), Some(SimDuration::from_secs(10)));
        assert_eq!(p.bytes_per_round(), 137 + 1137);
    }

    #[test]
    fn rate_factor_scales_interval() {
        let fast = ProbePlan::single_at_rate(5.0);
        assert_eq!(fast.interval(), Some(SimDuration::from_secs(1)));
        let slow = ProbePlan::single_at_rate(0.1);
        assert_eq!(slow.interval(), Some(SimDuration::from_secs(50)));
    }

    #[test]
    fn degenerate_rates_saturate_instead_of_panicking() {
        // Rates a buggy config could produce: zero, negative, NaN. All mean
        // "effectively never probe", not "abort the simulation".
        for rate in [0.0, -3.0, f64::NAN] {
            let plan = ProbePlan::single_at_rate(rate);
            let interval = plan.interval().expect("still a Single plan");
            assert_eq!(
                interval,
                DEFAULT_SINGLE_INTERVAL.mul_f64(1.0e9),
                "rate={rate}"
            );
        }
        // An infinite rate pins to the fastest supported interval.
        let fast = ProbePlan::pair_at_rate(f64::INFINITY);
        assert_eq!(fast.interval(), Some(DEFAULT_PAIR_INTERVAL.mul_f64(1.0e-9)));
    }

    #[test]
    fn valid_rates_are_unaffected_by_the_saturation_clamp() {
        // The clamp window spans [1e-9, 1e9]; every realistic rate's scale
        // factor sits strictly inside, so intervals match the unclamped
        // arithmetic exactly.
        for rate in [0.1, 1.0, 5.0, 1000.0] {
            let plan = ProbePlan::single_at_rate(rate);
            assert_eq!(
                plan.interval(),
                Some(DEFAULT_SINGLE_INTERVAL.mul_f64(1.0 / rate)),
                "rate={rate}"
            );
        }
    }

    #[test]
    fn prober_sequences_increase() {
        let mut p = Prober::new(ProbePlan::single_at_rate(1.0));
        let r1 = p.next_round(Vec::new());
        let r2 = p.next_round(Vec::new());
        match (&r1[0].0, &r2[0].0) {
            (ProbeMsg::Single { seq: a, .. }, ProbeMsg::Single { seq: b, .. }) => {
                assert_eq!(*b, a + 1)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pair_round_has_small_then_large_same_seq() {
        let mut p = Prober::new(ProbePlan::pair_at_rate(1.0));
        let round = p.next_round(Vec::new());
        assert_eq!(round.len(), 2);
        match (&round[0].0, &round[1].0) {
            (ProbeMsg::PairSmall { seq: a, .. }, ProbeMsg::PairLarge { seq: b, bytes }) => {
                assert_eq!(a, b);
                assert_eq!(*bytes, LARGE_PROBE_BYTES);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(round[0].1, SMALL_PROBE_BYTES);
    }

    #[test]
    fn none_plan_produces_nothing() {
        let mut p = Prober::new(ProbePlan::None);
        assert!(p.next_round(Vec::new()).is_empty());
        assert_eq!(ProbePlan::None.interval(), None);
        assert_eq!(ProbePlan::None.bytes_per_round(), 0);
    }

    #[test]
    fn piggybacked_entries_increase_size() {
        let mut p = Prober::new(ProbePlan::single_at_rate(1.0));
        let round = p.next_round(vec![(NodeId::new(1), 0.5), (NodeId::new(2), 0.9)]);
        assert_eq!(round[0].1, SMALL_PROBE_BYTES + 12);
    }
}
