//! Sequence-number window for forward delivery-ratio estimation.
//!
//! Receivers count which of the sender's last `k` probe sequence numbers they
//! actually heard. Because probes are *broadcast*, this measures the **forward
//! direction only** — the adaptation the paper requires for multicast (no
//! ACKs, so the reverse direction is irrelevant).

use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// Tracks receipt of the most recent `k` sequence numbers (k ≤ 64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqWindow {
    /// Highest sequence number seen.
    latest: Option<u64>,
    /// Bit `i` set ⇒ sequence `latest - i` was received.
    bits: u64,
    k: u32,
}

impl Snap for SeqWindow {
    fn snap(&self, w: &mut SnapWriter) {
        let SeqWindow { latest, bits, k } = self;
        latest.snap(w);
        bits.snap(w);
        k.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let latest = Snap::unsnap(r)?;
        let bits = r.u64()?;
        let k = r.u32()?;
        if !(1..=64).contains(&k) {
            return Err(SnapError::StateMismatch("SeqWindow size out of 1..=64"));
        }
        Ok(SeqWindow { latest, bits, k })
    }
}

impl SeqWindow {
    /// Create a window over the last `k` sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than 64.
    pub fn new(k: u32) -> Self {
        assert!((1..=64).contains(&k), "window size must be in 1..=64");
        SeqWindow {
            latest: None,
            bits: 0,
            k,
        }
    }

    /// Window size.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Record receipt of sequence number `seq`.
    ///
    /// Out-of-order arrivals within the window are handled; a large backward
    /// jump (sender restart) resets the window.
    pub fn record(&mut self, seq: u64) {
        match self.latest {
            None => {
                self.latest = Some(seq);
                self.bits = 1;
            }
            Some(latest) if seq > latest => {
                let shift = seq - latest;
                self.bits = if shift >= 64 { 0 } else { self.bits << shift };
                self.bits |= 1;
                self.latest = Some(seq);
            }
            Some(latest) => {
                let back = latest - seq;
                if back < 64 {
                    self.bits |= 1 << back;
                } else {
                    // Sender restarted from a much lower sequence number.
                    self.latest = Some(seq);
                    self.bits = 1;
                }
            }
        }
    }

    /// Number of the last `k` sequence numbers that were received.
    pub fn received_in_window(&self) -> u32 {
        let mask = if self.k == 64 {
            u64::MAX
        } else {
            (1u64 << self.k) - 1
        };
        (self.bits & mask).count_ones()
    }

    /// Delivery ratio over the window, with `extra_missed` recent probes
    /// known (from elapsed time) to have been sent but not received.
    ///
    /// Returns `None` if nothing was ever received.
    pub fn ratio_with_missed(&self, extra_missed: u32) -> Option<f64> {
        self.latest?;
        let received = self.received_in_window().min(self.k) as f64;
        // Cap staleness so a long-dead link bottoms out rather than
        // underflowing: expected grows to at most 4x the window.
        let expected = (self.k + extra_missed.min(3 * self.k)) as f64;
        Some((received / expected).clamp(0.0, 1.0))
    }

    /// Plain delivery ratio over the window.
    pub fn ratio(&self) -> Option<f64> {
        self.ratio_with_missed(0)
    }

    /// Highest sequence number seen.
    pub fn latest(&self) -> Option<u64> {
        self.latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_has_no_ratio() {
        let w = SeqWindow::new(10);
        assert_eq!(w.ratio(), None);
        assert_eq!(w.latest(), None);
    }

    #[test]
    fn perfect_reception_is_one() {
        let mut w = SeqWindow::new(10);
        for s in 0..20 {
            w.record(s);
        }
        assert_eq!(w.ratio(), Some(1.0));
        assert_eq!(w.received_in_window(), 10);
    }

    #[test]
    fn half_loss_is_half() {
        let mut w = SeqWindow::new(10);
        for s in (0..20).step_by(2) {
            w.record(s);
        }
        assert_eq!(w.ratio(), Some(0.5));
    }

    #[test]
    fn warmup_counts_only_window() {
        // Receiving only 1 probe: ratio is 1/k, pessimistic on purpose until
        // the window fills — a fresh link should not look perfect.
        let mut w = SeqWindow::new(10);
        w.record(5);
        assert_eq!(w.ratio(), Some(0.1));
    }

    #[test]
    fn out_of_order_within_window() {
        let mut w = SeqWindow::new(4);
        w.record(10);
        w.record(8);
        w.record(9);
        w.record(7);
        assert_eq!(w.ratio(), Some(1.0));
    }

    #[test]
    fn huge_forward_jump_clears() {
        let mut w = SeqWindow::new(10);
        for s in 0..10 {
            w.record(s);
        }
        w.record(1000);
        assert_eq!(w.received_in_window(), 1);
        assert_eq!(w.ratio(), Some(0.1));
    }

    #[test]
    fn backward_restart_resets() {
        let mut w = SeqWindow::new(10);
        w.record(500);
        w.record(2); // sender restarted
        assert_eq!(w.latest(), Some(2));
        assert_eq!(w.received_in_window(), 1);
    }

    #[test]
    fn staleness_decays_ratio() {
        let mut w = SeqWindow::new(10);
        for s in 0..10 {
            w.record(s);
        }
        assert_eq!(w.ratio_with_missed(0), Some(1.0));
        assert_eq!(w.ratio_with_missed(10), Some(0.5));
        // Cap at 4x expected.
        assert_eq!(w.ratio_with_missed(1000), Some(0.25));
    }

    #[test]
    fn k64_window() {
        let mut w = SeqWindow::new(64);
        for s in 0..64 {
            w.record(s);
        }
        assert_eq!(w.ratio(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn oversized_window_rejected() {
        let _ = SeqWindow::new(65);
    }
}
