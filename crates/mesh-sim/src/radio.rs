//! Per-node radio reception state.
//!
//! Implements the classic threshold/capture reception model: a frame is
//! decodable if its power exceeds the receive threshold and it is not
//! destroyed by a collision; any energy above the carrier-sense threshold
//! makes the channel busy. The radio is half-duplex.

use crate::ids::FrameId;
use crate::time::SimTime;

/// A reception in progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OngoingRx {
    pub frame: FrameId,
    pub power_w: f64,
    pub end: SimTime,
    pub corrupted: bool,
}

/// The outcome of an arrival at a radio, used for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArrivalOutcome {
    /// Started decoding this frame.
    StartedRx,
    /// Captured the receiver away from a weaker frame (which is lost).
    CapturedOver,
    /// Arrived while a stronger frame was being received; interference only.
    LostToStronger,
    /// Collided: both this frame and the one being received are lost.
    Collision,
    /// Power below the receive threshold; channel busy only.
    BelowRxThreshold,
    /// The radio was transmitting; the arrival is unreceivable.
    WhileTx,
}

/// Half-duplex radio with threshold-based reception and power capture.
#[derive(Debug, Clone, Default)]
pub(crate) struct Radio {
    /// End of our own transmission, if transmitting.
    pub tx_until: Option<SimTime>,
    /// Frame currently being decoded.
    pub rx: Option<OngoingRx>,
    /// Latest end time of any energy heard (incl. undecodable arrivals).
    pub energy_until: SimTime,
    /// Virtual carrier sense (NAV) from overheard RTS/CTS.
    pub nav_until: SimTime,
}

impl Radio {
    /// Whether the physical channel is sensed busy at `now` (energy or own
    /// TX/RX; NAV excluded — see [`Radio::busy_with_nav`]).
    pub fn physically_busy(&self, now: SimTime) -> bool {
        self.tx_until.is_some() || self.rx.is_some() || now < self.energy_until
    }

    /// Physical *or* virtual (NAV) carrier sense.
    pub fn busy_with_nav(&self, now: SimTime) -> bool {
        self.physically_busy(now) || now < self.nav_until
    }

    /// The future instant when currently-known busy conditions lapse, if the
    /// radio is busy only due to time-based conditions (energy/NAV). Returns
    /// `None` if idle now or if an ongoing TX/RX will generate its own event.
    pub fn busy_horizon(&self, now: SimTime) -> Option<SimTime> {
        if self.tx_until.is_some() || self.rx.is_some() {
            return None;
        }
        let t = self.energy_until.max(self.nav_until);
        if t > now {
            Some(t)
        } else {
            None
        }
    }

    /// Begin transmitting until `end`. Any reception in progress is aborted
    /// (half-duplex).
    pub fn start_tx(&mut self, end: SimTime) {
        debug_assert!(self.tx_until.is_none(), "radio already transmitting");
        self.rx = None;
        self.tx_until = Some(end);
    }

    /// Our transmission finished.
    pub fn end_tx(&mut self) {
        debug_assert!(self.tx_until.is_some());
        self.tx_until = None;
    }

    /// Process the start of an arrival with the given power.
    ///
    /// `rx_thresh` and `capture_ratio` come from the PHY parameters.
    pub fn arrival(
        &mut self,
        frame: FrameId,
        power_w: f64,
        end: SimTime,
        rx_thresh: f64,
        capture_ratio: f64,
    ) -> ArrivalOutcome {
        self.energy_until = self.energy_until.max(end);

        if self.tx_until.is_some() {
            return ArrivalOutcome::WhileTx;
        }
        if power_w < rx_thresh {
            // Not decodable, but strong interference can still corrupt an
            // ongoing reception if the desired frame lacks capture margin.
            if let Some(rx) = &mut self.rx {
                if rx.power_w < capture_ratio * power_w {
                    rx.corrupted = true;
                }
            }
            return ArrivalOutcome::BelowRxThreshold;
        }
        match &mut self.rx {
            None => {
                self.rx = Some(OngoingRx {
                    frame,
                    power_w,
                    end,
                    corrupted: false,
                });
                ArrivalOutcome::StartedRx
            }
            Some(cur) => {
                if power_w >= capture_ratio * cur.power_w {
                    // New frame captures the receiver; the old one is lost.
                    self.rx = Some(OngoingRx {
                        frame,
                        power_w,
                        end,
                        corrupted: false,
                    });
                    ArrivalOutcome::CapturedOver
                } else if cur.power_w >= capture_ratio * power_w {
                    ArrivalOutcome::LostToStronger
                } else {
                    cur.corrupted = true;
                    ArrivalOutcome::Collision
                }
            }
        }
    }

    /// Process the end of an arrival. Returns the completed reception if this
    /// frame was the one being decoded (caller checks `corrupted`).
    pub fn arrival_end(&mut self, frame: FrameId) -> Option<OngoingRx> {
        if self.rx.is_some_and(|rx| rx.frame == frame) {
            self.rx.take()
        } else {
            None
        }
    }
}

crate::snap_struct!(OngoingRx {
    frame,
    power_w,
    end,
    corrupted
});

crate::snap_struct!(Radio {
    tx_until,
    rx,
    energy_until,
    nav_until
});

#[cfg(test)]
mod tests {
    use super::*;

    const RX: f64 = 1e-9;
    const CAP: f64 = 10.0;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn clean_reception() {
        let mut r = Radio::default();
        let out = r.arrival(FrameId(1), 2e-9, t(100), RX, CAP);
        assert_eq!(out, ArrivalOutcome::StartedRx);
        let done = r.arrival_end(FrameId(1)).unwrap();
        assert!(!done.corrupted);
        assert!(r.rx.is_none());
    }

    #[test]
    fn below_threshold_only_busies_channel() {
        let mut r = Radio::default();
        let out = r.arrival(FrameId(1), 1e-11, t(100), RX, CAP);
        assert_eq!(out, ArrivalOutcome::BelowRxThreshold);
        assert!(r.rx.is_none());
        assert!(r.physically_busy(t(50)));
        assert!(!r.physically_busy(t(100)));
    }

    #[test]
    fn collision_corrupts_both() {
        let mut r = Radio::default();
        r.arrival(FrameId(1), 2e-9, t(100), RX, CAP);
        let out = r.arrival(FrameId(2), 3e-9, t(120), RX, CAP);
        assert_eq!(out, ArrivalOutcome::Collision);
        let done = r.arrival_end(FrameId(1)).unwrap();
        assert!(done.corrupted);
        // Frame 2 was never "the" reception.
        assert!(r.arrival_end(FrameId(2)).is_none());
    }

    #[test]
    fn capture_by_much_stronger_frame() {
        let mut r = Radio::default();
        r.arrival(FrameId(1), 1e-9, t(100), RX, CAP);
        let out = r.arrival(FrameId(2), 2e-8, t(120), RX, CAP);
        assert_eq!(out, ArrivalOutcome::CapturedOver);
        assert!(r.arrival_end(FrameId(1)).is_none());
        let done = r.arrival_end(FrameId(2)).unwrap();
        assert!(!done.corrupted);
    }

    #[test]
    fn weaker_frame_lost_to_stronger_ongoing() {
        let mut r = Radio::default();
        r.arrival(FrameId(1), 2e-8, t(100), RX, CAP);
        let out = r.arrival(FrameId(2), 1e-9, t(120), RX, CAP);
        assert_eq!(out, ArrivalOutcome::LostToStronger);
        let done = r.arrival_end(FrameId(1)).unwrap();
        assert!(!done.corrupted);
    }

    #[test]
    fn strong_subthreshold_interference_corrupts() {
        let mut r = Radio::default();
        r.arrival(FrameId(1), 1.5e-9, t(100), RX, CAP);
        // 0.5e-9 < RX threshold but 1.5e-9 < 10 * 0.5e-9, so no capture margin.
        let out = r.arrival(FrameId(2), 0.5e-9, t(120), RX, CAP);
        assert_eq!(out, ArrivalOutcome::BelowRxThreshold);
        assert!(r.arrival_end(FrameId(1)).unwrap().corrupted);
    }

    #[test]
    fn arrivals_during_tx_are_lost() {
        let mut r = Radio::default();
        r.start_tx(t(500));
        let out = r.arrival(FrameId(1), 1e-6, t(100), RX, CAP);
        assert_eq!(out, ArrivalOutcome::WhileTx);
        assert!(r.arrival_end(FrameId(1)).is_none());
        r.end_tx();
        assert!(!r.physically_busy(t(200)));
    }

    #[test]
    fn starting_tx_aborts_rx() {
        let mut r = Radio::default();
        r.arrival(FrameId(1), 2e-9, t(100), RX, CAP);
        r.start_tx(t(300));
        assert!(r.arrival_end(FrameId(1)).is_none());
    }

    #[test]
    fn busy_horizon_reports_energy_and_nav() {
        let mut r = Radio::default();
        assert_eq!(r.busy_horizon(t(0)), None);
        r.arrival(FrameId(1), 1e-11, t(100), RX, CAP); // below RX: energy only
        assert_eq!(r.busy_horizon(t(0)), Some(t(100)));
        r.nav_until = t(200);
        assert_eq!(r.busy_horizon(t(0)), Some(t(200)));
        assert_eq!(r.busy_horizon(t(250)), None);
    }

    #[test]
    fn nav_affects_only_virtual_sense() {
        let r = Radio {
            nav_until: t(100),
            ..Radio::default()
        };
        assert!(!r.physically_busy(t(10)));
        assert!(r.busy_with_nav(t(10)));
        assert!(!r.busy_with_nav(t(100)));
    }
}
