//! IEEE 802.11 DCF MAC: parameters and per-node state.
//!
//! The distinction at the heart of the paper lives here: **unicast** data uses
//! carrier sense + backoff + (optionally) RTS/CTS, is acknowledged, and is
//! retransmitted on failure; **broadcast** data uses carrier sense + backoff
//! only — no RTS/CTS, no ACK, no retransmission — so each packet gets exactly
//! one chance on each link.
//!
//! The state-machine *driver* lives in [`crate::world`]; this module holds the
//! timing parameters, queue entries and state data, plus pure timing helpers
//! that are unit-tested in isolation.

use std::collections::{BTreeMap, VecDeque};

use crate::ids::{NodeId, TxHandle};
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};

/// MAC-layer timing and policy parameters (802.11 DSSS defaults at 2 Mbps).
#[derive(Debug, Clone, PartialEq)]
pub struct MacParams {
    /// Slot time.
    pub slot: SimDuration,
    /// Short inter-frame space.
    pub sifs: SimDuration,
    /// DCF inter-frame space.
    pub difs: SimDuration,
    /// Minimum contention window (slots, as `CWmin`; backoff drawn from `[0, cw]`).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Data bit rate in bits/s (2 Mbps in the paper; also used for broadcast).
    pub data_rate_bps: f64,
    /// Basic rate for control frames (RTS/CTS/ACK) in bits/s.
    pub basic_rate_bps: f64,
    /// PLCP preamble + header time prepended to every frame.
    pub plcp_overhead: SimDuration,
    /// MAC header + FCS bytes added to each data payload.
    pub mac_header_bytes: u32,
    /// RTS frame size in bytes.
    pub rts_bytes: u32,
    /// CTS frame size in bytes.
    pub cts_bytes: u32,
    /// ACK frame size in bytes.
    pub ack_bytes: u32,
    /// Unicast payloads at or above this size use RTS/CTS.
    pub rts_threshold_bytes: u32,
    /// Station short retry limit (RTS and small frames).
    pub short_retry_limit: u32,
    /// Station long retry limit (data sent after RTS).
    pub long_retry_limit: u32,
    /// MAC transmit queue capacity (drop-tail).
    pub queue_cap: usize,
    /// Margin added to CTS/ACK timeouts to cover propagation.
    pub timeout_margin: SimDuration,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            cw_min: 31,
            cw_max: 1023,
            data_rate_bps: 2.0e6,
            basic_rate_bps: 1.0e6,
            plcp_overhead: SimDuration::from_micros(192),
            mac_header_bytes: 28,
            rts_bytes: 20,
            cts_bytes: 14,
            ack_bytes: 14,
            rts_threshold_bytes: 256,
            short_retry_limit: 7,
            long_retry_limit: 4,
            queue_cap: 50,
            timeout_margin: SimDuration::from_micros(10),
        }
    }
}

impl MacParams {
    /// Airtime of a data frame with the given *payload* size (MAC header and
    /// PLCP overhead added here).
    pub fn data_airtime(&self, payload_bytes: u32) -> SimDuration {
        let bits = ((payload_bytes + self.mac_header_bytes) as f64) * 8.0;
        self.plcp_overhead + SimDuration::from_secs_f64(bits / self.data_rate_bps)
    }

    /// Airtime of a control frame of `bytes` total size at the basic rate.
    pub fn ctrl_airtime(&self, bytes: u32) -> SimDuration {
        self.plcp_overhead + SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.basic_rate_bps)
    }

    /// How long a sender waits for a CTS after finishing its RTS.
    pub fn cts_timeout(&self) -> SimDuration {
        self.sifs + self.ctrl_airtime(self.cts_bytes) + self.timeout_margin
    }

    /// How long a sender waits for an ACK after finishing a data frame.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs + self.ctrl_airtime(self.ack_bytes) + self.timeout_margin
    }

    /// NAV carried in an RTS: covers CTS + DATA + ACK and their SIFS gaps.
    pub fn rts_nav(&self, payload_bytes: u32) -> SimDuration {
        self.sifs
            + self.ctrl_airtime(self.cts_bytes)
            + self.sifs
            + self.data_airtime(payload_bytes)
            + self.sifs
            + self.ctrl_airtime(self.ack_bytes)
    }

    /// NAV carried in a CTS: covers DATA + ACK.
    pub fn cts_nav(&self, payload_bytes: u32) -> SimDuration {
        self.sifs + self.data_airtime(payload_bytes) + self.sifs + self.ctrl_airtime(self.ack_bytes)
    }

    /// The next contention window after a failed attempt.
    pub fn next_cw(&self, cw: u32) -> u32 {
        ((cw << 1) | 1).min(self.cw_max)
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the contention windows are misordered, a rate is
    /// non-positive, or the queue capacity is zero.
    pub fn validate(&self) {
        assert!(self.cw_min <= self.cw_max, "cw_min must not exceed cw_max");
        assert!(
            self.data_rate_bps > 0.0 && self.basic_rate_bps > 0.0,
            "bit rates must be positive"
        );
        assert!(self.queue_cap > 0, "queue capacity must be positive");
        assert!(
            self.sifs < self.difs,
            "SIFS must be shorter than DIFS (priority inversion otherwise)"
        );
    }
}

/// A queued outgoing data frame.
#[derive(Debug, Clone)]
pub(crate) struct OutFrame<M> {
    /// `None` = link-layer broadcast.
    pub dst: Option<NodeId>,
    /// Shared with every in-flight copy of this frame (retries included).
    pub msg: std::sync::Arc<M>,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Protocol-defined traffic class for accounting.
    pub class: u8,
    /// The protocol's transmit handle; its number doubles as the MAC
    /// sequence number (stable across retries).
    pub handle: TxHandle,
}

/// DCF state machine states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MacState {
    /// Nothing to send.
    Idle,
    /// Head frame waiting for the channel to go idle.
    WaitChannel,
    /// Sensing DIFS before backoff/transmit.
    Difs,
    /// Counting down backoff slots; `slot_start` is when counting (re)began.
    Backoff { slot_start: SimTime },
    /// Transmitting the head data frame.
    TxData,
    /// Transmitting an RTS.
    TxRts,
    /// RTS sent, waiting for CTS.
    WaitCts,
    /// CTS received; SIFS gap before sending data.
    SifsBeforeData,
    /// Unicast data sent, waiting for ACK.
    WaitAck,
}

/// A SIFS-spaced control response owed to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtrlResponse {
    /// Send a CTS to `dst`; `nav` is embedded for overhearers. `payload`
    /// is the expected data size (to compute our own NAV bookkeeping).
    Cts { dst: NodeId, nav: SimDuration },
    /// Send an ACK to `dst`.
    Ack { dst: NodeId },
}

/// Per-node MAC state.
#[derive(Debug)]
pub(crate) struct Mac<M> {
    pub state: MacState,
    pub queue: VecDeque<OutFrame<M>>,
    /// Current contention window.
    pub cw: u32,
    /// Remaining backoff slots for the head frame (drawn once per attempt,
    /// decremented when the channel interrupts the countdown).
    pub backoff_slots: u32,
    pub short_retries: u32,
    pub long_retries: u32,
    /// Generation for `MacTimer` events; stale timers are ignored.
    pub timer_gen: u64,
    /// Generation for `CtrlTimer` events.
    pub ctrl_gen: u64,
    /// Pending SIFS-spaced response.
    pub pending_ctrl: Option<CtrlResponse>,
    /// Receive-side duplicate detection for unicast data: the last
    /// transmit handle accepted from each source. A `BTreeMap` so snapshots
    /// can serialize it in canonical key order (mesh-lint R1 forbids
    /// `HashMap` iteration).
    pub rx_dedup: BTreeMap<NodeId, TxHandle>,
}

impl<M> Default for Mac<M> {
    fn default() -> Self {
        Mac {
            state: MacState::Idle,
            queue: VecDeque::new(),
            cw: 0, // set from params on first use
            backoff_slots: 0,
            short_retries: 0,
            long_retries: 0,
            timer_gen: 0,
            ctrl_gen: 0,
            pending_ctrl: None,
            rx_dedup: BTreeMap::new(),
        }
    }
}

impl<M> Mac<M> {
    /// Invalidate any outstanding MAC timer and return the new generation.
    pub fn bump_timer(&mut self) -> u64 {
        self.timer_gen += 1;
        self.timer_gen
    }

    /// Invalidate any outstanding control timer and return the new generation.
    pub fn bump_ctrl(&mut self) -> u64 {
        self.ctrl_gen += 1;
        self.ctrl_gen
    }

    /// Reset per-frame retry state after success or abandonment.
    pub fn reset_contention(&mut self, cw_min: u32) {
        self.cw = cw_min;
        self.short_retries = 0;
        self.long_retries = 0;
    }
}

crate::snap_struct!(OutFrame<M> { dst, msg, bytes, class, handle });

impl Snap for MacState {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            MacState::Idle => w.put_u8(0),
            MacState::WaitChannel => w.put_u8(1),
            MacState::Difs => w.put_u8(2),
            MacState::Backoff { slot_start } => {
                w.put_u8(3);
                slot_start.snap(w);
            }
            MacState::TxData => w.put_u8(4),
            MacState::TxRts => w.put_u8(5),
            MacState::WaitCts => w.put_u8(6),
            MacState::SifsBeforeData => w.put_u8(7),
            MacState::WaitAck => w.put_u8(8),
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => MacState::Idle,
            1 => MacState::WaitChannel,
            2 => MacState::Difs,
            3 => MacState::Backoff {
                slot_start: Snap::unsnap(r)?,
            },
            4 => MacState::TxData,
            5 => MacState::TxRts,
            6 => MacState::WaitCts,
            7 => MacState::SifsBeforeData,
            8 => MacState::WaitAck,
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

impl Snap for CtrlResponse {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            CtrlResponse::Cts { dst, nav } => {
                w.put_u8(0);
                dst.snap(w);
                nav.snap(w);
            }
            CtrlResponse::Ack { dst } => {
                w.put_u8(1);
                dst.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => CtrlResponse::Cts {
                dst: Snap::unsnap(r)?,
                nav: Snap::unsnap(r)?,
            },
            1 => CtrlResponse::Ack {
                dst: Snap::unsnap(r)?,
            },
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

crate::snap_struct!(Mac<M> {
    state,
    queue,
    cw,
    backoff_slots,
    short_retries,
    long_retries,
    timer_gen,
    ctrl_gen,
    pending_ctrl,
    rx_dedup,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_airtime_matches_hand_calc() {
        let p = MacParams::default();
        // 512B payload + 28B header = 540B = 4320 bits at 2 Mbps = 2160 us,
        // plus 192 us PLCP.
        let t = p.data_airtime(512);
        assert_eq!(t, SimDuration::from_micros(2160 + 192));
    }

    #[test]
    fn ctrl_airtime_uses_basic_rate() {
        let p = MacParams::default();
        // 14 bytes = 112 bits at 1 Mbps = 112 us + 192 us.
        assert_eq!(p.ctrl_airtime(14), SimDuration::from_micros(112 + 192));
    }

    #[test]
    fn cw_doubles_to_max() {
        let p = MacParams::default();
        let mut cw = p.cw_min;
        let mut seen = vec![cw];
        for _ in 0..8 {
            cw = p.next_cw(cw);
            seen.push(cw);
        }
        assert_eq!(seen[..6], [31, 63, 127, 255, 511, 1023]);
        assert_eq!(*seen.last().unwrap(), p.cw_max);
    }

    #[test]
    fn nav_covers_full_exchange() {
        let p = MacParams::default();
        let rts_nav = p.rts_nav(512);
        let cts_nav = p.cts_nav(512);
        assert!(rts_nav > cts_nav);
        assert_eq!(rts_nav, p.sifs + p.ctrl_airtime(p.cts_bytes) + cts_nav);
    }

    #[test]
    fn timeouts_exceed_sifs_plus_ctrl() {
        let p = MacParams::default();
        assert!(p.cts_timeout() > p.sifs + p.ctrl_airtime(p.cts_bytes));
        assert!(p.ack_timeout() > p.sifs + p.ctrl_airtime(p.ack_bytes));
    }

    #[test]
    fn default_params_validate() {
        MacParams::default().validate();
    }

    #[test]
    #[should_panic(expected = "cw_min")]
    fn misordered_cw_rejected() {
        MacParams {
            cw_min: 100,
            cw_max: 50,
            ..MacParams::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_queue_rejected() {
        MacParams {
            queue_cap: 0,
            ..MacParams::default()
        }
        .validate();
    }

    #[test]
    fn generations_invalidate() {
        let mut m: Mac<u8> = Mac::default();
        let g1 = m.bump_timer();
        let g2 = m.bump_timer();
        assert!(g2 > g1);
        let c1 = m.bump_ctrl();
        assert_eq!(c1, 1);
    }

    #[test]
    fn reset_contention_clears_retries() {
        let mut m: Mac<u8> = Mac {
            cw: 255,
            short_retries: 3,
            long_retries: 2,
            ..Mac::default()
        };
        m.reset_contention(31);
        assert_eq!((m.cw, m.short_retries, m.long_retries), (31, 0, 0));
    }
}
