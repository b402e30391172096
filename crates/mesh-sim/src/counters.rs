//! Measurement counters.
//!
//! Byte counts are kept per protocol-defined *traffic class* (an opaque
//! `u8 < 16`), which is how the experiments separate probe overhead from data
//! traffic (Table 1 of the paper).

/// Maximum number of distinct traffic classes.
pub const MAX_CLASSES: usize = 16;

/// Index of the overflow bucket in per-class arrays: classes `>= MAX_CLASSES`
/// are tallied here instead of silently aliasing a real class (which would
/// corrupt e.g. the Table-1 probe/data overhead split).
pub const OVERFLOW_CLASS_SLOT: usize = MAX_CLASSES;

/// Map a traffic class to its per-class array slot: in-range classes map to
/// themselves, anything else to [`OVERFLOW_CLASS_SLOT`].
pub fn class_slot(class: u8) -> usize {
    let c = class as usize;
    if c < MAX_CLASSES {
        c
    } else {
        OVERFLOW_CLASS_SLOT
    }
}

/// Per-class frame/byte tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Frames observed.
    pub frames: u64,
    /// Payload bytes observed (MAC/PHY overhead excluded).
    pub bytes: u64,
}

/// Global medium/MAC statistics for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Data frames transmitted, by class (index [`OVERFLOW_CLASS_SLOT`]
    /// collects out-of-range classes; see [`class_slot`]).
    pub tx_data: [ClassCounts; MAX_CLASSES + 1],
    /// Data frames delivered to a protocol, by class (each broadcast frame
    /// counts once per receiver that decoded it; index
    /// [`OVERFLOW_CLASS_SLOT`] collects out-of-range classes).
    pub rx_data: [ClassCounts; MAX_CLASSES + 1],
    /// Control frames transmitted (RTS/CTS/ACK).
    pub tx_ctrl_frames: u64,
    /// Control bytes transmitted.
    pub tx_ctrl_bytes: u64,
    /// Receptions destroyed by collisions (both frames within capture ratio).
    pub collisions: u64,
    /// Receptions lost because a stronger frame captured the receiver.
    pub capture_losses: u64,
    /// Arrivals sensed above CS but below the receive threshold.
    pub below_rx_threshold: u64,
    /// Arrivals that found the receiver already transmitting.
    pub rx_while_tx: u64,
    /// Frames dropped at the MAC queue (drop-tail overflow).
    pub queue_drops: u64,
    /// Unicast transmissions abandoned after exhausting retries.
    pub unicast_failures: u64,
    /// Total MAC retransmission attempts (RTS or data).
    pub retries: u64,
    /// Unicast data frames suppressed by receive-side duplicate detection.
    pub duplicate_rx_suppressed: u64,
    /// Events processed (a progress/size measure).
    pub events: u64,
    /// Data-frame arrivals planned by the medium (one per `RxStart` of a
    /// data frame). The conservation oracle balances this against every
    /// per-arrival outcome below plus deliveries and in-flight receptions.
    pub planned_rx_data: u64,
    /// Data-frame arrivals lost at `RxStart` (capture, collision, below
    /// threshold, or arriving while the receiver transmitted).
    pub rx_lost_data: u64,
    /// Data-frame receptions that completed corrupted (collision or strong
    /// interference detected mid-reception).
    pub rx_corrupted_data: u64,
    /// Data-frame receptions aborted mid-air: the receiver started its own
    /// transmission (half-duplex) or crashed.
    pub rx_aborted_data: u64,
    /// Unicast data frames decoded by a node that was not the destination.
    pub unicast_overheard: u64,
    /// Data-frame arrivals suppressed by fault injection (crashed receiver
    /// or an active class-loss burst).
    pub fault_rx_dropped: u64,
    /// Queued frames purged from MAC queues by node-crash faults.
    pub fault_tx_purged: u64,
    /// Fault-plan events applied.
    pub fault_events: u64,
}

impl Counters {
    /// Total transmitted payload bytes across all data classes.
    pub fn tx_data_bytes_total(&self) -> u64 {
        self.tx_data.iter().map(|c| c.bytes).sum()
    }

    /// Total delivered payload bytes across all data classes.
    pub fn rx_data_bytes_total(&self) -> u64 {
        self.rx_data.iter().map(|c| c.bytes).sum()
    }

    pub(crate) fn record_tx_data(&mut self, class: u8, bytes: u64) {
        let c = &mut self.tx_data[class_slot(class)];
        c.frames += 1;
        c.bytes += bytes;
    }

    pub(crate) fn record_rx_data(&mut self, class: u8, bytes: u64) {
        let c = &mut self.rx_data[class_slot(class)];
        c.frames += 1;
        c.bytes += bytes;
    }
}

crate::snap_struct!(ClassCounts { frames, bytes });

crate::snap_struct!(Counters {
    tx_data,
    rx_data,
    tx_ctrl_frames,
    tx_ctrl_bytes,
    collisions,
    capture_losses,
    below_rx_threshold,
    rx_while_tx,
    queue_drops,
    unicast_failures,
    retries,
    duplicate_rx_suppressed,
    events,
    planned_rx_data,
    rx_lost_data,
    rx_corrupted_data,
    rx_aborted_data,
    unicast_overheard,
    fault_rx_dropped,
    fault_tx_purged,
    fault_events,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_classes() {
        let mut c = Counters::default();
        c.record_tx_data(0, 100);
        c.record_tx_data(3, 50);
        c.record_rx_data(3, 50);
        assert_eq!(c.tx_data_bytes_total(), 150);
        assert_eq!(c.rx_data_bytes_total(), 50);
        assert_eq!(c.tx_data[0].frames, 1);
        assert_eq!(c.tx_data[3].frames, 1);
    }

    #[test]
    fn out_of_range_class_lands_in_overflow_bucket() {
        // Regression: class 200 used to wrap to slot 200 % 16 == 8,
        // silently corrupting class 8's tally.
        let mut c = Counters::default();
        c.record_tx_data(200, 1);
        c.record_rx_data(16, 7);
        assert_eq!(c.tx_data[OVERFLOW_CLASS_SLOT].frames, 1);
        assert_eq!(c.rx_data[OVERFLOW_CLASS_SLOT].bytes, 7);
        for slot in 0..MAX_CLASSES {
            assert_eq!(c.tx_data[slot].frames, 0, "class {slot} was aliased");
            assert_eq!(c.rx_data[slot].frames, 0, "class {slot} was aliased");
        }
        // Totals still include the overflow bucket.
        assert_eq!(c.tx_data_bytes_total(), 1);
        assert_eq!(c.rx_data_bytes_total(), 7);
    }

    #[test]
    fn class_slot_boundaries() {
        assert_eq!(class_slot(0), 0);
        assert_eq!(class_slot(15), 15);
        assert_eq!(class_slot(16), OVERFLOW_CLASS_SLOT);
        assert_eq!(class_slot(255), OVERFLOW_CLASS_SLOT);
    }
}
