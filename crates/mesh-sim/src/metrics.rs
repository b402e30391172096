//! Per-run metrics timeseries: fixed-width time buckets of counter deltas.
//!
//! End-of-run [`crate::counters::Counters`] answer *how much*; the
//! timeseries answers *when*. A [`MetricsRecorder`] attached to the world
//! (via [`crate::world::World::set_metrics`]) snapshots the cumulative
//! counters at every bucket boundary and stores the per-bucket deltas, plus
//! delivery delays reported by protocols through
//! [`crate::world::Ctx::observe_delivery`].
//!
//! Like tracing, the recorder obeys the zero-perturbation contract: it
//! schedules no events, draws no randomness and mutates no counter, so
//! `schedule_hash` is identical with and without it.

use crate::counters::Counters;
use crate::snapshot::SnapError;
use crate::time::{SimDuration, SimTime};

/// Counter deltas over one `[start, end)` time bucket.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsBucket {
    /// Bucket start (inclusive).
    pub start: SimTime,
    /// Bucket end (exclusive; `start + width` except for the final partial
    /// bucket of a run).
    pub end: SimTime,
    /// Data frames transmitted (all classes).
    pub tx_data_frames: u64,
    /// Data payload bytes transmitted.
    pub tx_data_bytes: u64,
    /// Data frames delivered to protocols (all classes).
    pub rx_data_frames: u64,
    /// Data payload bytes delivered to protocols.
    pub rx_data_bytes: u64,
    /// Control frames (RTS/CTS/ACK) transmitted.
    pub tx_ctrl_frames: u64,
    /// Receptions destroyed by collisions.
    pub collisions: u64,
    /// Frames dropped at MAC queues.
    pub queue_drops: u64,
    /// MAC retransmission attempts.
    pub retries: u64,
    /// Data arrivals lost at RxStart (capture/collision/threshold/while-tx).
    pub rx_lost_data: u64,
    /// Data receptions that completed corrupted.
    pub rx_corrupted_data: u64,
    /// Data arrivals suppressed by fault injection.
    pub fault_rx_dropped: u64,
    /// Fault-plan events applied.
    pub fault_events: u64,
    /// Application-level deliveries reported via `observe_delivery`.
    pub deliveries: u64,
    /// Sum of end-to-end delays of those deliveries, seconds.
    pub delay_sum_s: f64,
}

impl MetricsBucket {
    /// Bucket span in seconds (0 for a degenerate empty bucket).
    pub fn width_s(&self) -> f64 {
        self.end.saturating_since(self.start).as_secs_f64()
    }

    /// Received-data throughput over the bucket, bits per second
    /// (0 for a zero-width bucket — never NaN).
    pub fn throughput_bps(&self) -> f64 {
        let w = self.width_s();
        if w > 0.0 {
            (self.rx_data_bytes * 8) as f64 / w
        } else {
            0.0
        }
    }

    /// Mean end-to-end delivery delay in this bucket, seconds
    /// (0 when nothing was delivered — never NaN).
    pub fn mean_delay_s(&self) -> f64 {
        if self.deliveries > 0 {
            self.delay_sum_s / self.deliveries as f64
        } else {
            0.0
        }
    }
}

/// The finished timeseries of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Nominal bucket width.
    pub bucket_width: SimDuration,
    /// Buckets in time order; the last one may be partial.
    pub buckets: Vec<MetricsBucket>,
}

impl TimeSeries {
    /// Total deliveries across all buckets.
    pub fn total_deliveries(&self) -> u64 {
        self.buckets.iter().map(|b| b.deliveries).sum()
    }
}

/// Accumulates [`MetricsBucket`]s as the world steps through time.
#[derive(Debug)]
pub(crate) struct MetricsRecorder {
    width: SimDuration,
    /// Start of the currently open bucket.
    open_start: SimTime,
    /// Cumulative counters at `open_start`.
    base: Counters,
    /// Deliveries observed in the open bucket.
    open_deliveries: u64,
    open_delay_sum_s: f64,
    buckets: Vec<MetricsBucket>,
}

impl MetricsRecorder {
    /// Create a recorder with buckets of `width`, starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration, start: SimTime) -> Self {
        assert!(
            width.as_nanos() > 0,
            "metrics bucket width must be positive"
        );
        MetricsRecorder {
            width,
            open_start: start,
            base: Counters::default(),
            open_deliveries: 0,
            open_delay_sum_s: 0.0,
            buckets: Vec::new(),
        }
    }

    /// Whether `now` has reached the open bucket's end, so that
    /// [`MetricsRecorder::advance`] would close at least one bucket.
    pub fn bucket_due(&self, now: SimTime) -> bool {
        now >= self.open_start + self.width
    }

    /// Close every bucket whose boundary `now` has reached, snapshotting
    /// deltas against `counters`. Called once per world step, *before* the
    /// event at `now` is dispatched, so each bucket contains exactly the
    /// events with `open_start <= time < end`.
    pub fn advance(&mut self, now: SimTime, counters: &Counters) {
        while self.bucket_due(now) {
            let end = self.open_start + self.width;
            self.close_bucket(end, counters);
        }
    }

    /// Report one application-level delivery in the open bucket.
    pub fn record_delivery(&mut self, delay: SimDuration) {
        self.open_deliveries += 1;
        self.open_delay_sum_s += delay.as_secs_f64();
    }

    /// Close the final (possibly partial) bucket at `now` and return the
    /// finished timeseries.
    pub fn finish(mut self, now: SimTime, counters: &Counters) -> TimeSeries {
        self.advance(now, counters);
        // Close the final partial bucket if it spans any time OR holds any
        // activity. The activity checks matter when the run ends exactly on
        // a bucket boundary: events dispatched at that instant (a mobility
        // tick at the stop time, say) land in a zero-width bucket that
        // would otherwise be dropped, losing their deltas from the series.
        let pending = self.open_deliveries > 0 || *counters != self.base;
        if now > self.open_start || pending {
            let end = now.max(self.open_start);
            self.close_bucket(end, counters);
        }
        TimeSeries {
            bucket_width: self.width,
            buckets: self.buckets,
        }
    }

    fn close_bucket(&mut self, end: SimTime, c: &Counters) {
        // Counters only grow, and restore refuses bases ahead of them (see
        // `MetricsRecorder::check`), so every delta exists.
        if let Some(bucket) = self.deltas(end, c) {
            self.buckets.push(bucket);
        }
        self.open_start = end;
        self.base = c.clone();
        self.open_deliveries = 0;
        self.open_delay_sum_s = 0.0;
    }
}

impl MetricsRecorder {
    /// The open bucket, closed at `end`: what the counters `c` gained since
    /// its bases. `None` if a base is ahead.
    fn deltas(&self, end: SimTime, c: &Counters) -> Option<MetricsBucket> {
        let b = &self.base;
        let d = |now: u64, then: u64| now.checked_sub(then);
        Some(MetricsBucket {
            start: self.open_start,
            end,
            tx_data_frames: d(frames(&c.tx_data), frames(&b.tx_data))?,
            tx_data_bytes: d(c.tx_data_bytes_total(), b.tx_data_bytes_total())?,
            rx_data_frames: d(frames(&c.rx_data), frames(&b.rx_data))?,
            rx_data_bytes: d(c.rx_data_bytes_total(), b.rx_data_bytes_total())?,
            tx_ctrl_frames: d(c.tx_ctrl_frames, b.tx_ctrl_frames)?,
            collisions: d(c.collisions, b.collisions)?,
            queue_drops: d(c.queue_drops, b.queue_drops)?,
            retries: d(c.retries, b.retries)?,
            rx_lost_data: d(c.rx_lost_data, b.rx_lost_data)?,
            rx_corrupted_data: d(c.rx_corrupted_data, b.rx_corrupted_data)?,
            fault_rx_dropped: d(c.fault_rx_dropped, b.fault_rx_dropped)?,
            fault_events: d(c.fault_events, b.fault_events)?,
            deliveries: self.open_deliveries,
            delay_sum_s: self.open_delay_sum_s,
        })
    }

    /// Check a restored recorder against the restored `counters`: the next
    /// bucket closes on their growth since its bases, so no base may be
    /// ahead.
    pub(crate) fn check(&self, counters: &Counters) -> Result<(), SnapError> {
        match self.deltas(self.open_start, counters) {
            Some(_) => Ok(()),
            None => Err(SnapError::StateMismatch("metrics recorder base")),
        }
    }
}

fn frames(classes: &[crate::counters::ClassCounts]) -> u64 {
    classes.iter().map(|c| c.frames).sum()
}

crate::snap_struct!(MetricsBucket {
    start,
    end,
    tx_data_frames,
    tx_data_bytes,
    rx_data_frames,
    rx_data_bytes,
    tx_ctrl_frames,
    collisions,
    queue_drops,
    retries,
    rx_lost_data,
    rx_corrupted_data,
    fault_rx_dropped,
    fault_events,
    deliveries,
    delay_sum_s,
});

crate::snap_struct!(TimeSeries {
    bucket_width,
    buckets
});

// Mid-bucket state serializes exactly: `advance` runs before event dispatch
// in `World::step`, so at a checkpoint the open bucket's bases and pending
// deliveries are a complete description of the recorder.
crate::snap_struct!(MetricsRecorder {
    width,
    open_start,
    base,
    open_deliveries,
    open_delay_sum_s,
    buckets,
});

#[cfg(test)]
mod tests {
    use super::*;

    /// A bucket closes on the counters' growth since its bases, so a
    /// restored base ahead of the counters is a state mismatch.
    #[test]
    fn check_rejects_a_base_ahead_of_the_counters() {
        let c = Counters {
            collisions: 3,
            ..Counters::default()
        };
        let mut rec = MetricsRecorder::new(SimDuration::from_secs(10), SimTime::ZERO);
        rec.base.collisions = 3;
        assert_eq!(rec.check(&c), Ok(()));
        rec.base.collisions = 4;
        assert_eq!(
            rec.check(&c),
            Err(SnapError::StateMismatch("metrics recorder base"))
        );
    }

    #[test]
    fn buckets_partition_counter_deltas() {
        let mut c = Counters::default();
        let mut rec = MetricsRecorder::new(SimDuration::from_secs(10), SimTime::ZERO);

        // Two events in bucket 0.
        c.record_tx_data(0, 100);
        c.record_rx_data(0, 100);
        rec.record_delivery(SimDuration::from_millis(20));
        // First event at t=12s closes bucket [0, 10).
        rec.advance(SimTime::from_secs(12), &c);
        assert_eq!(rec.buckets.len(), 1);
        assert_eq!(rec.buckets[0].tx_data_frames, 1);
        assert_eq!(rec.buckets[0].rx_data_bytes, 100);
        assert_eq!(rec.buckets[0].deliveries, 1);

        // One more event in bucket 1.
        c.record_rx_data(1, 50);
        let ts = rec.finish(SimTime::from_secs(15), &c);
        assert_eq!(ts.buckets.len(), 2);
        assert_eq!(ts.buckets[1].start, SimTime::from_secs(10));
        assert_eq!(ts.buckets[1].end, SimTime::from_secs(15));
        assert_eq!(ts.buckets[1].rx_data_bytes, 50);
        assert_eq!(ts.buckets[1].deliveries, 0);
        assert_eq!(ts.total_deliveries(), 1);

        // Sum of bucket deltas equals the cumulative counters.
        let total: u64 = ts.buckets.iter().map(|b| b.rx_data_bytes).sum();
        assert_eq!(total, c.rx_data_bytes_total());
    }

    #[test]
    fn idle_gaps_produce_empty_buckets() {
        let c = Counters::default();
        let mut rec = MetricsRecorder::new(SimDuration::from_secs(1), SimTime::ZERO);
        rec.advance(SimTime::from_secs(3), &c);
        assert_eq!(rec.buckets.len(), 3);
        assert!(rec.buckets.iter().all(|b| b.tx_data_frames == 0));
    }

    #[test]
    fn rates_never_nan() {
        let b = MetricsBucket::default();
        assert_eq!(b.throughput_bps(), 0.0);
        assert_eq!(b.mean_delay_s(), 0.0);
        let ts = MetricsRecorder::new(SimDuration::from_secs(1), SimTime::ZERO)
            .finish(SimTime::ZERO, &Counters::default());
        assert!(ts.buckets.is_empty());
    }

    #[test]
    fn activity_exactly_at_a_bucket_boundary_is_not_lost() {
        // An event dispatched exactly at the stop time falls into a
        // zero-width final bucket; its deltas must still be reported.
        let mut c = Counters::default();
        let mut rec = MetricsRecorder::new(SimDuration::from_secs(10), SimTime::ZERO);
        rec.advance(SimTime::from_secs(10), &c);
        // Counter activity at t = 10 s, exactly on the boundary.
        c.record_tx_data(0, 100);
        let ts = rec.finish(SimTime::from_secs(10), &c);
        assert_eq!(ts.buckets.len(), 2);
        let last = ts.buckets.last().unwrap();
        assert_eq!(last.start, last.end, "zero-width final bucket");
        assert_eq!(last.tx_data_frames, 1);
        assert_eq!(last.throughput_bps(), 0.0, "zero width must not NaN");
        // A boundary finish with nothing pending still emits no bucket.
        let rec = MetricsRecorder::new(SimDuration::from_secs(10), SimTime::ZERO);
        let ts = rec.finish(SimTime::ZERO, &Counters::default());
        assert!(ts.buckets.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = MetricsRecorder::new(SimDuration::ZERO, SimTime::ZERO);
    }

    #[test]
    fn delay_mean_is_per_bucket() {
        let c = Counters::default();
        let mut rec = MetricsRecorder::new(SimDuration::from_secs(1), SimTime::ZERO);
        rec.record_delivery(SimDuration::from_millis(10));
        rec.record_delivery(SimDuration::from_millis(30));
        let ts = rec.finish(SimTime::ZERO + SimDuration::from_millis(500), &c);
        assert_eq!(ts.buckets.len(), 1);
        assert!((ts.buckets[0].mean_delay_s() - 0.02).abs() < 1e-12);
    }
}
