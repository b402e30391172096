//! Extracting measurements from a finished run.

use mesh_sim::counters::Counters;
use mesh_sim::metrics::TimeSeries;
use mesh_sim::protocol::Protocol;
use mesh_sim::simulator::Simulator;
use odmrp::{messages::class, MulticastApp, Variant};

use crate::scenario::GroupSpec;

/// The measurements of one `(variant, topology-seed)` run.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// Protocol variant measured.
    pub variant: Variant,
    /// Topology / randomness seed.
    pub seed: u64,
    /// Data packets originated by all sources.
    pub sent: u64,
    /// `Σ_groups sent_g × |members_g|` — the delivery opportunities.
    pub expected: u64,
    /// Distinct data packets delivered to member applications.
    pub delivered: u64,
    /// Mean end-to-end delay over all deliveries, seconds.
    pub mean_delay_s: f64,
    /// Probe bytes received as a percentage of data bytes received
    /// (Table 1's definition).
    pub probe_overhead_pct: f64,
    /// World counters for deeper analysis.
    pub counters: Counters,
    /// FNV-1a fold over every dequeued event's `(time, seq, kind)` — the
    /// replay-contract fingerprint: equal `(scenario, plan, seed)` must give
    /// equal hashes (see `mesh_sim::Simulator::schedule_hash`).
    pub schedule_hash: u64,
    /// Per-bucket metrics timeseries, when the run recorded one
    /// (see [`crate::runner::Observe::metrics`]).
    pub timeseries: Option<TimeSeries>,
}

impl RunMeasurement {
    /// Packet delivery ratio over all receivers.
    pub fn pdr(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }

    /// Extract measurements from a finished simulator running any multicast
    /// protocol of this workspace (ODMRP or the tree protocol).
    pub fn from_sim<P>(sim: &Simulator<P>, groups: &[GroupSpec], seed: u64) -> Self
    where
        P: Protocol + MulticastApp,
    {
        let nodes = sim.protocols();
        let variant = nodes[0].variant();

        let mut sent = 0u64;
        let mut expected = 0u64;
        let mut delivered = 0u64;
        let mut delay_sum = 0.0f64;
        for g in groups {
            let mut sent_g = 0u64;
            for s in &g.sources {
                sent_g += nodes[s.index()]
                    .node_stats()
                    .sent
                    .get(&g.group)
                    .copied()
                    .unwrap_or(0);
            }
            sent += sent_g;
            expected += sent_g * g.members.len() as u64;
            for m in &g.members {
                for s in &g.sources {
                    if let Some(d) = nodes[m.index()].node_stats().delivered.get(&(g.group, *s)) {
                        delivered += d.count;
                        delay_sum += d.delay_sum_s;
                    }
                }
            }
            // Churning receivers: expected opportunities were precomputed at
            // layout time as the source departures inside each membership
            // window (delivery credit is gated on membership at arrival
            // time, so a leave stops counting immediately).
            for (c, exp) in &g.churners {
                expected += exp;
                for s in &g.sources {
                    if let Some(d) = nodes[c.index()].node_stats().delivered.get(&(g.group, *s)) {
                        delivered += d.count;
                        delay_sum += d.delay_sum_s;
                    }
                }
            }
        }
        let mean_delay_s = if delivered > 0 {
            delay_sum / delivered as f64
        } else {
            0.0
        };
        let counters = sim.counters().clone();
        let data_rx = counters.rx_data[class::DATA as usize].bytes;
        let probe_rx = counters.rx_data[class::PROBE as usize].bytes;
        let probe_overhead_pct = if data_rx == 0 {
            0.0
        } else {
            100.0 * probe_rx as f64 / data_rx as f64
        };
        RunMeasurement {
            variant,
            seed,
            sent,
            expected,
            delivered,
            mean_delay_s,
            probe_overhead_pct,
            counters,
            schedule_hash: sim.schedule_hash(),
            timeseries: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdr_handles_zero_expected() {
        let m = RunMeasurement {
            variant: Variant::Original,
            seed: 0,
            sent: 0,
            expected: 0,
            delivered: 0,
            mean_delay_s: 0.0,
            probe_overhead_pct: 0.0,
            counters: Counters::default(),
            schedule_hash: 0,
            timeseries: None,
        };
        assert_eq!(m.pdr(), 0.0);
    }

    #[test]
    fn pdr_ratio() {
        let m = RunMeasurement {
            variant: Variant::Original,
            seed: 0,
            sent: 100,
            expected: 1000,
            delivered: 750,
            mean_delay_s: 0.01,
            probe_overhead_pct: 0.5,
            counters: Counters::default(),
            schedule_hash: 0,
            timeseries: None,
        };
        assert_eq!(m.pdr(), 0.75);
    }
}
