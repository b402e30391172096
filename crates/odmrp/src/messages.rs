//! ODMRP wire messages.
//!
//! Sizes are modeled explicitly (the simulator does not serialize); they
//! follow the original ODMRP packet formats plus the cost field our
//! metric-enhanced variant adds to `JOIN QUERY`.

use mcast_metrics::probe::ProbeMsg;
use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use mesh_sim::time::SimTime;

use crate::discovery::{DiscoveryMsg, Heard};

/// A `JOIN QUERY`, flooded periodically by each source.
///
/// In the metric-enhanced protocol the query accumulates the path cost from
/// the source: each forwarder looks up the cost of the link it received the
/// query over (from its `NEIGHBOR_TABLE`) and folds it into `cost` before
/// rebroadcasting (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// The multicast group being refreshed.
    pub group: GroupId,
    /// The source that originated this query.
    pub source: NodeId,
    /// Refresh round number (per source).
    pub seq: u32,
    /// The node that (re)broadcast this copy — the upstream candidate.
    pub prev_hop: NodeId,
    /// Hops traveled so far.
    pub hop_count: u8,
    /// Accumulated path cost from the source to `prev_hop`'s receiver.
    /// Interpreted under the variant's metric; `identity` at the source.
    pub cost: f64,
}

impl JoinQuery {
    /// On-air payload size in bytes (IP+UDP+ODMRP query header + cost).
    pub const BYTES: u32 = 52;
}

mesh_sim::snap_struct!(JoinQuery {
    group,
    source,
    seq,
    prev_hop,
    hop_count,
    cost,
});

/// One entry of a `JOIN TABLE`: "for packets from `source`, my chosen next
/// hop toward it is `next_hop`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinTableEntry {
    /// The source this entry selects a path toward.
    pub source: NodeId,
    /// Refresh round this selection answers.
    pub seq: u32,
    /// The upstream neighbor chosen (who becomes a forwarding-group member).
    pub next_hop: NodeId,
}

mesh_sim::snap_struct!(JoinTableEntry {
    source,
    seq,
    next_hop
});

/// A `JOIN REPLY`: a member's (or forwarding node's) join table, broadcast so
/// the named next hops hear themselves selected.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReply {
    /// The multicast group.
    pub group: GroupId,
    /// Who broadcast this reply.
    pub sender: NodeId,
    /// Selected next hops, one per source.
    pub entries: Vec<JoinTableEntry>,
}

impl JoinReply {
    /// On-air payload size in bytes.
    pub fn bytes(&self) -> u32 {
        32 + 12 * self.entries.len() as u32
    }
}

mesh_sim::snap_struct!(JoinReply {
    group,
    sender,
    entries
});

/// A multicast data packet.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// Destination group.
    pub group: GroupId,
    /// Originating source.
    pub source: NodeId,
    /// Per-source data sequence number.
    pub seq: u32,
    /// Source timestamp, for end-to-end delay measurement.
    pub sent_at: SimTime,
    /// Payload size in bytes (the CBR payload; headers accounted separately).
    pub bytes: u32,
}

mesh_sim::snap_struct!(DataPacket {
    group,
    source,
    seq,
    sent_at,
    bytes,
});

/// Everything an ODMRP node puts on the air.
#[derive(Debug, Clone, PartialEq)]
pub enum OdmrpMsg {
    /// Tree-refresh flood.
    JoinQuery(JoinQuery),
    /// Forwarding-group establishment.
    JoinReply(JoinReply),
    /// Multicast payload.
    Data(DataPacket),
    /// Link-quality probe (see `mcast-metrics`).
    Probe(ProbeMsg),
}

impl Snap for OdmrpMsg {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            OdmrpMsg::JoinQuery(q) => {
                w.put_u8(0);
                q.snap(w);
            }
            OdmrpMsg::JoinReply(rp) => {
                w.put_u8(1);
                rp.snap(w);
            }
            OdmrpMsg::Data(d) => {
                w.put_u8(2);
                d.snap(w);
            }
            OdmrpMsg::Probe(p) => {
                w.put_u8(3);
                p.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => OdmrpMsg::JoinQuery(Snap::unsnap(r)?),
            1 => OdmrpMsg::JoinReply(Snap::unsnap(r)?),
            2 => OdmrpMsg::Data(Snap::unsnap(r)?),
            3 => OdmrpMsg::Probe(Snap::unsnap(r)?),
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

impl DiscoveryMsg for OdmrpMsg {
    fn probe(p: ProbeMsg) -> Self {
        OdmrpMsg::Probe(p)
    }

    fn query(q: JoinQuery) -> Self {
        OdmrpMsg::JoinQuery(q)
    }

    fn data(d: DataPacket) -> Self {
        OdmrpMsg::Data(d)
    }

    fn heard(&self) -> Heard<'_> {
        match self {
            OdmrpMsg::Probe(p) => Heard::Probe(p),
            OdmrpMsg::JoinQuery(q) => Heard::Query(q),
            OdmrpMsg::Data(d) => Heard::Data(d),
            OdmrpMsg::JoinReply(_) => Heard::Own,
        }
    }
}

/// Traffic classes used for byte accounting in the simulator counters.
pub mod class {
    /// Multicast payload data.
    pub const DATA: u8 = 0;
    /// Link-quality probes (the numerator of Table 1).
    pub const PROBE: u8 = 1;
    /// JOIN QUERY / JOIN REPLY control traffic.
    pub const CONTROL: u8 = 2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_size_scales_with_entries() {
        let mut r = JoinReply {
            group: GroupId(1),
            sender: NodeId::new(0),
            entries: Vec::new(),
        };
        let base = r.bytes();
        r.entries.push(JoinTableEntry {
            source: NodeId::new(1),
            seq: 0,
            next_hop: NodeId::new(2),
        });
        assert_eq!(r.bytes(), base + 12);
    }

    #[test]
    fn query_has_fixed_size() {
        const { assert!(JoinQuery::BYTES > 0) };
    }
}
