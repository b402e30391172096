//! Tree-multicast wire messages.
//!
//! Route discovery floods ODMRP's [`JoinQuery`]; only the graft is the tree
//! protocol's own.

use mcast_metrics::probe::ProbeMsg;
use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use odmrp::discovery::{DiscoveryMsg, Heard};
use odmrp::messages::{DataPacket, JoinQuery};

/// A graft (MAODV's `MACT`-style activation), **unicast** hop by hop from a
/// member toward the source. Each hop adds the sender as a tree child and
/// forwards the graft to its own upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Graft {
    /// The multicast group.
    pub group: GroupId,
    /// The tree root the branch attaches to.
    pub source: NodeId,
    /// Refresh round the graft answers.
    pub seq: u32,
    /// The member that initiated the branch (for tracing).
    pub origin: NodeId,
}

impl Graft {
    /// On-air payload size in bytes.
    pub const BYTES: u32 = 36;
}

mesh_sim::snap_struct!(Graft {
    group,
    source,
    seq,
    origin
});

/// Everything a tree-multicast node puts on the air.
#[derive(Debug, Clone, PartialEq)]
pub enum MaodvMsg {
    /// Tree-refresh flood (the shared discovery query).
    JoinQuery(JoinQuery),
    /// Branch activation (unicast).
    Graft(Graft),
    /// Multicast payload (broadcast, forwarded by tree nodes).
    Data(DataPacket),
    /// Link-quality probe.
    Probe(ProbeMsg),
}

impl DiscoveryMsg for MaodvMsg {
    fn probe(p: ProbeMsg) -> Self {
        MaodvMsg::Probe(p)
    }

    fn query(q: JoinQuery) -> Self {
        MaodvMsg::JoinQuery(q)
    }

    fn data(d: DataPacket) -> Self {
        MaodvMsg::Data(d)
    }

    fn heard(&self) -> Heard<'_> {
        match self {
            MaodvMsg::Probe(p) => Heard::Probe(p),
            MaodvMsg::JoinQuery(q) => Heard::Query(q),
            MaodvMsg::Data(d) => Heard::Data(d),
            MaodvMsg::Graft(_) => Heard::Own,
        }
    }
}

impl Snap for MaodvMsg {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            MaodvMsg::JoinQuery(q) => {
                w.put_u8(0);
                q.snap(w);
            }
            MaodvMsg::Graft(g) => {
                w.put_u8(1);
                g.snap(w);
            }
            MaodvMsg::Data(d) => {
                w.put_u8(2);
                d.snap(w);
            }
            MaodvMsg::Probe(p) => {
                w.put_u8(3);
                p.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => MaodvMsg::JoinQuery(Snap::unsnap(r)?),
            1 => MaodvMsg::Graft(Snap::unsnap(r)?),
            2 => MaodvMsg::Data(Snap::unsnap(r)?),
            3 => MaodvMsg::Probe(Snap::unsnap(r)?),
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_positive() {
        const { assert!(Graft::BYTES > 0) };
    }

    #[test]
    fn graft_is_copy() {
        let g = Graft {
            group: GroupId(0),
            source: NodeId::new(1),
            seq: 2,
            origin: NodeId::new(3),
        };
        let h = g;
        assert_eq!(g, h);
    }
}
