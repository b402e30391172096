//! Identifier newtypes used throughout the simulator.

use std::fmt;

/// Identifier of a node in the simulated network.
///
/// Node ids are dense indices assigned in creation order, so they double as
/// indices into per-node arrays.
///
/// ```
/// use mesh_sim::ids::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Create a node id from a dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a frame in flight on the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub(crate) u64);

impl FrameId {
    /// The raw value; exposed for tracing and debugging.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Handle identifying an outgoing transmission request, echoed back to the
/// protocol in [`crate::protocol::Protocol::handle_tx_complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxHandle(pub u64);

impl fmt::Display for TxHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// Identifier of a protocol timer: returned by
/// [`crate::world::Ctx::set_timer`] and echoed back to
/// [`crate::protocol::Protocol::handle_timer`] when it fires. Timers cannot
/// be cancelled; a protocol that needs to ignore one keeps its own token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a multicast group (carried opaquely by the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(17);
        assert_eq!(n.index(), 17);
        assert_eq!(n.as_u32(), 17);
        assert_eq!(n.to_string(), "n17");
    }

    #[test]
    fn display_forms_nonempty() {
        assert_eq!(FrameId(4).to_string(), "f4");
        assert_eq!(TxHandle(9).to_string(), "tx9");
        assert_eq!(TimerId(2).to_string(), "t2");
        assert_eq!(GroupId(1).to_string(), "g1");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(FrameId(1) < FrameId(2));
    }
}
