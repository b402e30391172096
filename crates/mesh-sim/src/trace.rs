//! Zero-perturbation structured tracing.
//!
//! A [`TraceSink`] attached to the world receives one typed [`TraceEvent`]
//! per packet-lifecycle step — transmissions, arrivals, losses, deliveries,
//! queue drops, retries, fault applications and protocol decisions — each
//! stamped with `(time, node, seq, class, frame)` where known.
//!
//! **The zero-perturbation contract**: tracing is observation only. A sink
//! never touches the event queue, the RNG, or any counter, so
//! [`crate::world::World::schedule_hash`] is bit-identical whether tracing
//! is off, buffered in a [`RingTrace`], or streamed to a [`JsonlTrace`]
//! file. Every emission site in the world is guarded by `trace.is_some()`,
//! making the whole subsystem zero-cost when no sink is attached. The
//! observer-effect suite in `experiments/tests/observability.rs` enforces
//! this contract.
//!
//! Two sinks are provided: [`RingTrace`] (bounded in-memory ring, oldest
//! events evicted first) and [`JsonlTrace`] (streams one JSON object per
//! line to a file; [`TraceEvent::parse_jsonl`] reads them back).

use crate::ids::{FrameId, NodeId};
use crate::time::SimTime;

/// What kind of frame an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
    /// Link-layer acknowledgment.
    Ack,
    /// Data frame (broadcast or unicast).
    Data,
}

impl FrameKind {
    /// Stable wire label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::Rts => "rts",
            FrameKind::Cts => "cts",
            FrameKind::Ack => "ack",
            FrameKind::Data => "data",
        }
    }

    fn from_label(s: &str) -> Option<FrameKind> {
        Some(match s {
            "rts" => FrameKind::Rts,
            "cts" => FrameKind::Cts,
            "ack" => FrameKind::Ack,
            "data" => FrameKind::Data,
            _ => return None,
        })
    }
}

/// Why an arrival never became a delivery.
///
/// Together with [`TraceEventKind::Delivered`] these are the *terminal
/// outcomes* of a reception: every data-frame `RxStart` is followed by
/// exactly one of them for the same `(node, frame)` (the trace-completeness
/// test mirrors the counter-conservation oracle in [`crate::invariants`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Destroyed by a collision at arrival (neither frame survived).
    Collision,
    /// Lost to capture: a stronger frame owned (or took over) the receiver.
    Captured,
    /// Power below the decode threshold.
    BelowThreshold,
    /// The radio was transmitting when the frame arrived.
    WhileTx,
    /// Reception completed but the frame was corrupted mid-air.
    Corrupted,
    /// Reception aborted: the receiver started transmitting (half-duplex)
    /// or crashed mid-reception.
    Aborted,
    /// The receiver was crashed (fault-injected) for the whole arrival.
    FaultRx,
    /// Dropped by an active class-loss burst (fault injection).
    ClassBurst,
    /// Decoded intact but suppressed by MAC duplicate detection.
    Duplicate,
    /// Unicast decoded by a node that was not the destination.
    NotForUs,
}

impl DropReason {
    /// Stable wire label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Collision => "collision",
            DropReason::Captured => "captured",
            DropReason::BelowThreshold => "below_threshold",
            DropReason::WhileTx => "while_tx",
            DropReason::Corrupted => "corrupted",
            DropReason::Aborted => "aborted",
            DropReason::FaultRx => "fault_rx",
            DropReason::ClassBurst => "class_burst",
            DropReason::Duplicate => "duplicate",
            DropReason::NotForUs => "not_for_us",
        }
    }

    /// All reasons, in a stable order (drop-histogram rows).
    pub const ALL: [DropReason; 10] = [
        DropReason::Collision,
        DropReason::Captured,
        DropReason::BelowThreshold,
        DropReason::WhileTx,
        DropReason::Corrupted,
        DropReason::Aborted,
        DropReason::FaultRx,
        DropReason::ClassBurst,
        DropReason::Duplicate,
        DropReason::NotForUs,
    ];

    fn from_label(s: &str) -> Option<DropReason> {
        DropReason::ALL.into_iter().find(|r| r.label() == s)
    }
}

/// Stable labels for [`TraceEventKind::FaultApplied`], one per
/// [`crate::fault::FaultKind`] variant.
pub mod fault_label {
    /// A node was powered off.
    pub const NODE_CRASH: &str = "node_crash";
    /// A crashed node was powered back on.
    pub const NODE_RECOVER: &str = "node_recover";
    /// A directed-link override was applied.
    pub const LINK_FAULT: &str = "link_fault";
    /// A directed-link override was removed.
    pub const LINK_RESTORE: &str = "link_restore";
    /// A regional partition was applied.
    pub const PARTITION: &str = "partition";
    /// A partition was healed.
    pub const HEAL_PARTITION: &str = "heal_partition";
    /// A class-loss burst began.
    pub const CLASS_LOSS_BURST: &str = "class_loss_burst";
    /// A class-loss burst ended.
    pub const CLASS_LOSS_CLEAR: &str = "class_loss_clear";

    /// All labels (for parsing back from JSONL).
    pub const ALL: [&str; 8] = [
        NODE_CRASH,
        NODE_RECOVER,
        LINK_FAULT,
        LINK_RESTORE,
        PARTITION,
        HEAL_PARTITION,
        CLASS_LOSS_BURST,
        CLASS_LOSS_CLEAR,
    ];
}

/// A routing-layer decision worth a trace line, reported by protocol code
/// through [`crate::world::Ctx::trace_decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// This node joined (or refreshed) the forwarding group of `group`.
    FgJoin {
        /// Raw multicast group id.
        group: u32,
    },
    /// `child` was grafted as a tree child for `group` (tree protocols).
    TreeJoin {
        /// Raw multicast group id.
        group: u32,
        /// The grafting neighbor.
        child: NodeId,
    },
    /// This node re-broadcast data packet `(source, pkt_seq)`.
    ForwardData {
        /// Raw multicast group id.
        group: u32,
        /// Originating application source.
        source: NodeId,
        /// Application-level packet sequence number.
        pkt_seq: u32,
    },
    /// Data packet `(source, pkt_seq)` was a network-layer duplicate.
    SuppressDuplicate {
        /// Raw multicast group id.
        group: u32,
        /// Originating application source.
        source: NodeId,
        /// Application-level packet sequence number.
        pkt_seq: u32,
    },
    /// This node re-flooded the join query of round `(source, pkt_seq)`.
    ForwardQuery {
        /// The source whose query round this is.
        source: NodeId,
        /// Query round sequence number.
        pkt_seq: u32,
    },
    /// This node answered round `(source, pkt_seq)` with a join reply.
    SendReply {
        /// The source whose query round this is.
        source: NodeId,
        /// Query round sequence number.
        pkt_seq: u32,
    },
    /// The staleness state machine quarantined the link estimate for `peer`
    /// (degraded mode excludes it from metric path costs).
    MetricQuarantine {
        /// The neighbor whose estimate was quarantined.
        peer: NodeId,
    },
    /// This node has no usable (non-quarantined) estimate left and fell
    /// back to minimum-hop path selection.
    FallbackActivated,
    /// A refresh round elected no forwarding state; the next refresh is
    /// delayed by `factor` × the nominal refresh interval.
    RefreshBackoff {
        /// Current backoff multiplier (power of two, bounded).
        factor: u32,
    },
}

impl Decision {
    /// Stable wire label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            Decision::FgJoin { .. } => "fg_join",
            Decision::TreeJoin { .. } => "tree_join",
            Decision::ForwardData { .. } => "forward_data",
            Decision::SuppressDuplicate { .. } => "suppress_duplicate",
            Decision::ForwardQuery { .. } => "forward_query",
            Decision::SendReply { .. } => "send_reply",
            Decision::MetricQuarantine { .. } => "metric_quarantine",
            Decision::FallbackActivated => "fallback_activated",
            Decision::RefreshBackoff { .. } => "refresh_backoff",
        }
    }
}

/// What happened (the typed part of a [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A frame went on the air.
    TxStart {
        /// MAC-level frame kind.
        frame_kind: FrameKind,
        /// Unicast destination, `None` for broadcast.
        dst: Option<NodeId>,
        /// On-air size in bytes.
        bytes: u32,
    },
    /// A data-frame arrival began at this node (one per `planned_rx_data`,
    /// including arrivals at crashed receivers).
    RxStart {
        /// Transmitting node.
        src: NodeId,
    },
    /// An arrival (or in-progress reception) was lost.
    RxDrop {
        /// Why it was lost.
        reason: DropReason,
    },
    /// A frame was decoded intact and consumed (data frames: handed to the
    /// protocol; control frames: acted on by the MAC).
    Delivered {
        /// Transmitting node.
        src: NodeId,
        /// MAC-level frame kind.
        frame_kind: FrameKind,
    },
    /// A send was refused because the MAC queue was full (drop-tail).
    QueueDrop,
    /// A unicast attempt timed out and is being retried.
    Retry {
        /// Attempt number about to run (1 = first retransmission).
        attempt: u32,
    },
    /// A fault-plan event was applied (see [`fault_label`]).
    FaultApplied {
        /// Which fault (one of the [`fault_label`] constants).
        fault: &'static str,
        /// The other endpoint, for link faults.
        peer: Option<NodeId>,
    },
    /// A routing-layer decision (see [`Decision`]).
    ProtocolDecision {
        /// The decision taken.
        decision: Decision,
    },
}

/// One traced packet-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// The node concerned; `None` for world-scoped events (partitions,
    /// class-loss bursts).
    pub node: Option<NodeId>,
    /// MAC-level sequence number of the data frame concerned, if any
    /// (stable across retransmissions of the same frame).
    pub seq: Option<u64>,
    /// Traffic class of the data frame concerned, if any.
    pub class: Option<u8>,
    /// The in-flight frame concerned, if any. Frame ids are unique while a
    /// frame is on the air (slots are generation-tagged on reuse).
    pub frame: Option<FrameId>,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// The simulated time of the event.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// Stable wire name of the event kind (the `"ev"` JSONL field).
    pub fn ev_name(&self) -> &'static str {
        match self.kind {
            TraceEventKind::TxStart { .. } => "tx_start",
            TraceEventKind::RxStart { .. } => "rx_start",
            TraceEventKind::RxDrop { .. } => "rx_drop",
            TraceEventKind::Delivered { .. } => "delivered",
            TraceEventKind::QueueDrop => "queue_drop",
            TraceEventKind::Retry { .. } => "retry",
            TraceEventKind::FaultApplied { .. } => "fault",
            TraceEventKind::ProtocolDecision { .. } => "decision",
        }
    }

    /// Append the flat single-line JSON encoding of this event to `out`
    /// (no trailing newline). Keys are static byte strings in a fixed order
    /// (`t, ev, node, seq, class, frame`, then the kind's own fields) and
    /// every value is an unsigned integer or a label from a fixed
    /// vocabulary, so no escaping is ever required and the bytes are ASCII.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(LINE_RESERVE);
        out.extend_from_slice(b"{\"t\":");
        put_uint(out, self.at.as_nanos());
        put_label(out, b",\"ev\":", self.ev_name());
        if let Some(n) = self.node {
            put_num(out, b",\"node\":", n.as_u32().into());
        }
        if let Some(s) = self.seq {
            put_num(out, b",\"seq\":", s);
        }
        if let Some(c) = self.class {
            put_num(out, b",\"class\":", c.into());
        }
        if let Some(f) = self.frame {
            put_num(out, b",\"frame\":", f.as_u64());
        }
        match self.kind {
            TraceEventKind::TxStart {
                frame_kind,
                dst,
                bytes,
            } => {
                put_label(out, b",\"kind\":", frame_kind.label());
                if let Some(d) = dst {
                    put_num(out, b",\"dst\":", d.as_u32().into());
                }
                put_num(out, b",\"bytes\":", bytes.into());
            }
            TraceEventKind::RxStart { src } => put_num(out, b",\"src\":", src.as_u32().into()),
            TraceEventKind::RxDrop { reason } => put_label(out, b",\"reason\":", reason.label()),
            TraceEventKind::Delivered { src, frame_kind } => {
                put_num(out, b",\"src\":", src.as_u32().into());
                put_label(out, b",\"kind\":", frame_kind.label());
            }
            TraceEventKind::QueueDrop => {}
            TraceEventKind::Retry { attempt } => put_num(out, b",\"attempt\":", attempt.into()),
            TraceEventKind::FaultApplied { fault, peer } => {
                put_label(out, b",\"fault\":", fault);
                if let Some(p) = peer {
                    put_num(out, b",\"peer\":", p.as_u32().into());
                }
            }
            TraceEventKind::ProtocolDecision { decision } => {
                put_label(out, b",\"decision\":", decision.label());
                match decision {
                    Decision::FgJoin { group } => put_num(out, b",\"group\":", group.into()),
                    Decision::TreeJoin { group, child } => {
                        put_num(out, b",\"group\":", group.into());
                        put_num(out, b",\"child\":", child.as_u32().into());
                    }
                    Decision::ForwardData {
                        group,
                        source,
                        pkt_seq,
                    }
                    | Decision::SuppressDuplicate {
                        group,
                        source,
                        pkt_seq,
                    } => {
                        put_num(out, b",\"group\":", group.into());
                        put_num(out, b",\"src\":", source.as_u32().into());
                        put_num(out, b",\"pseq\":", pkt_seq.into());
                    }
                    Decision::ForwardQuery { source, pkt_seq }
                    | Decision::SendReply { source, pkt_seq } => {
                        put_num(out, b",\"src\":", source.as_u32().into());
                        put_num(out, b",\"pseq\":", pkt_seq.into());
                    }
                    Decision::MetricQuarantine { peer } => {
                        put_num(out, b",\"peer\":", peer.as_u32().into());
                    }
                    Decision::FallbackActivated => {}
                    Decision::RefreshBackoff { factor } => {
                        put_num(out, b",\"factor\":", factor.into());
                    }
                }
            }
        }
        out.push(b'}');
    }

    /// The JSONL encoding as an owned line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut line = Vec::with_capacity(128);
        self.encode(&mut line);
        // The encoding is ASCII, so every byte is one char.
        line.into_iter().map(char::from).collect()
    }

    /// Parse one line produced by [`TraceEvent::encode`].
    ///
    /// Accepts exactly the flat subset this module emits: one JSON object of
    /// unsigned-integer and unescaped-string fields, byte for byte the
    /// [`TraceEvent::encode`] output of the event it describes (surrounding
    /// whitespace aside). Duplicate keys, leading zeros, unknown keys,
    /// wrong-typed values, reordered fields and inner spacing are errors.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntactic or
    /// semantic problem found, naming the offending key where there is one.
    pub fn parse_jsonl(line: &str) -> Result<TraceEvent, String> {
        let line = line.trim();
        let fields = Fields::parse(line)?;
        let at = SimTime::from_nanos(fields.num("t").ok_or("missing \"t\"")?);
        let node = fields.node_field("node")?;
        let seq = fields.num("seq");
        let class = fields
            .num("class")
            .map(|v| int::<u8>(v, "class"))
            .transpose()?;
        let frame = fields.num("frame").map(FrameId);
        let ev = fields.str("ev").ok_or("missing \"ev\"")?;
        let kind = match ev {
            "tx_start" => TraceEventKind::TxStart {
                frame_kind: fields.frame_kind()?,
                dst: fields.node_field("dst")?,
                bytes: int(fields.num("bytes").ok_or("missing \"bytes\"")?, "bytes")?,
            },
            "rx_start" => TraceEventKind::RxStart {
                src: fields.node_field("src")?.ok_or("missing \"src\"")?,
            },
            "rx_drop" => {
                let label = fields.str("reason").ok_or("missing \"reason\"")?;
                TraceEventKind::RxDrop {
                    reason: DropReason::from_label(label)
                        .ok_or_else(|| format!("unknown drop reason {label:?}"))?,
                }
            }
            "delivered" => TraceEventKind::Delivered {
                src: fields.node_field("src")?.ok_or("missing \"src\"")?,
                frame_kind: fields.frame_kind()?,
            },
            "queue_drop" => TraceEventKind::QueueDrop,
            "retry" => TraceEventKind::Retry {
                attempt: int(
                    fields.num("attempt").ok_or("missing \"attempt\"")?,
                    "attempt",
                )?,
            },
            "fault" => {
                let label = fields.str("fault").ok_or("missing \"fault\"")?;
                let fault = fault_label::ALL
                    .into_iter()
                    .find(|&l| l == label)
                    .ok_or_else(|| format!("unknown fault label {label:?}"))?;
                TraceEventKind::FaultApplied {
                    fault,
                    peer: fields.node_field("peer")?,
                }
            }
            "decision" => {
                let label = fields.str("decision").ok_or("missing \"decision\"")?;
                let group = || -> Result<u32, String> {
                    int(fields.num("group").ok_or("missing \"group\"")?, "group")
                };
                let source = || -> Result<NodeId, String> {
                    fields
                        .node_field("src")?
                        .ok_or_else(|| "missing \"src\"".to_string())
                };
                let pseq = || -> Result<u32, String> {
                    int(fields.num("pseq").ok_or("missing \"pseq\"")?, "pseq")
                };
                let decision = match label {
                    "fg_join" => Decision::FgJoin { group: group()? },
                    "tree_join" => Decision::TreeJoin {
                        group: group()?,
                        child: fields.node_field("child")?.ok_or("missing \"child\"")?,
                    },
                    "forward_data" => Decision::ForwardData {
                        group: group()?,
                        source: source()?,
                        pkt_seq: pseq()?,
                    },
                    "suppress_duplicate" => Decision::SuppressDuplicate {
                        group: group()?,
                        source: source()?,
                        pkt_seq: pseq()?,
                    },
                    "forward_query" => Decision::ForwardQuery {
                        source: source()?,
                        pkt_seq: pseq()?,
                    },
                    "send_reply" => Decision::SendReply {
                        source: source()?,
                        pkt_seq: pseq()?,
                    },
                    "metric_quarantine" => Decision::MetricQuarantine {
                        peer: fields.node_field("peer")?.ok_or("missing \"peer\"")?,
                    },
                    "fallback_activated" => Decision::FallbackActivated,
                    "refresh_backoff" => Decision::RefreshBackoff {
                        factor: int(fields.num("factor").ok_or("missing \"factor\"")?, "factor")?,
                    },
                    other => return Err(format!("unknown decision {other:?}")),
                };
                TraceEventKind::ProtocolDecision { decision }
            }
            other => return Err(format!("unknown event {other:?}")),
        };
        let event = TraceEvent {
            at,
            node,
            seq,
            class,
            frame,
            kind,
        };
        // Whatever the typed reads above skipped (an unknown key, a value of
        // the wrong type) makes the line differ from its own re-encoding.
        let canonical = event.to_jsonl();
        if canonical != line {
            return Err(fields.mismatch(&canonical));
        }
        Ok(event)
    }
}

/// `"00"` to `"99"`: the two ASCII digits of every value below 100, so
/// [`put_uint`] renders two digits per table read.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Room [`TraceEvent::encode`] reserves up front: more than the longest
/// line (every integer at its maximum), so no append inside reallocates.
const LINE_RESERVE: usize = 256;

/// Append the decimal digits of `n` to `out`: the bytes of `n.to_string()`.
///
/// This and the two key helpers below are inlined into every field of
/// [`TraceEvent::encode`]: as out-of-line calls they cost a measurable share
/// of the encoder's time.
#[inline(always)]
fn put_uint(out: &mut Vec<u8>, n: u64) {
    // Filled right to left, four digits per division while more than four
    // remain; u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    let mut put = |digits: &[u8]| {
        start -= digits.len();
        if let Some(slot) = buf.get_mut(start..start + digits.len()) {
            slot.copy_from_slice(digits);
        }
    };
    let mut rest = n;
    while rest >= 10_000 {
        let quad = (rest % 10_000) as usize;
        rest /= 10_000;
        let [a, b] = DIGIT_PAIRS[quad / 100];
        let [c, d] = DIGIT_PAIRS[quad % 100];
        put(&[a, b, c, d]);
    }
    let mut rest = rest as usize;
    if rest >= 100 {
        put(&DIGIT_PAIRS[rest % 100]);
        rest /= 100;
    }
    let pair = &DIGIT_PAIRS[rest];
    put(if rest >= 10 { pair } else { &pair[1..] });
    out.extend_from_slice(buf.get(start..).unwrap_or_default());
}

/// Append a static `,"key":` fragment and the decimal `value`.
#[inline(always)]
fn put_num(out: &mut Vec<u8>, key: &[u8], value: u64) {
    out.extend_from_slice(key);
    put_uint(out, value);
}

/// Append a static `,"key":` fragment and the quoted `label`.
#[inline(always)]
fn put_label(out: &mut Vec<u8>, key: &[u8], label: &str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend_from_slice(label.as_bytes());
    out.push(b'"');
}

fn int<T: TryFrom<u64>>(v: u64, field: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("field \"{field}\" out of range: {v}"))
}

/// Parsed flat-JSON fields of one line (key → unsigned int or string).
#[derive(Debug)]
struct Fields<'a> {
    // A handful of fields per line: linear scan beats any map, and a Vec
    // keeps iteration order deterministic (mesh-lint rule R1).
    pairs: Vec<(&'a str, Value<'a>)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Value<'a> {
    Num(u64),
    Str(&'a str),
}

impl<'a> Fields<'a> {
    fn parse(line: &'a str) -> Result<Fields<'a>, String> {
        let body = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("not a JSON object")?;
        let mut pairs = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let key_body = rest.strip_prefix('"').ok_or("expected a quoted key")?;
            let kq = key_body.find('"').ok_or("unterminated key")?;
            let key = &key_body[..kq];
            if pairs.iter().any(|&(k, _)| k == key) {
                return Err(format!("duplicate key \"{key}\""));
            }
            // mesh-lint: allow(R6, "kq comes from find on this very slice, so kq + 1 <= len and lands after a one-byte ASCII quote")
            rest = key_body[kq + 1..]
                .trim_start()
                .strip_prefix(':')
                .ok_or("expected ':' after key")?
                .trim_start();
            let value;
            if let Some(s) = rest.strip_prefix('"') {
                let vq = s.find('"').ok_or("unterminated string value")?;
                let v = &s[..vq];
                if v.contains('\\') {
                    return Err("escaped strings are not supported".into());
                }
                value = Value::Str(v);
                // mesh-lint: allow(R6, "vq comes from find on this very slice, so vq + 1 <= len and lands after a one-byte ASCII quote")
                rest = &s[vq + 1..];
            } else {
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                let digits = &rest[..end];
                if digits.is_empty() {
                    return Err(format!("key \"{key}\": expected a value near {rest:?}"));
                }
                if digits.len() > 1 && digits.starts_with('0') {
                    return Err(format!("key \"{key}\": leading zero in {digits}"));
                }
                let n: u64 = digits
                    .parse()
                    .map_err(|_| format!("key \"{key}\": bad integer {digits:?}"))?;
                value = Value::Num(n);
                rest = &rest[end..];
            }
            pairs.push((key, value));
            rest = rest.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
                if rest.is_empty() {
                    return Err("trailing comma".into());
                }
            } else if !rest.is_empty() {
                return Err(format!("expected ',' near {rest:?}"));
            }
        }
        Ok(Fields { pairs })
    }

    fn num(&self, key: &str) -> Option<u64> {
        self.pairs.iter().find_map(|&(k, v)| match v {
            Value::Num(n) if k == key => Some(n),
            _ => None,
        })
    }

    fn str(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find_map(|&(k, v)| match v {
            Value::Str(s) if k == key => Some(s),
            _ => None,
        })
    }

    /// Why a line that parsed to an event is not that event's `canonical`
    /// encoding: the first key out of place, or the spacing.
    fn mismatch(&self, canonical: &str) -> String {
        let expected = Fields::parse(canonical)
            .map(|f| f.pairs)
            .unwrap_or_default();
        let first_bad = self
            .pairs
            .iter()
            .enumerate()
            .find(|&(i, pair)| expected.get(i) != Some(pair));
        match first_bad {
            Some((_, &(key, _))) if expected.iter().any(|&(k, _)| k == key) => {
                format!("key \"{key}\" is out of order; expected {canonical}")
            }
            Some((_, &(key, _))) => {
                format!("key \"{key}\" is unknown or has the wrong type; expected {canonical}")
            }
            None => format!("unexpected whitespace; expected {canonical}"),
        }
    }

    fn node_field(&self, key: &str) -> Result<Option<NodeId>, String> {
        self.num(key)
            .map(|v| int(v, key).map(NodeId::new))
            .transpose()
    }

    fn frame_kind(&self) -> Result<FrameKind, String> {
        let label = self.str("kind").ok_or("missing \"kind\"")?;
        FrameKind::from_label(label).ok_or_else(|| format!("unknown frame kind {label:?}"))
    }
}

/// Receives trace events as the simulation runs.
///
/// Sink contract: `record` must not panic and must not interact with the
/// simulation in any way (sinks only see copies of events). Expensive sinks
/// defer failures — [`JsonlTrace`] stashes I/O errors and surfaces them from
/// [`JsonlTrace::finish`].
pub trait TraceSink: std::fmt::Debug {
    /// Called once per traced event, in simulation order.
    fn record(&mut self, event: TraceEvent);

    /// Downcasting support so callers can recover the concrete sink after
    /// [`take_trace`](crate::world::World::take_trace).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcasting (e.g. to call [`JsonlTrace::finish`]).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A bounded in-memory trace, dropping the oldest events when full.
#[derive(Debug)]
pub struct RingTrace {
    cap: usize,
    events: std::collections::VecDeque<TraceEvent>,
}

impl RingTrace {
    /// Create a ring holding up to `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "trace capacity must be positive");
        RingTrace {
            cap,
            events: std::collections::VecDeque::with_capacity(cap.min(4096)),
        }
    }

    /// The events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RingTrace {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Streams events to a file as JSON Lines, one object per event.
///
/// Each event is encoded with [`TraceEvent::encode`] into a reused line
/// buffer and handed, newline included, to a 64 KiB buffered writer; the
/// writer flushes when full, on [`JsonlTrace::finish`] and on drop.
/// I/O errors during the run are stashed, not raised (a sink must never
/// perturb the simulation); [`JsonlTrace::finish`] flushes and reports the
/// first deferred error.
#[derive(Debug)]
pub struct JsonlTrace {
    out: std::io::BufWriter<std::fs::File>,
    path: std::path::PathBuf,
    lines: u64,
    line: Vec<u8>,
    deferred_err: Option<std::io::Error>,
}

impl JsonlTrace {
    /// Create (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlTrace {
            out: std::io::BufWriter::with_capacity(64 * 1024, file),
            path,
            lines: 0,
            line: Vec::new(),
            deferred_err: None,
        })
    }

    /// The file being written.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Flush the file and surface any I/O error deferred during the run.
    /// Returns the number of lines written.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error, or the flush error.
    pub fn finish(&mut self) -> std::io::Result<u64> {
        use std::io::Write;
        if let Some(e) = self.deferred_err.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.lines)
    }
}

impl TraceSink for JsonlTrace {
    fn record(&mut self, event: TraceEvent) {
        use std::io::Write;
        if self.deferred_err.is_some() {
            return;
        }
        self.line.clear();
        event.encode(&mut self.line);
        self.line.push(b'\n');
        match self.out.write_all(&self.line) {
            Ok(()) => self.lines += 1,
            Err(e) => self.deferred_err = Some(e),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(node: u32, at_ns: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at_ns),
            node: Some(NodeId::new(node)),
            seq: Some(9),
            class: Some(0),
            frame: Some(FrameId(42)),
            kind: TraceEventKind::TxStart {
                frame_kind: FrameKind::Data,
                dst: None,
                bytes: 100,
            },
        }
    }

    #[test]
    fn ring_keeps_newest() {
        let mut r = RingTrace::new(3);
        for i in 0..5 {
            r.record(tx(i, i as u64));
        }
        assert_eq!(r.len(), 3);
        let ats: Vec<u64> = r.events().map(|x| x.at().as_nanos()).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = RingTrace::new(0);
    }

    /// One event of every shape, each with its expected line, byte for
    /// byte.
    fn all_event_shapes() -> Vec<(TraceEvent, &'static str)> {
        let base = TraceEvent {
            at: SimTime::from_nanos(1_234_567),
            node: Some(NodeId::new(7)),
            seq: Some(3),
            class: Some(1),
            frame: Some(FrameId(99)),
            kind: TraceEventKind::QueueDrop,
        };
        let k = |kind| TraceEvent { kind, ..base };
        let decision = |decision| k(TraceEventKind::ProtocolDecision { decision });
        vec![
            (
                k(TraceEventKind::TxStart {
                    frame_kind: FrameKind::Rts,
                    dst: Some(NodeId::new(2)),
                    bytes: 52,
                }),
                r#"{"t":1234567,"ev":"tx_start","node":7,"seq":3,"class":1,"frame":99,"kind":"rts","dst":2,"bytes":52}"#,
            ),
            (
                k(TraceEventKind::TxStart {
                    frame_kind: FrameKind::Data,
                    dst: None,
                    bytes: 512,
                }),
                r#"{"t":1234567,"ev":"tx_start","node":7,"seq":3,"class":1,"frame":99,"kind":"data","bytes":512}"#,
            ),
            (
                k(TraceEventKind::RxStart {
                    src: NodeId::new(4),
                }),
                r#"{"t":1234567,"ev":"rx_start","node":7,"seq":3,"class":1,"frame":99,"src":4}"#,
            ),
            (
                k(TraceEventKind::RxDrop {
                    reason: DropReason::Captured,
                }),
                r#"{"t":1234567,"ev":"rx_drop","node":7,"seq":3,"class":1,"frame":99,"reason":"captured"}"#,
            ),
            (
                k(TraceEventKind::Delivered {
                    src: NodeId::new(4),
                    frame_kind: FrameKind::Data,
                }),
                r#"{"t":1234567,"ev":"delivered","node":7,"seq":3,"class":1,"frame":99,"src":4,"kind":"data"}"#,
            ),
            (
                TraceEvent {
                    seq: None,
                    class: Some(0),
                    frame: None,
                    ..base
                },
                r#"{"t":1234567,"ev":"queue_drop","node":7,"class":0}"#,
            ),
            (
                k(TraceEventKind::Retry { attempt: 2 }),
                r#"{"t":1234567,"ev":"retry","node":7,"seq":3,"class":1,"frame":99,"attempt":2}"#,
            ),
            (
                TraceEvent {
                    node: None,
                    seq: None,
                    class: Some(1),
                    frame: None,
                    kind: TraceEventKind::FaultApplied {
                        fault: fault_label::CLASS_LOSS_BURST,
                        peer: None,
                    },
                    ..base
                },
                r#"{"t":1234567,"ev":"fault","class":1,"fault":"class_loss_burst"}"#,
            ),
            (
                k(TraceEventKind::FaultApplied {
                    fault: fault_label::LINK_FAULT,
                    peer: Some(NodeId::new(5)),
                }),
                r#"{"t":1234567,"ev":"fault","node":7,"seq":3,"class":1,"frame":99,"fault":"link_fault","peer":5}"#,
            ),
            (
                decision(Decision::FgJoin { group: 3 }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"fg_join","group":3}"#,
            ),
            (
                decision(Decision::TreeJoin {
                    group: 3,
                    child: NodeId::new(8),
                }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"tree_join","group":3,"child":8}"#,
            ),
            (
                decision(Decision::ForwardData {
                    group: 3,
                    source: NodeId::new(1),
                    pkt_seq: 1317,
                }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"forward_data","group":3,"src":1,"pseq":1317}"#,
            ),
            (
                decision(Decision::SuppressDuplicate {
                    group: 3,
                    source: NodeId::new(1),
                    pkt_seq: 1317,
                }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"suppress_duplicate","group":3,"src":1,"pseq":1317}"#,
            ),
            (
                decision(Decision::ForwardQuery {
                    source: NodeId::new(1),
                    pkt_seq: 12,
                }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"forward_query","src":1,"pseq":12}"#,
            ),
            (
                decision(Decision::SendReply {
                    source: NodeId::new(1),
                    pkt_seq: 12,
                }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"send_reply","src":1,"pseq":12}"#,
            ),
            (
                decision(Decision::MetricQuarantine {
                    peer: NodeId::new(4),
                }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"metric_quarantine","peer":4}"#,
            ),
            (
                decision(Decision::FallbackActivated),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"fallback_activated"}"#,
            ),
            (
                decision(Decision::RefreshBackoff { factor: 8 }),
                r#"{"t":1234567,"ev":"decision","node":7,"seq":3,"class":1,"frame":99,"decision":"refresh_backoff","factor":8}"#,
            ),
        ]
    }

    #[test]
    fn encoder_writes_the_pinned_line_of_every_event_shape() {
        for (ev, expected) in all_event_shapes() {
            assert_eq!(ev.to_jsonl(), expected, "encoding of {ev:?}");
            let mut appended = b"prefix ".to_vec();
            ev.encode(&mut appended);
            assert_eq!(appended.strip_prefix(b"prefix "), Some(expected.as_bytes()));
        }
    }

    #[test]
    fn jsonl_roundtrips_every_event_shape() {
        for (ev, line) in all_event_shapes() {
            let back = TraceEvent::parse_jsonl(line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, ev, "roundtrip mismatch for {line}");
        }
    }

    #[test]
    fn longest_lines_fit_the_reservation() {
        let big = NodeId::new(u32::MAX);
        let max = |kind| TraceEvent {
            at: SimTime::from_nanos(u64::MAX),
            node: Some(big),
            seq: Some(u64::MAX),
            class: Some(u8::MAX),
            frame: Some(FrameId(u64::MAX)),
            kind,
        };
        for ev in [
            max(TraceEventKind::TxStart {
                frame_kind: FrameKind::Data,
                dst: Some(big),
                bytes: u32::MAX,
            }),
            max(TraceEventKind::RxDrop {
                reason: DropReason::BelowThreshold,
            }),
            max(TraceEventKind::FaultApplied {
                fault: fault_label::CLASS_LOSS_CLEAR,
                peer: Some(big),
            }),
            max(TraceEventKind::ProtocolDecision {
                decision: Decision::SuppressDuplicate {
                    group: u32::MAX,
                    source: big,
                    pkt_seq: u32::MAX,
                },
            }),
        ] {
            let line = ev.to_jsonl();
            assert!(line.len() < LINE_RESERVE, "{} bytes: {line}", line.len());
        }
    }

    fn uint_string(n: u64) -> String {
        let mut out = Vec::new();
        put_uint(&mut out, n);
        String::from_utf8(out).expect("digits are ASCII")
    }

    #[test]
    fn integer_writer_matches_to_string_at_every_width() {
        let mut edges = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        let mut pow = 1u64;
        while let Some(next) = pow.checked_mul(10) {
            pow = next;
            edges.extend([pow - 1, pow, pow + 1]);
        }
        for n in edges {
            assert_eq!(uint_string(n), n.to_string());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Random values at every magnitude: a uniform u64 shifted right by
        /// a random amount, so short and long digit strings are both drawn.
        #[test]
        fn integer_writer_matches_to_string(
            v in proptest::any::<u64>(),
            shift in 0u32..64,
        ) {
            let n = v >> shift;
            proptest::prop_assert_eq!(uint_string(n), n.to_string());
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "not json",
            "{\"t\":1}",
            "{\"t\":1,\"ev\":\"no_such_event\"}",
            "{\"t\":1,\"ev\":\"rx_drop\",\"reason\":\"made_up\"}",
            "{\"t\":1,\"ev\":\"tx_start\"",
            "{\"t\":,\"ev\":\"queue_drop\"}",
            "{\"t\":1,\"ev\":\"queue_drop\",}",
            "{\"t\":1,\"ev\":\"rx_start\"}",
            "{\"t\":1,\"ev\":\"rx_start\",\"src\":99999999999}",
            "{\"ev\":\"queue_drop\",\"t\":1}",
            "{\"t\":1, \"ev\":\"queue_drop\"}",
        ] {
            assert!(
                TraceEvent::parse_jsonl(bad).is_err(),
                "parser accepted malformed line {bad:?}"
            );
        }
        // Lines the encoder never writes: a duplicate key, a leading zero,
        // an unknown key, a wrong-typed value. Each error names the key.
        for (bad, key) in [
            ("{\"t\":1,\"t\":2,\"ev\":\"queue_drop\"}", "\"t\""),
            ("{\"t\":007,\"ev\":\"queue_drop\"}", "\"t\""),
            ("{\"t\":1,\"ev\":\"queue_drop\",\"bogus\":3}", "\"bogus\""),
            ("{\"t\":1,\"ev\":\"queue_drop\",\"node\":\"5\"}", "\"node\""),
        ] {
            match TraceEvent::parse_jsonl(bad) {
                Ok(ev) => panic!("parser accepted {bad:?} as {ev:?}"),
                Err(e) => assert!(e.contains(key), "error for {bad:?} names no {key}: {e}"),
            }
        }
        // Surrounding whitespace (a trailing `\r`, say) is still fine.
        let line = "  {\"t\":1,\"ev\":\"queue_drop\"}\r";
        assert!(TraceEvent::parse_jsonl(line).is_ok());
    }

    #[test]
    fn jsonl_file_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("mesh-sim-trace-test-{}.jsonl", std::process::id()));
        let mut sink = JsonlTrace::create(&path).expect("create trace file");
        let shapes = all_event_shapes();
        for (ev, _) in &shapes {
            sink.record(*ev);
        }
        let lines = sink.finish().expect("finish");
        assert_eq!(lines, shapes.len() as u64);
        let text = std::fs::read_to_string(&path).expect("read back");
        let expected: String = shapes.iter().map(|(_, line)| format!("{line}\n")).collect();
        assert_eq!(text, expected);
        for ((ev, _), line) in shapes.iter().zip(text.lines()) {
            assert_eq!(TraceEvent::parse_jsonl(line).as_ref(), Ok(ev));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sink_downcast_recovers_ring() {
        let mut sink: Box<dyn TraceSink> = Box::new(RingTrace::new(4));
        sink.record(tx(0, 5));
        let ring = sink.as_any().downcast_ref::<RingTrace>().expect("ring");
        assert_eq!(ring.len(), 1);
    }
}
