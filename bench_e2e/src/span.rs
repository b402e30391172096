//! Outside-in attribution: a thread-local span stack that turns nested
//! per-call spans into per-layer self time, call counts, item counts and
//! allocations, plus the counting global allocator that feeds the latter.
//!
//! A span's self time is its duration minus the time its child spans cover,
//! so the self times of one job's layers sum exactly to the job's root span.
//! Rows are kept per thread in `Cell`s (no allocation, no locking), reset at
//! the start of every job and read back at its end.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// The single wall-clock read of the benchmark; every timing goes through it.
pub fn now() -> Instant {
    // mesh-lint: allow(R2, "the benchmark measures host time on purpose")
    Instant::now()
}

/// Nanoseconds since the first call in this process.
fn clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(now).elapsed().as_nanos() as u64
}

/// The layers a span can be charged to, named after the modules they wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The job's root span: whatever the benchmark itself does between
    /// calls into the simulator (measurement extraction, fresh builds for
    /// restores, output checks).
    Harness,
    /// `scenario_compiler::compile` + `expand`.
    Compile,
    /// `WorkloadScenario::layout`.
    Layout,
    /// Simulator construction (`WorkloadScenario::build` equivalent).
    Build,
    /// `Simulator::run_until` minus every child span: `World::step`, the
    /// event queue, MAC, PHY reception and upcall dispatch.
    Simulator,
    /// `Medium::fan_out` on `PhysicalMedium`.
    FanOut,
    /// `Medium::positions_changed` on `PhysicalMedium`.
    PositionsChanged,
    /// `OdmrpNode::handle_message`.
    OdmrpMessage,
    /// `OdmrpNode::handle_timer`.
    OdmrpTimer,
    /// `OdmrpNode::handle_tx_complete`.
    OdmrpTxComplete,
    /// `OdmrpNode::start` / `handle_restart`.
    OdmrpLifecycle,
    /// The ODMRP invariant oracle passed to `add_oracle`.
    Oracles,
    /// `JsonlTrace::record`.
    Trace,
    /// `Simulator::snapshot`.
    SnapshotWrite,
    /// `Simulator::restore`.
    SnapshotRead,
}

impl Layer {
    /// Every layer, in declaration order (the order of a job's rows).
    pub const ALL: [Layer; 15] = [
        Layer::Harness,
        Layer::Compile,
        Layer::Layout,
        Layer::Build,
        Layer::Simulator,
        Layer::FanOut,
        Layer::PositionsChanged,
        Layer::OdmrpMessage,
        Layer::OdmrpTimer,
        Layer::OdmrpTxComplete,
        Layer::OdmrpLifecycle,
        Layer::Oracles,
        Layer::Trace,
        Layer::SnapshotWrite,
        Layer::SnapshotRead,
    ];
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = Layer::ALL.len();

/// One layer's totals over a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Self time, nanoseconds.
    pub self_ns: u64,
    /// Spans closed.
    pub calls: u64,
    /// Layer-specific work items (receptions planned, bytes snapshotted).
    pub items: u64,
    /// Heap allocations (including reallocations) made while the layer was
    /// the innermost open span.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl Row {
    const ZERO: Row = Row {
        self_ns: 0,
        calls: 0,
        items: 0,
        allocs: 0,
        alloc_bytes: 0,
    };
}

#[derive(Clone, Copy)]
struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

const MAX_DEPTH: usize = 16;

struct State {
    /// Heap bytes this thread allocated minus those it freed.
    live: Cell<i64>,
    /// High-water mark of `live` since the last [`heap_mark`].
    peak: Cell<i64>,
    /// Allocations are counted only inside a traced job, per thread, so an
    /// untraced twin running beside it on the pool pays nothing.
    counting: Cell<bool>,
    depth: Cell<usize>,
    frames: [Cell<Frame>; MAX_DEPTH],
    rows: [Cell<Row>; LAYERS],
}

impl State {
    const fn new() -> Self {
        State {
            live: Cell::new(0),
            peak: Cell::new(0),
            counting: Cell::new(false),
            depth: Cell::new(0),
            frames: [const {
                Cell::new(Frame {
                    layer: Layer::Harness,
                    start_ns: 0,
                    child_ns: 0,
                })
            }; MAX_DEPTH],
            rows: [const { Cell::new(Row::ZERO) }; LAYERS],
        }
    }

    fn update(&self, layer: Layer, f: impl FnOnce(&mut Row)) {
        let cell = &self.rows[layer as usize];
        let mut row = cell.get();
        f(&mut row);
        cell.set(row);
    }
}

thread_local! {
    // Const-initialized and free of destructors, so the allocator can touch
    // it without allocating or registering a TLS destructor.
    static STATE: State = const { State::new() };
}

fn enter(layer: Layer) {
    let start_ns = clock_ns();
    STATE.with(|s| {
        let d = s.depth.get();
        assert!(d < MAX_DEPTH, "span stack deeper than {MAX_DEPTH}");
        s.frames[d].set(Frame {
            layer,
            start_ns,
            child_ns: 0,
        });
        s.depth.set(d + 1);
    });
}

fn exit() {
    let end_ns = clock_ns();
    STATE.with(|s| {
        let d = s
            .depth
            .get()
            .checked_sub(1)
            .expect("span exit without enter");
        let f = s.frames[d].get();
        let dur = end_ns.saturating_sub(f.start_ns);
        s.update(f.layer, |r| {
            r.self_ns += dur.saturating_sub(f.child_ns);
            r.calls += 1;
        });
        if d > 0 {
            let parent = &s.frames[d - 1];
            let mut p = parent.get();
            p.child_ns += dur;
            parent.set(p);
        }
        s.depth.set(d);
    });
}

/// Run `f` inside a span charged to `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let out = f();
    exit();
    out
}

/// Add `n` work items to `layer`'s row.
pub fn add_items(layer: Layer, n: u64) {
    STATE.with(|s| s.update(layer, |r| r.items += n));
}

/// Reset this thread's rows, start counting its allocations and open the
/// job's root ([`Layer::Harness`]) span. A job that panicked mid-span
/// leaves a stale stack; this discards it.
pub fn begin_job() {
    STATE.with(|s| {
        s.depth.set(0);
        for r in &s.rows {
            r.set(Row::ZERO);
        }
        s.counting.set(true);
    });
    enter(Layer::Harness);
}

/// Close the root span, stop counting, and return this thread's rows.
pub fn end_job() -> [Row; LAYERS] {
    exit();
    STATE.with(|s| {
        s.counting.set(false);
        std::array::from_fn(|i| s.rows[i].get())
    })
}

/// Start a heap high-water measurement on this thread; returns the base.
pub fn heap_mark() -> i64 {
    STATE.with(|s| {
        s.peak.set(s.live.get());
        s.live.get()
    })
}

/// Peak heap bytes above `base` on this thread since [`heap_mark`].
pub fn heap_peak_since(base: i64) -> u64 {
    STATE.with(|s| (s.peak.get() - base).max(0) as u64)
}

/// Allocator hook: `delta` live bytes, and — when `bytes` is set and a
/// traced job runs — one allocation of `bytes` charged to the innermost span.
fn account(delta: i64, bytes: Option<usize>) {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = STATE.try_with(|s| {
        let live = s.live.get() + delta;
        s.live.set(live);
        if live > s.peak.get() {
            s.peak.set(live);
        }
        let Some(bytes) = bytes.filter(|_| s.counting.get()) else {
            return;
        };
        let d = s.depth.get();
        let layer = if d == 0 {
            Layer::Harness
        } else {
            s.frames[d - 1].get().layer
        };
        s.update(layer, |r| {
            r.allocs += 1;
            r.alloc_bytes += bytes as u64;
        });
    });
}

/// `System` plus per-thread live-heap tracking, and per-layer allocation
/// counts while a traced job runs.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; `account` only updates thread-local
// counters and never allocates, unwinds or touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64, Some(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64, Some(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64, Some(new_size));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64), None);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_times_partition_the_root_span() {
        begin_job();
        span(Layer::Simulator, || {
            busy(200_000);
            span(Layer::FanOut, || busy(300_000));
        });
        add_items(Layer::FanOut, 7);
        let rows = end_job();
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        let sim = rows[Layer::Simulator as usize];
        let fan = rows[Layer::FanOut as usize];
        assert!(fan.self_ns >= 300_000);
        assert!(sim.self_ns >= 200_000);
        assert_eq!((sim.calls, fan.calls, fan.items), (1, 1, 7));
        assert_eq!(rows[Layer::Harness as usize].calls, 1);
        assert!(total >= 500_000);
    }

    #[test]
    fn allocations_charge_the_innermost_span() {
        begin_job();
        let v = span(Layer::Oracles, || std::hint::black_box(vec![1u8; 64]));
        let rows = end_job();
        drop(v);
        let r = rows[Layer::Oracles as usize];
        assert!(r.allocs >= 1 && r.alloc_bytes >= 64);
    }
}
