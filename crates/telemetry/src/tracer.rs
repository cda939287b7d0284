//! The event tracer: spans, instants and counters in simulated time.
//!
//! Model components hold a [`Tracer`] (a cheap `Rc` handle) and call
//! [`Tracer::span`] *after* they have computed a cost — the span records
//! `[start, end)` retroactively, so emitting it cannot perturb the
//! simulation. Event names are `&'static str` and events are `Copy`
//! structs pushed into a pre-allocated buffer: the hot path allocates
//! nothing once the buffer has warmed up.

use ioat_simcore::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Event category, mirroring the paper's receive-path decomposition plus
/// the simulator's own layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Interrupt handling (per-coalescing-event fixed + per-frame cost).
    Interrupt,
    /// TCP/IP protocol processing (header/state touching).
    Protocol,
    /// Kernel-to-user (and user-to-kernel) CPU copies.
    Copy,
    /// DMA copy-engine activity: issue overhead, transfer, completion reap.
    Dma,
    /// Application compute (server-side message processing).
    App,
    /// Request lifecycle in multi-tier scenarios (datacenter tiers).
    Request,
    /// File-system I/O operations (PVFS reads/writes/opens).
    Io,
    /// Injected faults and the recovery they trigger (drops, retransmits,
    /// timeouts, failovers).
    Fault,
    /// Simulator engine events (very high volume; off in `enabled()`).
    Sim,
    /// Anything else.
    Other,
    /// Runtime invariant-audit events (violations surfaced by
    /// `ioat-guard`). Appended last so existing discriminants — and any
    /// traces serialized with them — stay stable.
    Audit,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 11] = [
        Category::Interrupt,
        Category::Protocol,
        Category::Copy,
        Category::Dma,
        Category::App,
        Category::Request,
        Category::Io,
        Category::Fault,
        Category::Sim,
        Category::Other,
        Category::Audit,
    ];

    /// Stable lowercase name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            Category::Interrupt => "interrupt",
            Category::Protocol => "protocol",
            Category::Copy => "copy",
            Category::Dma => "dma",
            Category::App => "app",
            Category::Request => "request",
            Category::Io => "io",
            Category::Fault => "fault",
            Category::Sim => "sim",
            Category::Other => "other",
            Category::Audit => "audit",
        }
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Index into [`Category::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Where an event happened: a node (Chrome-trace process) and a core or
/// pseudo-core (Chrome-trace thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId {
    /// Node index (pid in the exported trace).
    pub node: u32,
    /// Core index within the node (tid in the exported trace). Non-CPU
    /// actors (DMA channels, request lanes) use indices past the core
    /// count.
    pub core: u32,
}

impl TrackId {
    /// Convenience constructor.
    pub fn new(node: u32, core: u32) -> Self {
        TrackId { node, core }
    }
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A closed interval of busy time `[start, end)`.
    Span {
        /// Interval start.
        start: SimTime,
        /// Interval end (`>= start`).
        end: SimTime,
    },
    /// A point-in-time marker.
    Instant {
        /// When it happened.
        at: SimTime,
    },
    /// A sampled numeric series value.
    Counter {
        /// Sample instant.
        at: SimTime,
        /// Sample value.
        value: f64,
    },
}

/// One recorded trace event. `Copy` and allocation-free by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Static event name.
    pub name: &'static str,
    /// Category (also the Chrome-trace `cat` field).
    pub cat: Category,
    /// Node/core attribution.
    pub track: TrackId,
    /// Span, instant or counter payload.
    pub kind: EventKind,
}

struct TraceBuf {
    events: Vec<Event>,
    mask: u32,
    /// (node, core) -> thread name for export metadata.
    tracks: BTreeMap<(u32, u32), String>,
    /// node -> process name for export metadata.
    processes: BTreeMap<u32, String>,
}

/// Pre-allocated event capacity: enough for the quick-window experiments
/// without growth; larger runs grow amortized.
const INITIAL_CAPACITY: usize = 64 * 1024;

/// A handle to a trace buffer, or a no-op when disabled.
///
/// Cloning shares the buffer. The default tracer is disabled:
///
/// ```rust
/// use ioat_telemetry::{Category, TrackId, Tracer};
/// use ioat_simcore::SimTime;
///
/// let off = Tracer::default();
/// off.instant("x", Category::Other, TrackId::new(0, 0), SimTime::ZERO);
/// assert_eq!(off.len(), 0);
///
/// let on = Tracer::enabled();
/// on.instant("x", Category::Other, TrackId::new(0, 0), SimTime::ZERO);
/// assert_eq!(on.len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(b) => f
                .debug_struct("Tracer")
                .field("events", &b.borrow().events.len())
                .finish(),
        }
    }
}

impl Tracer {
    /// A disabled tracer: every record call is a no-op.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer recording every category except the very
    /// high-volume [`Category::Sim`] engine events.
    pub fn enabled() -> Self {
        let mask = Category::ALL
            .iter()
            .filter(|c| **c != Category::Sim)
            .fold(0, |m, c| m | c.bit());
        Tracer::with_mask(mask)
    }

    /// An enabled tracer recording all categories, engine events included.
    pub fn all() -> Self {
        Tracer::with_mask(u32::MAX)
    }

    fn with_mask(mask: u32) -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuf {
                events: Vec::with_capacity(INITIAL_CAPACITY),
                mask,
                tracks: BTreeMap::new(),
                processes: BTreeMap::new(),
            }))),
        }
    }

    /// Whether any recording can happen at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a specific category is being recorded.
    pub fn records(&self, cat: Category) -> bool {
        match &self.inner {
            None => false,
            Some(b) => b.borrow().mask & cat.bit() != 0,
        }
    }

    #[inline]
    fn push(&self, ev: Event) {
        if let Some(b) = &self.inner {
            let mut b = b.borrow_mut();
            if b.mask & ev.cat.bit() != 0 {
                b.events.push(ev);
            }
        }
    }

    /// Records a busy interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `end < start`.
    #[inline]
    pub fn span(
        &self,
        name: &'static str,
        cat: Category,
        track: TrackId,
        start: SimTime,
        end: SimTime,
    ) {
        debug_assert!(end >= start, "span {name}: end {end} before start {start}");
        self.push(Event {
            name,
            cat,
            track,
            kind: EventKind::Span { start, end },
        });
    }

    /// Records a point-in-time marker.
    #[inline]
    pub fn instant(&self, name: &'static str, cat: Category, track: TrackId, at: SimTime) {
        self.push(Event {
            name,
            cat,
            track,
            kind: EventKind::Instant { at },
        });
    }

    /// Records one sample of a numeric series.
    #[inline]
    pub fn counter(
        &self,
        name: &'static str,
        cat: Category,
        track: TrackId,
        at: SimTime,
        value: f64,
    ) {
        self.push(Event {
            name,
            cat,
            track,
            kind: EventKind::Counter { at, value },
        });
    }

    /// Names a node for export metadata (Chrome-trace `process_name`).
    pub fn set_process_name(&self, node: u32, name: &str) {
        if let Some(b) = &self.inner {
            b.borrow_mut().processes.insert(node, name.to_string());
        }
    }

    /// Names a track for export metadata (Chrome-trace `thread_name`).
    pub fn set_track_name(&self, track: TrackId, name: &str) {
        if let Some(b) = &self.inner {
            b.borrow_mut()
                .tracks
                .insert((track.node, track.core), name.to_string());
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |b| b.borrow().events.len())
    }

    /// True when nothing has been recorded (or the tracer is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |b| b.borrow().events.clone())
    }

    /// Snapshot of process-name metadata.
    pub fn process_names(&self) -> BTreeMap<u32, String> {
        self.inner
            .as_ref()
            .map_or_else(BTreeMap::new, |b| b.borrow().processes.clone())
    }

    /// Snapshot of track-name metadata.
    pub fn track_names(&self) -> BTreeMap<(u32, u32), String> {
        self.inner
            .as_ref()
            .map_or_else(BTreeMap::new, |b| b.borrow().tracks.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::disabled();
        tr.span("s", Category::Copy, TrackId::new(0, 0), t(0), t(5));
        tr.counter("c", Category::Other, TrackId::new(0, 0), t(1), 2.0);
        assert!(!tr.is_enabled());
        assert!(tr.is_empty());
        assert!(tr.events().is_empty());
    }

    #[test]
    fn category_mask_filters() {
        let tr = Tracer::enabled();
        tr.span("irq", Category::Interrupt, TrackId::new(0, 1), t(0), t(5));
        tr.span("ev", Category::Sim, TrackId::new(0, 1), t(5), t(9));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.events()[0].name, "irq");
    }

    #[test]
    fn enabled_skips_sim_category() {
        let tr = Tracer::enabled();
        assert!(tr.records(Category::Interrupt));
        assert!(!tr.records(Category::Sim));
        // Audit violations are rare and load-bearing: the default tracer
        // must keep them even though it drops engine noise.
        assert!(tr.records(Category::Audit));
        assert_eq!(Category::Audit.name(), "audit");
        let all = Tracer::all();
        assert!(all.records(Category::Sim));
    }

    #[test]
    fn clones_share_the_buffer() {
        let tr = Tracer::enabled();
        let tr2 = tr.clone();
        tr.instant("a", Category::Other, TrackId::new(1, 0), t(3));
        tr2.instant("b", Category::Other, TrackId::new(1, 0), t(4));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr2.len(), 2);
    }

    #[test]
    fn metadata_round_trips() {
        let tr = Tracer::enabled();
        tr.set_process_name(0, "server");
        tr.set_track_name(TrackId::new(0, 2), "core2");
        assert_eq!(tr.process_names()[&0], "server");
        assert_eq!(tr.track_names()[&(0, 2)], "core2");
    }

    #[test]
    fn events_keep_emission_order() {
        let tr = Tracer::enabled();
        tr.span("a", Category::Copy, TrackId::new(0, 0), t(10), t(20));
        tr.instant("b", Category::App, TrackId::new(0, 1), t(15));
        let evs = tr.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert!(matches!(evs[1].kind, EventKind::Instant { at } if at == t(15)));
    }
}
