//! The host kernel network path — where the paper's receive-side costs
//! live.
//!
//! A [`HostStack`] owns a node's cores, cache, DMA engine, NIC ports and
//! connections, and charges every step of packet processing to the right
//! resource:
//!
//! * **Sender path** (`app_send` → `pump`): syscall, user→kernel copy
//!   (skipped with `sendfile`), segmentation (per-MSS on the CPU, or
//!   per-chunk with TSO), then frames serialize onto the port's link.
//! * **Receiver path** (`frame_arrived` → interrupt → protocol →
//!   delivery): the NIC DMAs frames into the kernel buffer for free; the
//!   interrupt handler pays per-interrupt and per-frame costs plus
//!   cache-dependent accesses to connection state and headers (the
//!   split-header feature keeps header accesses in a small hot ring and
//!   keeps payload lines out of the cache entirely); the kernel→user copy
//!   is either a CPU `memcpy` through the cache or an asynchronous DMA
//!   engine copy that leaves the CPU free.
//! * **ACKs**: cumulative, generated per interrupt batch and after
//!   deliveries (window updates), charged to the sender's interrupt core.
//!   ACK frames travel at link latency but are not serialized on the
//!   reverse link — a documented simplification (≈ 3 % of reverse
//!   bandwidth at full rate).
//! * **Faults** (off by default): a `FaultInjector` attached via
//!   [`HostStack::set_fault_injector`] can drop frames at egress (the
//!   dropped frame still occupies the wire; the receiver just never sees
//!   it), overflow a bounded rx ring before the interrupt fires, or take
//!   the DMA engine down so deliveries fall back to the CPU copy. The
//!   receiver then sees gaps — it discards out-of-order frames and emits
//!   duplicate ACKs (go-back-N) — and the sender recovers by fast
//!   retransmit or RTO, re-charging retransmitted bytes through the
//!   exact same receive-path cost model. With the default inert injector
//!   none of this code draws RNG or schedules timers, so fault-free runs
//!   stay bit-identical to the pre-fault simulator. ACK loss is not
//!   modeled: ACKs always arrive, so the window cannot deadlock and the
//!   RTO only covers lost data frames.

use crate::config::{IoatConfig, RxMode, SocketOpts, StackParams};
use crate::link::Link;
use crate::nic::{CoalesceAction, Frame, RxCoalescer};
use crate::socket::SocketEvent;
use crate::tcp::{ConnId, FrameClass, RecvState, SendState};
use ioat_faults::FaultInjector;
use ioat_memsim::dma::CacheRef;
use ioat_memsim::{
    AddressAllocator, Buffer, Cache, CacheConfig, CpuCopier, DmaEngine, DmaEngineRef, DmaRequest,
};
use ioat_simcore::resource::ResourcePool;
use ioat_simcore::{stable_mix, FastHashMap, RateMeter, Sim, SimDuration, SimTime};
use ioat_telemetry::{Category, Tracer, TrackId};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle to a [`HostStack`].
pub type StackRef = Rc<RefCell<HostStack>>;

/// A routed alternative to direct port-to-port wiring: a switch fabric (or
/// any other forwarding element) that accepts frames and ACKs at an
/// attachment point and delivers them to their destination itself.
///
/// A port attached to a router (see [`attach_router`]) serializes each
/// departing frame on its access link exactly like a wired port, but the
/// delivery callback hands the frame to [`FrameRouter::frame_ingress`]
/// instead of the peer's `frame_arrived` — the router then owns hop-by-hop
/// forwarding, buffering and drops. ACKs keep netsim's latency-only
/// simplification: they bypass serialization and buffers and go straight to
/// [`FrameRouter::ack_ingress`], which must deliver them after the
/// topology's reverse-path latency (ACK loss stays unmodeled, so windows
/// cannot deadlock).
///
/// Methods take `self: Rc<Self>` so implementations can re-capture
/// themselves in scheduled continuations without a `&self` lifetime.
pub trait FrameRouter {
    /// A data frame from attachment point `src` has finished serializing on
    /// its access link and enters the fabric.
    fn frame_ingress(self: Rc<Self>, sim: &mut Sim, src: usize, frame: Frame);
    /// An ACK (cumulative `seq`, advertised `window`, `dup` duplicate-ACK
    /// signals) leaves attachment point `src` toward the connection's other
    /// endpoint.
    fn ack_ingress(
        self: Rc<Self>,
        sim: &mut Sim,
        src: usize,
        conn: ConnId,
        seq: u64,
        window: u64,
        dup: u32,
    );
    /// How frames leave a port attached to this router; see [`EgressMode`].
    /// The default keeps every existing router on the in-queue path.
    fn egress_mode(&self) -> EgressMode {
        EgressMode::Deliver
    }
    /// A frame from attachment `src` finished serializing at
    /// `arrive - access latency` and would enter the fabric at `arrive`.
    /// Called synchronously (no event is scheduled) — only when
    /// [`FrameRouter::egress_mode`] returns [`EgressMode::Handoff`]; the
    /// implementation stages the frame for its owning partition.
    fn frame_departed(
        self: Rc<Self>,
        _sim: &mut Sim,
        _src: usize,
        _frame: Frame,
        _arrive: SimTime,
    ) {
        unreachable!("frame_departed requires EgressMode::Handoff");
    }
}

/// How a router-attached port moves departing frames into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressMode {
    /// The fabric shares this simulation: schedule
    /// [`FrameRouter::frame_ingress`] at the frame's arrival instant.
    Deliver,
    /// The fabric lives in another partition of a parallel run: serialize
    /// on the access link (identical busy accounting, no delivery event)
    /// and hand the frame to [`FrameRouter::frame_departed`] for
    /// cross-partition staging at the window barrier.
    Handoff,
}

type Handler = Rc<RefCell<dyn FnMut(&mut Sim, SocketEvent)>>;

/// Salt folded into the RSS steering hash so queue placement is not
/// correlated with the application's own uses of the connection id.
const RSS_SALT: u64 = 0x1D0A_75EE_D5A1_7A8C;

/// One hardware receive queue: its own interrupt moderation state and its
/// own pending ring. A single-queue port is the 2007 model; with
/// `multi_queue` the NIC exposes one queue per core and RSS-steers flows
/// onto them by a seed-stable hash of the connection id.
struct RxQueue {
    coalescer: RxCoalescer,
    pending: Vec<Frame>,
}

struct Port {
    tx: Link,
    peer: Option<StackRef>,
    peer_port: usize,
    /// Routed alternative to `peer`: the fabric this port attaches to and
    /// the attachment index the fabric knows this port by.
    router: Option<(Rc<dyn FrameRouter>, usize)>,
    queues: Vec<RxQueue>,
}

impl Port {
    fn pending_total(&self) -> u64 {
        self.queues.iter().map(|q| q.pending.len() as u64).sum()
    }
}

struct Conn {
    send: SendState,
    recv: RecvState,
    handler: Option<Handler>,
    delivered: RateMeter,
}

/// Running stack-level statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackStats {
    /// Frames that completed protocol processing.
    pub frames_processed: u64,
    /// Interrupts taken.
    pub interrupts: u64,
    /// Kernel→user deliveries completed.
    pub deliveries: u64,
    /// Deliveries that used the DMA engine.
    pub dma_deliveries: u64,
    /// ACKs processed on the send side.
    pub acks: u64,
    /// Frames that paid the backlog-pressure stall.
    pub stalled_frames: u64,
    /// Peak undelivered backlog observed (bytes).
    pub peak_backlog: u64,
    /// Frames dropped at egress by the fault injector's loss model.
    pub frames_dropped: u64,
    /// Frames dropped at ingress because the bounded rx ring overflowed.
    pub rx_ring_drops: u64,
    /// Frames discarded by the receiver because a predecessor was lost.
    pub ooo_frames: u64,
    /// Retransmission rounds (fast retransmit + RTO triggers).
    pub retransmits: u64,
    /// Bytes rewound for retransmission.
    pub retransmitted_bytes: u64,
    /// Retransmission-timer expiries that triggered recovery.
    pub rto_timeouts: u64,
    /// Deliveries forced onto the CPU copy path by a DMA-down window.
    pub dma_fallbacks: u64,
    /// Frames this stack put on the wire (including ones the loss model
    /// drops — the NIC still transmitted them). Feeds the cluster-level
    /// frame-conservation audit.
    pub frames_sent: u64,
    /// Frames that reached this stack's NIC and were accepted into a port's
    /// pending ring (ring-overflow drops excluded). At any event boundary
    /// `frames_arrived == frames_processed + Σ pending_frames.len()`.
    pub frames_arrived: u64,
    /// Largest peer-advertised window observed at a send. Bounds any single
    /// go-back-N rewind (`in_flight` never exceeds it), so
    /// `retransmitted_bytes ≤ retransmits × peak_window` is an exact
    /// invariant, not a heuristic.
    pub peak_window: u64,
}

/// A simulated host: cores, cache, optional DMA engine, NIC ports and the
/// kernel network path connecting them.
pub struct HostStack {
    name: String,
    params: StackParams,
    ioat: IoatConfig,
    cores: ResourcePool,
    cache: CacheRef,
    copier: CpuCopier,
    dma: Option<DmaEngineRef>,
    alloc: AddressAllocator,
    header_ring: Buffer,
    header_seq: u64,
    ports: Vec<Port>,
    conns: FastHashMap<ConnId, Conn>,
    /// Connections with undelivered data or a copy in flight — a proxy
    /// for the node's runnable receive threads.
    active_rx: usize,
    /// Total undelivered (DMA'd but not yet copied to user) bytes across
    /// all connections — the backlog that competes with hot state for the
    /// L2.
    queued_bytes: u64,
    rx_meter: RateMeter,
    tx_meter: RateMeter,
    stats: StackStats,
    tracer: Tracer,
    node_id: u32,
    faults: FaultInjector,
}

impl std::fmt::Debug for HostStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostStack")
            .field("name", &self.name)
            .field("ioat", &self.ioat)
            .field("ports", &self.ports.len())
            .field("conns", &self.conns.len())
            .finish()
    }
}

impl HostStack {
    /// Creates a node with `cores` CPU cores, the paper's L2 geometry and
    /// the given feature configuration.
    pub fn new(name: &str, cores: usize, params: StackParams, ioat: IoatConfig) -> StackRef {
        Self::with_cache(name, cores, params, ioat, CacheConfig::paper_l2())
    }

    /// Creates a node with an explicit cache geometry.
    pub fn with_cache(
        name: &str,
        cores: usize,
        params: StackParams,
        ioat: IoatConfig,
        cache_cfg: CacheConfig,
    ) -> StackRef {
        assert!(
            cores > 0,
            "host stack '{name}' configured with zero cores — nothing could run the kernel path"
        );
        let cache: CacheRef = Rc::new(RefCell::new(Cache::new(cache_cfg)));
        let dma = ioat
            .dma_engine
            .then(|| DmaEngine::new_ref(params.dma, Some(Rc::clone(&cache))));
        let mut alloc = AddressAllocator::new();
        let header_ring = alloc.alloc(params.header_ring_bytes);
        Rc::new(RefCell::new(HostStack {
            name: name.to_string(),
            params,
            ioat,
            cores: ResourcePool::new(&format!("{name}-core"), cores),
            cache,
            copier: CpuCopier::new(params.copy),
            dma,
            alloc,
            header_ring,
            header_seq: 0,
            ports: Vec::new(),
            conns: FastHashMap::default(),
            active_rx: 0,
            queued_bytes: 0,
            rx_meter: RateMeter::new(),
            tx_meter: RateMeter::new(),
            stats: StackStats::default(),
            tracer: Tracer::disabled(),
            node_id: 0,
            faults: FaultInjector::inert(),
        }))
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature configuration.
    pub fn ioat(&self) -> IoatConfig {
        self.ioat
    }

    /// Stack cost parameters.
    pub fn params(&self) -> &StackParams {
        &self.params
    }

    /// The node's core pool (for utilization queries).
    pub fn cores(&self) -> &ResourcePool {
        &self.cores
    }

    /// The node's cache (shared with the DMA engine).
    pub fn cache(&self) -> &CacheRef {
        &self.cache
    }

    /// The DMA engine, if the `dma_engine` feature is on.
    pub fn dma(&self) -> Option<&DmaEngineRef> {
        self.dma.as_ref()
    }

    /// The node id this stack's trace tracks are attributed to (0 until
    /// [`HostStack::set_tracer`] assigns one).
    pub fn node_id(&self) -> u32 {
        self.node_id
    }

    /// Running statistics.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Runs the stack's conservation audits.
    ///
    /// Every identity checked here is exact at any event boundary — none
    /// depends on the run being drained — so the method is safe to call
    /// mid-run as well as at window close. Failures route through
    /// [`ioat_guard::check`]: collected as structured violations inside an
    /// audit scope, a panic in debug builds otherwise, silent in release
    /// builds without `--audit`.
    pub fn audit(&self, now: SimTime) {
        let component = format!("netsim/{}", self.name);
        let queued: u64 = self.conns.values().map(|c| c.recv.queued()).sum();
        ioat_guard::check(
            &component,
            "backlog bytes = Σ per-conn undelivered",
            now,
            self.queued_bytes == queued,
            || {
                format!(
                    "cached queued_bytes={} but Σ recv.queued()={queued}",
                    self.queued_bytes
                )
            },
        );
        let delivered: u64 = self.conns.values().map(|c| c.recv.delivered_seq).sum();
        ioat_guard::check(
            &component,
            "delivered bytes = Σ per-conn delivered_seq",
            now,
            self.rx_meter.total_bytes() == delivered,
            || {
                format!(
                    "rx meter recorded {} B but Σ recv.delivered_seq={delivered} B",
                    self.rx_meter.total_bytes()
                )
            },
        );
        let pending: u64 = self.ports.iter().map(|p| p.pending_total()).sum();
        ioat_guard::check(
            &component,
            "frame conservation: arrived = processed + pending",
            now,
            self.stats.frames_arrived == self.stats.frames_processed + pending,
            || {
                format!(
                    "frames_arrived={} but frames_processed={} + pending={pending}",
                    self.stats.frames_arrived, self.stats.frames_processed
                )
            },
        );
        let copying = self.conns.values().filter(|c| c.recv.copying).count() as u64;
        ioat_guard::check(
            &component,
            "DMA deliveries ≤ completed deliveries + copies in flight",
            now,
            self.stats.dma_deliveries <= self.stats.deliveries + copying,
            || {
                format!(
                    "dma_deliveries={} but deliveries={} with {copying} copies in flight",
                    self.stats.dma_deliveries, self.stats.deliveries
                )
            },
        );
        // Each retransmission round rewinds exactly `in_flight` bytes, and
        // in-flight never exceeds the largest window the peer advertised
        // at a send — the paper's conservation argument for Fig. 6's loss
        // sensitivity rests on retransmitted traffic being window-bounded.
        let bound = self.stats.retransmits * self.stats.peak_window;
        ioat_guard::check(
            &component,
            "retransmitted bytes ≤ retransmits × peak window",
            now,
            self.stats.retransmitted_bytes <= bound,
            || {
                format!(
                    "retransmitted_bytes={} exceeds {} rounds × peak_window={}",
                    self.stats.retransmitted_bytes, self.stats.retransmits, self.stats.peak_window
                )
            },
        );
        if let Some(engine) = &self.dma {
            engine.borrow().audit(&component, now);
        }
    }

    /// Attaches a tracer. `node_id` becomes the Chrome-trace pid; each
    /// core gets a named track and the DMA channel (when present) shows up
    /// as a pseudo-core one past the core count. Spans are recorded
    /// retroactively from already-computed costs, so enabling tracing
    /// cannot change simulated behavior.
    pub fn set_tracer(&mut self, tracer: Tracer, node_id: u32) {
        tracer.set_process_name(node_id, &self.name);
        for i in 0..self.cores.len() {
            tracer.set_track_name(TrackId::new(node_id, i as u32), &format!("core{i}"));
        }
        if let Some(dma) = &self.dma {
            let track = TrackId::new(node_id, self.cores.len() as u32);
            tracer.set_track_name(track, "dma-chan");
            dma.borrow_mut().set_tracer(tracer.clone(), track);
        }
        self.tracer = tracer;
        self.node_id = node_id;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a fault injector. The default is [`FaultInjector::inert`],
    /// under which every fault hook is a no-op: no RNG draws, no timers,
    /// bit-identical runs.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// The attached fault injector (inert by default).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Marks a fault-recovery event on this node's fault track.
    fn fault_instant(&self, name: &'static str, at: SimTime) {
        self.tracer
            .instant(name, Category::Fault, TrackId::new(self.node_id, 0), at);
    }

    fn track(&self, core: usize) -> TrackId {
        TrackId::new(self.node_id, core as u32)
    }

    /// Application-level received-byte meter (goodput).
    pub fn rx_meter(&self) -> &RateMeter {
        &self.rx_meter
    }

    /// Transmitted-payload meter.
    pub fn tx_meter(&self) -> &RateMeter {
        &self.tx_meter
    }

    /// Starts the measurement window on all meters: the byte meters and
    /// the cores' utilization meters. The latter keep no history, so
    /// [`Self::cpu_utilization`] answers only `[at, now)` and `[0, now)`.
    pub fn begin_measurement(&mut self, at: SimTime) {
        self.cores.begin_window(at);
        self.rx_meter.begin_window(at);
        self.tx_meter.begin_window(at);
        for conn in self.conns.values_mut() {
            conn.delivered.begin_window(at);
        }
    }

    /// Overall CPU utilization across the node's cores in `[from, to)` —
    /// the paper's headline metric. `from` is zero or the instant passed
    /// to [`Self::begin_measurement`]; `to` is zero, that instant, or the
    /// present (see [`ioat_simcore::UtilizationMeter`]).
    pub fn cpu_utilization(&self, from: SimTime, to: SimTime) -> f64 {
        self.cores.utilization_between(from, to)
    }

    /// CPU *occupancy* across the node's cores in `[from, to)`:
    /// utilization plus the spin cycles a polling receive mode burns on
    /// its receive cores. A busy-polling core reads as mostly idle on the
    /// utilization meter (spinning does no work), but its idle cycles are
    /// not reclaimable — the poll loop owns them — so each core that
    /// services a receive queue under a polling mode counts as occupied
    /// for the whole window. Under a non-polling mode this equals
    /// [`Self::cpu_utilization`]. The gap between the two, times the core
    /// count, is the number of cores an operator could reclaim by
    /// switching the node off busy-polling (see DESIGN.md §13).
    pub fn cpu_occupancy(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.cores.is_empty() || !self.ioat.rx_mode.is_polling() {
            return self.cpu_utilization(from, to);
        }
        let mut spinning = vec![false; self.cores.len()];
        for port in &self.ports {
            for q in 0..port.queues.len() {
                spinning[self.rx_core_for(q)] = true;
            }
        }
        let window = to - from;
        let mut busy = SimDuration::ZERO;
        for (core, &spin) in self.cores.members().iter().zip(&spinning) {
            busy += if spin {
                window
            } else {
                core.borrow().meter().busy_between(from, to)
            };
        }
        busy.as_secs_f64() / (window.as_secs_f64() * self.cores.len() as f64)
    }

    /// Per-connection delivered throughput in Mbps over the window ending
    /// at `now`.
    pub fn conn_mbps(&self, conn: ConnId, now: SimTime) -> f64 {
        self.conns.get(&conn).map_or(0.0, |c| c.delivered.mbps(now))
    }

    /// Adds a NIC port transmitting over `tx`; returns the port index.
    /// `coalescing` enables the hardware interrupt-coalescing feature on
    /// the port's receive side — under [`RxMode::Interrupt`] only; the
    /// other modes fix their own notification strategy. With `multi_queue`
    /// the port exposes one receive queue per core, each with independent
    /// interrupt moderation.
    pub fn add_port(&mut self, tx: Link, coalescing: bool) -> usize {
        let p = &self.params;
        let n_queues = if self.ioat.multi_queue {
            self.cores.len()
        } else {
            1
        };
        let queues = (0..n_queues)
            .map(|_| RxQueue {
                coalescer: match self.ioat.rx_mode {
                    RxMode::Interrupt => {
                        RxCoalescer::new(coalescing, p.coalesce_max_frames, p.coalesce_delay)
                    }
                    RxMode::Coalesced => {
                        RxCoalescer::new(true, p.coalesce_max_frames, p.coalesce_delay)
                    }
                    RxMode::BusyPoll | RxMode::ZeroCopy => RxCoalescer::polling(),
                },
                pending: Vec::new(),
            })
            .collect();
        self.ports.push(Port {
            tx,
            peer: None,
            peer_port: 0,
            router: None,
            queues,
        });
        self.ports.len() - 1
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// RSS flow steering: the receive queue on `port` that `conn`'s frames
    /// land in. Seed-stable — a pure function of the connection id, never
    /// of arrival interleaving — so partitioned and multi-threaded runs
    /// steer identically.
    fn rx_queue_for(&self, port: usize, conn: ConnId) -> usize {
        let n = self.ports[port].queues.len();
        if n == 1 {
            0
        } else {
            (stable_mix(conn.0 ^ RSS_SALT) % n as u64) as usize
        }
    }

    /// The core that services receive queue `queue` (queues map 1:1 onto
    /// cores; a single-queue port is serviced by core 0, the 2007 model).
    fn rx_core_for(&self, queue: usize) -> usize {
        queue % self.cores.len()
    }

    /// The core the application thread serving `conn` is affine to.
    /// Threads are distributed round-robin, like a multi-threaded server
    /// pinning one worker per connection.
    fn app_core_for(&self, conn: ConnId) -> usize {
        (conn.0 as usize) % self.cores.len()
    }

    /// Thread wake cost including scheduler contention: each runnable
    /// receive thread beyond the core count adds a fraction of the base
    /// cost (longer run queues, context-switch cache damage).
    fn wake_cost(&self) -> SimDuration {
        let excess = self.active_rx.saturating_sub(self.cores.len());
        self.params
            .wake
            .mul_f64(1.0 + self.params.sched_contention * excess as f64)
    }

    /// A receive thread is runnable when undelivered bytes exist beyond
    /// the copy already in flight — a thread blocked waiting for the DMA
    /// engine is *not* on the run queue.
    fn conn_rx_active(c: &Conn) -> bool {
        c.recv.queued() > c.recv.copying_bytes
    }

    fn header_access_cost(&mut self, frame: &Frame, rcv_kernel_buf: Buffer) -> SimDuration {
        let p = self.params;
        let mut cache = self.cache.borrow_mut();
        // The NIC's DMA write invalidated the header lines in both modes,
        // so the first access is a miss either way; split headers confine
        // that miss to a tiny dedicated ring instead of dragging
        // payload-region lines into the cache. Kernel-bypass receive gets
        // the same confinement from its compact descriptor ring: payload
        // goes straight to user buffers the protocol path never touches.
        if self.ioat.split_header || self.ioat.rx_mode == RxMode::ZeroCopy {
            // Headers land in the small dedicated ring; the NIC write
            // invalidated the lines, so the access misses, but it is
            // confined and independent of any payload backlog.
            let off =
                RecvState::ring_offset(self.header_seq, self.header_ring.len(), p.header_bytes);
            self.header_seq += p.header_bytes;
            let slice = self.header_ring.slice(off, p.header_bytes);
            cache.invalidate_range(slice);
            let out = cache.access_range(slice);
            p.line_hit * out.hit_lines + p.line_miss * out.miss_lines
        } else {
            // The header sits at the front of the frame's landing slice in
            // the big cycling kernel buffer — a miss that also drags
            // payload-bearing lines into the cache. When the undelivered
            // backlog overflows the L2's headroom, the handler's walk over
            // interleaved header/payload skb chains turns into dependent
            // memory stalls (`pollution_stall_per_frame`); split-header
            // placement is immune to this (Fig. 7b).
            let len = p.header_bytes.min(frame.payload.max(1));
            let off =
                RecvState::ring_offset(frame.seq_end, rcv_kernel_buf.len(), frame.payload.max(len));
            let out = cache.access_range(rcv_kernel_buf.slice(off, len));
            let mut cost = p.line_hit * out.hit_lines + p.line_miss * out.miss_lines;
            // Effective L2 headroom for backlog is a fraction of the
            // cache; the stall ramps in past ~10 % occupancy and
            // saturates at ~40 %.
            let cap = cache.config().capacity as f64;
            let pressure = ((self.queued_bytes as f64 - 0.10 * cap) / (0.30 * cap)).clamp(0.0, 1.0);
            if pressure > 0.0 {
                self.stats.stalled_frames += 1;
                cost += p.pollution_stall_per_frame.mul_f64(pressure);
            }
            cost
        }
    }

    fn state_access_cost(&mut self, state_buf: Buffer) -> SimDuration {
        let p = self.params;
        let out = self.cache.borrow_mut().access_range(state_buf);
        p.line_hit * out.hit_lines + p.line_miss * out.miss_lines
    }
}

// ---------------------------------------------------------------------------
// Wiring and connection management (free associated functions on StackRef).
// ---------------------------------------------------------------------------

/// Connects one port on `a` to one port on `b` with a symmetric duplex
/// link. Returns `(port_on_a, port_on_b)`.
pub fn wire(
    a: &StackRef,
    b: &StackRef,
    bandwidth: ioat_simcore::time::Bandwidth,
    latency: SimDuration,
    coalescing: bool,
) -> (usize, usize) {
    let name_a = a.borrow().name.clone();
    let name_b = b.borrow().name.clone();
    let link_ab = Link::new(&format!("{name_a}->{name_b}"), bandwidth, latency);
    let link_ba = Link::new(&format!("{name_b}->{name_a}"), bandwidth, latency);
    let ai = a.borrow_mut().add_port(link_ab, coalescing);
    let bi = b.borrow_mut().add_port(link_ba, coalescing);
    {
        let mut sa = a.borrow_mut();
        sa.ports[ai].peer = Some(Rc::clone(b));
        sa.ports[ai].peer_port = bi;
    }
    {
        let mut sb = b.borrow_mut();
        sb.ports[bi].peer = Some(Rc::clone(a));
        sb.ports[bi].peer_port = ai;
    }
    (ai, bi)
}

/// Adds a port on `s` attached to a [`FrameRouter`] instead of a direct
/// peer. `tx` is the host's access link into the fabric (frames serialize
/// on it before `frame_ingress`); `attachment` is the index the router
/// knows this port by. Returns the port index.
pub fn attach_router(
    s: &StackRef,
    tx: Link,
    coalescing: bool,
    router: Rc<dyn FrameRouter>,
    attachment: usize,
) -> usize {
    let mut st = s.borrow_mut();
    let idx = st.add_port(tx, coalescing);
    st.ports[idx].router = Some((router, attachment));
    idx
}

/// Opens a full-duplex connection between ports `port_a` on `a` and
/// `port_b` on `b`, with the same socket options at both ends. The ports
/// must either be wired directly to each other or both be attached to a
/// router (the router is responsible for delivering between them).
///
/// # Panics
///
/// Panics if the ports are neither wired to each other nor both
/// router-attached, or if the options are inconsistent (e.g. `read_size`
/// larger than `rcvbuf`).
pub fn open_connection(
    a: &StackRef,
    b: &StackRef,
    port_a: usize,
    port_b: usize,
    opts: SocketOpts,
    id: ConnId,
) -> ConnId {
    assert!(
        opts.read_size <= opts.rcvbuf,
        "read_size must fit in the receive buffer"
    );
    assert!(
        opts.mss() <= opts.rcvbuf,
        "MSS must fit in the receive buffer"
    );
    {
        let sa = a.borrow();
        let port = &sa.ports[port_a];
        let wired =
            port.peer.as_ref().is_some_and(|p| Rc::ptr_eq(p, b)) && port.peer_port == port_b;
        let routed = port.router.is_some() && b.borrow().ports[port_b].router.is_some();
        assert!(
            wired || routed,
            "ports are neither wired to each other nor both router-attached"
        );
    }
    install_endpoint(a, port_a, opts, id);
    install_endpoint(b, port_b, opts, id);
    id
}

fn install_endpoint(s: &StackRef, port: usize, opts: SocketOpts, id: ConnId) {
    let mut st = s.borrow_mut();
    assert!(
        !st.conns.contains_key(&id),
        "connection {id} already exists on {}",
        st.name
    );
    let snd_user = st.alloc.alloc(opts.sndbuf);
    let snd_kern = st.alloc.alloc(opts.sndbuf);
    let rcv_kern = st.alloc.alloc(opts.rcvbuf);
    let rcv_user = st.alloc.alloc(opts.rcvbuf);
    let state_len = st.params.conn_state_bytes;
    let state = st.alloc.alloc(state_len);
    let rto_initial = st.params.rto_initial;
    st.conns.insert(
        id,
        Conn {
            send: SendState {
                opts,
                port,
                pending: 0,
                next_seq: 0,
                acked_seq: 0,
                peer_window: opts.rcvbuf,
                user_buf: snd_user,
                kernel_buf: snd_kern,
                waiting_for_drain: false,
                dup_acks: 0,
                in_recovery: false,
                rto_armed: false,
                rto_current: rto_initial,
            },
            recv: RecvState {
                opts,
                received_seq: 0,
                delivered_seq: 0,
                copying: false,
                copying_bytes: 0,
                kernel_buf: rcv_kern,
                user_buf: rcv_user,
                state_buf: state,
                recv_credits: None,
            },
            handler: None,
            delivered: RateMeter::new(),
        },
    );
}

/// Installs the application event handler for `conn` on stack `s`.
pub fn set_handler<F>(s: &StackRef, conn: ConnId, handler: F)
where
    F: FnMut(&mut Sim, SocketEvent) + 'static,
{
    let mut st = s.borrow_mut();
    let c = st.conns.get_mut(&conn).expect("unknown connection");
    c.handler = Some(Rc::new(RefCell::new(handler)));
}

/// Drops every edge `s` holds to the rest of its cluster: each port's
/// `peer` and `router`, and each connection's application handler.
///
/// Stacks, routers and handlers point at one another (a wired peer points
/// back, a fabric holds its attached stacks, a handler captures sockets on
/// its own stack), so `Rc` counts alone never reach zero. The owner of a
/// cluster calls this on every node when the simulation ends; afterwards
/// the stack can no longer send or deliver, only report its counters.
pub fn teardown(s: &StackRef) {
    let mut st = s.borrow_mut();
    for port in &mut st.ports {
        port.peer = None;
        port.router = None;
    }
    for c in st.conns.values_mut() {
        c.handler = None;
    }
}

/// Switches `conn` from the default tight-receive-loop mode to explicit
/// read posting with `credits` outstanding reads.
pub fn set_recv_credits(s: &StackRef, conn: ConnId, credits: u64) {
    let mut st = s.borrow_mut();
    let c = st.conns.get_mut(&conn).expect("unknown connection");
    c.recv.recv_credits = Some(credits);
}

/// Posts one more read on `conn` (the application finished processing and
/// called `recv()` again); kicks delivery if data is waiting.
pub fn add_recv_credit(s: &StackRef, sim: &mut Sim, conn: ConnId) {
    {
        let mut st = s.borrow_mut();
        let c = st.conns.get_mut(&conn).expect("unknown connection");
        match &mut c.recv.recv_credits {
            None => {}
            Some(n) => *n += 1,
        }
    }
    try_deliver(s, sim, conn);
}

/// Charges `duration` of application compute to the least-loaded core
/// (the scheduler migrates runnable threads), then runs `then`. Models
/// per-message application processing (validation, transformation, script
/// execution).
pub fn app_compute<F>(s: &StackRef, sim: &mut Sim, conn: ConnId, duration: SimDuration, then: F)
where
    F: FnOnce(&mut Sim) + 'static,
{
    let _ = conn;
    let (core, tracer, track) = {
        let st = s.borrow();
        let idx = st.cores.least_loaded_index(sim.now());
        (
            Rc::clone(st.cores.member(idx)),
            st.tracer.clone(),
            st.track(idx),
        )
    };
    let end = core.borrow_mut().run_job(sim, duration, then);
    tracer.span("app_compute", Category::App, track, end - duration, end);
}

fn emit(s: &StackRef, sim: &mut Sim, conn: ConnId, ev: SocketEvent) {
    let h = s.borrow().conns.get(&conn).and_then(|c| c.handler.clone());
    if let Some(h) = h {
        (h.borrow_mut())(sim, ev);
    }
}

// ---------------------------------------------------------------------------
// Sender path.
// ---------------------------------------------------------------------------

/// Queues `bytes` for transmission on `conn` from the application.
///
/// The caller is notified with [`SocketEvent::SendReady`] when everything
/// queued so far has been sent *and acknowledged*.
pub fn app_send(s: &StackRef, sim: &mut Sim, conn: ConnId, bytes: u64) {
    if bytes == 0 {
        return;
    }
    {
        let mut st = s.borrow_mut();
        let c = st.conns.get_mut(&conn).expect("unknown connection");
        c.send.waiting_for_drain = true;
    }
    send_chunk(s, sim, conn, bytes);
}

/// Processes one `send()`-sized chunk: charges the CPU costs, enqueues the
/// bytes, pumps the window, then schedules the next chunk.
fn send_chunk(s: &StackRef, sim: &mut Sim, conn: ConnId, remaining: u64) {
    let (core, cost, chunk, copy_cost, tracer, track) = {
        let st = s.borrow_mut();
        let p = st.params;
        let (opts, user_buf, kernel_buf, seq) = {
            let c = st.conns.get(&conn).expect("unknown connection");
            (
                c.send.opts,
                c.send.user_buf,
                c.send.kernel_buf,
                c.send.next_seq + c.send.pending,
            )
        };
        let chunk = remaining.min(p.tso_chunk).min(opts.sndbuf);
        let mut cost = p.syscall;
        let mut copy_cost = SimDuration::ZERO;
        if !opts.sendfile {
            // User→kernel copy through this node's cache.
            let off_u = RecvState::ring_offset(seq, user_buf.len(), chunk);
            let off_k = RecvState::ring_offset(seq, kernel_buf.len(), chunk);
            let copier = st.copier;
            let cache = Rc::clone(&st.cache);
            let out = copier.copy(
                &mut cache.borrow_mut(),
                user_buf.slice(off_u, chunk),
                kernel_buf.slice(off_k, chunk),
            );
            copy_cost = out.duration;
            cost += out.duration;
        }
        // Segmentation: per-MSS on the CPU, or one cheap call with TSO.
        if opts.tso {
            cost += p.tso_chunk_cost;
        } else {
            cost += p.segment_cost * chunk.div_ceil(opts.mss());
        }
        let core_idx = st.app_core_for(conn);
        let core = Rc::clone(st.cores.member(core_idx));
        (
            core,
            cost,
            chunk,
            copy_cost,
            st.tracer.clone(),
            st.track(core_idx),
        )
    };
    let s2 = Rc::clone(s);
    let end = core.borrow_mut().run_job(sim, cost, move |sim| {
        {
            let mut st = s2.borrow_mut();
            if let Some(c) = st.conns.get_mut(&conn) {
                c.send.pending += chunk;
            }
        }
        pump(&s2, sim, conn);
        let left = remaining - chunk;
        if left > 0 {
            send_chunk(&s2, sim, conn, left);
        }
    });
    // Retroactive attribution: the user→kernel copy, then syscall +
    // segmentation, on the sending application's core.
    let start = end - cost;
    if !copy_cost.is_zero() {
        tracer.span("tx_copy", Category::Copy, track, start, start + copy_cost);
    }
    tracer.span(
        "tx_proto",
        Category::Protocol,
        track,
        start + copy_cost,
        end,
    );
}

/// Pushes as many frames as the window allows onto the wire, then arms
/// the retransmission timer when faults are in play.
fn pump(s: &StackRef, sim: &mut Sim, conn: ConnId) {
    pump_frames(s, sim, conn);
    arm_rto(s, sim, conn);
}

/// The window-pumping loop. The whole departing packet train is computed
/// under a single stack borrow — the wire model never advances simulated
/// time during `transmit`, so window arithmetic, the tx meter and the
/// fault RNG observe exactly the order the old one-frame-per-pass loop
/// produced, without per-frame `RefCell`/map traffic. Each frame consults
/// the fault injector: a lost frame still serializes on the wire (the
/// sender's NIC transmitted it) but never reaches the peer's
/// `frame_arrived` — and schedules no event at all.
fn pump_frames(s: &StackRef, sim: &mut Sim, conn: ConnId) {
    enum Egress {
        Peer(StackRef, usize),
        Routed(Rc<dyn FrameRouter>, usize),
        Handoff(Rc<dyn FrameRouter>, usize),
    }
    let (train, link, egress) = {
        let mut st = s.borrow_mut();
        let now = sim.now();
        let Some(c) = st.conns.get_mut(&conn) else {
            return;
        };
        let mss = c.send.opts.mss();
        let port_idx = c.send.port;
        let mut train: Vec<(Frame, bool)> = Vec::new();
        loop {
            let sendable = c.send.pending.min(c.send.usable_window());
            if sendable == 0 {
                break;
            }
            let payload = sendable.min(mss);
            c.send.pending -= payload;
            c.send.next_seq += payload;
            train.push((
                Frame {
                    conn,
                    payload,
                    seq_end: c.send.next_seq,
                },
                false,
            ));
        }
        if train.is_empty() {
            return;
        }
        let peer_window = c.send.peer_window;
        st.stats.peak_window = st.stats.peak_window.max(peer_window);
        for (frame, lost) in &mut train {
            st.tx_meter.record(now, frame.payload);
            st.stats.frames_sent += 1;
            *lost = st.faults.frame_lost(port_idx);
            if *lost {
                st.stats.frames_dropped += 1;
                st.fault_instant("pkt_drop", now);
            }
        }
        let port = &st.ports[port_idx];
        let egress = if let Some((router, attachment)) = &port.router {
            match router.egress_mode() {
                EgressMode::Deliver => Egress::Routed(Rc::clone(router), *attachment),
                EgressMode::Handoff => Egress::Handoff(Rc::clone(router), *attachment),
            }
        } else {
            Egress::Peer(
                Rc::clone(port.peer.as_ref().expect("port not wired")),
                port.peer_port,
            )
        };
        (train, port.tx.clone(), egress)
    };
    for (frame, lost) in train {
        if lost {
            link.transmit_dropped(sim, frame.wire_bytes());
            continue;
        }
        match &egress {
            Egress::Peer(peer, peer_port) => {
                let peer2 = Rc::clone(peer);
                let peer_port = *peer_port;
                link.transmit(sim, frame.wire_bytes(), move |sim| {
                    frame_arrived(&peer2, sim, peer_port, frame);
                });
            }
            Egress::Routed(router, attachment) => {
                let r2 = Rc::clone(router);
                let att = *attachment;
                link.transmit(sim, frame.wire_bytes(), move |sim| {
                    r2.frame_ingress(sim, att, frame);
                });
            }
            Egress::Handoff(router, attachment) => {
                // Identical serializer accounting to `transmit`, but the
                // arrival happens in another partition: no local event,
                // the router stages the frame at the window barrier.
                let arrive = link.transmit_dropped(sim, frame.wire_bytes());
                Rc::clone(router).frame_departed(sim, *attachment, frame, arrive);
            }
        }
    }
}

/// Arms the retransmission timer for `conn` when loss is possible and
/// unacknowledged bytes exist. Loss is possible when a fault injector is
/// active *or* the connection's port is router-attached — a switch fabric
/// can tail-drop on buffer exhaustion without any injector, and a dropped
/// final frame of a train produces no duplicate ACKs, so only the RTO can
/// recover it. Strictly a no-op on fault-free wired ports, so classic runs
/// schedule zero extra events.
fn arm_rto(s: &StackRef, sim: &mut Sim, conn: ConnId) {
    let armed = {
        let mut st = s.borrow_mut();
        let lossy_port = |st: &HostStack, conn: ConnId| {
            st.conns
                .get(&conn)
                .is_some_and(|c| st.ports[c.send.port].router.is_some())
        };
        if !st.faults.is_active() && !lossy_port(&st, conn) {
            return;
        }
        let Some(c) = st.conns.get_mut(&conn) else {
            return;
        };
        if c.send.rto_armed || c.send.in_flight() == 0 {
            return;
        }
        c.send.rto_armed = true;
        Some((c.send.rto_current, c.send.acked_seq))
    };
    if let Some((rto, snapshot)) = armed {
        let s2 = Rc::clone(s);
        sim.schedule(rto, move |sim| rto_fired(&s2, sim, conn, snapshot));
    }
}

/// Retransmission-timer expiry: if the cumulative ACK point has not moved
/// since the timer was armed, everything in flight is presumed lost —
/// go-back-N, double the RTO and pump again. If progress happened, the
/// timer simply re-arms for the remaining in-flight bytes.
fn rto_fired(s: &StackRef, sim: &mut Sim, conn: ConnId, acked_snapshot: u64) {
    {
        let mut st = s.borrow_mut();
        let now = sim.now();
        let rto_max = st.params.rto_max;
        let Some(c) = st.conns.get_mut(&conn) else {
            return;
        };
        c.send.rto_armed = false;
        if c.send.in_flight() == 0 {
            return; // drained while the timer was pending
        }
        if c.send.acked_seq > acked_snapshot {
            // Progress since arming: not a loss signal, just re-arm below.
        } else {
            let rewound = c.send.go_back_n();
            c.send.rto_current = (c.send.rto_current * 2).min(rto_max);
            c.send.in_recovery = true;
            c.send.dup_acks = 0;
            st.stats.rto_timeouts += 1;
            st.stats.retransmits += 1;
            st.stats.retransmitted_bytes += rewound;
            st.fault_instant("rto_timeout", now);
        }
    }
    pump(s, sim, conn);
}

// ---------------------------------------------------------------------------
// Receiver path.
// ---------------------------------------------------------------------------

/// A frame has finished arriving at `port` of stack `s` (the NIC has
/// already DMA'd it into kernel memory — no CPU cost yet).
pub fn frame_arrived(s: &StackRef, sim: &mut Sim, port: usize, frame: Frame) {
    let (action, queue) = {
        let mut st = s.borrow_mut();
        let now = sim.now();
        // RSS: steer the frame onto its flow's queue before any other
        // decision — the bounded ring and the coalescer are per-queue.
        let queue = st.rx_queue_for(port, frame.conn);
        // Bounded rx ring (fault injection): frames arriving while the
        // ring is full are dropped by the NIC before any CPU work. The
        // check is deterministic — backlog depth only, no RNG.
        if let Some(cap) = st.faults.rx_ring_slots() {
            if st.ports[port].queues[queue].pending.len() >= cap {
                st.stats.rx_ring_drops += 1;
                st.fault_instant("rx_ring_drop", now);
                return;
            }
        }
        #[cfg(not(feature = "audit-bug"))]
        {
            st.stats.frames_arrived += 1;
        }
        #[cfg(feature = "audit-bug")]
        {
            // Test-only accounting bug: silently drop every 97th increment
            // so the frame-conservation audit has a known defect to catch.
            // Only this counter is skewed; behavior is untouched.
            if st.stats.frames_arrived % 97 != 96 {
                st.stats.frames_arrived += 1;
            }
        }
        // The NIC's DMA write lands the payload in kernel memory and
        // invalidates any stale copies of those lines in the CPU cache —
        // this is why receive-side copies run cold in practice. With
        // split headers the aligned header placement keeps the header
        // ring coherent (the "optimally aligned" benefit of §2.2.1);
        // without it the header lines are invalidated along with the
        // payload.
        if frame.payload > 0 {
            if let Some(c) = st.conns.get(&frame.conn) {
                // Kernel-bypass receive lands payload directly in the user
                // buffer (that is the zero-copy: there is no kernel-side
                // landing zone to copy out of later); every other mode
                // lands it in the kernel socket buffer.
                let buf = if st.ioat.rx_mode == RxMode::ZeroCopy {
                    c.recv.user_buf
                } else {
                    c.recv.kernel_buf
                };
                let off = RecvState::ring_offset(frame.seq_end, buf.len(), frame.payload);
                let slice = buf.slice(off, frame.payload);
                st.cache.borrow_mut().invalidate_range(slice);
            }
        }
        let q = &mut st.ports[port].queues[queue];
        q.pending.push(frame);
        (q.coalescer.on_frame(now), queue)
    };
    match action {
        CoalesceAction::RaiseNow => raise_interrupt(s, sim, port, queue),
        CoalesceAction::ArmTimer(delay) => {
            let s2 = Rc::clone(s);
            sim.schedule(delay, move |sim| {
                let fire = s2.borrow_mut().ports[port].queues[queue]
                    .coalescer
                    .on_timer();
                if fire {
                    raise_interrupt(&s2, sim, port, queue);
                }
            });
        }
        CoalesceAction::Accumulate => {}
    }
}

/// Takes the accumulated batch on `port`'s receive `queue` and runs the
/// notification handler on the queue's core: per-interrupt + per-frame
/// costs (zero interrupt entry under the polling modes — the poller is
/// already on-CPU), then per-frame protocol processing with
/// cache-dependent state/header/payload accesses.
fn raise_interrupt(s: &StackRef, sim: &mut Sim, port: usize, queue: usize) {
    let (core, cost, frames, irq_part, tracer, track) = {
        let mut st = s.borrow_mut();
        let n = st.ports[port].queues[queue].coalescer.take_batch(sim.now());
        if n == 0 {
            return;
        }
        let frames: Vec<Frame> = st.ports[port].queues[queue].pending.drain(..).collect();
        debug_assert_eq!(frames.len(), n as usize);
        let p = st.params;
        // Interrupt-handling part (per-event + per-frame) vs. the TCP/IP
        // protocol part (per-frame base + cache-dependent accesses) — the
        // paper's Fig. 7 decomposition. The polling modes never take the
        // interrupt at all: the dedicated poller reaps descriptors from
        // its own context. (The poller's spin cycles burn a core but are
        // deliberately excluded from the utilization metric — see
        // DESIGN.md §13 — so utilization keeps measuring *work*;
        // `cpu_occupancy` reports the burned cores.)
        let irq_part = if st.ioat.rx_mode.is_polling() {
            SimDuration::ZERO
        } else {
            p.irq_cost + p.irq_per_frame * frames.len() as u64
        };
        let mut cost = irq_part;
        for f in &frames {
            let (state_buf, kernel_buf) = {
                let c = st.conns.get(&f.conn).expect("frame for unknown conn");
                (c.recv.state_buf, c.recv.kernel_buf)
            };
            cost += p.proto_base;
            cost += st.state_access_cost(state_buf);
            cost += st.header_access_cost(f, kernel_buf);
        }
        st.stats.interrupts += 1;
        st.stats.frames_processed += frames.len() as u64;
        let core_idx = st.rx_core_for(queue);
        (
            Rc::clone(st.cores.member(core_idx)),
            cost,
            frames,
            irq_part,
            st.tracer.clone(),
            st.track(core_idx),
        )
    };
    let s2 = Rc::clone(s);
    let end = core.borrow_mut().run_job(sim, cost, move |sim| {
        // Protocol processing done: advance streams, ACK, deliver. Without
        // injected loss every frame classifies `InOrder` (FIFO link, one
        // stream per port), so the discard branches never run.
        let mut acks: Vec<(ConnId, u64, u64, u32)> = Vec::new();
        let mut gaps: Vec<(ConnId, u32)> = Vec::new();
        {
            let mut st = s2.borrow_mut();
            let now = sim.now();
            for f in &frames {
                let class = st.conns[&f.conn].recv.classify(f.payload, f.seq_end);
                match class {
                    FrameClass::InOrder => {
                        let (became_active, grew) = {
                            let c = st.conns.get_mut(&f.conn).expect("unknown conn");
                            let was_active = HostStack::conn_rx_active(c);
                            let before = c.recv.received_seq;
                            c.recv.received_seq = c.recv.received_seq.max(f.seq_end);
                            (
                                !was_active && HostStack::conn_rx_active(c),
                                c.recv.received_seq - before,
                            )
                        };
                        if became_active {
                            st.active_rx += 1;
                        }
                        st.queued_bytes += grew;
                        if st.queued_bytes > st.stats.peak_backlog {
                            st.stats.peak_backlog = st.queued_bytes;
                        }
                    }
                    FrameClass::Duplicate => {
                        // A retransmission of data already received: the
                        // protocol cost was paid above; just re-ACK.
                    }
                    FrameClass::Gap => {
                        // Predecessor lost: the go-back-N receiver drops
                        // the frame and signals with a duplicate ACK.
                        st.stats.ooo_frames += 1;
                        st.fault_instant("ooo_discard", now);
                        match gaps.iter_mut().find(|g| g.0 == f.conn) {
                            Some(g) => g.1 += 1,
                            None => gaps.push((f.conn, 1)),
                        }
                    }
                }
            }
            for f in &frames {
                let c = &st.conns[&f.conn];
                let dup = gaps.iter().find(|g| g.0 == f.conn).map_or(0, |g| g.1);
                let entry = (f.conn, c.recv.received_seq, c.recv.advertised_window(), dup);
                if !acks.iter().any(|a| a.0 == f.conn) {
                    acks.push(entry);
                }
            }
        }
        for (conn, seq, window, dup) in acks {
            send_ack(&s2, sim, conn, seq, window, dup);
            try_deliver(&s2, sim, conn);
        }
    });
    let start = end - cost;
    if !irq_part.is_zero() {
        tracer.span("irq", Category::Interrupt, track, start, start + irq_part);
    }
    tracer.span("tcpip", Category::Protocol, track, start + irq_part, end);
}

/// Sends a cumulative ACK + window update back to the peer. ACKs travel at
/// link latency without occupying the reverse serializer (documented
/// simplification). `dup` carries the number of duplicate-ACK signals in
/// this batch (discarded out-of-order frames); it is 0 on every fault-free
/// path.
fn send_ack(s: &StackRef, sim: &mut Sim, conn: ConnId, seq: u64, window: u64, dup: u32) {
    enum AckPath {
        Peer(StackRef, SimDuration),
        Routed(Rc<dyn FrameRouter>, usize),
    }
    let path = {
        let st = s.borrow();
        let Some(c) = st.conns.get(&conn) else { return };
        let port = &st.ports[c.send.port];
        if let Some((router, attachment)) = &port.router {
            AckPath::Routed(Rc::clone(router), *attachment)
        } else {
            AckPath::Peer(
                Rc::clone(port.peer.as_ref().expect("port not wired")),
                port.tx.latency(),
            )
        }
    };
    match path {
        AckPath::Peer(peer, latency) => {
            sim.schedule(latency, move |sim| {
                ack_received(&peer, sim, conn, seq, window, dup);
            });
        }
        AckPath::Routed(router, attachment) => {
            router.ack_ingress(sim, attachment, conn, seq, window, dup);
        }
    }
}

/// Sender-side ACK processing: charged to the interrupt core, then the
/// window reopens and more frames go out. `dup > 0` reports duplicate
/// ACKs from the receiver; three of them trigger fast retransmit.
pub fn ack_received(s: &StackRef, sim: &mut Sim, conn: ConnId, seq: u64, window: u64, dup: u32) {
    let (core, cost, tracer, track) = {
        let mut st = s.borrow_mut();
        if !st.conns.contains_key(&conn) {
            return;
        }
        st.stats.acks += 1;
        let port = st.conns[&conn].send.port;
        // ACKs for a flow land on the same RSS queue (and hence core) as
        // its data frames would — steering is per-flow, not per-direction.
        let core_idx = st.rx_core_for(st.rx_queue_for(port, conn));
        (
            Rc::clone(st.cores.member(core_idx)),
            st.params.ack_cost,
            st.tracer.clone(),
            st.track(core_idx),
        )
    };
    let s2 = Rc::clone(s);
    let end = core.borrow_mut().run_job(sim, cost, move |sim| {
        let drained = {
            let mut st = s2.borrow_mut();
            let now = sim.now();
            let rto_initial = st.params.rto_initial;
            let Some(c) = st.conns.get_mut(&conn) else {
                return;
            };
            let advanced = c.send.on_ack(seq, window);
            let mut rewound = None;
            if advanced {
                // New data acknowledged: the hole (if any) is filled.
                c.send.dup_acks = 0;
                c.send.in_recovery = false;
                c.send.rto_current = rto_initial;
            } else if c.send.register_dup_acks(dup) {
                // Third duplicate ACK: fast retransmit via go-back-N,
                // without waiting for the (much longer) RTO.
                rewound = Some(c.send.go_back_n());
                c.send.in_recovery = true;
            }
            let drained = c.send.drained() && c.send.waiting_for_drain;
            if let Some(r) = rewound {
                st.stats.retransmits += 1;
                st.stats.retransmitted_bytes += r;
                st.fault_instant("fast_retx", now);
            }
            drained
        };
        pump(&s2, sim, conn);
        if drained {
            let still_drained = {
                let mut st = s2.borrow_mut();
                let c = st.conns.get_mut(&conn).expect("unknown conn");
                if c.send.drained() {
                    c.send.waiting_for_drain = false;
                    true
                } else {
                    false
                }
            };
            if still_drained {
                emit(&s2, sim, conn, SocketEvent::SendReady);
            }
        }
    });
    tracer.span("ack", Category::Protocol, track, end - cost, end);
}

/// Starts a kernel→user delivery for `conn` if bytes are queued and no
/// copy is in progress.
fn try_deliver(s: &StackRef, sim: &mut Sim, conn: ConnId) {
    enum Plan {
        Cpu {
            core: ioat_simcore::ResourceRef,
            cost: SimDuration,
            wake: SimDuration,
            bytes: u64,
            track: TrackId,
        },
        Dma {
            core: ioat_simcore::ResourceRef,
            overhead: SimDuration,
            wake: SimDuration,
            req: DmaRequest,
            engine: DmaEngineRef,
            bytes: u64,
            track: TrackId,
        },
        /// Kernel-bypass delivery: the payload is already sitting in the
        /// user buffer (the NIC put it there at arrival), so handing it to
        /// the application costs neither a wake, a syscall, a CPU copy nor
        /// an engine transfer.
        Bypass { bytes: u64 },
    }

    let tracer = s.borrow().tracer.clone();
    let plan = {
        let mut st = s.borrow_mut();
        let Some(c) = st.conns.get_mut(&conn) else {
            return;
        };
        let queued = c.recv.queued();
        if c.recv.copying || queued == 0 {
            return;
        }
        // The application must have a read posted; while it is busy
        // processing, arriving data backs up in the kernel buffer.
        match &mut c.recv.recv_credits {
            None => {}
            Some(0) => return,
            Some(n) => *n -= 1,
        }
        let bytes = queued.min(c.recv.opts.read_size);
        let was_active = HostStack::conn_rx_active(c);
        c.recv.copying = true;
        c.recv.copying_bytes = bytes;
        let deactivated = was_active && !HostStack::conn_rx_active(c);
        let src_off = RecvState::ring_offset(c.recv.delivered_seq, c.recv.kernel_buf.len(), bytes);
        let dst_off = RecvState::ring_offset(c.recv.delivered_seq, c.recv.user_buf.len(), bytes);
        let src = c.recv.kernel_buf.slice(src_off, bytes);
        let dst = c.recv.user_buf.slice(dst_off, bytes);
        if deactivated {
            st.active_rx -= 1;
        }
        let p = st.params;
        if st.ioat.rx_mode == RxMode::ZeroCopy {
            // The copy-engine question is moot under kernel bypass: there
            // is no kernel→user copy for either the CPU or the engine to
            // perform (the payload landed in the user buffer at arrival).
            Plan::Bypass { bytes }
        } else {
            // Busy-polling readers spin instead of blocking: delivery
            // skips the scheduler wake entirely and pays only the syscall
            // return into the spinning reader.
            let wake = if st.ioat.rx_mode == RxMode::BusyPoll {
                p.syscall
            } else {
                st.wake_cost() + p.syscall
            };
            let mut use_dma = st.ioat.dma_engine && bytes >= p.dma_min_bytes;
            if use_dma && st.faults.dma_down(sim.now()) {
                // DMA-channel failure window: the engine is unavailable, so
                // the delivery transparently falls back to the CPU copy.
                use_dma = false;
                st.stats.dma_fallbacks += 1;
                if let Some(engine) = &st.dma {
                    engine.borrow_mut().note_fallback();
                }
                st.fault_instant("dma_fallback", sim.now());
            }
            if use_dma {
                let engine = Rc::clone(st.dma.as_ref().expect("dma enabled without engine"));
                let req = DmaRequest::new(src, dst);
                // Kernel receive path: the socket buffer is pinned kernel
                // memory, only the user destination pages pay pinning.
                let overhead = wake + engine.borrow().cpu_overhead_prepinned_src(&req);
                st.stats.dma_deliveries += 1;
                // The scheduler migrates runnable receive threads away from
                // busy cores, so deliveries dispatch least-loaded.
                let idx = st.cores.least_loaded_index(sim.now());
                Plan::Dma {
                    core: Rc::clone(st.cores.member(idx)),
                    overhead,
                    wake,
                    req,
                    engine,
                    bytes,
                    track: st.track(idx),
                }
            } else {
                let copier = st.copier;
                let cache = Rc::clone(&st.cache);
                let out = copier.copy(&mut cache.borrow_mut(), src, dst);
                let idx = st.cores.least_loaded_index(sim.now());
                Plan::Cpu {
                    core: Rc::clone(st.cores.member(idx)),
                    cost: wake + out.duration,
                    wake,
                    bytes,
                    track: st.track(idx),
                }
            }
        }
    };

    match plan {
        Plan::Cpu {
            core,
            cost,
            wake,
            bytes,
            track,
        } => {
            let s2 = Rc::clone(s);
            let end = core.borrow_mut().run_job(sim, cost, move |sim| {
                finish_delivery(&s2, sim, conn, bytes);
            });
            let start = end - cost;
            tracer.span("rx_wake", Category::Protocol, track, start, start + wake);
            tracer.span("rx_copy", Category::Copy, track, start + wake, end);
        }
        Plan::Dma {
            core,
            overhead,
            wake,
            req,
            engine,
            bytes,
            track,
        } => {
            let s2 = Rc::clone(s);
            let end = core.borrow_mut().run_job(sim, overhead, move |sim| {
                let s3 = Rc::clone(&s2);
                let engine2 = Rc::clone(&engine);
                DmaEngine::issue(&engine2, sim, req, move |sim| {
                    // Reap the completion on the thread's core, then
                    // deliver.
                    let (core, cost, tracer, track) = {
                        let st = s3.borrow();
                        let idx = st.cores.least_loaded_index(sim.now());
                        (
                            Rc::clone(st.cores.member(idx)),
                            st.params.dma.completion_reap_cost(),
                            st.tracer.clone(),
                            st.track(idx),
                        )
                    };
                    let s4 = Rc::clone(&s3);
                    let end = core.borrow_mut().run_job(sim, cost, move |sim| {
                        finish_delivery(&s4, sim, conn, bytes);
                    });
                    tracer.span("dma_reap", Category::Dma, track, end - cost, end);
                });
            });
            let start = end - overhead;
            tracer.span("rx_wake", Category::Protocol, track, start, start + wake);
            tracer.span("dma_issue", Category::Dma, track, start + wake, end);
        }
        Plan::Bypass { bytes } => {
            // Zero cost, but still an event: the poller observes the
            // descriptor on its next spin, off the event queue rather than
            // off a core so it never queues behind busy cores.
            let s2 = Rc::clone(s);
            sim.schedule(SimDuration::ZERO, move |sim| {
                finish_delivery(&s2, sim, conn, bytes);
            });
        }
    }
}

/// Completes a delivery: advances the stream, reopens the receive window
/// (window-update ACK to the peer), notifies the application and chains
/// the next delivery.
fn finish_delivery(s: &StackRef, sim: &mut Sim, conn: ConnId, bytes: u64) {
    let (seq, window) = {
        let mut st = s.borrow_mut();
        let now = sim.now();
        st.stats.deliveries += 1;
        st.rx_meter.record(now, bytes);
        let (out, activity_change) = {
            let c = st.conns.get_mut(&conn).expect("unknown conn");
            let was_active = HostStack::conn_rx_active(c);
            c.recv.delivered_seq += bytes;
            c.recv.copying = false;
            c.recv.copying_bytes = 0;
            c.delivered.record(now, bytes);
            let is_active = HostStack::conn_rx_active(c);
            (
                (c.recv.received_seq, c.recv.advertised_window()),
                is_active as i64 - was_active as i64,
            )
        };
        match activity_change {
            1 => st.active_rx += 1,
            -1 => st.active_rx -= 1,
            _ => {}
        }
        st.queued_bytes -= bytes;
        st.tracer.counter(
            "rx_backlog_bytes",
            Category::Other,
            TrackId::new(st.node_id, 0),
            now,
            st.queued_bytes as f64,
        );
        out
    };
    send_ack(s, sim, conn, seq, window, 0);
    emit(s, sim, conn, SocketEvent::Delivered(bytes));
    try_deliver(s, sim, conn);
}

/// Cross-stack frame/byte conservation over a set of wired stacks: every
/// frame a sender injects is delivered into a pending ring, dropped by the
/// loss model, dropped at a full rx ring, or still on the wire. With
/// `quiescent` (event queue drained — nothing can be on the wire) the frame
/// identity tightens to exact equality.
pub fn audit_cluster_conservation(stacks: &[StackRef], now: SimTime, quiescent: bool) {
    audit_cluster_conservation_ext(stacks, 0, 0, now, quiescent);
}

/// [`audit_cluster_conservation`] extended with the fabric terms:
/// `switch_dropped` counts frames a [`FrameRouter`] tail-dropped at a full
/// switch buffer after the sender's NIC put them on the wire, and
/// `route_blackholed` counts frames the fabric dropped because no
/// surviving equal-cost port led toward the destination (a flapped link
/// or crashed switch severed every candidate). The identity becomes
/// Σsent = Σarrived + Σlost + Σring-dropped + switch-dropped +
/// route-blackholed (+ in-flight when not quiescent).
pub fn audit_cluster_conservation_ext(
    stacks: &[StackRef],
    switch_dropped: u64,
    route_blackholed: u64,
    now: SimTime,
    quiescent: bool,
) {
    audit_cluster_conservation_sums(
        frame_totals(stacks),
        switch_dropped,
        route_blackholed,
        now,
        quiescent,
    );
}

/// Frame/byte counters summed over a set of stacks — the terms of the
/// cluster conservation identity, detached from the stacks themselves so
/// a parallel run can collect them per partition (plain `Send` data) and
/// audit the *summed* identity on the merge thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterFrameTotals {
    /// Frames senders injected onto wires.
    pub sent: u64,
    /// Frames that reached a receiver's pending ring.
    pub arrived: u64,
    /// Frames the loss model dropped.
    pub lost: u64,
    /// Frames dropped at full receive rings.
    pub ring_dropped: u64,
    /// Bytes injected by transmitters.
    pub tx_bytes: u64,
    /// Bytes delivered to receivers.
    pub rx_bytes: u64,
}

impl ClusterFrameTotals {
    /// Accumulates another partition's totals.
    pub fn merge(&mut self, other: &ClusterFrameTotals) {
        self.sent += other.sent;
        self.arrived += other.arrived;
        self.lost += other.lost;
        self.ring_dropped += other.ring_dropped;
        self.tx_bytes += other.tx_bytes;
        self.rx_bytes += other.rx_bytes;
    }
}

/// Sums the conservation-identity terms over `stacks`.
pub fn frame_totals(stacks: &[StackRef]) -> ClusterFrameTotals {
    let mut t = ClusterFrameTotals::default();
    for s in stacks {
        let st = s.borrow();
        let stats = st.stats();
        t.sent += stats.frames_sent;
        t.arrived += stats.frames_arrived;
        t.lost += stats.frames_dropped;
        t.ring_dropped += stats.rx_ring_drops;
        t.tx_bytes += st.tx_meter().total_bytes();
        t.rx_bytes += st.rx_meter().total_bytes();
    }
    t
}

/// The conservation identity of [`audit_cluster_conservation_ext`] on
/// pre-summed totals.
pub fn audit_cluster_conservation_sums(
    totals: ClusterFrameTotals,
    switch_dropped: u64,
    route_blackholed: u64,
    now: SimTime,
    quiescent: bool,
) {
    let ClusterFrameTotals {
        sent,
        arrived,
        lost,
        ring_dropped,
        tx_bytes,
        rx_bytes,
    } = totals;
    let accounted = arrived + lost + ring_dropped + switch_dropped + route_blackholed;
    let ok = if quiescent {
        sent == accounted
    } else {
        sent >= accounted
    };
    ioat_guard::check(
        "netsim/cluster",
        "frame conservation: sent = arrived + lost + ring-dropped + switch-dropped \
         + route-blackholed + in-flight",
        now,
        ok,
        || {
            format!(
                "frames_sent={sent} vs arrived={arrived} + lost={lost} + \
                 ring_dropped={ring_dropped} + switch_dropped={switch_dropped} + \
                 route_blackholed={route_blackholed} (quiescent={quiescent})"
            )
        },
    );
    ioat_guard::check(
        "netsim/cluster",
        "delivered bytes ≤ injected bytes",
        now,
        rx_bytes <= tx_bytes,
        || format!("rx meters total {rx_bytes} B but tx meters injected only {tx_bytes} B"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_simcore::time::Bandwidth;

    fn pair(ioat: IoatConfig, opts: SocketOpts) -> (Sim, StackRef, StackRef, ConnId) {
        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), ioat);
        let b = HostStack::new("b", 4, StackParams::default(), ioat);
        let (pa, pb) = wire(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            opts.coalescing,
        );
        let id = open_connection(&a, &b, pa, pb, opts, ConnId(1));
        (sim, a, b, id)
    }

    #[test]
    fn bytes_sent_are_delivered_exactly_once() {
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
        let total = 1_000_000u64;
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        set_handler(&b, conn, move |_sim, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        app_send(&a, &mut sim, conn, total);
        sim.run();
        assert_eq!(*got.borrow(), total);
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
        assert_eq!(a.borrow().tx_meter().total_bytes(), total);
    }

    #[test]
    fn send_ready_fires_when_drained() {
        let (mut sim, a, _b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
        let ready_at = Rc::new(RefCell::new(None));
        let r = Rc::clone(&ready_at);
        set_handler(&a, conn, move |sim, ev| {
            if matches!(ev, SocketEvent::SendReady) {
                *r.borrow_mut() = Some(sim.now());
            }
        });
        app_send(&a, &mut sim, conn, 100_000);
        sim.run();
        assert!(ready_at.borrow().is_some(), "SendReady must fire");
    }

    #[test]
    fn throughput_approaches_line_rate() {
        // 10 MB over a 1 Gbps link should take ≈ 85 ms; goodput within
        // ~10 % of the 949 Mbps theoretical TCP goodput.
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
        let total = 10_000_000u64;
        b.borrow_mut().begin_measurement(SimTime::ZERO);
        app_send(&a, &mut sim, conn, total);
        let end = sim.run();
        let mbps = b.borrow().rx_meter().mbps(end);
        assert!(mbps > 850.0, "goodput only {mbps:.0} Mbps");
        assert!(mbps < 1000.0, "goodput {mbps:.0} Mbps exceeds line rate");
    }

    #[test]
    fn ioat_uses_the_dma_engine_for_large_deliveries() {
        let (mut sim, a, b, conn) = pair(IoatConfig::full(), SocketOpts::tuned());
        app_send(&a, &mut sim, conn, 1_000_000);
        sim.run();
        let stats = b.borrow().stats();
        assert!(stats.dma_deliveries > 0, "expected DMA deliveries");
        assert!(b.borrow().dma().unwrap().borrow().stats().bytes > 0);
    }

    #[test]
    fn non_ioat_never_touches_a_dma_engine() {
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
        app_send(&a, &mut sim, conn, 500_000);
        sim.run();
        assert!(b.borrow().dma().is_none());
        assert_eq!(b.borrow().stats().dma_deliveries, 0);
        assert!(b.borrow().stats().deliveries > 0);
    }

    #[test]
    fn ioat_lowers_receiver_cpu_utilization() {
        // The paper's headline effect, in miniature: same transfer, lower
        // receiver CPU with I/OAT.
        let total = 20_000_000u64;
        let run = |ioat: IoatConfig| {
            let (mut sim, a, b, conn) = pair(ioat, SocketOpts::tuned());
            app_send(&a, &mut sim, conn, total);
            let end = sim.run();
            let util = b.borrow().cpu_utilization(SimTime::ZERO, end);
            util
        };
        let non = run(IoatConfig::disabled());
        let ioat = run(IoatConfig::full());
        assert!(
            ioat < non,
            "I/OAT util {ioat:.3} should be below non-I/OAT {non:.3}"
        );
    }

    #[test]
    fn coalescing_reduces_interrupts() {
        let run = |coalescing: bool| {
            let opts = SocketOpts {
                coalescing,
                ..SocketOpts::tuned()
            };
            let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), opts);
            app_send(&a, &mut sim, conn, 2_000_000);
            sim.run();
            let st = b.borrow().stats();
            (st.interrupts, st.frames_processed)
        };
        let (irq_on, frames_on) = run(true);
        let (irq_off, frames_off) = run(false);
        assert_eq!(frames_on, frames_off, "same frame count either way");
        // Explicit coalescing batches harder than the always-on
        // interrupt throttle (ITR), which already amortizes some frames.
        assert!(
            irq_on < irq_off,
            "coalescing ({irq_on}) must batch more than ITR alone ({irq_off})"
        );
    }

    #[test]
    fn small_window_throttles_throughput() {
        // A 4 KB window cannot cover the bandwidth-delay product of a
        // 15 us-latency GigE path, so throughput is throttled well below
        // line rate — the effect larger socket buffers (Case 2) remove.
        let small = SocketOpts {
            sndbuf: 4 * 1024,
            rcvbuf: 4 * 1024,
            read_size: 2 * 1024,
            mtu: 1500,
            ..SocketOpts::case1()
        };
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), small);
        b.borrow_mut().begin_measurement(SimTime::ZERO);
        app_send(&a, &mut sim, conn, 5_000_000);
        let end = sim.run();
        let mbps = b.borrow().rx_meter().mbps(end);
        assert!(
            mbps < 700.0,
            "small window should throttle ({mbps:.0} Mbps)"
        );
    }

    #[test]
    #[should_panic(expected = "neither wired to each other nor both router-attached")]
    fn connecting_unwired_ports_panics() {
        let a = HostStack::new("a", 2, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 2, StackParams::default(), IoatConfig::disabled());
        let la = Link::new("x", Bandwidth::from_gbps(1), SimDuration::ZERO);
        let lb = Link::new("y", Bandwidth::from_gbps(1), SimDuration::ZERO);
        a.borrow_mut().add_port(la, false);
        b.borrow_mut().add_port(lb, false);
        open_connection(&a, &b, 0, 0, SocketOpts::tuned(), ConnId(9));
    }

    #[test]
    fn tracing_is_non_perturbing_and_attributes_receive_path() {
        let run = |tracer: Option<Tracer>| {
            let (mut sim, a, b, conn) = pair(IoatConfig::full(), SocketOpts::tuned());
            let tr = tracer.unwrap_or_default();
            a.borrow_mut().set_tracer(tr.clone(), 0);
            b.borrow_mut().set_tracer(tr.clone(), 1);
            app_send(&a, &mut sim, conn, 2_000_000);
            let end = sim.run();
            let util = b.borrow().cpu_utilization(SimTime::ZERO, end);
            let stats = b.borrow().stats();
            (end, util, stats, tr)
        };
        let (end_off, util_off, stats_off, _) = run(None);
        let (end_on, util_on, stats_on, tr) = run(Some(Tracer::enabled()));
        assert_eq!(end_off, end_on, "tracing must not change event timing");
        assert_eq!(util_off.to_bits(), util_on.to_bits());
        assert_eq!(stats_off.deliveries, stats_on.deliveries);
        // The receive path shows up in every paper category.
        let events = tr.events();
        for cat in [
            Category::Interrupt,
            Category::Protocol,
            Category::Copy,
            Category::Dma,
        ] {
            assert!(
                events.iter().any(|e| e.cat == cat),
                "no {} events recorded",
                cat.name()
            );
        }
        // Engine transfers land on the DMA pseudo-track (core 4 of node 1).
        assert!(events
            .iter()
            .any(|e| e.name == "dma_transfer" && e.track == TrackId::new(1, 4)));
    }

    #[test]
    #[should_panic(expected = "zero cores")]
    fn zero_core_stack_is_rejected() {
        let _ = HostStack::new("z", 0, StackParams::default(), IoatConfig::disabled());
    }

    #[cfg(not(feature = "audit-bug"))]
    #[test]
    fn conservation_audits_pass_on_healthy_and_faulty_runs() {
        // Loss + a DMA-down window + a bounded rx ring, all at once: the
        // audits must stay silent because recovery conserves every byte.
        let (mut sim, a, b, conn) = pair(IoatConfig::full(), SocketOpts::tuned());
        let plan = ioat_faults::FaultPlan {
            dma_down: vec![ioat_faults::TimeWindow::new(
                SimTime::from_micros(500),
                SimTime::from_micros(2_000),
            )],
            rx_ring_slots: Some(8),
            ..ioat_faults::FaultPlan::bernoulli_loss(0xF00D, 2e-3)
        };
        a.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 0));
        b.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 1));
        app_send(&a, &mut sim, conn, 3_000_000);
        let end = sim.run();
        let (res, violations) = ioat_guard::with_audit(|| {
            a.borrow().audit(end);
            b.borrow().audit(end);
            audit_cluster_conservation(&[Rc::clone(&a), Rc::clone(&b)], end, true);
            ioat_guard::audit_sim(&sim);
        });
        assert!(res.is_ok());
        assert!(
            violations.is_empty(),
            "unexpected violations: {violations:?}"
        );
    }

    /// With the `audit-bug` feature the frame-arrival counter silently
    /// drops every 97th increment; the conservation audits must catch it
    /// as a structured violation (this is the acceptance-criteria check
    /// that the audits detect a real accounting bug, not just tautologies).
    #[cfg(feature = "audit-bug")]
    #[test]
    fn injected_accounting_bug_is_caught_by_the_frame_audit() {
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
        app_send(&a, &mut sim, conn, 1_000_000); // ≫ 97 frames
        let end = sim.run();
        let (res, violations) = ioat_guard::with_audit(|| {
            b.borrow().audit(end);
            audit_cluster_conservation(&[Rc::clone(&a), Rc::clone(&b)], end, true);
        });
        assert!(res.is_ok());
        assert!(
            violations
                .iter()
                .any(|v| v.invariant.contains("frame conservation")),
            "skewed counter must trip the frame-conservation audit: {violations:?}"
        );
    }

    #[test]
    fn inert_injector_is_bit_identical_to_no_injector() {
        let run = |attach: bool| {
            let (mut sim, a, b, conn) = pair(IoatConfig::full(), SocketOpts::tuned());
            if attach {
                let plan = ioat_faults::FaultPlan::none();
                a.borrow_mut()
                    .set_fault_injector(FaultInjector::new(&plan, 0));
                b.borrow_mut()
                    .set_fault_injector(FaultInjector::new(&plan, 1));
            }
            app_send(&a, &mut sim, conn, 2_000_000);
            let end = sim.run();
            let out = (end, b.borrow().rx_meter().total_bytes(), b.borrow().stats());
            out
        };
        let (end_none, bytes_none, stats_none) = run(false);
        let (end_inert, bytes_inert, stats_inert) = run(true);
        assert_eq!(end_none, end_inert, "inert injector shifted event times");
        assert_eq!(bytes_none, bytes_inert);
        assert_eq!(stats_none.interrupts, stats_inert.interrupts);
        assert_eq!(stats_inert.frames_dropped, 0);
        assert_eq!(stats_inert.retransmits, 0);
    }

    #[test]
    fn loss_is_recovered_and_all_bytes_still_arrive_once() {
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
        let plan = ioat_faults::FaultPlan::bernoulli_loss(0x10AD, 2e-3);
        a.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 0));
        b.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 1));
        let total = 5_000_000u64;
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        set_handler(&b, conn, move |_sim, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        app_send(&a, &mut sim, conn, total);
        sim.run();
        assert_eq!(*got.borrow(), total, "recovery must deliver every byte");
        let sa = a.borrow().stats();
        assert!(sa.frames_dropped > 0, "expected injected drops");
        assert!(sa.retransmits > 0, "expected retransmission rounds");
        assert!(sa.retransmitted_bytes > 0);
        let sb = b.borrow().stats();
        assert!(sb.ooo_frames > 0, "receiver should discard gap frames");
    }

    #[test]
    fn rx_ring_overflow_drops_are_recovered() {
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
        let plan = ioat_faults::FaultPlan {
            rx_ring_slots: Some(2),
            ..ioat_faults::FaultPlan::none()
        };
        a.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 0));
        b.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 1));
        let total = 2_000_000u64;
        app_send(&a, &mut sim, conn, total);
        sim.run();
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
        assert!(
            b.borrow().stats().rx_ring_drops > 0,
            "2-slot ring under coalescing must overflow"
        );
    }

    #[test]
    fn dma_down_window_falls_back_to_cpu_copies() {
        let (mut sim, a, b, conn) = pair(IoatConfig::full(), SocketOpts::tuned());
        let plan = ioat_faults::FaultPlan {
            dma_down: vec![ioat_faults::TimeWindow::new(
                SimTime::ZERO,
                SimTime::from_micros(1_000_000_000),
            )],
            ..ioat_faults::FaultPlan::none()
        };
        b.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 1));
        let total = 1_000_000u64;
        app_send(&a, &mut sim, conn, total);
        sim.run();
        let stats = b.borrow().stats();
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
        assert_eq!(stats.dma_deliveries, 0, "engine is down the whole run");
        assert!(stats.dma_fallbacks > 0);
        assert_eq!(b.borrow().dma().unwrap().borrow().stats().bytes, 0);
    }

    #[test]
    fn fault_runs_replay_bit_identically_for_a_fixed_seed() {
        let run = || {
            let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), SocketOpts::tuned());
            let plan = ioat_faults::FaultPlan::bernoulli_loss(99, 1e-3);
            a.borrow_mut()
                .set_fault_injector(FaultInjector::new(&plan, 0));
            b.borrow_mut()
                .set_fault_injector(FaultInjector::new(&plan, 1));
            app_send(&a, &mut sim, conn, 3_000_000);
            let end = sim.run();
            let sa = a.borrow().stats();
            (end, sa.frames_dropped, sa.retransmits, sa.rto_timeouts)
        };
        assert_eq!(run(), run(), "same seed must replay the same faults");
    }

    /// Regression for the coalescer tail-flush bug: with explicit
    /// coalescing, a stream whose *final* batch holds fewer than
    /// `coalesce_max_frames` frames must still be delivered in full (the
    /// stale delay timer flushes the partial tail) and the conservation
    /// audits must see every frame and byte.
    #[cfg(not(feature = "audit-bug"))]
    #[test]
    fn coalescing_tail_batch_is_flushed_and_audited() {
        let opts = SocketOpts {
            coalescing: true,
            ..SocketOpts::tuned()
        };
        // Odd total: the transfer cannot end on a full batch boundary.
        let total = 777_777u64;
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), opts);
        app_send(&a, &mut sim, conn, total);
        let end = sim.run();
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
        let (res, violations) = ioat_guard::with_audit(|| {
            a.borrow().audit(end);
            b.borrow().audit(end);
            audit_cluster_conservation(&[Rc::clone(&a), Rc::clone(&b)], end, true);
        });
        assert!(res.is_ok());
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Fault-drop variant of the tail-flush regression: injected loss
    /// shuffles which frames form the final batch, and retransmissions
    /// must not strand a partial tail either. The frame-conservation audit
    /// accounts for every byte.
    #[cfg(not(feature = "audit-bug"))]
    #[test]
    fn coalescing_tail_flush_survives_injected_loss() {
        let opts = SocketOpts {
            coalescing: true,
            ..SocketOpts::tuned()
        };
        let total = 777_777u64;
        let (mut sim, a, b, conn) = pair(IoatConfig::disabled(), opts);
        let plan = ioat_faults::FaultPlan::bernoulli_loss(0xC0A1, 2e-3);
        a.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 0));
        b.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 1));
        app_send(&a, &mut sim, conn, total);
        let end = sim.run();
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
        let (res, violations) = ioat_guard::with_audit(|| {
            a.borrow().audit(end);
            b.borrow().audit(end);
            audit_cluster_conservation(&[Rc::clone(&a), Rc::clone(&b)], end, true);
        });
        assert!(res.is_ok());
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// The bug the tail-flush fix removed: while the delay timer was
    /// armed, the max-frames check was unreachable, so at link rates where
    /// more than `coalesce_max_frames` frames land inside one delay window
    /// the batches grew unbounded. At 10 Gbps ≈ 24 frames fit in the 40 µs
    /// window; post-fix every batch is capped at 8.
    #[test]
    fn coalesced_batches_are_bounded_at_high_link_rates() {
        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 4, StackParams::default(), IoatConfig::disabled());
        let (pa, pb) = wire(
            &a,
            &b,
            Bandwidth::from_gbps(10),
            SimDuration::from_micros(15),
            true,
        );
        let opts = SocketOpts {
            coalescing: true,
            ..SocketOpts::tuned()
        };
        let conn = open_connection(&a, &b, pa, pb, opts, ConnId(1));
        let total = 5_000_000u64;
        app_send(&a, &mut sim, conn, total);
        sim.run();
        let st = b.borrow().stats();
        assert!(st.frames_processed > 100, "need a real frame stream");
        let max = StackParams::default().coalesce_max_frames as u64;
        assert!(
            st.frames_processed <= st.interrupts * max,
            "mean batch {:.1} exceeds the max-frames bound {max}",
            st.frames_processed as f64 / st.interrupts as f64
        );
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
    }

    #[test]
    fn rss_steering_is_seed_stable_and_spreads_flows() {
        let mk = |mq: bool| {
            let s = HostStack::new(
                "n",
                4,
                StackParams::default(),
                IoatConfig::disabled().with_multi_queue(mq),
            );
            let l = Link::new("x", Bandwidth::from_gbps(1), SimDuration::ZERO);
            s.borrow_mut().add_port(l, false);
            s
        };
        let a = mk(true);
        let b = mk(true);
        assert_eq!(a.borrow().ports[0].queues.len(), 4);
        let qa: Vec<usize> = (0..64)
            .map(|i| a.borrow().rx_queue_for(0, ConnId(i)))
            .collect();
        let qb: Vec<usize> = (0..64)
            .map(|i| b.borrow().rx_queue_for(0, ConnId(i)))
            .collect();
        // Pure function of the connection id: identical on distinct stacks,
        // independent of arrival order or anything else.
        assert_eq!(qa, qb);
        // Spreads: every queue serves some flow out of 64.
        for target in 0..4 {
            assert!(qa.contains(&target), "queue {target} never selected");
        }
        // Not the trivial `conn % queues` round-robin (which would alias
        // with the app-thread affinity and fake perfect locality).
        assert_ne!(qa, (0..64usize).map(|i| i % 4).collect::<Vec<_>>());
        // Single-queue ports steer everything to queue 0 (the 2007 model).
        let sq = mk(false);
        assert_eq!(sq.borrow().ports[0].queues.len(), 1);
        assert!((0..64).all(|i| sq.borrow().rx_queue_for(0, ConnId(i)) == 0));
    }

    #[test]
    fn multi_queue_spreads_interrupt_load_across_cores() {
        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let ioat = IoatConfig::disabled().with_multi_queue(true);
        let a = HostStack::new("a", 4, StackParams::default(), ioat);
        let b = HostStack::new("b", 4, StackParams::default(), ioat);
        let tr = Tracer::enabled();
        b.borrow_mut().set_tracer(tr.clone(), 1);
        let (pa, pb) = wire(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            false,
        );
        for i in 1..=8 {
            open_connection(&a, &b, pa, pb, SocketOpts::tuned(), ConnId(i));
        }
        for i in 1..=8 {
            app_send(&a, &mut sim, ConnId(i), 500_000);
        }
        sim.run();
        let cores: std::collections::BTreeSet<u32> = tr
            .events()
            .iter()
            .filter(|e| e.name == "tcpip")
            .map(|e| e.track.core)
            .collect();
        assert!(
            cores.len() > 1,
            "RSS should spread protocol work across cores, saw {cores:?}"
        );
    }

    #[test]
    fn busy_poll_skips_interrupt_and_wake_costs() {
        let run = |mode: RxMode| {
            let ioat = IoatConfig::disabled().with_rx_mode(mode);
            let (mut sim, a, b, conn) = pair(ioat, SocketOpts::tuned());
            app_send(&a, &mut sim, conn, 10_000_000);
            let end = sim.run();
            let util = b.borrow().cpu_utilization(SimTime::ZERO, end);
            let bytes = b.borrow().rx_meter().total_bytes();
            (util, bytes)
        };
        let (irq, bytes_irq) = run(RxMode::Interrupt);
        let (busy, bytes_busy) = run(RxMode::BusyPoll);
        assert_eq!(bytes_irq, 10_000_000);
        assert_eq!(bytes_busy, 10_000_000);
        assert!(
            busy < irq,
            "busy-poll receive work {busy:.3} should undercut interrupt-driven {irq:.3}"
        );
    }

    #[cfg(not(feature = "audit-bug"))]
    #[test]
    fn zero_copy_delivers_without_copies_wakes_or_engine_transfers() {
        let ioat = IoatConfig::full().with_rx_mode(RxMode::ZeroCopy);
        let total = 3_000_000u64;
        let (mut sim, a, b, conn) = pair(ioat, SocketOpts::tuned());
        app_send(&a, &mut sim, conn, total);
        let end = sim.run();
        let st = b.borrow().stats();
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
        assert!(st.deliveries > 0);
        // Kernel bypass: even with the copy engine configured, nothing to
        // offload — there is no rx copy at all.
        assert_eq!(st.dma_deliveries, 0);
        assert_eq!(b.borrow().dma().unwrap().borrow().stats().bytes, 0);
        // And the full delivery pipeline still satisfies conservation.
        let (res, violations) = ioat_guard::with_audit(|| {
            b.borrow().audit(end);
            audit_cluster_conservation(&[Rc::clone(&a), Rc::clone(&b)], end, true);
        });
        assert!(res.is_ok());
        assert!(violations.is_empty(), "{violations:?}");
        // Cheaper than busy-poll, which still pays syscalls and copies.
        let busy = {
            let ioat = IoatConfig::disabled().with_rx_mode(RxMode::BusyPoll);
            let (mut sim, a2, b2, conn) = pair(ioat, SocketOpts::tuned());
            app_send(&a2, &mut sim, conn, total);
            let end = sim.run();
            let util = b2.borrow().cpu_utilization(SimTime::ZERO, end);
            util
        };
        let zc = b.borrow().cpu_utilization(SimTime::ZERO, end);
        assert!(
            zc < busy,
            "zero-copy {zc:.3} should undercut busy-poll {busy:.3}"
        );
    }

    #[test]
    fn forced_coalescing_mode_overrides_the_socket_flag() {
        let run = |mode: RxMode| {
            let opts = SocketOpts {
                coalescing: false,
                ..SocketOpts::tuned()
            };
            let (mut sim, a, b, conn) = pair(IoatConfig::disabled().with_rx_mode(mode), opts);
            app_send(&a, &mut sim, conn, 2_000_000);
            sim.run();
            let st = b.borrow().stats();
            (st.interrupts, st.frames_processed)
        };
        let (irq_mode, frames_irq) = run(RxMode::Interrupt);
        let (coalesced, frames_co) = run(RxMode::Coalesced);
        assert_eq!(frames_irq, frames_co);
        assert!(
            coalesced < irq_mode,
            "RxMode::Coalesced ({coalesced}) must batch harder than ITR alone ({irq_mode})"
        );
    }

    #[test]
    fn multiple_connections_share_a_port_fairly() {
        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 4, StackParams::default(), IoatConfig::disabled());
        let (pa, pb) = wire(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            true,
        );
        let c1 = open_connection(&a, &b, pa, pb, SocketOpts::tuned(), ConnId(1));
        let c2 = open_connection(&a, &b, pa, pb, SocketOpts::tuned(), ConnId(2));
        app_send(&a, &mut sim, c1, 4_000_000);
        app_send(&a, &mut sim, c2, 4_000_000);
        let end = sim.run();
        let m1 = b.borrow().conn_mbps(c1, end);
        let m2 = b.borrow().conn_mbps(c2, end);
        assert!(m1 > 0.0 && m2 > 0.0);
        let ratio = m1 / m2;
        assert!(
            (0.7..1.4).contains(&ratio),
            "unfair split: {m1:.0} vs {m2:.0}"
        );
    }
}
