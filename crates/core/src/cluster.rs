//! Cluster assembly: nodes, wiring and connections.
//!
//! A [`Cluster`] owns the simulator and the nodes; experiments build one,
//! wire ports, open connections and run. Nodes are [`HostStack`]s under
//! the hood — this module only adds the testbed-shaped conveniences.

use crate::calibration;
use ioat_fabric::FabricParams;
use ioat_faults::{FaultInjector, FaultPlan};
use ioat_netsim::stack::{self, HostStack, StackRef};
use ioat_netsim::{ConnId, IoatConfig, Link, Socket, SocketOpts, StackParams};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration};
use ioat_telemetry::{Category, MetricsRegistry, Tracer, TrackId};
use std::collections::HashMap;
use std::rc::Rc;

/// Pseudo node id used for simulator-engine events in exported traces
/// (kept far away from real node indices).
pub const SIM_TRACK_NODE: u32 = 9_999;

/// Configuration of one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Diagnostic name.
    pub name: String,
    /// Number of CPU cores.
    pub cores: usize,
    /// I/OAT feature set.
    pub ioat: IoatConfig,
    /// Stack cost parameters.
    pub params: StackParams,
    /// Cache geometry.
    pub cache: ioat_memsim::CacheConfig,
}

impl NodeConfig {
    /// A paper-testbed node (4 cores, calibrated parameters) with the
    /// given feature set.
    pub fn testbed(name: &str, ioat: IoatConfig) -> Self {
        Self::profiled(name, ioat, calibration::NodeProfile::Testbed2007)
    }

    /// A node calibrated to the given hardware era with the given feature
    /// set — [`NodeConfig::testbed`] generalized over
    /// [`calibration::NodeProfile`].
    pub fn profiled(name: &str, ioat: IoatConfig, profile: calibration::NodeProfile) -> Self {
        NodeConfig {
            name: name.to_string(),
            cores: profile.cores(),
            ioat,
            params: profile.params(),
            cache: profile.cache(),
        }
    }
}

/// Handle to a node in a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeHandle(usize);

/// A set of simulated nodes plus the simulator driving them.
///
/// ```rust
/// use ioat_core::{Cluster, NodeConfig};
/// use ioat_netsim::{IoatConfig, SocketOpts};
///
/// let mut cluster = Cluster::new(42);
/// let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::full()));
/// let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
/// let ports = cluster.connect_ports(a, b, 2, true);
/// let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
/// sa.send(cluster.sim_mut(), 100_000);
/// cluster.run();
/// ```
pub struct Cluster {
    sim: Sim,
    nodes: Vec<StackRef>,
    names: HashMap<String, NodeHandle>,
    next_conn: u64,
    bandwidth: Bandwidth,
    latency: SimDuration,
    tracer: Tracer,
    faults: FaultPlan,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl Cluster {
    /// Creates an empty cluster. `seed` is reserved for stochastic
    /// workloads layered on top; the substrate itself is deterministic.
    pub fn new(seed: u64) -> Self {
        let _ = seed;
        let mut sim = Sim::new();
        // Generous runaway guard; experiments run millions of events. An
        // active audit scope may impose a tighter deterministic watchdog
        // so a wedged figure job dies after a fixed event count instead
        // of spinning for the full runaway allowance.
        let limit = match ioat_guard::event_budget() {
            Some(budget) => budget.min(2_000_000_000),
            None => 2_000_000_000,
        };
        sim.set_event_limit(limit);
        Cluster {
            sim,
            nodes: Vec::new(),
            names: HashMap::new(),
            next_conn: 1,
            bandwidth: calibration::port_bandwidth(),
            latency: calibration::switch_latency(),
            tracer: Tracer::disabled(),
            faults: FaultPlan::none(),
        }
    }

    /// Attaches `node` to an arbitrary [`stack::FrameRouter`] at
    /// attachment index `attachment` with an access link cut from
    /// `params`. Partitioned runs use it to reach a switch fabric that
    /// lives in another partition: `router` is the partition's
    /// cross-boundary proxy. Returns the node's new NIC port index.
    pub fn attach_router_host(
        &mut self,
        node: NodeHandle,
        router: Rc<dyn stack::FrameRouter>,
        attachment: usize,
        params: &FabricParams,
    ) -> usize {
        let access = Link::new(
            &format!("host{attachment}->router"),
            params.host_bandwidth,
            params.switch_latency,
        );
        stack::attach_router(
            &self.nodes[node.0],
            access,
            params.coalescing,
            router,
            attachment,
        )
    }

    /// Opens a connection between two local nodes over already-created
    /// ports with a caller-chosen [`ConnId`]. Parallel runs use this to
    /// assign globally deterministic connection ids independent of the
    /// per-partition open order; the id must not collide with the
    /// auto-assigned sequence of [`Cluster::open`] on the same cluster.
    pub fn open_with_id(
        &mut self,
        a: NodeHandle,
        port_a: usize,
        b: NodeHandle,
        port_b: usize,
        opts: SocketOpts,
        id: ConnId,
    ) -> (Socket, Socket) {
        stack::open_connection(&self.nodes[a.0], &self.nodes[b.0], port_a, port_b, opts, id);
        (
            Socket::new(Rc::clone(&self.nodes[a.0]), id),
            Socket::new(Rc::clone(&self.nodes[b.0]), id),
        )
    }

    /// Installs a fault plan: every node already added (and every node
    /// added afterwards) gets a [`FaultInjector`] for it, keyed by the
    /// node's index. Installing [`FaultPlan::none()`] (the default) keeps
    /// every hook inert and runs bit-identical to a fault-free build.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.borrow_mut()
                .set_fault_injector(FaultInjector::new(plan, i as u32));
        }
        self.faults = plan.clone();
    }

    /// The installed fault plan (inert by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Attaches a tracer to the cluster: every node already added (and
    /// every node added afterwards) gets it, with the node's index as the
    /// Chrome-trace pid. When the tracer records [`Category::Sim`], the
    /// simulator's event hook also emits one instant per executed event
    /// on a dedicated pseudo process.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.borrow_mut().set_tracer(tracer.clone(), i as u32);
        }
        if tracer.records(Category::Sim) {
            tracer.set_process_name(SIM_TRACK_NODE, "sim-engine");
            let tr = tracer.clone();
            self.sim.set_event_hook(move |at, _seq| {
                tr.instant("event", Category::Sim, TrackId::new(SIM_TRACK_NODE, 0), at);
            });
        }
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshots every node's stack and DMA-engine statistics into a
    /// metrics registry, keys prefixed with the node name.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for node in &self.nodes {
            let st = node.borrow();
            let name = st.name().to_string();
            let s = st.stats();
            reg.add(&format!("{name}.frames_processed"), s.frames_processed);
            reg.add(&format!("{name}.interrupts"), s.interrupts);
            reg.add(&format!("{name}.deliveries"), s.deliveries);
            reg.add(&format!("{name}.dma_deliveries"), s.dma_deliveries);
            reg.add(&format!("{name}.acks"), s.acks);
            reg.add(&format!("{name}.stalled_frames"), s.stalled_frames);
            reg.set_gauge(&format!("{name}.peak_backlog_bytes"), s.peak_backlog as f64);
            reg.add(&format!("{name}.frames_dropped"), s.frames_dropped);
            reg.add(&format!("{name}.rx_ring_drops"), s.rx_ring_drops);
            reg.add(&format!("{name}.ooo_frames"), s.ooo_frames);
            reg.add(&format!("{name}.retransmits"), s.retransmits);
            reg.add(
                &format!("{name}.retransmitted_bytes"),
                s.retransmitted_bytes,
            );
            reg.add(&format!("{name}.rto_timeouts"), s.rto_timeouts);
            reg.add(&format!("{name}.dma_fallbacks"), s.dma_fallbacks);
            if let Some(dma) = st.dma() {
                let d = dma.borrow().stats();
                reg.add(&format!("{name}.dma.requests"), d.requests);
                reg.add(&format!("{name}.dma.bytes"), d.bytes);
                reg.add(&format!("{name}.dma.pages_pinned"), d.pages_pinned);
                reg.add(&format!("{name}.dma.cpu_fallbacks"), d.cpu_fallbacks);
            }
        }
        reg
    }

    /// Overrides the fabric line rate for subsequently wired ports.
    pub fn set_bandwidth(&mut self, bw: Bandwidth) {
        self.bandwidth = bw;
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics on duplicate node names.
    pub fn add_node(&mut self, cfg: NodeConfig) -> NodeHandle {
        assert!(
            !self.names.contains_key(&cfg.name),
            "duplicate node name {}",
            cfg.name
        );
        let stack = HostStack::with_cache(&cfg.name, cfg.cores, cfg.params, cfg.ioat, cfg.cache);
        let h = NodeHandle(self.nodes.len());
        if self.tracer.is_enabled() {
            stack
                .borrow_mut()
                .set_tracer(self.tracer.clone(), h.0 as u32);
        }
        if self.faults.is_active() {
            stack
                .borrow_mut()
                .set_fault_injector(FaultInjector::new(&self.faults, h.0 as u32));
        }
        self.names.insert(cfg.name, h);
        self.nodes.push(stack);
        h
    }

    /// The stack behind a handle.
    pub fn stack(&self, node: NodeHandle) -> &StackRef {
        &self.nodes[node.0]
    }

    /// Immutable access to the simulator.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Mutable access to the simulator (for scheduling and running).
    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// Wires `n` dedicated port pairs between two nodes (the testbed's
    /// per-VLAN port pairing). Returns the port-pair indices, usable with
    /// [`Cluster::open`].
    pub fn connect_ports(
        &mut self,
        a: NodeHandle,
        b: NodeHandle,
        n: usize,
        coalescing: bool,
    ) -> Vec<PortPair> {
        (0..n)
            .map(|_| {
                let (pa, pb) = stack::wire(
                    &self.nodes[a.0],
                    &self.nodes[b.0],
                    self.bandwidth,
                    self.latency,
                    coalescing,
                );
                PortPair { a: pa, b: pb }
            })
            .collect()
    }

    /// Opens a connection over a wired port pair; returns the two socket
    /// endpoints `(on_a, on_b)`.
    pub fn open(
        &mut self,
        a: NodeHandle,
        b: NodeHandle,
        ports: PortPair,
        opts: SocketOpts,
    ) -> (Socket, Socket) {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        stack::open_connection(
            &self.nodes[a.0],
            &self.nodes[b.0],
            ports.a,
            ports.b,
            opts,
            id,
        );
        (
            Socket::new(Rc::clone(&self.nodes[a.0]), id),
            Socket::new(Rc::clone(&self.nodes[b.0]), id),
        )
    }

    /// Runs the simulation to completion, returning the final instant.
    pub fn run(&mut self) -> ioat_simcore::SimTime {
        self.sim.run()
    }

    /// Runs until `limit`.
    pub fn run_until(&mut self, limit: ioat_simcore::SimTime) -> ioat_simcore::SimTime {
        self.sim.run_until(limit)
    }

    /// Runs the full audit suite over the cluster at the current instant:
    /// engine queue health, every node's conservation identities (plus its
    /// DMA engine, when present) and the cross-node frame/byte
    /// conservation check. Violations produced by this pass are also
    /// surfaced as [`Category::Audit`] trace instants so they land next to
    /// the activity that caused them in exported traces.
    ///
    /// Audits are pure reads — calling this cannot perturb the run.
    pub fn run_audits(&self) {
        let before = ioat_guard::violation_count();
        let now = self.sim.now();
        ioat_guard::audit_sim(&self.sim);
        for node in &self.nodes {
            node.borrow().audit(now);
        }
        let quiescent = self.sim.events_pending() == 0;
        stack::audit_cluster_conservation(&self.nodes, now, quiescent);
        if self.tracer.records(Category::Audit) {
            for v in ioat_guard::violations_since(before) {
                // Event names must be `'static`; the invariant name is,
                // and it identifies the failed check unambiguously.
                self.tracer.instant(
                    v.invariant,
                    Category::Audit,
                    TrackId::new(SIM_TRACK_NODE, 0),
                    v.at,
                );
            }
        }
    }

    /// Runs only the partition-local audits: engine queue health and every
    /// node's own conservation identities. Skips the cluster-wide frame
    /// conservation check — in a parallel run, frames legitimately leave
    /// this partition, so that identity only holds on totals summed
    /// across *all* partitions (collect them with
    /// [`Cluster::frame_totals`] and check with
    /// [`stack::audit_cluster_conservation_sums`] after the merge).
    pub fn run_local_audits(&self) {
        let now = self.sim.now();
        ioat_guard::audit_sim(&self.sim);
        for node in &self.nodes {
            node.borrow().audit(now);
        }
    }

    /// This cluster's terms of the cross-partition frame-conservation
    /// identity, as plain data safe to move across threads.
    pub fn frame_totals(&self) -> stack::ClusterFrameTotals {
        stack::frame_totals(&self.nodes)
    }
}

/// Frees the simulation: nodes and every handler and pending event built
/// on them. Stacks, routers and socket handlers hold `Rc`s to one
/// another, so dropping the fields alone would leak all of them; tearing
/// down each node's back-edges first leaves the cluster the only owner of
/// its graph. See DESIGN.md, "Ownership and teardown".
impl Drop for Cluster {
    fn drop(&mut self) {
        for node in &self.nodes {
            stack::teardown(node);
        }
    }
}

/// A wired pair of port indices: `a`'s port and `b`'s port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortPair {
    /// Port index on the first node.
    pub a: usize,
    /// Port index on the second node.
    pub b: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_netsim::{msg, Frame, SocketEvent};
    use ioat_simcore::SimTime;
    use std::cell::RefCell;
    use std::rc::Weak;

    #[test]
    fn cluster_builds_and_transfers() {
        let mut cluster = Cluster::new(1);
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
        let ports = cluster.connect_ports(a, b, 3, true);
        assert_eq!(ports.len(), 3);
        let (sa, sb) = cluster.open(a, b, ports[1], SocketOpts::tuned());
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        sb.set_handler(move |_s, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        sa.send(cluster.sim_mut(), 300_000);
        cluster.run();
        assert_eq!(*got.borrow(), 300_000);
        assert_eq!(cluster.stack(b).borrow().port_count(), 3);
    }

    #[test]
    fn tracer_and_metrics_cover_all_nodes() {
        let mut cluster = Cluster::new(1);
        let tracer = Tracer::enabled();
        cluster.set_tracer(tracer.clone());
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        sa.send(cluster.sim_mut(), 200_000);
        cluster.run();
        assert!(!tracer.is_empty());
        assert_eq!(tracer.process_names()[&1], "b");
        let reg = cluster.metrics();
        assert!(reg.counter("b.deliveries") > 0);
        assert!(reg.counter("b.dma.bytes") > 0);
        assert!(reg.gauge("b.peak_backlog_bytes").is_some());
        assert_eq!(
            reg.counter("a.dma.requests"),
            0,
            "non-I/OAT node has no engine"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut cluster = Cluster::new(1);
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
        cluster.add_node(NodeConfig::testbed("x", IoatConfig::disabled()));
    }

    /// Weak handles on every node of `cluster`.
    fn node_weaks(cluster: &Cluster) -> Vec<Weak<RefCell<HostStack>>> {
        cluster.nodes.iter().map(Rc::downgrade).collect()
    }

    /// Stops `cluster` mid-transfer, drops it, and asserts every node is
    /// freed with it.
    fn assert_drop_frees_nodes(mut cluster: Cluster) {
        cluster.run_until(SimTime::from_micros(300));
        assert!(cluster.sim().events_pending() > 0, "stopped mid-transfer");
        let nodes = node_weaks(&cluster);
        drop(cluster);
        for (i, node) in nodes.iter().enumerate() {
            assert!(node.upgrade().is_none(), "node {i} outlived its cluster");
        }
    }

    #[test]
    fn drop_frees_a_wired_pair_with_framed_channels_both_ways() {
        let mut cluster = Cluster::new(1);
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (ab_a, ab_b) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        let (ba_b, ba_a) = cluster.open(
            b,
            a,
            PortPair {
                a: ports[0].b,
                b: ports[0].a,
            },
            SocketOpts::tuned(),
        );
        // b answers every request on the reverse channel; a's replies
        // handler fires the next request: handlers capture senders whose
        // sockets point back at the stacks that hold the handlers.
        let requests: Rc<RefCell<Option<msg::MsgSender<u32>>>> = Rc::new(RefCell::new(None));
        let next = Rc::clone(&requests);
        let replies = Rc::new(msg::channel(ba_b, ba_a, move |sim, n: u32| {
            if let Some(req) = next.borrow().as_ref() {
                req.send(sim, 64 * 1024, n + 1);
            }
        }));
        let sender = msg::channel(ab_a, ab_b, move |sim, n: u32| replies.send(sim, 1_000, n));
        sender.send(cluster.sim_mut(), 64 * 1024, 0);
        *requests.borrow_mut() = Some(sender);
        drop(requests);
        assert_drop_frees_nodes(cluster);
    }

    /// A two-port router that holds both attached stacks, as a parallel
    /// run's partition router does.
    struct PairRouter {
        hosts: RefCell<Vec<(StackRef, usize)>>,
    }

    impl stack::FrameRouter for PairRouter {
        fn frame_ingress(self: Rc<Self>, sim: &mut Sim, src: usize, frame: Frame) {
            let (dst, port) = self.hosts.borrow()[1 - src].clone();
            sim.schedule(SimDuration::ZERO, move |sim| {
                stack::frame_arrived(&dst, sim, port, frame);
            });
        }

        fn ack_ingress(
            self: Rc<Self>,
            sim: &mut Sim,
            src: usize,
            conn: ConnId,
            seq: u64,
            window: u64,
            dup: u32,
        ) {
            let (dst, _) = self.hosts.borrow()[1 - src].clone();
            sim.schedule(SimDuration::ZERO, move |sim| {
                stack::ack_received(&dst, sim, conn, seq, window, dup);
            });
        }
    }

    #[test]
    fn drop_frees_hosts_attached_to_a_router() {
        let mut cluster = Cluster::new(1);
        let router = Rc::new(PairRouter {
            hosts: RefCell::new(Vec::new()),
        });
        let params = ioat_fabric::FabricParams::gige();
        let mut ends = Vec::new();
        for (i, name) in ["a", "b"].into_iter().enumerate() {
            let node = cluster.add_node(NodeConfig::testbed(name, IoatConfig::full()));
            let port = cluster.attach_router_host(node, router.clone(), i, &params);
            router
                .hosts
                .borrow_mut()
                .push((Rc::clone(cluster.stack(node)), port));
            ends.push((node, port));
        }
        let (sa, sb) = cluster.open_with_id(
            ends[0].0,
            ends[0].1,
            ends[1].0,
            ends[1].1,
            SocketOpts::tuned(),
            ConnId(7),
        );
        let sb2 = sb.clone();
        sb.set_handler(move |_s, _ev| {
            let _ = sb2.conn();
        });
        sa.send(cluster.sim_mut(), 2_000_000);
        let weak = Rc::downgrade(&router);
        drop((router, sa, sb));
        assert_drop_frees_nodes(cluster);
        assert!(weak.upgrade().is_none(), "router outlived its cluster");
    }

    #[test]
    fn a_budget_scope_on_another_thread_does_not_limit_this_cluster() {
        use std::sync::mpsc;
        const BUDGET: u64 = 5_000;
        let (opened_tx, opened_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        // The outsider builds and runs its cluster while a budgeted scope
        // is open on the test thread; it must run unclamped.
        let outsider = std::thread::spawn(move || {
            opened_rx.recv().unwrap();
            let mut cluster = Cluster::new(1);
            let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
            let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::full()));
            let ports = cluster.connect_ports(a, b, 1, true);
            let (sa, _sb) = cluster.open(a, b, ports[0], SocketOpts::tuned());
            sa.send(cluster.sim_mut(), 4_000_000);
            cluster.run();
            done_tx.send(()).unwrap();
            cluster.sim().events_executed()
        });
        let (scoped, _) = ioat_guard::with_audit_budget(Some(BUDGET), || {
            opened_tx.send(()).unwrap();
            let _ = done_rx.recv();
            ioat_guard::event_budget()
        });
        let events = outsider
            .join()
            .expect("the outsider must not inherit another thread's event budget");
        assert!(
            events > BUDGET,
            "the outsider ran past the budget: {events}"
        );
        assert_eq!(
            scoped.unwrap(),
            Some(BUDGET),
            "the opening thread keeps its budget"
        );
    }

    #[test]
    fn connections_get_unique_ids() {
        let mut cluster = Cluster::new(1);
        let a = cluster.add_node(NodeConfig::testbed("a", IoatConfig::disabled()));
        let b = cluster.add_node(NodeConfig::testbed("b", IoatConfig::disabled()));
        let ports = cluster.connect_ports(a, b, 1, true);
        let (s1, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        let (s2, _) = cluster.open(a, b, ports[0], SocketOpts::tuned());
        assert_ne!(s1.conn(), s2.conn());
    }
}
