//! Datacenter at fabric scale: thousands of proxy/web servers behind a
//! Clos fabric, fronting up to ~10⁶ emulated Zipf clients.
//!
//! The paper's two-tier testbed (§5) stops at 2 nodes and 44 emulated
//! clients; this scenario re-asks the I/OAT question at datacenter scale.
//! The first half of the topology's hosts run the proxy tier, the second
//! half the web tier; every proxy holds persistent connections to a small
//! deterministic subset of web servers (`webs_per_proxy`, a documented
//! simplification of consistent hashing) and documents map onto that
//! subset by id. Clients are *emulated* exactly like the paper's: they
//! are not simulated hosts but closed loops — draw a Zipf document, wait
//! the client-side latency, drive the proxy's request path
//! (parse + forward → web serve → relay), then think and repeat.
//!
//! This module holds the scenario's plain-data types: [`ScaleConfig`],
//! [`FabricFaultSpec`] and [`ScaleResult`]. The engine that runs it is
//! [`crate::parallel::run_partitioned`], which keeps every per-client and
//! per-request structure fixed-size so memory stays bounded at a million
//! clients.

use crate::costs::DataCenterCosts;
use ioat_core::metrics::ExperimentWindow;
use ioat_core::{IoatConfig, SocketOpts};
use ioat_fabric::{FabricParams, Topology, TopologySpec};
use ioat_faults::{CrashWindow, FaultPlan, LinkFlapModel, RetryPolicy, TimeWindow};
use ioat_simcore::{SimDuration, SimRng};

/// Fabric-facing fault injection for a scale run, expanded against the
/// run's topology and measurement window by [`FabricFaultSpec::plan`].
/// Plain `Copy` data so [`ScaleConfig`] stays plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricFaultSpec {
    /// Flap windows drawn per directed fabric link across the whole run
    /// (0 = no flapping).
    pub flaps_per_link: u32,
    /// Downtime of each flap.
    pub flap_down: SimDuration,
    /// Switches crashed for the first part of the measurement window
    /// (0 = none). Drawn without replacement from the non-edge tiers,
    /// where ECMP has equal-cost siblings to fail over to — crashing an
    /// edge switch severs its hosts outright, a different experiment.
    pub crashed_switches: u32,
    /// Seed of the plan's dedicated RNG streams (flap schedules and the
    /// crashed-switch draw).
    pub seed: u64,
}

impl FabricFaultSpec {
    /// The inert spec: no flaps, no crashes, bit-identical to a run that
    /// never saw one.
    pub fn none() -> Self {
        FabricFaultSpec {
            flaps_per_link: 0,
            flap_down: SimDuration::from_micros(500),
            crashed_switches: 0,
            seed: 0xFA17,
        }
    }

    /// Whether the spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.flaps_per_link > 0 || self.crashed_switches > 0
    }

    /// Expands the spec into the concrete [`FaultPlan`] for `topo` over
    /// `window`: flap schedules span the whole run, crash windows cover
    /// `[measure/8, measure/2]` past the window open so the run records
    /// both the degradation and the recovery. A pure function of
    /// `(self, topo, window)` — every partition layout expands it
    /// identically, which keeps parallel runs bit-identical.
    pub fn plan(&self, topo: &Topology, window: &ExperimentWindow) -> FaultPlan {
        let mut plan = FaultPlan {
            seed: self.seed,
            ..FaultPlan::none()
        };
        if self.flaps_per_link > 0 {
            plan.link_flap = Some(LinkFlapModel {
                flaps_per_link: self.flaps_per_link,
                down_for: self.flap_down,
                horizon: window.to(),
            });
        }
        if self.crashed_switches > 0 {
            let mut candidates: Vec<usize> = (0..topo.switches())
                .filter(|&sw| topo.switch_tier(sw) > 0)
                .collect();
            let n = (self.crashed_switches as usize).min(candidates.len());
            let mut rng = SimRng::stream(self.seed, 0xC4A5);
            let m = window.measure.as_nanos();
            let open = window.from();
            let down = TimeWindow::new(
                open + SimDuration::from_nanos(m / 8),
                open + SimDuration::from_nanos(m / 2),
            );
            for _ in 0..n {
                let i = rng.range(0, candidates.len() as u64) as usize;
                plan.switch_crashes.push(CrashWindow {
                    service: candidates.swap_remove(i) as u32,
                    window: down,
                });
            }
        }
        plan
    }
}

/// Configuration of a fabric-scale datacenter run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Fabric topology; its host count fixes the server count (half
    /// proxies, half web servers), so it must be even.
    pub spec: TopologySpec,
    /// Fabric physical parameters (bandwidths, oversubscription, buffers,
    /// ECMP seed).
    pub fabric: FabricParams,
    /// Emulated closed-loop clients.
    pub clients: usize,
    /// I/OAT features on every server node.
    pub ioat: IoatConfig,
    /// Application cost model.
    pub costs: DataCenterCosts,
    /// Measurement window. Client starts are staggered across the warmup.
    pub window: ExperimentWindow,
    /// Zipf exponent of the document popularity distribution.
    pub alpha: f64,
    /// Documents in the catalog.
    pub catalog_files: usize,
    /// Web servers each proxy holds persistent connections to. Clamped
    /// to the web-tier size, it must then divide that size: the subsets
    /// tile the web tier into disjoint server groups, one per partition.
    pub webs_per_proxy: usize,
    /// Client think time between a completed response and the next
    /// request.
    pub think: SimDuration,
    /// One-way client ↔ proxy latency (clients are emulated, not
    /// simulated hosts, so their access network is a fixed delay).
    pub client_latency: SimDuration,
    /// Workload seed (catalog sizes + Zipf draws).
    pub seed: u64,
    /// Hardware era every server node is calibrated against.
    pub profile: ioat_core::calibration::NodeProfile,
    /// Fabric fault injection: link flaps and switch crashes (inert by
    /// default).
    pub faults: FabricFaultSpec,
    /// Proxy admission budget: a client request arriving at a proxy that
    /// already has this many transactions in flight is shed before any
    /// proxy work, and the client retries after a think time. `None`
    /// admits everything.
    pub admit_budget: Option<u32>,
    /// Hedged-retry policy on the proxy → web request path: when a
    /// response is still outstanding at `deadline(attempt)`, the proxy
    /// sends a duplicate round-tagged request (up to `max_retries`
    /// hedges, backoff-spaced); the first response wins and stale ones
    /// are discarded by generation. `None` never hedges.
    pub hedge: Option<RetryPolicy>,
}

impl ScaleConfig {
    /// A fat-tree(k) datacenter at oversubscription `oversub` with
    /// `clients` emulated clients. Defaults: Zipf(0.9) over 10 K
    /// documents of 8 K median, 4 webs per proxy, 20 ms think, 200 µs
    /// client latency, quick window.
    pub fn fat_tree(k: usize, oversub: f64, clients: usize, ioat: IoatConfig) -> Self {
        ScaleConfig {
            spec: TopologySpec::FatTree { k },
            fabric: FabricParams {
                oversubscription: oversub,
                seed: 0xFA8,
                ..FabricParams::gige()
            },
            clients,
            ioat,
            costs: DataCenterCosts::default(),
            window: ExperimentWindow::quick(),
            alpha: 0.9,
            catalog_files: 10_000,
            webs_per_proxy: 4,
            think: SimDuration::from_millis(20),
            client_latency: SimDuration::from_micros(200),
            seed: 0xD1CE,
            profile: ioat_core::calibration::NodeProfile::Testbed2007,
            faults: FabricFaultSpec::none(),
            admit_budget: None,
            hedge: None,
        }
    }

    /// A tiny configuration for unit tests: fat-tree(4), 48 clients,
    /// short think so several requests complete per client.
    pub fn quick_test(ioat: IoatConfig) -> Self {
        ScaleConfig {
            clients: 48,
            think: SimDuration::from_millis(2),
            catalog_files: 500,
            ..Self::fat_tree(4, 1.0, 48, ioat)
        }
    }

    /// Socket options used on the server tier: all offloads on, but
    /// moderate 64 K buffers so a million multiplexed clients cannot pile
    /// unbounded bytes into any single connection window.
    pub(crate) fn opts() -> SocketOpts {
        SocketOpts {
            sndbuf: 64 * 1024,
            rcvbuf: 64 * 1024,
            read_size: 16 * 1024,
            ..SocketOpts::tuned()
        }
    }
}

/// Outcome of a fabric-scale run. All statistics are streaming — their
/// memory footprint is independent of `clients` and of the request count.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScaleResult {
    /// Transactions per second over the measurement window.
    pub tps: f64,
    /// Transactions completed inside the window.
    pub completed: u64,
    /// Mean end-to-end client latency, µs.
    pub latency_mean_us: f64,
    /// Median latency, µs (log-scale histogram bucket upper bound).
    pub latency_p50_us: u64,
    /// 99th-percentile latency, µs.
    pub latency_p99_us: u64,
    /// Worst observed latency, µs.
    pub latency_max_us: f64,
    /// Mean CPU utilization across the proxy tier in the window.
    pub proxy_cpu: f64,
    /// Mean CPU utilization across the web tier in the window.
    pub web_cpu: f64,
    /// Frames tail-dropped by switch buffers over the whole run.
    pub tail_drops: u64,
    /// Frames dropped with no surviving path (flapped links / crashed
    /// switches) over the whole run.
    pub route_blackholes: u64,
    /// Requests shed by proxy admission control over the whole run.
    pub shed: u64,
    /// Hedged duplicate requests the proxy tier sent over the whole run.
    pub hedges: u64,
    /// Mean proxy-tier core *occupancy* in the window: busy-poll spin
    /// counts as occupied, so under polling modes this exceeds
    /// [`ScaleResult::proxy_cpu`] by the cores burned spinning.
    pub proxy_occupancy: f64,
    /// Simulator events executed by the end of the window.
    pub sim_events: u64,
}
