//! The two-tier data-center testbed and its closed-loop driver (§5).
//!
//! Topology (Fig. 2a of the paper):
//!
//! ```text
//!  clients ──3 GigE port pairs──> proxy tier ──3 GigE port pairs──> web tier
//! ```
//!
//! Each client thread runs a closed loop: fire one request, wait for the
//! full response, process it, fire the next (§5.1: "Each client fires one
//! request at a time and sends another request after getting a reply").
//! The proxy parses each request, serves hits from its LRU content cache
//! and forwards misses to the web tier.

use crate::cache::LruCache;
use crate::costs::{DataCenterCosts, REQUEST_WIRE_BYTES};
use crate::msg::{self, MsgSender};
use crate::workload::{Request, Trace};
use ioat_core::cluster::{Cluster, NodeConfig};
use ioat_core::metrics::ExperimentWindow;
use ioat_core::{IoatConfig, SocketOpts};
use ioat_faults::{FaultInjector, FaultPlan, RetryPolicy, WEB_SERVICE};
use ioat_simcore::{Counter, Histogram, Sim, SimDuration, SimTime};
use ioat_telemetry::{Category, Tracer, TrackId};
use std::cell::RefCell;
use std::rc::Rc;

/// Late-bound sender for id-tagged client requests: the client response
/// handler is created before the request channel exists.
type ReqSender = Rc<RefCell<Option<MsgSender<(u64, Request)>>>>;

/// Pseudo node id for per-thread request-lifecycle lanes in exported
/// traces (real nodes are 0 = clients, 1 = proxy, 2 = web).
pub const REQUEST_LANES_NODE: u32 = 3;

/// Configuration of a data-center run.
#[derive(Debug, Clone)]
pub struct DataCenterConfig {
    /// Closed-loop client threads.
    pub client_threads: usize,
    /// GigE port pairs between the client cluster and the proxy.
    pub client_ports: usize,
    /// GigE port pairs between the proxy and the web server.
    pub tier_ports: usize,
    /// I/OAT features on the proxy and web nodes (clients are plain).
    pub ioat: IoatConfig,
    /// Application cost model.
    pub costs: DataCenterCosts,
    /// Proxy content-cache capacity in bytes (0 disables caching).
    pub proxy_cache_bytes: u64,
    /// Measurement window.
    pub window: ExperimentWindow,
    /// Workload seed.
    pub seed: u64,
    /// Fault plan (loss, crash windows). [`FaultPlan::none()`] keeps the
    /// run bit-identical to a fault-free build: no request deadlines are
    /// scheduled at all.
    pub faults: FaultPlan,
    /// Per-request deadline/retry policy, consulted only when `faults`
    /// is active.
    pub retry: RetryPolicy,
}

impl DataCenterConfig {
    /// The paper's testbed shape with the given feature set.
    pub fn paper(ioat: IoatConfig) -> Self {
        DataCenterConfig {
            client_threads: 192,
            client_ports: 3,
            tier_ports: 3,
            ioat,
            costs: DataCenterCosts::default(),
            proxy_cache_bytes: 0,
            window: ExperimentWindow::standard(),
            seed: 0xDC,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }

    /// Small fast configuration for unit tests.
    pub fn quick_test(ioat: IoatConfig) -> Self {
        DataCenterConfig {
            client_threads: 8,
            client_ports: 1,
            tier_ports: 1,
            ioat,
            costs: DataCenterCosts::default(),
            proxy_cache_bytes: 0,
            window: ExperimentWindow::quick(),
            seed: 0xDC,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Outcome of a data-center run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCenterResult {
    /// Transactions per second over the measurement window.
    pub tps: f64,
    /// Proxy-node overall CPU utilization.
    pub proxy_cpu: f64,
    /// Web-node overall CPU utilization.
    pub web_cpu: f64,
    /// Client-node overall CPU utilization.
    pub client_cpu: f64,
    /// Proxy cache hit rate (0 with caching disabled).
    pub cache_hit_rate: f64,
    /// Median response latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile response latency in microseconds.
    pub latency_p99_us: f64,
    /// Transactions completed inside the window.
    pub completed: u64,
    /// Request deadlines that expired (whole run).
    pub timeouts: u64,
    /// Retransmitted requests after a timeout (whole run).
    pub retries: u64,
    /// Transactions abandoned after exhausting retries (whole run).
    pub failed: u64,
    /// Responses that arrived after their request had been retried or
    /// abandoned, and were discarded (whole run).
    pub stale_responses: u64,
    /// Requests silently dropped by a crashed web daemon (whole run).
    pub daemon_drops: u64,
}

struct Shared {
    completed: Counter,
    latency: Histogram,
    window_from: SimTime,
    timeouts: u64,
    retries: u64,
    failed: u64,
    stale_responses: u64,
}

/// Runs the two-tier testbed with per-thread traces built by
/// `make_trace(thread_index)`.
pub fn run<F>(cfg: &DataCenterConfig, make_trace: F) -> DataCenterResult
where
    F: FnMut(usize) -> Box<dyn Trace>,
{
    run_traced(cfg, make_trace, &Tracer::disabled())
}

/// [`run`] with a tracer attached: nodes emit the stack-level spans and
/// each client thread gets a request-lifecycle lane — one
/// [`Category::Request`] span per transaction, from request fire to
/// response completion.
pub fn run_traced<F>(cfg: &DataCenterConfig, mut make_trace: F, tracer: &Tracer) -> DataCenterResult
where
    F: FnMut(usize) -> Box<dyn Trace>,
{
    assert!(cfg.client_threads > 0, "need at least one client thread");
    assert!(cfg.client_ports > 0 && cfg.tier_ports > 0);
    let mut cluster = Cluster::new(cfg.seed);
    cluster.set_tracer(tracer.clone());
    cluster.set_faults(&cfg.faults);
    if tracer.is_enabled() {
        tracer.set_process_name(REQUEST_LANES_NODE, "request-lanes");
    }
    // The client cluster stands in for the paper's 44-node Testbed 2:
    // plenty of cores so the clients themselves never bottleneck.
    let clients = cluster.add_node(NodeConfig {
        name: "clients".into(),
        cores: 16,
        ioat: IoatConfig::disabled(),
        params: ioat_core::calibration::testbed_params(),
        cache: ioat_core::calibration::testbed_cache(),
    });
    let proxy = cluster.add_node(NodeConfig::testbed("proxy", cfg.ioat));
    let web = cluster.add_node(NodeConfig::testbed("web", cfg.ioat));

    // Apache's proxy path buffers responses in user space, so the relay
    // pays real copies on both hops (no sendfile).
    let opts = SocketOpts::tuned();
    let client_pairs = cluster.connect_ports(clients, proxy, cfg.client_ports, opts.coalescing);
    let tier_pairs = cluster.connect_ports(proxy, web, cfg.tier_ports, opts.coalescing);

    let mut completed = Counter::new();
    completed.begin_window(cfg.window.from());
    let shared = Rc::new(RefCell::new(Shared {
        completed,
        latency: Histogram::new(),
        window_from: cfg.window.from(),
        timeouts: 0,
        retries: 0,
        failed: 0,
        stale_responses: 0,
    }));
    let cache = Rc::new(RefCell::new(LruCache::new(cfg.proxy_cache_bytes.max(1))));
    let caching_enabled = cfg.proxy_cache_bytes > 0;
    let costs = cfg.costs;
    // App-level crash view of the web daemon (node 2). Link-level faults
    // were installed into the stacks by `set_faults` above; this injector
    // only answers `service_down` queries and counts dropped requests.
    let web_faults = FaultInjector::new(&cfg.faults, 2);
    let faults_active = cfg.faults.is_active();
    let retry = cfg.retry;

    // Per-thread attempt-id mints, collected so the lifecycle audit can
    // reconcile attempts against completions after the run.
    let mut attempt_mints: Vec<Rc<RefCell<u64>>> = Vec::with_capacity(cfg.client_threads);

    for t in 0..cfg.client_threads {
        let cp = client_pairs[t % client_pairs.len()];
        let pw = tier_pairs[t % tier_pairs.len()];
        // One duplex connection per hop for this thread.
        let (c_sock, p_client_sock) = cluster.open(clients, proxy, cp, opts);
        let (p_web_sock, w_sock) = cluster.open(proxy, web, pw, opts);

        let trace: Rc<RefCell<Box<dyn Trace>>> = Rc::new(RefCell::new(make_trace(t)));
        // Requests carry a per-thread attempt id so late responses to a
        // request that was already retried (or abandoned) can be
        // recognized and dropped.
        let req_sender: ReqSender = Rc::new(RefCell::new(None));
        let started_at = Rc::new(RefCell::new(SimTime::ZERO));
        let next_id: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        attempt_mints.push(Rc::clone(&next_id));
        let waiting: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
        let attempt: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
        let current_req: Rc<RefCell<Option<Request>>> = Rc::new(RefCell::new(None));
        // Self-referential "fire the current request" closure: the retry
        // timer it schedules must be able to call it again. The closure
        // reaches its own slot through a `Weak`, so slot and closure do
        // not keep each other alive; the response handler below holds the
        // slot for as long as the cluster runs.
        #[allow(clippy::type_complexity)]
        let fire_slot: Rc<RefCell<Option<Rc<dyn Fn(&mut Sim)>>>> = Rc::new(RefCell::new(None));

        let fire: Rc<dyn Fn(&mut Sim)> = {
            let rs = Rc::clone(&req_sender);
            let cur = Rc::clone(&current_req);
            let waiting = Rc::clone(&waiting);
            let next_id = Rc::clone(&next_id);
            let attempt = Rc::clone(&attempt);
            let fire_slot = Rc::downgrade(&fire_slot);
            let sh = Rc::clone(&shared);
            let sa = Rc::clone(&started_at);
            let tr = Rc::clone(&trace);
            let client_sock = c_sock.clone();
            Rc::new(move |sim: &mut Sim| {
                let req = match *cur.borrow() {
                    Some(r) => r,
                    None => return,
                };
                let id = {
                    let mut n = next_id.borrow_mut();
                    *n += 1;
                    *n
                };
                *waiting.borrow_mut() = Some(id);
                if let Some(sender) = rs.borrow().as_ref() {
                    sender.send(sim, REQUEST_WIRE_BYTES, (id, req));
                }
                // Deadlines exist only when faults are configured: the
                // inert plan schedules no events and stays bit-identical.
                if faults_active {
                    let deadline = retry.deadline(*attempt.borrow());
                    let waiting2 = Rc::clone(&waiting);
                    let attempt2 = Rc::clone(&attempt);
                    let fire_slot2 = fire_slot.clone();
                    let sh2 = Rc::clone(&sh);
                    let cur2 = Rc::clone(&cur);
                    let sa2 = Rc::clone(&sa);
                    let tr2 = Rc::clone(&tr);
                    let cs2 = client_sock.clone();
                    sim.schedule(deadline, move |sim| {
                        if *waiting2.borrow() != Some(id) {
                            return; // answered (or superseded) in time
                        }
                        let retry_now = *attempt2.borrow() < retry.max_retries;
                        {
                            let mut s = sh2.borrow_mut();
                            s.timeouts += 1;
                            if retry_now {
                                s.retries += 1;
                            } else {
                                s.failed += 1;
                            }
                        }
                        if retry_now {
                            *attempt2.borrow_mut() += 1;
                            let f = fire_slot2.upgrade().and_then(|s| s.borrow().clone());
                            if let Some(f) = f {
                                f(sim);
                            }
                        } else {
                            // Abandon the transaction and move on.
                            *waiting2.borrow_mut() = None;
                            *attempt2.borrow_mut() = 0;
                            let next = tr2.borrow_mut().next_request();
                            let cur3 = Rc::clone(&cur2);
                            let sa3 = Rc::clone(&sa2);
                            let fs3 = fire_slot2.clone();
                            cs2.compute(sim, costs.client_process, move |sim| {
                                *sa3.borrow_mut() = sim.now();
                                *cur3.borrow_mut() = Some(next);
                                let f = fs3.upgrade().and_then(|s| s.borrow().clone());
                                if let Some(f) = f {
                                    f(sim);
                                }
                            });
                        }
                    });
                }
            })
        };
        *fire_slot.borrow_mut() = Some(Rc::clone(&fire));

        // (1) Responses proxy → client: complete the transaction, process,
        // fire the next request.
        let sh = Rc::clone(&shared);
        let sa = Rc::clone(&started_at);
        let tr = Rc::clone(&trace);
        let wt = Rc::clone(&waiting);
        let at = Rc::clone(&attempt);
        let cur = Rc::clone(&current_req);
        let fs = Rc::clone(&fire_slot);
        let client_sock2 = c_sock.clone();
        let lane = TrackId::new(REQUEST_LANES_NODE, t as u32);
        tracer.set_track_name(lane, &format!("thread{t}"));
        let trc = tracer.clone();
        let respond_to_client = msg::channel(
            p_client_sock.clone(),
            c_sock.clone(),
            move |sim, id: u64| {
                if *wt.borrow() != Some(id) {
                    // A retried or abandoned request's original answer.
                    sh.borrow_mut().stale_responses += 1;
                    return;
                }
                *wt.borrow_mut() = None;
                *at.borrow_mut() = 0;
                trc.span("request", Category::Request, lane, *sa.borrow(), sim.now());
                {
                    let mut s = sh.borrow_mut();
                    if sim.now() >= s.window_from {
                        let lat = sim.now().saturating_duration_since(*sa.borrow());
                        s.latency.record_duration(lat);
                    }
                    s.completed.add_at(sim.now(), 1);
                }
                let sa2 = Rc::clone(&sa);
                let cur2 = Rc::clone(&cur);
                let fs2 = Rc::clone(&fs);
                let next = tr.borrow_mut().next_request();
                client_sock2.compute(sim, costs.client_process, move |sim| {
                    *sa2.borrow_mut() = sim.now();
                    *cur2.borrow_mut() = Some(next);
                    let f = fs2.borrow().clone();
                    if let Some(f) = f {
                        f(sim);
                    }
                });
            },
        );
        let respond_to_client = Rc::new(respond_to_client);

        // (2) Responses web → proxy: cache-fill, relay to the client.
        let rc = Rc::clone(&respond_to_client);
        let ch = Rc::clone(&cache);
        let p_web_sock2 = p_web_sock.clone();
        let web_to_proxy = msg::channel(
            w_sock.clone(),
            p_web_sock.clone(),
            move |sim, (id, req): (u64, Request)| {
                if caching_enabled {
                    ch.borrow_mut().insert(req.file_id, req.size);
                }
                let rc2 = Rc::clone(&rc);
                p_web_sock2.compute(sim, costs.proxy_relay, move |sim| {
                    rc2.send(sim, req.size, id);
                });
            },
        );
        let web_to_proxy = Rc::new(web_to_proxy);

        // (3) Requests proxy → web: serve the document. A crashed web
        // daemon drops the request on the floor — the bytes were already
        // delivered (framing stays intact), only the handler goes dark.
        let wtp = Rc::clone(&web_to_proxy);
        let w_sock2 = w_sock.clone();
        let wf = web_faults.clone();
        let proxy_to_web = msg::channel(
            p_web_sock.clone(),
            w_sock.clone(),
            move |sim, (id, req): (u64, Request)| {
                if wf.service_down(WEB_SERVICE, sim.now()) {
                    wf.note_daemon_drop();
                    return;
                }
                let wtp2 = Rc::clone(&wtp);
                w_sock2.compute(sim, costs.web_serve(req.size), move |sim| {
                    wtp2.send(sim, req.size, (id, req));
                });
            },
        );
        let proxy_to_web = Rc::new(proxy_to_web);

        // (4) Requests client → proxy: parse, cache-check, hit or forward.
        let rc = Rc::clone(&respond_to_client);
        let ptw = Rc::clone(&proxy_to_web);
        let ch = Rc::clone(&cache);
        let p_client_sock2 = p_client_sock.clone();
        let client_to_proxy = msg::channel(
            c_sock.clone(),
            p_client_sock,
            move |sim, (id, req): (u64, Request)| {
                let parse = costs.proxy_parse + costs.proxy_cache_lookup;
                let hit = caching_enabled && ch.borrow_mut().lookup(req.file_id);
                let rc2 = Rc::clone(&rc);
                let ptw2 = Rc::clone(&ptw);
                let extra = if hit {
                    costs.proxy_hit_serve
                } else {
                    costs.proxy_forward
                };
                p_client_sock2.compute(sim, parse + extra, move |sim| {
                    if hit {
                        rc2.send(sim, req.size, id);
                    } else {
                        ptw2.send(sim, REQUEST_WIRE_BYTES, (id, req));
                    }
                });
            },
        );
        *req_sender.borrow_mut() = Some(client_to_proxy);

        // Kick off the loop with a small stagger.
        let sa = Rc::clone(&started_at);
        let tr = Rc::clone(&trace);
        let cur = Rc::clone(&current_req);
        cluster
            .sim_mut()
            .schedule(SimDuration::from_micros(5 * t as u64), move |sim| {
                *sa.borrow_mut() = sim.now();
                let first = tr.borrow_mut().next_request();
                *cur.borrow_mut() = Some(first);
                fire(sim);
            });
    }

    let (from, to) = cfg.window.execute(&mut cluster, &[clients, proxy, web]);
    if ioat_guard::enabled() {
        // Request lifecycle conservation: every minted attempt id was
        // answered in time (completed), expired at its deadline (timed
        // out, then split exactly into retried vs. abandoned), or is the
        // one attempt a thread still has in flight at window close.
        let attempts: u64 = attempt_mints.iter().map(|m| *m.borrow()).sum();
        let s = shared.borrow();
        ioat_guard::check(
            "datacenter/tiers",
            "timeouts = retries + abandoned",
            to,
            s.timeouts == s.retries + s.failed,
            || {
                format!(
                    "timeouts={} but retries={} + failed={}",
                    s.timeouts, s.retries, s.failed
                )
            },
        );
        let settled = s.completed.total() + s.timeouts;
        let in_flight_cap = cfg.client_threads as u64;
        ioat_guard::check(
            "datacenter/tiers",
            "attempts = completed + timed-out + in-flight (≤ one per thread)",
            to,
            settled <= attempts && attempts <= settled + in_flight_cap,
            || {
                format!(
                    "minted {attempts} attempt ids vs completed={} + timeouts={} \
                     with {in_flight_cap} threads",
                    s.completed.total(),
                    s.timeouts
                )
            },
        );
        ioat_guard::check(
            "datacenter/tiers",
            "stale responses ≤ timeouts",
            to,
            s.stale_responses <= s.timeouts,
            || {
                format!(
                    "stale_responses={} but only {} timeouts",
                    s.stale_responses, s.timeouts
                )
            },
        );
    }
    let elapsed = (to - from).as_secs_f64();
    let result = {
        let shared = shared.borrow();
        let proxy_s = cluster.stack(proxy).borrow();
        let web_s = cluster.stack(web).borrow();
        let client_s = cluster.stack(clients).borrow();
        DataCenterResult {
            tps: shared.completed.window_total() as f64 / elapsed,
            proxy_cpu: proxy_s.cpu_utilization(from, to),
            web_cpu: web_s.cpu_utilization(from, to),
            client_cpu: client_s.cpu_utilization(from, to),
            cache_hit_rate: cache.borrow().hit_rate(),
            latency_p50_us: shared.latency.quantile(0.5) as f64 / 1e3,
            latency_p99_us: shared.latency.quantile(0.99) as f64 / 1e3,
            completed: shared.completed.window_total(),
            timeouts: shared.timeouts,
            retries: shared.retries,
            failed: shared.failed,
            stale_responses: shared.stale_responses,
            daemon_drops: web_faults.daemon_drops(),
        }
    };
    result
}

/// Convenience: the Fig. 8a single-file comparison at one document size.
pub fn run_single_file(cfg: &DataCenterConfig, size: u64) -> DataCenterResult {
    run(cfg, |_t| {
        Box::new(crate::workload::SingleFileTrace::new(size))
    })
}

/// Convenience: the Fig. 8b Zipf comparison at one α over a shared-shape
/// catalog (each thread samples independently).
pub fn run_zipf(
    cfg: &DataCenterConfig,
    alpha: f64,
    catalog_docs: usize,
    median: u64,
) -> DataCenterResult {
    let mut rng = ioat_simcore::SimRng::seed_from(cfg.seed ^ 0x21F);
    let catalog = crate::workload::FileCatalog::web_content(catalog_docs, median, &mut rng);
    let mut seed_rng = ioat_simcore::SimRng::seed_from(cfg.seed);
    // One CDF build shared by every client thread; each thread's fork
    // draws from the same seed_rng stream the per-thread rebuild did.
    // The template's own rng is never sampled, so it must not consume a
    // seed_rng draw.
    let template =
        crate::workload::ZipfTrace::new(catalog, alpha, ioat_simcore::SimRng::seed_from(0));
    run(cfg, move |_t| Box::new(template.fork(seed_rng.fork())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_completes_transactions() {
        let cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        let r = run_single_file(&cfg, 4 * 1024);
        assert!(r.tps > 100.0, "tps = {}", r.tps);
        assert!(r.completed > 0);
        assert!(r.proxy_cpu > 0.0 && r.proxy_cpu <= 1.0);
        assert!(r.web_cpu > 0.0 && r.web_cpu <= 1.0);
        assert!(r.latency_p50_us > 0.0);
        assert!(r.latency_p99_us >= r.latency_p50_us);
        assert_eq!(r.cache_hit_rate, 0.0, "caching disabled");
    }

    #[test]
    fn tracing_records_request_lanes_without_perturbing() {
        let cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        let off = run_single_file(&cfg, 4 * 1024);
        let tracer = Tracer::enabled();
        let on = run_traced(
            &cfg,
            |_t| Box::new(crate::workload::SingleFileTrace::new(4 * 1024)),
            &tracer,
        );
        assert_eq!(off.tps.to_bits(), on.tps.to_bits());
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.latency_p99_us.to_bits(), on.latency_p99_us.to_bits());
        let requests = tracer
            .events()
            .iter()
            .filter(|e| e.cat == Category::Request)
            .count() as u64;
        assert!(
            requests >= on.completed,
            "every completed transaction has a request span"
        );
        assert_eq!(tracer.process_names()[&REQUEST_LANES_NODE], "request-lanes");
    }

    #[test]
    fn ioat_improves_tps() {
        let non = run_single_file(
            &DataCenterConfig::quick_test(IoatConfig::disabled()),
            4 * 1024,
        );
        let ioat = run_single_file(&DataCenterConfig::quick_test(IoatConfig::full()), 4 * 1024);
        assert!(
            ioat.tps >= non.tps,
            "I/OAT TPS {:.0} should not lose to non-I/OAT {:.0}",
            ioat.tps,
            non.tps
        );
    }

    #[test]
    fn proxy_cache_serves_hits_under_zipf() {
        let mut cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        cfg.proxy_cache_bytes = 64 * 1024 * 1024;
        let r = run_zipf(&cfg, 0.95, 2_000, 8 * 1024);
        // The quick window is dominated by compulsory misses; steady-state
        // hit rates are much higher (see the Fig. 8b harness).
        assert!(
            r.cache_hit_rate > 0.12,
            "α=0.95 should produce real hit rates, got {:.2}",
            r.cache_hit_rate
        );
        // With hits served at the proxy, the web tier sees less work than
        // the proxy.
        assert!(r.web_cpu < r.proxy_cpu + 0.5);
    }

    #[test]
    fn inert_fault_plan_schedules_no_recovery_machinery() {
        let cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        let r = run_single_file(&cfg, 4 * 1024);
        assert_eq!(r.timeouts, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.failed, 0);
        assert_eq!(r.stale_responses, 0);
        assert_eq!(r.daemon_drops, 0);
    }

    fn crash_cfg() -> DataCenterConfig {
        let mut cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
        // Web daemon dark from 2 ms to 8 ms; deadlines short enough that
        // retries resolve well inside the 30 ms quick run.
        cfg.faults.crashes.push(ioat_faults::CrashWindow {
            service: WEB_SERVICE,
            window: ioat_faults::TimeWindow::new(
                SimTime::from_nanos(2_000_000),
                SimTime::from_nanos(8_000_000),
            ),
        });
        cfg.retry.timeout = SimDuration::from_millis(2);
        cfg
    }

    #[test]
    fn web_crash_window_triggers_timeouts_and_recovers() {
        let cfg = crash_cfg();
        let r = run_single_file(&cfg, 4 * 1024);
        assert!(r.daemon_drops > 0, "crash window must drop requests");
        assert!(r.timeouts > 0, "dropped requests must hit their deadline");
        assert!(r.retries > 0, "deadlines must trigger retries");
        assert!(
            r.completed > 0 && r.tps > 0.0,
            "the system must keep completing transactions after restart"
        );
        let clean = run_single_file(
            &DataCenterConfig::quick_test(IoatConfig::disabled()),
            4 * 1024,
        );
        assert!(
            r.completed < clean.completed,
            "a 6 ms outage must cost throughput: {} vs {}",
            r.completed,
            clean.completed
        );
    }

    #[test]
    fn crash_runs_are_reproducible() {
        let a = run_single_file(&crash_cfg(), 4 * 1024);
        let b = run_single_file(&crash_cfg(), 4 * 1024);
        assert_eq!(a, b);
    }

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let mut small = DataCenterConfig::quick_test(IoatConfig::disabled());
        small.client_threads = 2;
        let mut big = small.clone();
        big.client_threads = 16;
        let r_small = run_single_file(&small, 4 * 1024);
        let r_big = run_single_file(&big, 4 * 1024);
        assert!(
            r_big.tps > 2.0 * r_small.tps,
            "16 threads {:.0} vs 2 threads {:.0}",
            r_big.tps,
            r_small.tps
        );
    }
}
