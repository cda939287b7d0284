//! `perfbench`: runs one named workload of ioat-sim through its public
//! entrypoints, checks every output against a known-correct value, and
//! prints the end-to-end metrics (or, with `--trace 1`, the per-layer
//! metrics) as one JSON object on the last line of standard output.
//!
//! ```text
//! perfbench --workload <paper-stack|fabric-dc|fabric-faults>
//!           --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! `--record` prints each op's output fingerprint in the format of
//! `expected/*.txt` instead of checking it; use it to re-record the
//! expected values after a deliberate model change.

mod checks;
mod heap;
mod ops;
mod probes;
mod spans;

use ops::{Call, Op, Output, Workload};
use spans::Recorder;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[global_allocator]
static GLOBAL: heap::Counting = heap::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper-stack|fabric-dc|fabric-faults|fabric-dc-par> \
         --seed <n> --seconds <s> --trace <0|1> [--record]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes a whole number")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        record,
    }
}

/// Attempted operations, and the failed ones by `<pass>/<op ID>` key.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: BTreeSet<String>,
}

impl Gate {
    /// Marks op `key` failed when `result` is an error.
    fn check(&mut self, key: &str, result: Result<(), String>) {
        if let Err(reason) = result {
            eprintln!("FAIL {key}: {reason}");
            self.failed.insert(key.to_string());
        }
    }
}

/// One pass over a workload's operations.
struct Pass {
    /// Host seconds inside the timed calls.
    wall: f64,
    /// Host seconds per op ID.
    op_walls: BTreeMap<String, f64>,
    /// Output fingerprint per op ID.
    fps: BTreeMap<String, String>,
    outputs: BTreeMap<String, Output>,
    violations: usize,
}

/// How a pass runs its calls.
#[derive(Clone, Copy)]
enum Mode<'a> {
    /// Timed: no spans, no audits.
    Plain,
    /// Spans around every call.
    Traced(&'a Recorder),
    /// Spans, and every call under an `ioat_guard::with_audit` scope.
    Audited(&'a Recorder),
}

fn run_pass(
    label: &str,
    ops: &[Op],
    mode: Mode<'_>,
    expected: &BTreeMap<String, String>,
    seed: u64,
    gate: &mut Gate,
) -> Pass {
    let mut pass = Pass {
        wall: 0.0,
        op_walls: BTreeMap::new(),
        fps: BTreeMap::new(),
        outputs: BTreeMap::new(),
        violations: 0,
    };
    for op in ops {
        let name = format!("{label}/{}", op.id);
        let t = Instant::now();
        let result = match mode {
            Mode::Plain => catch_unwind(AssertUnwindSafe(|| op.run())),
            Mode::Traced(rec) => rec.span(op.layer(), &name, || {
                catch_unwind(AssertUnwindSafe(|| op.run()))
            }),
            Mode::Audited(rec) => {
                let (result, violations) =
                    rec.span(op.layer(), &name, || ioat_guard::with_audit(|| op.run()));
                for v in &violations {
                    eprintln!("audit violation in {name}: {v}");
                }
                pass.violations += violations.len();
                if !violations.is_empty() {
                    gate.check(&name, Err(format!("{} audit violations", violations.len())));
                }
                result
            }
        };
        let secs = t.elapsed().as_secs_f64();
        pass.wall += secs;
        pass.op_walls.insert(op.id.clone(), secs);
        gate.attempted += 1;
        match result {
            Ok(out) => {
                if !expected.is_empty() {
                    gate.check(&name, checks::check_op(expected, seed, &op.id, &out));
                }
                pass.fps.insert(op.id.clone(), out.fingerprint());
                pass.outputs.insert(op.id.clone(), out);
            }
            Err(_) => gate.check(&name, Err("panicked".into())),
        }
    }
    pass
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host seconds of the public constructors a workload builds on: the
/// median of `SETUP_SAMPLES` builds after one discarded warm-up build,
/// plus (fabric workloads) the median `Fabric::new` share.
fn setup(w: Workload, seed: u64, rec: Option<&Recorder>) -> (f64, f64) {
    use ioat_core::cluster::{Cluster, NodeConfig};
    use ioat_core::{IoatConfig, SocketOpts};
    use ioat_datacenter::{FileCatalog, ZipfTrace};
    use ioat_fabric::Fabric;
    use ioat_simcore::SimRng;

    const SETUP_SAMPLES: usize = 21;
    let span = |name: &str, f: &mut dyn FnMut()| match rec {
        Some(r) => r.span("setup", name, f),
        None => f(),
    };
    if w == Workload::PaperStack {
        // The 2-node, 6-port fig3a cluster, exactly as `bandwidth::run`
        // builds it, without traffic. One sample is a batch of builds,
        // since a single build takes microseconds.
        const BATCH: usize = 10;
        let mut samples: Vec<f64> = (0..=SETUP_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                span("setup/cluster_2node_6port_x10", &mut || {
                    for _ in 0..BATCH {
                        let opts = SocketOpts::tuned();
                        let mut cluster = Cluster::new(0xB0);
                        let tx =
                            cluster.add_node(NodeConfig::testbed("sender", IoatConfig::full()));
                        let rx =
                            cluster.add_node(NodeConfig::testbed("receiver", IoatConfig::full()));
                        for pair in cluster.connect_ports(tx, rx, 6, opts.coalescing) {
                            std::hint::black_box(cluster.open(tx, rx, pair, opts));
                        }
                        std::hint::black_box(cluster);
                    }
                });
                t.elapsed().as_secs_f64() / BATCH as f64
            })
            .collect();
        samples.remove(0);
        return (median(&samples), 0.0);
    }
    let v = ops::variant(seed);
    let cfg = if w == Workload::FabricFaults {
        ops::faults_cfg(IoatConfig::full(), v)
    } else {
        ops::fabric_cfg(1.0, IoatConfig::full(), v)
    };
    let mut total = Vec::new();
    let mut build = Vec::new();
    for _ in 0..=SETUP_SAMPLES {
        let t = Instant::now();
        span("setup/fabric_catalog_zipf", &mut || {
            let tb = Instant::now();
            let fabric = match rec {
                Some(r) => r.span("fabric", "setup/Fabric::new", || {
                    Fabric::new(cfg.spec, cfg.fabric)
                }),
                None => Fabric::new(cfg.spec, cfg.fabric),
            };
            if cfg.faults.is_active() {
                fabric.set_faults(&cfg.faults.plan(fabric.topology(), &cfg.window));
            }
            build.push(tb.elapsed().as_secs_f64());
            let mut crng = SimRng::seed_from(cfg.seed);
            let catalog = FileCatalog::web_content(cfg.catalog_files, 8 * 1024, &mut crng);
            let trace = ZipfTrace::new(catalog, cfg.alpha, SimRng::stream(cfg.seed, 0x5EED));
            std::hint::black_box((fabric, trace));
        });
        total.push(t.elapsed().as_secs_f64());
    }
    (median(&total[1..]), median(&build[1..]))
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    let ops = ops::workload_ops(w, args.seed);

    if args.record {
        let prefix = if w.is_fabric() {
            format!("v{} ", ops::variant(args.seed))
        } else {
            String::new()
        };
        let mut gate = Gate::default();
        let pass = run_pass(
            "record",
            &ops,
            Mode::Plain,
            &BTreeMap::new(),
            args.seed,
            &mut gate,
        );
        for (id, fp) in &pass.fps {
            println!("{prefix}{id}\t{fp}");
        }
        std::process::exit(i32::from(!gate.failed.is_empty()));
    }

    let expected = checks::expected(w, args.seed);
    let mut gate = Gate::default();
    let rec = args.trace.then(Recorder::new);

    let (setup_s, build_s) = setup(w, args.seed, rec.as_ref());

    // Timed calls: one full pass (the peak heap it adds to what was live
    // before it is `peak_heap_mb`),
    // then the calls again in the same order until `--seconds` have
    // passed. `wall_s` is the sum over calls of each call's median time:
    // the time of one pass, robust to a slow stretch of the host.
    let base = heap::reset_peak();
    let started = Instant::now();
    let untraced = run_pass(
        "untraced",
        &ops,
        Mode::Plain,
        &expected,
        args.seed,
        &mut gate,
    );
    let peak_heap_mb = (heap::peak_bytes() - base) as f64 / 1e6;
    let mut samples: BTreeMap<&str, Vec<f64>> = ops
        .iter()
        .map(|op| (op.id.as_str(), vec![untraced.op_walls[&op.id]]))
        .collect();
    for op in ops.iter().cycle() {
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let again = run_pass(
            "untraced",
            std::slice::from_ref(op),
            Mode::Plain,
            &expected,
            args.seed,
            &mut gate,
        );
        samples
            .get_mut(op.id.as_str())
            .expect("op sampled")
            .push(again.wall);
    }
    let wall_s: f64 = samples.values().map(|v| median(v)).sum();

    let paper_fps = if w == Workload::PaperStack {
        for (id, reason) in checks::check_experiments_tables(&untraced.fps) {
            gate.check(&format!("untraced/{id}"), Err(reason));
        }
        untraced.fps.clone()
    } else {
        checks::expected(Workload::PaperStack, 0)
    };
    let paper_err_pp = checks::paper_err_pp(&paper_fps);

    println!(
        "workload {} seed {} (variant {}), {} ops per pass, {} timed calls, {} host threads",
        w.name(),
        args.seed,
        ops::variant(args.seed),
        ops.len(),
        samples.values().map(Vec::len).sum::<usize>(),
        nproc
    );
    if w == Workload::PaperStack {
        for (claim, paper, sim) in checks::paper_claims(&paper_fps) {
            println!("  paper {paper:>5.1} %  simulated {sim:>6.2} %  {claim}");
        }
    }

    let metrics: Metrics = match &rec {
        None => vec![
            ("wall_s", wall_s, "s"),
            ("peak_heap_mb", peak_heap_mb, "MB"),
            ("setup_s", setup_s, "s"),
            ("paper_err_pp", paper_err_pp, "pp"),
        ],
        Some(rec) => traced(
            w, &args, nproc, &ops, &expected, rec, &untraced, wall_s, build_s, &mut gate,
        ),
    };

    let failed = gate.failed.len() as u64;
    println!("ops {} ops_failed {failed}", gate.attempted);
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        gate.attempted,
        body.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Per-layer counters of one rebuilt 2-node microbench run.
#[derive(Default)]
struct StackCounts {
    events: u64,
    scheduled: u64,
    cancelled: u64,
    max_pending: usize,
    frames: u64,
    interrupts: u64,
    acks: u64,
    stalled: u64,
    cache_hits: u64,
    cache_misses: u64,
    dma_requests: u64,
    dma_bytes: u64,
    dma_fallbacks: u64,
}

/// Rebuilds a fig3a point through the public `Cluster` API, mirroring
/// `bandwidth::run_with_faults` with no fault plan, and reads the layer
/// counters the high-level call does not return.
fn rebuild_bandwidth(
    rec: &Recorder,
    id: &str,
    ports: usize,
    ioat: ioat_core::IoatConfig,
    counts: &mut StackCounts,
) -> ioat_core::ThroughputResult {
    use ioat_core::cluster::{Cluster, NodeConfig};
    use ioat_core::microbench::{bandwidth::BandwidthConfig, stream};
    use ioat_core::ExperimentWindow;

    rec.span("core", &format!("rebuild/{id}"), || {
        let mut cfg = BandwidthConfig::paper(ports);
        cfg.window = ExperimentWindow::standard();
        let mut cluster = rec.span("core", "Cluster::new", || Cluster::new(0xB0));
        let (tx, rx) = rec.span("core", "Cluster::add_node", || {
            (
                cluster.add_node(NodeConfig::testbed("sender", ioat)),
                cluster.add_node(NodeConfig::testbed("receiver", ioat)),
            )
        });
        let pairs = rec.span("netsim", "Cluster::connect_ports", || {
            cluster.connect_ports(tx, rx, cfg.ports, cfg.opts.coalescing)
        });
        let hint = cfg.window.to().as_nanos();
        rec.span("netsim", "Cluster::open+stream", || {
            for pair in pairs {
                let (s_tx, _s_rx) = cluster.open(tx, rx, pair, cfg.opts);
                stream(&s_tx, cluster.sim_mut(), hint, 1_000.0);
            }
        });
        let (from, to) = rec.span("simcore", "ExperimentWindow::execute", || {
            cfg.window.execute(&mut cluster, &[tx, rx])
        });
        rec.span("core", "read_counters", || {
            let sim = cluster.sim();
            counts.events += sim.events_executed();
            counts.scheduled += sim.events_scheduled();
            counts.cancelled += sim.events_cancelled();
            counts.max_pending = counts.max_pending.max(sim.events_pending());
            let m = cluster.metrics();
            for node in ["sender", "receiver"] {
                counts.frames += m.counter(&format!("{node}.frames_processed"));
                counts.interrupts += m.counter(&format!("{node}.interrupts"));
                counts.acks += m.counter(&format!("{node}.acks"));
                counts.stalled += m.counter(&format!("{node}.stalled_frames"));
                counts.dma_requests += m.counter(&format!("{node}.dma.requests"));
                counts.dma_bytes += m.counter(&format!("{node}.dma.bytes"));
                counts.dma_fallbacks += m.counter(&format!("{node}.dma.cpu_fallbacks"));
            }
            for node in [tx, rx] {
                let stack = cluster.stack(node).borrow();
                let c = stack.cache().borrow().stats();
                counts.cache_hits += c.hits;
                counts.cache_misses += c.misses;
            }
            let rxs = cluster.stack(rx).borrow();
            let txs = cluster.stack(tx).borrow();
            ioat_core::ThroughputResult {
                mbps: rxs.rx_meter().mbps(to),
                rx_cpu: rxs.cpu_utilization(from, to),
                tx_cpu: txs.cpu_utilization(from, to),
                rx_occupancy: rxs.cpu_occupancy(from, to),
            }
        })
    })
}

/// Simulated receive-path CPU shares (interrupt, protocol, copy) of the
/// Fig. 7 configuration at 64 KB messages, non-I/OAT.
fn splitup_shares(rec: &Recorder) -> [f64; 3] {
    use ioat_core::microbench::splitup;
    use ioat_core::{ExperimentWindow, IoatConfig};
    use ioat_telemetry::{cpu_splitup, Tracer};

    rec.span("netsim", "splitup::run_one_traced/64K/non", || {
        let cfg = splitup::SplitupConfig {
            ports: 4,
            window: ExperimentWindow::standard(),
        };
        let tracer = Tracer::enabled();
        let (_, (from, to)) =
            splitup::run_one_traced(&cfg, IoatConfig::disabled(), 64 * 1024, &tracer);
        let shares = cpu_splitup(&tracer.events(), from, to).receive_path_shares();
        [shares[0].1, shares[1].1, shares[2].1]
    })
}

/// Pass `label`'s fingerprints must equal the untraced pass's, op for op.
fn cross_check(gate: &mut Gate, label: &str, untraced: &Pass, other: &Pass) {
    for (id, fp) in &untraced.fps {
        gate.check(
            &format!("{label}/{id}"),
            match other.fps.get(id) {
                Some(o) if o == fp => Ok(()),
                _ => Err("output differs from the untraced pass".into()),
            },
        );
    }
}

/// The traced run: traced and audited passes after the timed one, layer
/// counters, probes, and the 1-vs-nproc cross-check. Writes the spans to
/// `perfbench/out/` and returns the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: Workload,
    args: &Args,
    nproc: usize,
    ops: &[Op],
    expected: &BTreeMap<String, String>,
    rec: &Recorder,
    untraced: &Pass,
    wall_s: f64,
    build_s: f64,
    gate: &mut Gate,
) -> Metrics {
    let traced = run_pass("traced", ops, Mode::Traced(rec), expected, args.seed, gate);
    let audited = run_pass(
        "audited",
        ops,
        Mode::Audited(rec),
        expected,
        args.seed,
        gate,
    );
    cross_check(gate, "traced", untraced, &traced);
    cross_check(gate, "audited", untraced, &audited);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut queue_depth = 10_240;

    if w == Workload::PaperStack {
        // Layer counters from the rebuilt fig3a points; each rebuild must
        // reproduce `bandwidth::run` bit for bit.
        let mut c = StackCounts::default();
        let start = Instant::now();
        for op in ops {
            if let Call::Bandwidth { ports, ioat } = op.call {
                let got = rebuild_bandwidth(rec, &op.id, ports, ioat, &mut c);
                let want = untraced.outputs[&op.id].tput();
                gate.attempted += 1;
                gate.check(
                    &format!("rebuild/{}", op.id),
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "Cluster rebuild gives {got:?}, bandwidth::run {want:?}"
                        ))
                    },
                );
            }
        }
        let rebuild_ns = start.elapsed().as_nanos() as f64;
        queue_depth = c.max_pending.max(1);
        m.insert("simcore.events", c.events as f64);
        m.insert(
            "simcore.cancelled_ratio",
            c.cancelled as f64 / c.scheduled.max(1) as f64,
        );
        m.insert(
            "simcore.host_ns_per_event",
            rebuild_ns / c.events.max(1) as f64,
        );
        m.insert("netsim.frames", c.frames as f64);
        m.insert("netsim.interrupts", c.interrupts as f64);
        m.insert("netsim.acks", c.acks as f64);
        m.insert("netsim.stalled_frames", c.stalled as f64);
        m.insert(
            "netsim.host_ns_per_frame",
            rebuild_ns / c.frames.max(1) as f64,
        );
        let [irq, proto, copy] = splitup_shares(rec);
        m.insert("netsim.sim_cpu_interrupt", irq);
        m.insert("netsim.sim_cpu_protocol", proto);
        m.insert("netsim.sim_cpu_copy", copy);
        let accesses = c.cache_hits + c.cache_misses;
        m.insert("memsim.cache_accesses", accesses as f64);
        m.insert(
            "memsim.cache_miss_ratio",
            c.cache_misses as f64 / accesses.max(1) as f64,
        );
        m.insert("memsim.dma_requests", c.dma_requests as f64);
        m.insert("memsim.dma_bytes", c.dma_bytes as f64);
        m.insert("memsim.dma_cpu_fallbacks", c.dma_fallbacks as f64);
        m.insert(
            "datacenter.tiers_call_s",
            rec.total_secs("traced/fig8a/") + rec.total_secs("traced/fig9/"),
        );
        m.insert("pvfs.read_call_s", rec.total_secs("traced/fig10a/"));
        m.insert("pvfs.write_call_s", rec.total_secs("traced/fig11a/"));
        m.insert(
            "core.microbench_call_s",
            ["traced/fig3a/", "traced/fig3b/", "traced/fig7/"]
                .iter()
                .map(|p| rec.total_secs(p))
                .sum(),
        );
    } else {
        // Fabric workloads: the counters `run_partitioned` returns.
        let outs: Vec<_> = untraced.outputs.values().map(Output::scale).collect();
        let sum = |f: &dyn Fn(&ioat_datacenter::ScaleResult) -> u64| {
            outs.iter().map(|(r, _)| f(r)).sum::<u64>()
        };
        let events = sum(&|r| r.sim_events);
        let completed = sum(&|r| r.completed);
        let hedges = sum(&|r| r.hedges);
        m.insert("simcore.events", events as f64);
        m.insert(
            "simcore.host_ns_per_event",
            wall_s * 1e9 / events.max(1) as f64,
        );
        m.insert("fabric.build_s", build_s);
        m.insert("fabric.tail_drops", sum(&|r| r.tail_drops) as f64);
        m.insert(
            "fabric.route_blackholes",
            sum(&|r| r.route_blackholes) as f64,
        );
        m.insert("datacenter.completed", completed as f64);
        m.insert(
            "datacenter.events_per_request",
            events as f64 / completed.max(1) as f64,
        );
        m.insert("datacenter.hedges", hedges as f64);
        m.insert(
            "datacenter.hedge_ratio",
            hedges as f64 / completed.max(1) as f64,
        );
        m.insert("datacenter.shed", sum(&|r| r.shed) as f64);
        let rounds: u64 = outs.iter().map(|(_, p)| p.rounds).sum();
        m.insert("parsim.rounds", rounds as f64);
        m.insert(
            "parsim.mean_window_ns",
            outs.iter().map(|(_, p)| p.mean_window_ns()).sum::<f64>() / outs.len() as f64,
        );
        m.insert(
            "parsim.cross_msgs",
            outs.iter()
                .map(|(_, p)| p.emitted.iter().sum::<u64>())
                .sum::<u64>() as f64,
        );
        let parts = outs[0].1.events.len();
        let per_part: Vec<u64> = (0..parts)
            .map(|i| outs.iter().map(|(_, p)| p.events[i]).sum())
            .collect();
        m.insert(
            "parsim.max_partition_share",
            *per_part.iter().max().unwrap_or(&0) as f64
                / per_part.iter().sum::<u64>().max(1) as f64,
        );

        // `fabric-dc` again at `nproc` threads: outputs must be
        // bit-identical, and the wall-clock ratio is the speedup.
        if w == Workload::FabricDc && nproc > 1 {
            let par_ops: Vec<Op> = ops
                .iter()
                .map(|op| match op.call {
                    Call::Scale { cfg, .. } => Op {
                        id: op.id.clone(),
                        call: Call::Scale {
                            cfg,
                            threads: nproc,
                        },
                    },
                    _ => unreachable!("fabric-dc runs only scale calls"),
                })
                .collect();
            let label = format!("threads{nproc}");
            let par = run_pass(
                &label,
                &par_ops,
                Mode::Traced(rec),
                expected,
                args.seed,
                gate,
            );
            cross_check(gate, &label, untraced, &par);
            m.insert("parsim.speedup", untraced.wall / par.wall);
        }
    }

    // Layer probes (fixtures independent of the workload, except the
    // queue depth).
    let mut probe = |metric: &'static str, (id, ns): (String, f64)| {
        println!("  probe {id}: {ns:.2} ns");
        m.insert(metric, ns);
    };
    probe(
        "simcore.queue_ns_per_op",
        rec.span("simcore", "probe/queue", || {
            probes::queue_ns_per_op(queue_depth, 200_000)
        }),
    );
    probe(
        "memsim.cache_ns_per_line",
        rec.span("memsim", "probe/cache", probes::cache_ns_per_line),
    );
    probe(
        "memsim.copy_ns_per_kb",
        rec.span("memsim", "probe/copy", probes::copy_ns_per_kb),
    );
    probe(
        "fabric.route_ns",
        rec.span("fabric", "probe/route", probes::route_ns),
    );
    probe(
        "fabric.hop_ns",
        rec.span("fabric", "probe/hop", || probes::hop_ns(false)),
    );
    probe(
        "fabric.route_ns_faulted",
        rec.span("fabric", "probe/hop_f8c2", || probes::hop_ns(true)),
    );

    m.insert("guard.violations", audited.violations as f64);
    m.insert("guard.audit_overhead", audited.wall / traced.wall);
    m.insert("telemetry.trace_overhead", traced.wall / wall_s);

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(w.name(), args.seed)))
    {
        Ok(()) => println!("wrote {} ({} spans)", path.display(), rec.len()),
        Err(e) => gate.check(
            "spans",
            Err(format!("cannot write {}: {e}", path.display())),
        ),
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Every per-layer metric, in `BENCHMARK.json` order. A metric of a
/// layer a workload does not exercise, or does not expose, reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("simcore.events", "count"),
    ("simcore.cancelled_ratio", "ratio"),
    ("simcore.host_ns_per_event", "ns"),
    ("simcore.queue_ns_per_op", "ns"),
    ("netsim.frames", "count"),
    ("netsim.interrupts", "count"),
    ("netsim.acks", "count"),
    ("netsim.stalled_frames", "count"),
    ("netsim.host_ns_per_frame", "ns"),
    ("netsim.sim_cpu_interrupt", "ratio"),
    ("netsim.sim_cpu_protocol", "ratio"),
    ("netsim.sim_cpu_copy", "ratio"),
    ("memsim.cache_accesses", "count"),
    ("memsim.cache_miss_ratio", "ratio"),
    ("memsim.dma_requests", "count"),
    ("memsim.dma_bytes", "bytes"),
    ("memsim.dma_cpu_fallbacks", "count"),
    ("memsim.cache_ns_per_line", "ns"),
    ("memsim.copy_ns_per_kb", "ns"),
    ("fabric.build_s", "s"),
    ("fabric.route_ns", "ns"),
    ("fabric.hop_ns", "ns"),
    ("fabric.route_ns_faulted", "ns"),
    ("fabric.tail_drops", "count"),
    ("fabric.route_blackholes", "count"),
    ("parsim.rounds", "count"),
    ("parsim.mean_window_ns", "ns"),
    ("parsim.cross_msgs", "count"),
    ("parsim.max_partition_share", "ratio"),
    ("parsim.speedup", "x"),
    ("datacenter.completed", "count"),
    ("datacenter.events_per_request", "count"),
    ("datacenter.hedges", "count"),
    ("datacenter.hedge_ratio", "ratio"),
    ("datacenter.shed", "count"),
    ("datacenter.tiers_call_s", "s"),
    ("pvfs.read_call_s", "s"),
    ("pvfs.write_call_s", "s"),
    ("core.microbench_call_s", "s"),
    ("guard.audit_overhead", "ratio"),
    ("guard.violations", "count"),
    ("telemetry.trace_overhead", "ratio"),
];
