//! Small probes of each layer's hot public function. Fixtures are
//! deterministic (fixed seeds, sizes in the ID); results are host
//! nanoseconds per operation, the median of a few repetitions.

use ioat_datacenter::scale::FabricFaultSpec;
use ioat_fabric::{Fabric, FabricParams, TopologySpec};
use ioat_memsim::{AddressAllocator, Cache, CacheConfig, CopyParams, CpuCopier};
use ioat_netsim::{ConnId, Frame, FrameRouter};
use ioat_simcore::{Sim, SimDuration, SimTime};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

const REPS: usize = 3;

/// xorshift64*: tiny, seedable, no host entropy.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Median of `REPS` runs of `f`, each returning `(host seconds, ops)`,
/// in nanoseconds per op.
fn median_ns_per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (secs, ops) = f();
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed().as_secs_f64(), out)
}

/// Each event reschedules itself 1..=1000 ns ahead, so the queue holds
/// `depth` live events throughout (the classic hold model).
fn hold(sim: &mut Sim, rng: Rc<Cell<u64>>) {
    let mut x = XorShift(rng.get());
    let d = 1 + x.next_u64() % 1000;
    rng.set(x.0);
    sim.schedule(SimDuration::from_nanos(d), move |sim| hold(sim, rng));
}

/// `simcore.queue/hold_d{depth}_{events}`: `Sim::schedule` + the pop
/// inside `Sim::run_until`, per fired event, at a fixed pending depth.
pub fn queue_ns_per_op(depth: usize, events: u64) -> (String, f64) {
    let id = format!("simcore.queue/hold_d{depth}_{}k", events / 1000);
    let ns = median_ns_per_op(|| {
        let mut sim = Sim::new();
        let rng = Rc::new(Cell::new(0x5EED_CAFE));
        for _ in 0..depth {
            hold(&mut sim, Rc::clone(&rng));
        }
        // Mean delay 500 ns: `events` fire by this horizon.
        let horizon = SimTime::from_nanos(events * 500 / depth as u64);
        let (secs, _) = timed(|| sim.run_until(horizon));
        (secs, sim.events_executed())
    });
    (id, ns)
}

/// `memsim.cache/access_range_paper_l2_4m`: a 4 MB buffer streamed
/// through the paper's L2 (twice its size, so lines miss and evict).
pub fn cache_ns_per_line() -> (String, f64) {
    let ns = median_ns_per_op(|| {
        let mut cache = Cache::new(CacheConfig::paper_l2());
        let buf = AddressAllocator::new().alloc(4 << 20);
        let (secs, lines) = timed(|| (0..8).map(|_| cache.access_range(buf).lines()).sum::<u64>());
        (secs, lines)
    });
    ("memsim.cache/access_range_paper_l2_4m".into(), ns)
}

/// `memsim.copy/cpu_copy_64k_x256`: `CpuCopier::copy` of 64 KB buffers
/// through the paper's L2, per KB copied.
pub fn copy_ns_per_kb() -> (String, f64) {
    let ns = median_ns_per_op(|| {
        let mut cache = Cache::new(CacheConfig::paper_l2());
        let copier = CpuCopier::new(CopyParams::default());
        let mut alloc = AddressAllocator::new();
        let bufs: Vec<_> = (0..64).map(|_| alloc.alloc(64 * 1024)).collect();
        let (secs, _) = timed(|| {
            (0..256)
                .map(|i| {
                    copier
                        .copy(&mut cache, bufs[i % 64], bufs[(i * 7 + 1) % 64])
                        .lines()
                })
                .sum::<u64>()
        });
        (secs, 256 * 64)
    });
    ("memsim.copy/cpu_copy_64k_x256".into(), ns)
}

fn ft16() -> TopologySpec {
    TopologySpec::FatTree { k: 16 }
}

fn ft16_params() -> FabricParams {
    FabricParams {
        seed: 0xFA8,
        ..FabricParams::gige()
    }
}

/// `fabric.route/route_port_ft16_1m`: the fault-free ECMP pick over a
/// fixed 1M-flow sample on fat-tree(16).
pub fn route_ns() -> (String, f64) {
    let fabric = Fabric::new(ft16(), ft16_params());
    let hosts = fabric.topology().hosts() as u64;
    let ns = median_ns_per_op(|| {
        let mut rng = XorShift(0xF10E);
        let (secs, _) = timed(|| {
            let mut acc = 0usize;
            for _ in 0..1_000_000u64 {
                let r = rng.next_u64();
                let src = (r % hosts) as usize;
                let dst = ((r >> 20) % hosts) as usize;
                let sw = fabric.topology().host_edge(src);
                acc = acc.wrapping_add(fabric.route_port(sw, src, dst, ConnId(r >> 40)));
            }
            acc
        });
        (secs, 1_000_000)
    });
    ("fabric.route/route_port_ft16_1m".into(), ns)
}

/// `fabric.hop/ft16_64flows_30ms[_f8c2]`: frames forwarded hop by hop
/// through a fat-tree(16) the way the fabric partition of a parallel
/// run drives it (`open_remote`, `frame_ingress`, remote delivery), per
/// forwarding decision. With `faulted`, the `abl.fabfault/f8c2` plan is
/// installed via `set_faults`, so every hop takes the fault-aware ECMP
/// re-hash over surviving ports.
pub fn hop_ns(faulted: bool) -> (String, f64) {
    let window = ioat_core::ExperimentWindow::quick();
    let ns = median_ns_per_op(|| {
        let fabric = Fabric::new(ft16(), ft16_params());
        if faulted {
            let spec = FabricFaultSpec {
                flaps_per_link: 8,
                crashed_switches: 2,
                ..FabricFaultSpec::none()
            };
            fabric.set_faults(&spec.plan(fabric.topology(), &window));
        }
        let hosts = fabric.topology().hosts();
        let flows = 64;
        for f in 0..flows {
            fabric.open_remote(f * 4 % hosts, (f * 4 + 517) % hosts, ConnId(1 + f as u64));
        }
        fabric.set_remote_delivery(|_sim, _host, _frame, _arrive| {});
        let mut sim = Sim::new();
        let gap = 20_000u64;
        let frames = window.to().as_nanos() / gap;
        for f in 0..flows {
            for i in 0..frames {
                let fab = Rc::clone(&fabric);
                let frame = Frame {
                    conn: ConnId(1 + f as u64),
                    payload: 1448,
                    seq_end: 1448 * (i + 1),
                };
                let at = SimTime::from_nanos(i * gap + (f as u64 * 37) % gap);
                sim.schedule_at(at, move |sim| fab.frame_ingress(sim, f * 4 % hosts, frame));
            }
        }
        let (secs, _) = timed(|| sim.run());
        let hops = fabric.forwarded() + fabric.tail_drops() + fabric.blackholes();
        (secs, hops)
    });
    let id = if faulted {
        "fabric.hop/ft16_64flows_30ms_f8c2"
    } else {
        "fabric.hop/ft16_64flows_30ms"
    };
    (id.into(), ns)
}
