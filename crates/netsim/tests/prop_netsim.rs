//! Property tests for network-stack invariants.
//!
//! Each property runs on [`CASES`] generated inputs from the shared
//! seeded driver ([`check::check`]). Every case simulates whole
//! transfers, so the count is kept small.

#[path = "../../simcore/tests/support/check.rs"]
mod check;

use check::check;
use ioat_netsim::config::{IoatConfig, SocketOpts, StackParams};
use ioat_netsim::socket::socket_pair;
use ioat_netsim::stack::HostStack;
use ioat_netsim::tcp::segment_sizes;
use ioat_netsim::{ConnId, SocketEvent};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration, SimRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Cases per property.
const CASES: u64 = 24;

/// One of `choices`, uniformly.
fn pick(rng: &mut SimRng, choices: &[u64]) -> u64 {
    choices[rng.range(0, choices.len() as u64) as usize]
}

/// A random socket-option combination over the values the paper's
/// experiments use.
fn opts(rng: &mut SimRng) -> SocketOpts {
    let buf = pick(rng, &[64 * 1024, 256 * 1024, 1024 * 1024]);
    SocketOpts {
        sndbuf: buf,
        rcvbuf: buf,
        tso: rng.chance(0.5),
        mtu: pick(rng, &[1500, 2048]),
        coalescing: rng.chance(0.5),
        sendfile: rng.chance(0.5),
        read_size: pick(rng, &[8 * 1024, 16 * 1024, 64 * 1024]),
    }
}

/// Conservation: every byte sent is delivered exactly once, under any
/// socket-option combination and any feature set.
#[test]
fn bytes_are_conserved() {
    check("bytes_are_conserved", CASES, |rng| {
        let opts = opts(rng);
        let total = rng.range(1_000, 2_000_000);
        let (dma, split) = (rng.chance(0.5), rng.chance(0.5));
        let ioat = IoatConfig {
            dma_engine: dma,
            split_header: split,
            ..IoatConfig::default()
        };
        let mut sim = Sim::new();
        sim.set_event_limit(80_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), ioat);
        let b = HostStack::new("b", 4, StackParams::default(), ioat);
        let (sa, sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            opts,
            ConnId(1),
        );
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        sb.set_handler(move |_s, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        sa.send(&mut sim, total);
        sim.run();
        assert_eq!(*got.borrow(), total);
        assert_eq!(b.borrow().rx_meter().total_bytes(), total);
        assert_eq!(a.borrow().tx_meter().total_bytes(), total);
    });
}

/// Flow control: frames processed by the receiver never exceed what
/// the advertised window could have allowed, and stats are coherent.
#[test]
fn receiver_stats_are_coherent() {
    check("receiver_stats_are_coherent", CASES, |rng| {
        let total = rng.range(10_000, 500_000);
        let opts = opts(rng);
        let mut sim = Sim::new();
        sim.set_event_limit(80_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 4, StackParams::default(), IoatConfig::disabled());
        let (sa, _sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            opts,
            ConnId(1),
        );
        sa.send(&mut sim, total);
        sim.run();
        let st = b.borrow().stats();
        // Frame count bounds: every frame carries at least one byte and
        // at most one MSS.
        assert!(st.frames_processed >= total.div_ceil(opts.mss()));
        assert!(st.frames_processed <= total);
        // Interrupts never exceed frames; deliveries never exceed frames.
        assert!(st.interrupts <= st.frames_processed);
        assert!(st.deliveries >= 1);
        assert!(st.deliveries <= st.frames_processed);
    });
}

/// Segmentation covers every byte with MSS-bounded pieces.
#[test]
fn segmentation_is_exact() {
    check("segmentation_is_exact", CASES, |rng| {
        let (bytes, mss) = (rng.range(0, 10_000_000), rng.range(1, 10_000));
        let segs = segment_sizes(bytes, mss);
        assert_eq!(segs.iter().sum::<u64>(), bytes);
        assert!(segs.iter().all(|&s| s > 0 && s <= mss));
        if bytes > 0 {
            assert_eq!(segs.len() as u64, bytes.div_ceil(mss));
        }
    });
}

/// Determinism under arbitrary configurations: identical runs give
/// bit-identical utilization and byte counts.
#[test]
fn runs_are_reproducible() {
    check("runs_are_reproducible", CASES, |rng| {
        let opts = opts(rng);
        let total = rng.range(1_000, 300_000);
        let run = || {
            let mut sim = Sim::new();
            let a = HostStack::new("a", 4, StackParams::default(), IoatConfig::full());
            let b = HostStack::new("b", 4, StackParams::default(), IoatConfig::full());
            let (sa, _sb) = socket_pair(
                &a,
                &b,
                Bandwidth::from_gbps(1),
                SimDuration::from_micros(15),
                opts,
                ConnId(1),
            );
            sa.send(&mut sim, total);
            let end = sim.run();
            let util = b.borrow().cpu_utilization(ioat_simcore::SimTime::ZERO, end);
            let bytes = b.borrow().rx_meter().total_bytes();
            (end, util.to_bits(), bytes)
        };
        assert_eq!(run(), run());
    });
}
