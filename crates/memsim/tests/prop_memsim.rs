//! Property tests for memory-model invariants.
//!
//! Each property runs on [`CASES`] generated inputs from the shared
//! seeded driver ([`check::check`]).

#[path = "../../simcore/tests/support/check.rs"]
mod check;

use check::check;
use ioat_memsim::{
    AddressAllocator, Buffer, Cache, CacheConfig, CopyParams, CpuCopier, DmaConfig, DmaEngine,
    DmaRequest, PAGE_SIZE,
};
use ioat_simcore::{Sim, SimRng};

/// Cases per property.
const CASES: u64 = 256;

/// `n` draws of `draw`, with `n` uniform in `lo..hi`.
fn vec_of<T>(rng: &mut SimRng, lo: u64, hi: u64, draw: impl Fn(&mut SimRng) -> T) -> Vec<T> {
    let n = rng.range(lo, hi);
    (0..n).map(|_| draw(rng)).collect()
}

/// Page chunks always tile the buffer exactly and never straddle a
/// page boundary.
#[test]
fn page_chunks_tile_exactly() {
    check("page_chunks_tile_exactly", CASES, |rng| {
        let (addr, len) = (rng.range(0, 1_000_000), rng.range(0, 100_000));
        let b = Buffer::new(addr, len);
        let chunks: Vec<Buffer> = b.page_chunks().collect();
        let total: u64 = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, len);
        let mut cursor = addr;
        for c in &chunks {
            assert_eq!(c.addr(), cursor, "chunks must be contiguous");
            cursor += c.len();
            let first = c.addr() / PAGE_SIZE;
            let last = (c.addr() + c.len() - 1) / PAGE_SIZE;
            assert_eq!(first, last, "chunk straddles a page");
        }
        if len > 0 {
            assert_eq!(chunks.len() as u64, b.pages());
        }
    });
}

/// Cache residency never exceeds capacity, and a re-access of a
/// just-touched small range always hits.
#[test]
fn cache_capacity_invariant() {
    check("cache_capacity_invariant", CASES, |rng| {
        let accesses = vec_of(rng, 1, 60, |rng| {
            (rng.range(0, 1 << 22), rng.range(1, 8192))
        });
        let cfg = CacheConfig {
            capacity: 64 * 1024,
            associativity: 4,
            line_size: 64,
        };
        let mut cache = Cache::new(cfg);
        for &(addr, len) in &accesses {
            cache.access_range(Buffer::new(addr, len));
            assert!(cache.resident_bytes() <= cfg.capacity);
        }
        // Hits + misses == total line touches.
        let s = cache.stats();
        let touches: u64 = accesses
            .iter()
            .map(|&(addr, len)| {
                let first = addr / 64;
                let last = (addr + len - 1) / 64;
                last - first + 1
            })
            .sum();
        assert_eq!(s.hits + s.misses, touches);
    });
}

/// A range smaller than one cache way re-accessed immediately is fully
/// resident.
#[test]
fn immediate_reaccess_hits() {
    check("immediate_reaccess_hits", CASES, |rng| {
        let addr = rng.range(0, 1 << 20);
        let cfg = CacheConfig::paper_l2();
        let mut cache = Cache::new(cfg);
        let buf = Buffer::new(addr, 4096);
        cache.access_range(buf);
        let out = cache.access_range(buf);
        assert_eq!(out.miss_lines, 0);
    });
}

/// Copy cost is monotone in size for fixed residency, and cold ≥ warm.
#[test]
fn copy_cost_monotone() {
    check("copy_cost_monotone", CASES, |rng| {
        let bytes = rng.range(64, 1_000_000);
        let c = CpuCopier::new(CopyParams::default());
        let cold = c.cold_cost(bytes, 64);
        let warm = c.warm_cost(bytes, 64);
        assert!(cold >= warm);
        assert!(c.cold_cost(bytes + 64, 64) >= cold);
        assert!(c.warm_cost(bytes + 64, 64) >= warm);
    });
}

/// DMA accounting: issuing N copies serializes them; the channel's
/// total busy time equals the sum of the individual transfer times.
#[test]
fn dma_channel_busy_time_is_additive() {
    check("dma_channel_busy_time_is_additive", CASES, |rng| {
        let lens = vec_of(rng, 1, 20, |rng| rng.range(1, 200_000));
        let mut sim = Sim::new();
        let engine = DmaEngine::new_ref(DmaConfig::default(), None);
        let mut alloc = AddressAllocator::new();
        let mut expected = ioat_simcore::SimDuration::ZERO;
        for &len in &lens {
            let r = DmaRequest::new(alloc.alloc(len), alloc.alloc(len));
            expected += engine.borrow().transfer_time(&r);
            DmaEngine::issue(&engine, &mut sim, r, |_| {});
        }
        let end = sim.run();
        assert_eq!(end.as_nanos(), expected.as_nanos());
        let eng = engine.borrow();
        let chan = eng.channel().borrow();
        assert_eq!(chan.meter().total_busy().as_nanos(), expected.as_nanos());
        assert_eq!(eng.stats().bytes, lens.iter().sum::<u64>());
    });
}

/// Overlap fraction is always in [0, 1) for non-empty requests.
#[test]
fn overlap_fraction_bounded() {
    check("overlap_fraction_bounded", CASES, |rng| {
        let len = rng.range(1, 10_000_000);
        let engine = DmaEngine::new_ref(DmaConfig::default(), None);
        let mut alloc = AddressAllocator::new();
        let r = DmaRequest::new(alloc.alloc(len), alloc.alloc(len));
        let o = engine.borrow().overlap_fraction(&r);
        assert!((0.0..1.0).contains(&o), "overlap = {}", o);
    });
}
