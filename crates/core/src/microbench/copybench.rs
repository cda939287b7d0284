//! Fig. 6 — CPU-based copy vs DMA-based copy.
//!
//! Replays the paper's §4.4 standalone experiment: for message sizes
//! 1 KB – 64 KB, compare
//!
//! * `copy-cache` — CPU `memcpy`, source and destination resident,
//! * `copy-nocache` — CPU `memcpy`, both cold,
//! * `DMA-copy` — total engine copy cost (startup + pinning + transfer +
//!   completion),
//! * `DMA-overhead` — the synchronous part only,
//! * `Overlap` — the fraction of `DMA-copy` the CPU can spend elsewhere.
//!
//! This path uses the *user-level* engine costs ([`DmaConfig::default`]),
//! which include channel acquisition and full source+destination page
//! pinning — the usage the paper's Fig. 6 micro-benchmark exercises.

use ioat_memsim::{AddressAllocator, CpuCopier, DmaConfig, DmaEngine, DmaRequest};
use ioat_netsim::StackParams;

/// One row of the Fig. 6 table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyRow {
    /// Copied bytes.
    pub size: u64,
    /// CPU copy with both buffers resident, in µs.
    pub copy_cache_us: f64,
    /// CPU copy with both buffers cold, in µs.
    pub copy_nocache_us: f64,
    /// Total DMA-engine copy cost, in µs.
    pub dma_copy_us: f64,
    /// Synchronous (non-overlappable) DMA cost, in µs.
    pub dma_overhead_us: f64,
    /// Fraction of the DMA copy overlappable with computation, `[0, 1)`.
    pub overlap: f64,
}

/// The paper's swept sizes: 1 K – 64 K.
pub fn paper_sizes() -> Vec<u64> {
    (0..=6).map(|i| 1024u64 << i).collect()
}

/// Computes the comparison for one size.
pub fn row(size: u64) -> CopyRow {
    let params = StackParams::default();
    let copier = CpuCopier::new(params.copy);
    let engine = DmaEngine::new(DmaConfig::default(), None);
    let line = 64;

    let mut alloc = AddressAllocator::new();
    let req = DmaRequest::new(alloc.alloc(size), alloc.alloc(size));

    let total = engine.total_cost(&req);
    let overhead = engine.cpu_overhead(&req) + engine.config().completion;
    CopyRow {
        size,
        copy_cache_us: copier.warm_cost(size, line).as_micros_f64(),
        copy_nocache_us: copier.cold_cost(size, line).as_micros_f64(),
        dma_copy_us: total.as_micros_f64(),
        dma_overhead_us: overhead.as_micros_f64(),
        overlap: engine.overlap_fraction(&req),
    }
}

/// The full Fig. 6 table.
pub fn table() -> Vec<CopyRow> {
    paper_sizes().into_iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_paper_sizes() {
        let t = table();
        assert_eq!(t.len(), 7);
        assert_eq!(t[0].size, 1024);
        assert_eq!(t[6].size, 64 * 1024);
    }

    #[test]
    fn fig6_dma_beats_cold_copy_above_8k() {
        for r in table() {
            if r.size > 8 * 1024 {
                assert!(
                    r.dma_copy_us < r.copy_nocache_us,
                    "at {} DMA {:.1}us should beat cold copy {:.1}us",
                    r.size,
                    r.dma_copy_us,
                    r.copy_nocache_us
                );
            }
            if r.size < 4 * 1024 {
                assert!(
                    r.dma_copy_us > r.copy_nocache_us,
                    "at {} the CPU should win",
                    r.size
                );
            }
        }
    }

    #[test]
    fn fig6_overlap_reaches_93_percent_at_64k() {
        let r = row(64 * 1024);
        assert!(
            (0.88..0.97).contains(&r.overlap),
            "overlap at 64K = {:.3}",
            r.overlap
        );
        // Overlap grows monotonically with size.
        let t = table();
        for w in t.windows(2) {
            assert!(w[1].overlap >= w[0].overlap);
        }
    }

    #[test]
    fn fig6_cached_copy_beats_dma_but_not_its_overhead() {
        // §4.4: with hot caches the CPU copy wins outright, yet the DMA
        // *startup* alone is cheaper than the cached copy for larger
        // sizes — so offloading still pays when overlap is possible.
        let r = row(64 * 1024);
        assert!(r.copy_cache_us < r.dma_copy_us);
        assert!(r.dma_overhead_us < r.copy_cache_us);
    }
}
