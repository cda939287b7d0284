//! Workload generators: single-file traces and Zipf-distributed catalogs.
//!
//! §5.1 of the paper classifies data-center workloads into single-file
//! micro workloads (one file, 2 K–10 K — "the average file size for most
//! of the documents in the Internet") and Zipf-like workloads, where the
//! relative probability of a request for the *i*-th most popular document
//! is proportional to `1/i^α` [Breslau et al.].

use ioat_simcore::SimRng;
use std::sync::Arc;

/// One client request: which document, and how many bytes the response
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Document identifier (an index into the catalog).
    pub file_id: u32,
    /// Response size in bytes.
    pub size: u64,
}

/// A catalog of documents with sizes.
#[derive(Debug, Clone)]
pub struct FileCatalog {
    sizes: Vec<u64>,
}

impl FileCatalog {
    /// A catalog of `n` documents with sizes drawn from a heavy-tailed
    /// web-content distribution: most documents are small (around
    /// `median` bytes), a few are much larger (Pareto tail, capped at
    /// 50× the median so a single document cannot dominate a run).
    pub fn web_content(n: usize, median: u64, rng: &mut SimRng) -> Self {
        assert!(n > 0 && median > 0);
        let sizes = (0..n)
            .map(|_| {
                // Pareto with shape 1.3 via inverse CDF.
                let u = 1.0 - rng.uniform();
                let factor = u.powf(-1.0 / 1.3);
                ((median as f64 * factor) as u64).min(median * 50).max(256)
            })
            .collect();
        FileCatalog { sizes }
    }

    /// A catalog where every document has the same size.
    pub fn uniform(n: usize, size: u64) -> Self {
        assert!(n > 0 && size > 0);
        FileCatalog {
            sizes: vec![size; n],
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when the catalog is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size of document `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn size_of(&self, id: u32) -> u64 {
        self.sizes[id as usize]
    }

    /// Total bytes across the catalog.
    pub fn total_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }
}

/// A source of requests.
pub trait Trace {
    /// Draws the next request.
    fn next_request(&mut self) -> Request;
}

/// The paper's single-file micro workload: every request fetches the same
/// document.
#[derive(Debug, Clone)]
pub struct SingleFileTrace {
    size: u64,
}

impl SingleFileTrace {
    /// A trace requesting one document of `size` bytes.
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "document must have a size");
        SingleFileTrace { size }
    }
}

impl Trace for SingleFileTrace {
    fn next_request(&mut self) -> Request {
        Request {
            file_id: 0,
            size: self.size,
        }
    }
}

/// Zipf(α) sampler over a catalog: `P(rank i) ∝ 1/i^α`.
///
/// Uses a precomputed CDF and binary search, so sampling is O(log n).
/// The catalog and CDF live behind `Arc`s so per-thread samplers (see
/// [`ZipfTrace::fork`]) share one table instead of each paying the
/// O(n·powf) construction — with hundreds of closed-loop client threads
/// the rebuild used to dominate whole-figure wall time. The `Arc`s make
/// the trace `Send`, so one table also serves every partition of a
/// parallel fabric run; sampling never touches the reference counts.
#[derive(Debug, Clone)]
pub struct ZipfTrace {
    catalog: Arc<FileCatalog>,
    cdf: Arc<[f64]>,
    rng: SimRng,
    alpha: f64,
}

impl ZipfTrace {
    /// Builds a sampler over `catalog` with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or the catalog is empty — an empty
    /// catalog would make every CDF entry `0/0 = NaN` and `next_request`
    /// underflow on `len() - 1`.
    pub fn new(catalog: FileCatalog, alpha: f64, rng: SimRng) -> Self {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        assert!(
            !catalog.is_empty(),
            "Zipf trace over an empty catalog — no documents to sample"
        );
        let n = catalog.len();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTrace {
            catalog: Arc::new(catalog),
            cdf: cdf.into(),
            rng,
            alpha,
        }
    }

    /// A sampler sharing this one's catalog and CDF tables but drawing
    /// from its own `rng` stream. Draw order is identical to building a
    /// fresh `ZipfTrace` with the same inputs — the CDF is a pure
    /// function of `(catalog.len(), alpha)` — it just skips the rebuild.
    pub fn fork(&self, rng: SimRng) -> Self {
        ZipfTrace {
            catalog: Arc::clone(&self.catalog),
            cdf: Arc::clone(&self.cdf),
            rng,
            alpha: self.alpha,
        }
    }

    /// The Zipf exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &FileCatalog {
        &self.catalog
    }
}

impl Trace for ZipfTrace {
    fn next_request(&mut self) -> Request {
        let u = self.rng.uniform();
        let idx = self.cdf.partition_point(|&c| c < u);
        let file_id = idx.min(self.catalog.len() - 1) as u32;
        Request {
            file_id,
            size: self.catalog.size_of(file_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "empty catalog")]
    fn zipf_trace_over_empty_catalog_is_rejected() {
        // The public constructors already refuse n = 0, so build the
        // empty catalog directly: this guards the trace against any
        // future catalog source that slips one through.
        let catalog = FileCatalog { sizes: Vec::new() };
        let _ = ZipfTrace::new(catalog, 0.9, SimRng::seed_from(1));
    }

    #[test]
    fn single_file_always_returns_same_request() {
        let mut t = SingleFileTrace::new(4096);
        for _ in 0..10 {
            let r = t.next_request();
            assert_eq!(
                r,
                Request {
                    file_id: 0,
                    size: 4096
                }
            );
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let catalog = FileCatalog::uniform(1000, 8192);
        let mut t = ZipfTrace::new(catalog, 0.95, SimRng::seed_from(7));
        let mut top10 = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if t.next_request().file_id < 10 {
                top10 += 1;
            }
        }
        let frac = top10 as f64 / n as f64;
        // With α=0.95 over 1000 docs, the top-10 get ≈ 35 % of requests.
        assert!((0.28..0.55).contains(&frac), "top-10 fraction {frac}");
    }

    #[test]
    fn lower_alpha_means_less_locality() {
        let hits = |alpha: f64| {
            let catalog = FileCatalog::uniform(1000, 8192);
            let mut t = ZipfTrace::new(catalog, alpha, SimRng::seed_from(7));
            (0..20_000)
                .filter(|_| t.next_request().file_id < 10)
                .count()
        };
        assert!(hits(0.95) > hits(0.5), "α=0.95 must concentrate more");
    }

    #[test]
    fn zipf_covers_the_whole_catalog_eventually() {
        let catalog = FileCatalog::uniform(50, 1024);
        let mut t = ZipfTrace::new(catalog, 0.5, SimRng::seed_from(3));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            seen.insert(t.next_request().file_id);
        }
        assert!(seen.len() > 45, "only {} of 50 docs seen", seen.len());
    }

    #[test]
    fn web_content_catalog_is_heavy_tailed() {
        let mut rng = SimRng::seed_from(11);
        let c = FileCatalog::web_content(5000, 8 * 1024, &mut rng);
        let mean = c.total_bytes() as f64 / c.len() as f64;
        // Pareto(1.3) mean is well above the median.
        assert!(mean > 10_000.0, "mean {mean}");
        let max = (0..c.len() as u32).map(|i| c.size_of(i)).max().unwrap();
        assert!(max <= 8 * 1024 * 50, "cap respected");
        let min = (0..c.len() as u32).map(|i| c.size_of(i)).min().unwrap();
        assert!(min >= 256);
    }
}
