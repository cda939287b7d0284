//! A set-associative, LRU, write-allocate cache simulator.
//!
//! Models the testbed's 2 MB L2 (the paper's nodes have a 2 MB L2 shared
//! per socket). The simulator tracks *which lines are resident*, not their
//! contents; the copy and stack models query it to decide whether an access
//! pays the cached or the memory-latency cost.
//!
//! Two behaviours matter for the reproduction:
//!
//! * **Pollution** (Fig. 7b): streaming payload data through the cache
//!   evicts hot state (connection structs, header rings). The split-header
//!   feature avoids inserting payload lines at all.
//! * **Coherence invalidation** (§2.2.2): the DMA engine writes memory
//!   directly, so destination lines must be invalidated — a subsequent CPU
//!   read of DMA-written data misses.

use crate::address::{Buffer, PAGE_SIZE};

/// Geometry of a simulated cache.
///
/// The set count (`capacity / (associativity × line_size)`) must be a
/// power of two. A line number's low `set_bits = log2(sets)` bits are then
/// its set, and the cache stores only the remaining bits, as a 32-bit
/// set-relative tag. That bounds the simulated address space a cache can
/// index to 2^(32 + set_bits + line_bits) bytes, `line_bits =
/// log2(line_size)`: 2^50 for the paper L2, 2^53 for the 32 MB / 16-way
/// modern LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes (power of two).
    pub line_size: u64,
}

impl CacheConfig {
    /// The paper testbed's L2: 2 MB, 8-way, 64-byte lines.
    pub fn paper_l2() -> Self {
        CacheConfig {
            capacity: 2 * 1024 * 1024,
            associativity: 8,
            line_size: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.associativity as u64 * self.line_size)
    }

    fn validate(&self) {
        assert!(self.line_size.is_power_of_two(), "line size must be 2^k");
        assert!(self.associativity > 0, "associativity must be positive");
        assert!(
            self.capacity
                .is_multiple_of(self.associativity as u64 * self.line_size),
            "capacity must be a whole number of sets"
        );
        assert!(self.sets() > 0, "cache must have at least one set");
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two, got {}",
            self.sets()
        );
    }
}

/// Whether an access hit or missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Line was resident.
    Hit,
    /// Line was not resident (and was inserted, unless bypassed).
    Miss,
}

/// Running hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of line accesses that hit.
    pub hits: u64,
    /// Number of line accesses that missed.
    pub misses: u64,
    /// Number of lines evicted to make room.
    pub evictions: u64,
    /// Number of lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit fraction over all accesses (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Hit/miss counts for a multi-line range access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeOutcome {
    /// Lines that hit.
    pub hit_lines: u64,
    /// Lines that missed.
    pub miss_lines: u64,
}

impl RangeOutcome {
    /// Total lines touched.
    pub fn lines(&self) -> u64 {
        self.hit_lines + self.miss_lines
    }
}

/// The cache proper.
///
/// Tag storage is allocated one simulated page of set-index space at a
/// time, on the first insert into it: a host pays for the part of its L2
/// it has touched (2 KiB per 64-set chunk for the paper L2, at most
/// 128 KiB), plus one occupancy byte per set. Residency queries and
/// invalidations never allocate.
///
/// ```rust
/// use ioat_memsim::{AccessOutcome, Cache, CacheConfig};
/// let mut cache = Cache::new(CacheConfig { capacity: 4096, associativity: 2, line_size: 64 });
/// assert_eq!(cache.access_line(0), AccessOutcome::Miss);
/// assert_eq!(cache.access_line(0), AccessOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Resident lines' set-relative tags (`line >> set_bits`; the set
    /// index holds the low bits), one chunk of `2^chunk_bits` consecutive
    /// sets per entry. A chunk is allocated on the first insert into any
    /// of its sets and holds `associativity` slots per set, most recently
    /// used last within each set's occupied prefix: the per-line lookup
    /// loop walks at most `associativity` adjacent words.
    chunks: Box<[Option<Box<[u32]>>]>,
    /// Occupied ways per set; a set in an unallocated chunk has 0.
    lens: Box<[u8]>,
    stats: CacheStats,
    line_shift: u32,
    /// log2 of the set count, which `CacheConfig::validate` requires to
    /// be a power of two.
    set_bits: u32,
    /// `sets - 1`: the set of a line is `line & set_mask`.
    set_mask: u64,
    /// log2 of the sets per chunk: `PAGE_SIZE / line_size`, clamped to
    /// `1..=sets`.
    chunk_bits: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size,
    /// capacity not a whole number of sets, set count not a power of
    /// two, ...). The access methods panic on an address at or above
    /// 2^(32 + set_bits + line_bits) bytes, whose tag does not fit the
    /// 32-bit tag store (see [`CacheConfig`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.sets();
        let chunk_sets = (PAGE_SIZE / config.line_size).clamp(1, sets);
        Cache {
            config,
            chunks: vec![None; (sets / chunk_sets) as usize].into_boxed_slice(),
            lens: vec![0u8; sets as usize].into_boxed_slice(),
            stats: CacheStats::default(),
            line_shift: config.line_size.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            chunk_bits: chunk_sets.trailing_zeros(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// First and last line numbers of a non-empty `buf`, checked once for
    /// the whole range: every line in between then has a tag that fits.
    fn line_range(&self, buf: Buffer) -> (u64, u64) {
        let first = buf.addr() >> self.line_shift;
        let last = (buf.addr() + buf.len() - 1) >> self.line_shift;
        self.check_tag(last);
        (first, last)
    }

    fn check_tag(&self, line: u64) {
        assert!(
            line >> self.set_bits <= u64::from(u32::MAX),
            "tag range: line {line:#x} is beyond this cache's 2^{}-byte address space",
            32 + self.set_bits + self.line_shift
        );
    }

    /// Offset of set `set_idx`'s first slot within its chunk.
    #[inline]
    fn slot_base(&self, set_idx: usize) -> usize {
        (set_idx & ((1 << self.chunk_bits) - 1)) * self.config.associativity as usize
    }

    /// LRU update of one set, given its `associativity` slots and its
    /// occupied count.
    #[inline]
    fn touch(slots: &mut [u32], len: &mut u8, stats: &mut CacheStats, tag: u32) -> AccessOutcome {
        let ways = slots.len();
        let n = *len as usize;
        let set = &mut slots[..n];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position (end of the occupied prefix).
            set[pos..].rotate_left(1);
            stats.hits += 1;
            AccessOutcome::Hit
        } else if n == ways {
            // Evict LRU (front), insert at MRU (back).
            set.rotate_left(1);
            set[ways - 1] = tag;
            stats.evictions += 1;
            stats.misses += 1;
            AccessOutcome::Miss
        } else {
            slots[n] = tag;
            *len += 1;
            stats.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Splits the checked lines `first..=last` into runs of consecutive
    /// sets in one chunk, each as `(first set, set count, tag)`. A chunk's
    /// sets are those of an aligned block of `2^chunk_bits` lines, so a
    /// run ends at `line | chunk_mask`, its chunk's last set (after set
    /// `sets - 1` the next line's set is 0, the start of chunk 0), and
    /// every line of a run has the same tag.
    fn runs(&self, first: u64, last: u64) -> impl Iterator<Item = (usize, usize, u32)> {
        let (set_mask, set_bits) = (self.set_mask, self.set_bits);
        let chunk_mask = (1u64 << self.chunk_bits) - 1;
        let mut line = first;
        std::iter::from_fn(move || {
            (line <= last).then(|| {
                let end = last.min(line | chunk_mask);
                let run = (
                    (line & set_mask) as usize,
                    (end - line + 1) as usize,
                    (line >> set_bits) as u32,
                );
                line = end + 1;
                run
            })
        })
    }

    /// Accesses the checked lines `first..=last`: the body of
    /// `access_line` and `access_range`, and the only place that
    /// allocates a chunk. The chunk is looked up once per run, outside
    /// the per-line loop.
    fn access_lines(&mut self, first: u64, last: u64) -> RangeOutcome {
        let mut out = RangeOutcome::default();
        let ways = self.config.associativity as usize;
        for (set_idx, sets, tag) in self.runs(first, last) {
            let mut base = self.slot_base(set_idx);
            let chunk = self.chunks[set_idx >> self.chunk_bits]
                .get_or_insert_with(|| vec![0u32; ways << self.chunk_bits].into_boxed_slice());
            for len in &mut self.lens[set_idx..set_idx + sets] {
                match Self::touch(&mut chunk[base..base + ways], len, &mut self.stats, tag) {
                    AccessOutcome::Hit => out.hit_lines += 1,
                    AccessOutcome::Miss => out.miss_lines += 1,
                }
                base += ways;
            }
        }
        out
    }

    /// Accesses one line by address, allocating on miss (write-allocate /
    /// read-allocate — the model does not distinguish).
    pub fn access_line(&mut self, addr: u64) -> AccessOutcome {
        let line = addr >> self.line_shift;
        self.check_tag(line);
        if self.access_lines(line, line).hit_lines == 1 {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss
        }
    }

    /// Checks residency without updating LRU order or statistics.
    pub fn probe_line(&self, addr: u64) -> bool {
        self.resident_lines(Buffer::new(addr, 1)) == 1
    }

    /// Accesses every line in `buf`, returning hit/miss counts.
    pub fn access_range(&mut self, buf: Buffer) -> RangeOutcome {
        if buf.is_empty() {
            return RangeOutcome::default();
        }
        let (first, last) = self.line_range(buf);
        self.access_lines(first, last)
    }

    /// Counts how many lines of `buf` are resident, touching nothing. A
    /// run in an unallocated chunk holds no line.
    pub fn resident_lines(&self, buf: Buffer) -> u64 {
        if buf.is_empty() {
            return 0;
        }
        let (first, last) = self.line_range(buf);
        let ways = self.config.associativity as usize;
        let mut resident = 0;
        for (set_idx, sets, tag) in self.runs(first, last) {
            let Some(chunk) = self.chunks[set_idx >> self.chunk_bits].as_deref() else {
                continue;
            };
            let mut base = self.slot_base(set_idx);
            for &len in &self.lens[set_idx..set_idx + sets] {
                resident += u64::from(chunk[base..base + len as usize].contains(&tag));
                base += ways;
            }
        }
        resident
    }

    /// Invalidates every resident line of `buf` — the coherence action the
    /// memory controller performs after a DMA write (§2.2.2: "the copy
    /// engine must maintain cache coherence immediately after data
    /// transfer"). A run in an unallocated chunk holds no line.
    pub fn invalidate_range(&mut self, buf: Buffer) {
        if buf.is_empty() {
            return;
        }
        let (first, last) = self.line_range(buf);
        let ways = self.config.associativity as usize;
        for (set_idx, sets, tag) in self.runs(first, last) {
            let mut base = self.slot_base(set_idx);
            let Some(chunk) = self.chunks[set_idx >> self.chunk_bits].as_deref_mut() else {
                continue;
            };
            for len in &mut self.lens[set_idx..set_idx + sets] {
                let set = &mut chunk[base..base + *len as usize];
                if let Some(pos) = set.iter().position(|&t| t == tag) {
                    // Close the gap, preserving LRU order of the survivors.
                    set[pos..].rotate_left(1);
                    *len -= 1;
                    self.stats.invalidations += 1;
                }
                base += ways;
            }
        }
    }

    /// Total lines currently resident.
    pub fn resident_line_count(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).sum()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_line_count() * self.config.line_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheConfig {
            capacity: 256,
            associativity: 2,
            line_size: 64,
        })
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert_eq!(c.access_line(0), AccessOutcome::Miss);
        assert_eq!(c.access_line(0), AccessOutcome::Hit);
        assert_eq!(c.access_line(63), AccessOutcome::Hit, "same line");
        assert_eq!(c.access_line(64), AccessOutcome::Miss, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
        let a = 0u64;
        let b = 2 * 64;
        let d = 4 * 64;
        c.access_line(a);
        c.access_line(b);
        c.access_line(a); // refresh a → b is now LRU
        c.access_line(d); // evicts b
        assert!(c.probe_line(a));
        assert!(!c.probe_line(b));
        assert!(c.probe_line(d));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_respected() {
        let cfg = CacheConfig {
            capacity: 4096,
            associativity: 4,
            line_size: 64,
        };
        let mut c = Cache::new(cfg);
        // Stream 10× the capacity through.
        for i in 0..(10 * cfg.capacity / cfg.line_size) {
            c.access_line(i * cfg.line_size);
        }
        assert!(c.resident_bytes() <= cfg.capacity);
        assert_eq!(c.resident_bytes(), cfg.capacity, "stream fills the cache");
    }

    #[test]
    fn range_access_counts_lines() {
        let mut c = Cache::new(CacheConfig::paper_l2());
        let buf = Buffer::new(100, 1000); // lines 1..=17 (64B lines)
        let out = c.access_range(buf);
        assert_eq!(out.lines(), 17);
        assert_eq!(out.miss_lines, 17);
        let again = c.access_range(buf);
        assert_eq!(again.hit_lines, 17);
        assert_eq!(c.resident_lines(buf), 17);
    }

    #[test]
    fn invalidation_removes_lines() {
        let mut c = Cache::new(CacheConfig::paper_l2());
        let buf = Buffer::new(0, 640);
        c.access_range(buf);
        assert_eq!(c.resident_lines(buf), 10);
        c.invalidate_range(buf);
        assert_eq!(c.resident_lines(buf), 0);
        assert_eq!(c.stats().invalidations, 10);
        // Invalidating non-resident lines is a no-op.
        c.invalidate_range(buf);
        assert_eq!(c.stats().invalidations, 10);
    }

    #[test]
    fn streaming_pollution_evicts_hot_set() {
        // The Fig. 7b mechanism in miniature: hot state stays resident
        // until a large payload streams through the cache.
        let cfg = CacheConfig {
            capacity: 64 * 1024,
            associativity: 8,
            line_size: 64,
        };
        let mut c = Cache::new(cfg);
        let hot = Buffer::new(0, 4096);
        c.access_range(hot);
        assert_eq!(c.resident_lines(hot), 64);
        // Stream 4× capacity of payload.
        let payload = Buffer::new(1 << 20, 4 * cfg.capacity);
        c.access_range(payload);
        assert_eq!(c.resident_lines(hot), 0, "hot lines were evicted");
    }

    #[test]
    fn empty_range_is_noop() {
        let mut c = tiny();
        let out = c.access_range(Buffer::new(0, 0));
        assert_eq!(out.lines(), 0);
        assert_eq!(c.resident_lines(Buffer::new(0, 0)), 0);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            capacity: 256,
            associativity: 2,
            line_size: 60,
        });
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        let a = 0u64;
        let b = 2 * 64;
        let d = 4 * 64;
        c.access_line(a);
        c.access_line(b);
        // Probing `a` must NOT refresh it; `a` stays LRU and gets evicted.
        assert!(c.probe_line(a));
        c.access_line(d);
        assert!(!c.probe_line(a));
        assert!(c.probe_line(b));
    }

    #[test]
    #[should_panic(expected = "set count")]
    fn non_power_of_two_set_count_panics() {
        // 384 B / (2 ways × 64 B) = 3 sets.
        Cache::new(CacheConfig {
            capacity: 384,
            associativity: 2,
            line_size: 64,
        });
    }

    #[test]
    #[should_panic(expected = "tag range")]
    fn address_beyond_tag_range_panics() {
        // Line 2^54 in a 4096-set cache has tag 2^42.
        let mut c = Cache::new(CacheConfig::paper_l2());
        c.access_range(Buffer::new(1 << 60, 64));
    }

    /// Bytes of tag slots in allocated chunks.
    fn tag_bytes(c: &Cache) -> usize {
        c.chunks
            .iter()
            .flatten()
            .map(|chunk| size_of_val(&**chunk))
            .sum()
    }

    #[test]
    fn paper_l2_allocates_tags_one_2_kib_chunk_at_a_time() {
        let mut c = Cache::new(CacheConfig::paper_l2());
        assert_eq!(c.chunks.len(), 64);
        assert_eq!(tag_bytes(&c), 0, "a new cache holds no chunk");
        let untouched = Buffer::new(1 << 30, 1 << 20);
        assert!(!c.probe_line(untouched.addr()));
        assert_eq!(c.resident_lines(untouched), 0);
        c.invalidate_range(untouched);
        assert_eq!(tag_bytes(&c), 0, "reads and invalidations never allocate");
        c.access_line(0);
        assert_eq!(tag_bytes(&c), 2 * 1024, "one chunk: 64 sets x 8 ways x 4 B");
        c.access_range(Buffer::new(1 << 24, 2 * 1024 * 1024));
        assert_eq!(
            tag_bytes(&c),
            128 * 1024,
            "a 2 MB range touches all 64 chunks"
        );
    }

    /// Reference model: one `Vec` of full line numbers per set, LRU first.
    struct RefLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
        line_shift: u32,
        stats: CacheStats,
    }

    impl RefLru {
        fn new(cfg: CacheConfig) -> Self {
            RefLru {
                sets: vec![Vec::new(); cfg.sets() as usize],
                ways: cfg.associativity as usize,
                line_shift: cfg.line_size.trailing_zeros(),
                stats: CacheStats::default(),
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<u64> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn lines(&self, buf: Buffer) -> std::ops::Range<u64> {
            if buf.is_empty() {
                return 0..0;
            }
            (buf.addr() >> self.line_shift)..((buf.addr() + buf.len() - 1) >> self.line_shift) + 1
        }

        fn access(&mut self, line: u64) -> AccessOutcome {
            let ways = self.ways;
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                set.push(line);
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
            let evict = set.len() == ways;
            if evict {
                set.remove(0);
            }
            set.push(line);
            self.stats.evictions += evict as u64;
            self.stats.misses += 1;
            AccessOutcome::Miss
        }

        fn probe(&mut self, line: u64) -> bool {
            self.set(line).contains(&line)
        }

        fn invalidate(&mut self, line: u64) {
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                self.stats.invalidations += 1;
            }
        }
    }

    /// Replays `ops` random operations against `cfg` and the reference
    /// LRU. Lines are drawn from a few sets crossed with a pool of tags
    /// that differ only in high bits (up to `u32::MAX`), so any tag
    /// truncation that aliases two lines shows up as a wrong outcome.
    /// Ranges often start on a chunk's last set, the cache's last set
    /// among them (whose next line wraps to set 0), and span up to three
    /// chunks, so a run that ends one set early or late shows up too.
    fn differential(cfg: CacheConfig, seed: u64, ops: usize) {
        let mut rng = ioat_simcore::SimRng::seed_from(seed);
        let mut cache = Cache::new(cfg);
        let mut model = RefLru::new(cfg);
        let sets = cfg.sets();
        let set_bits = sets.trailing_zeros();
        let line_size = cfg.line_size;
        let chunk_sets = (PAGE_SIZE / line_size).clamp(1, sets);
        let max_line = ((u64::from(u32::MAX) + 1) << set_bits) - 1;
        let hi = 1u32 << (32 - set_bits).min(31);
        let mut tags = vec![u32::MAX, u32::MAX - 1, u32::MAX ^ hi, 1 << 31];
        for base in [0u32, 1, 2, 3, 5] {
            tags.extend([base, base | hi, base | (1 << 31), base | hi | (1 << 31)]);
        }
        let set_pool = [0, 1, sets / 2, sets - 1];
        let pick_line = |rng: &mut ioat_simcore::SimRng| {
            let tag = if rng.chance(0.1) {
                rng.next_u64() as u32
            } else {
                tags[rng.range(0, tags.len() as u64) as usize]
            };
            let set = if rng.chance(0.1) {
                rng.range(0, sets)
            } else if rng.chance(0.3) {
                rng.range(0, sets / chunk_sets) * chunk_sets + chunk_sets - 1
            } else {
                set_pool[rng.range(0, set_pool.len() as u64) as usize]
            };
            (u64::from(tag) << set_bits) | set
        };
        for op in 0..ops {
            let line = pick_line(&mut rng);
            let addr = (line * line_size) | rng.range(0, line_size);
            // Ranges of up to four lines or up to three chunks, clipped
            // at the top of the address space the tags can cover.
            let span = if rng.chance(0.2) {
                rng.range(0, 3 * chunk_sets * line_size)
            } else {
                rng.range(0, 4 * line_size)
            };
            let len = span.min((max_line + 1) * line_size - addr);
            let buf = Buffer::new(addr, len);
            match rng.range(0, 5) {
                0 => assert_eq!(cache.access_line(addr), model.access(line), "op {op}"),
                1 => {
                    let mut want = RangeOutcome::default();
                    for l in model.lines(buf) {
                        match model.access(l) {
                            AccessOutcome::Hit => want.hit_lines += 1,
                            AccessOutcome::Miss => want.miss_lines += 1,
                        }
                    }
                    assert_eq!(cache.access_range(buf), want, "op {op}");
                }
                2 => assert_eq!(cache.probe_line(addr), model.probe(line), "op {op}"),
                3 => {
                    let want = model.lines(buf).filter(|&l| model.probe(l)).count() as u64;
                    assert_eq!(cache.resident_lines(buf), want, "op {op}");
                }
                _ => {
                    for l in model.lines(buf) {
                        model.invalidate(l);
                    }
                    cache.invalidate_range(buf);
                }
            }
        }
        assert_eq!(cache.stats(), model.stats);
        let resident: usize = model.sets.iter().map(Vec::len).sum();
        assert_eq!(cache.resident_line_count(), resident as u64);
        assert!(model.stats.evictions > 0 && model.stats.invalidations > 0);
    }

    #[test]
    fn matches_reference_lru_on_tiny_paper_modern_and_big_line_geometries() {
        // 2 sets: one chunk, smaller than a page.
        differential(tiny().config(), 1, 20_000);
        differential(CacheConfig::paper_l2(), 2, 20_000);
        let modern = CacheConfig {
            capacity: 32 * 1024 * 1024,
            associativity: 16,
            line_size: 64,
        };
        differential(modern, 3, 20_000);
        // An 8 KiB line is larger than a page: one set per chunk.
        let big_line = CacheConfig {
            capacity: 256 * 1024,
            associativity: 2,
            line_size: 8192,
        };
        differential(big_line, 4, 20_000);
    }
}
