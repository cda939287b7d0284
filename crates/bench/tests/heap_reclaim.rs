//! Every simulation entrypoint returns the heap it allocated, and no
//! simulated resource grows its heap with the length of a run.
//!
//! A call builds a whole simulated cluster (host stacks with their L2 tag
//! arrays, sockets, framed channels, a fabric) out of `Rc` handles that
//! point at one another. If any of those edges forms a cycle that outlives
//! the call, each call leaks its cluster and a sweep's memory grows with
//! its point count. This binary counts every byte through its own global
//! allocator and checks that the live heap after each call is back to
//! where it was before it. It also checks that metering a resource's busy
//! time keeps no per-job history: a core that runs many separated jobs
//! holds the same heap as one that ran none.
//!
//! It holds exactly one `#[test]` on purpose: a second test running on
//! another thread would allocate alongside the measured call and blur the
//! count.

use ioat_core::microbench::{bandwidth, bidirectional, splitup};
use ioat_datacenter::{emulated, run_partitioned, tiers, DataCenterConfig, ScaleConfig};
use ioat_netsim::IoatConfig;
use ioat_pvfs::{concurrent_read, concurrent_write, PvfsConfig};
use ioat_simcore::{Resource, Sim, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator with a running count of live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the only addition
// is an atomic counter update that never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most a call may leave behind: room for lazily initialised
/// process-wide tables (every call here leaves 0 B), below the smallest
/// leaked host stack. A host allocates its L2 tags one 2 KiB chunk at a
/// time, so the stack a call leaks holds only what it touched: a
/// `quick_test` bandwidth receiver keeps ≈ 14.8 KB with I/OAT (its DMA
/// engine bypasses the cache) and ≈ 139 KB without, and a stack that
/// never ran keeps ≈ 6.4 KB.
const SLACK: usize = 4 * 1024;

/// Live heap bytes `call` leaves behind once its result is dropped.
fn retained(call: impl FnOnce()) -> isize {
    let before = LIVE.load(Relaxed);
    call();
    LIVE.load(Relaxed) as isize - before as isize
}

/// Live heap bytes that metering `jobs` jobs, each after an idle gap so
/// no two merge, adds to one resource.
fn metering_growth(jobs: u64) -> isize {
    let mut sim = Sim::new();
    let mut core = Resource::new("core");
    let before = LIVE.load(Relaxed);
    for _ in 0..jobs {
        sim.run_until(sim.now() + SimDuration::from_nanos(10));
        core.consume(&mut sim, SimDuration::from_nanos(5));
    }
    let grown = LIVE.load(Relaxed) as isize - before as isize;
    assert_eq!(
        core.meter().total_busy(),
        SimDuration::from_nanos(5 * jobs),
        "every job was metered"
    );
    grown
}

#[test]
fn every_entrypoint_returns_its_heap() {
    let grown = metering_growth(100_000);
    assert_eq!(
        grown, 0,
        "metering 100 000 separated jobs grew the heap by {grown} B"
    );

    type Entry = (String, Box<dyn Fn()>);
    let mut entries: Vec<Entry> = Vec::new();
    for (tag, ioat) in [
        ("non", IoatConfig::disabled()),
        ("ioat", IoatConfig::full()),
    ] {
        let mut add = |name: &str, call: Box<dyn Fn()>| {
            entries.push((format!("{name}/{tag}"), call));
        };
        add(
            "bandwidth::run",
            Box::new(move || {
                bandwidth::run(&bandwidth::BandwidthConfig::quick_test(), ioat);
            }),
        );
        add(
            "bidirectional::run",
            Box::new(move || {
                bidirectional::run(&bidirectional::BidirConfig::quick_test(), ioat);
            }),
        );
        add(
            "splitup::run_one",
            Box::new(move || {
                splitup::run_one(&splitup::SplitupConfig::quick_test(), ioat, 64 * 1024);
            }),
        );
        add(
            "tiers::run_single_file",
            Box::new(move || {
                tiers::run_single_file(&DataCenterConfig::quick_test(ioat), 16 * 1024);
            }),
        );
        add(
            "emulated::run",
            Box::new(move || {
                emulated::run(&emulated::EmulatedConfig::quick_test(4, ioat));
            }),
        );
        add(
            "concurrent_read",
            Box::new(move || {
                concurrent_read(&PvfsConfig::quick_test(2, 2, ioat));
            }),
        );
        add(
            "concurrent_write",
            Box::new(move || {
                concurrent_write(&PvfsConfig::quick_test(2, 2, ioat));
            }),
        );
        for threads in [1, 2] {
            add(
                &format!("run_partitioned@{threads}"),
                Box::new(move || {
                    run_partitioned(&ScaleConfig::quick_test(ioat), threads);
                }),
            );
        }
    }

    let leaks: Vec<String> = entries
        .iter()
        .map(|(name, call)| (name, retained(call)))
        .filter(|&(_, bytes)| bytes.unsigned_abs() > SLACK)
        .map(|(name, bytes)| format!("{name}: {bytes} B"))
        .collect();
    assert!(
        leaks.is_empty(),
        "calls kept more than {SLACK} B of heap after returning:\n{}",
        leaks.join("\n")
    );
}
