//! Property tests for the simulation kernel invariants.
//!
//! Each property runs on [`CASES`] generated inputs from the shared
//! seeded driver ([`check::check`]).

#[path = "support/check.rs"]
mod check;

use check::check;
use ioat_simcore::{Histogram, Sim, SimDuration, SimTime, UtilizationMeter};
use std::cell::RefCell;
use std::rc::Rc;

/// Cases per property.
const CASES: u64 = 256;

/// Events always execute in non-decreasing time order, and equal-time
/// events execute in scheduling order, regardless of insertion order.
#[test]
fn events_execute_in_time_then_fifo_order() {
    check("events_execute_in_time_then_fifo_order", CASES, |rng| {
        let delays: Vec<u64> = (0..rng.range(1, 200))
            .map(|_| rng.range(0, 1_000))
            .collect();
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let log = Rc::clone(&log);
            sim.schedule(SimDuration::from_nanos(d), move |s| {
                log.borrow_mut().push((s.now().as_nanos(), i));
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
        // Each event fires at exactly its requested time.
        for &(at, i) in log.iter() {
            assert_eq!(at, delays[i]);
        }
    });
}

/// The final clock equals the max scheduled delay.
#[test]
fn final_clock_is_last_event_time() {
    check("final_clock_is_last_event_time", CASES, |rng| {
        let delays: Vec<u64> = (0..rng.range(1, 100))
            .map(|_| rng.range(0, 10_000))
            .collect();
        let mut sim = Sim::new();
        for &d in &delays {
            sim.schedule(SimDuration::from_nanos(d), |_| {});
        }
        let end = sim.run();
        assert_eq!(end.as_nanos(), *delays.iter().max().unwrap());
    });
}

/// Utilization is always within [0, 1] and busy_between is additive
/// over a partition of the window.
#[test]
fn utilization_meter_is_consistent() {
    check("utilization_meter_is_consistent", CASES, |rng| {
        let gaps: Vec<(u64, u64)> = (0..rng.range(1, 100))
            .map(|_| (rng.range(0, 50), rng.range(1, 50)))
            .collect();
        let split = rng.range(0, 5_000);
        let mut intervals = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for &(gap, busy) in &gaps {
            let start = t + gap;
            t = start + busy;
            intervals.push((start, t));
        }
        // The meter keeps no history, so the split point is marked as the
        // window start before the first interval that starts after it.
        let mid = SimTime::from_nanos(split.min(t));
        let mut m = UtilizationMeter::new();
        let mut opened = false;
        for &(start, end) in &intervals {
            if !opened && SimTime::from_nanos(start) > mid {
                m.begin_window(mid);
                opened = true;
            }
            m.record(SimTime::from_nanos(start), SimTime::from_nanos(end));
        }
        if !opened {
            m.begin_window(mid);
        }
        let total = SimTime::from_nanos(t);
        let u = m.utilization_between(SimTime::ZERO, total);
        assert!((0.0..=1.0 + 1e-12).contains(&u));
        // Additivity across the split point.
        let a = m.busy_between(SimTime::ZERO, mid);
        let b = m.busy_between(mid, total);
        assert_eq!(a + b, m.total_busy());
    });
}

/// Histogram quantiles are monotone in q and bounded by recorded
/// extremes (within one sub-bucket of relative error).
#[test]
fn histogram_quantiles_are_monotone() {
    check("histogram_quantiles_are_monotone", CASES, |rng| {
        let values: Vec<u64> = (0..rng.range(1, 500))
            .map(|_| rng.range(0, 1_000_000))
            .collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut prev = 0;
        for &q in &qs {
            let x = h.quantile(q);
            assert!(x >= prev, "quantile not monotone");
            prev = x;
        }
        let max = *values.iter().max().unwrap();
        let min = *values.iter().min().unwrap();
        assert!(h.quantile(1.0) <= max);
        // Lower bound under-estimates by at most one sub-bucket (~3.2%).
        assert!(h.quantile(0.0) as f64 >= min as f64 * 0.96 - 1.0);
    });
}

/// Cancelling a random subset of events prevents exactly those events.
#[test]
fn cancellation_is_exact() {
    check("cancellation_is_exact", CASES, |rng| {
        let n = rng.range(1, 100) as usize;
        let cancel_mask: Vec<bool> = (0..100).map(|_| rng.chance(0.5)).collect();
        let mut sim = Sim::new();
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        for i in 0..n {
            let fired = Rc::clone(&fired);
            ids.push(sim.schedule(SimDuration::from_nanos(i as u64), move |_| {
                fired.borrow_mut().push(i);
            }));
        }
        let mut expect: Vec<usize> = Vec::new();
        for i in 0..n {
            if cancel_mask[i] {
                assert!(sim.cancel(ids[i]));
            } else {
                expect.push(i);
            }
        }
        sim.run();
        assert_eq!(&*fired.borrow(), &expect);
    });
}
