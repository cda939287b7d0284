//! Serialized resources and utilization accounting.
//!
//! A [`Resource`] models anything that can do one thing at a time: a CPU
//! core, a DMA channel, a link transmitter, a disk head. Work is submitted
//! as `(duration, completion-action)` pairs; the resource executes jobs
//! back-to-back in FIFO order and meters its busy time so that
//! experiments can compute utilization over the run or over one
//! measurement window opened with [`Resource::begin_window`] — the
//! paper's headline "CPU utilization" metric. The meter keeps O(1) state
//! however long the run, so it answers only those two windows (see
//! [`UtilizationMeter`]).

use crate::engine::Sim;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle to a [`Resource`].
///
/// Model components capture clones of this in event closures; the
/// simulation is single-threaded, so `Rc<RefCell<_>>` is the right tool.
pub type ResourceRef = Rc<RefCell<Resource>>;

/// Accumulates non-overlapping busy intervals in O(1) memory and answers
/// utilization queries over `[0, to)` and over one measurement window.
///
/// Intervals must be reported in non-decreasing start order (which a FIFO
/// resource guarantees); adjacent intervals merge. The meter keeps only
/// the latest merged interval `last`, the running busy total, and the
/// busy time before the window start, marked by
/// [`UtilizationMeter::begin_window`]. That is exact for a [`Resource`]:
/// a job starts at `max(busy_until, now)`, so a job queued behind a busy
/// resource merges into `last`, and `last` never starts after the present.
/// For any `t >= last.start`, the busy time before `t` is
/// `total_busy - max(0, last.end - t)`.
///
/// The query contract that follows: a window's `from` must be zero or the
/// window start, and its `to` must be zero, the window start, or no
/// earlier than the start of `last` — in practice, the present instant.
/// Any other query panics: the meter keeps no history to answer it.
#[derive(Debug, Clone, Default)]
pub struct UtilizationMeter {
    /// The latest merged busy interval `[start, end)`; every earlier
    /// interval ended before `start`.
    last: (SimTime, SimTime),
    total_busy: SimDuration,
    /// The window start and the busy time before it; `(0, 0)` until
    /// [`UtilizationMeter::begin_window`] moves it.
    window: (SimTime, SimDuration),
}

impl UtilizationMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`, if `start` precedes the end of the last
    /// recorded interval (busy intervals on a serialized resource never
    /// overlap), or if it precedes the window start (a resource's jobs
    /// never start in the past).
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        assert!(start <= end, "busy interval ends before it starts");
        if start == end {
            return;
        }
        assert!(
            start >= self.last.1,
            "busy intervals must be reported in order: {start} < {}",
            self.last.1
        );
        assert!(
            start >= self.window.0,
            "busy interval starts before the window: {start} < {}",
            self.window.0
        );
        self.total_busy += end - start;
        if start == self.last.1 {
            self.last.1 = end;
        } else {
            self.last = (start, end);
        }
    }

    /// Total busy time ever recorded.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Opens the measurement window at `at`: later queries may start
    /// there. A later call moves the window; there is only one.
    ///
    /// # Panics
    ///
    /// Panics if `at` is nonzero and precedes the start of the latest
    /// busy interval (the meter cannot split what it no longer holds).
    pub fn begin_window(&mut self, at: SimTime) {
        // Snapshot before storing: `busy_before` answers the old mark.
        self.window = (at, self.busy_before(at));
    }

    /// Busy time recorded before `t`.
    fn busy_before(&self, t: SimTime) -> SimDuration {
        if t == SimTime::ZERO {
            return SimDuration::ZERO;
        }
        if t == self.window.0 {
            return self.window.1;
        }
        assert!(
            t >= self.last.0,
            "utilization meter keeps no history before {}: cannot split at {t}",
            self.last.0
        );
        self.total_busy - self.last.1.saturating_duration_since(t)
    }

    /// Busy time that falls inside `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics unless `to <= from` (an empty window), or `from` is zero or
    /// the window start and `to` is zero, the window start, or no earlier
    /// than the latest busy interval's start.
    pub fn busy_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        if to <= from {
            return SimDuration::ZERO;
        }
        assert!(
            from == SimTime::ZERO || from == self.window.0,
            "utilization meter keeps no history: a window must start at zero \
             or at the begin_window instant, not {from}"
        );
        self.busy_before(to) - self.busy_before(from)
    }

    /// Fraction of `[from, to)` this resource was busy, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// As [`UtilizationMeter::busy_between`].
    pub fn utilization_between(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.busy_between(from, to).as_nanos() as f64 / (to - from).as_nanos() as f64
    }
}

/// A non-preemptive FIFO server.
///
/// Jobs submitted while the resource is busy queue implicitly: each new job
/// starts at `max(now, busy_until)`. The completion action is scheduled on
/// the simulator at the job's finish time.
///
/// ```rust
/// use ioat_simcore::{Resource, Sim, SimDuration};
///
/// let mut sim = Sim::new();
/// let core = Resource::new_ref("cpu0");
/// // Two 10us jobs submitted together finish at 10us and 20us.
/// core.borrow_mut().run_job(&mut sim, SimDuration::from_micros(10), |_| {});
/// let done = core
///     .borrow_mut()
///     .run_job(&mut sim, SimDuration::from_micros(10), |_| {});
/// assert_eq!(done.as_nanos(), 20_000);
/// sim.run();
/// ```
#[derive(Debug)]
pub struct Resource {
    name: String,
    busy_until: SimTime,
    meter: UtilizationMeter,
    jobs_completed: u64,
}

impl Resource {
    /// Creates a resource that is idle at time zero.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            busy_until: SimTime::ZERO,
            meter: UtilizationMeter::new(),
            jobs_completed: 0,
        }
    }

    /// Creates a shared handle to a new resource.
    pub fn new_ref(name: impl Into<String>) -> ResourceRef {
        Rc::new(RefCell::new(Resource::new(name)))
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instant at which all currently queued work completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// True when the resource has no queued work at the current instant.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Queueing delay a job submitted now would experience before starting.
    pub fn backlog_at(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_duration_since(now)
    }

    /// Number of jobs that have been submitted (the completion action may
    /// not have fired yet for the most recent ones).
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Submits a job of length `duration`; `on_complete` fires when it
    /// finishes. Returns the completion instant.
    ///
    /// Zero-length jobs complete "now" (their action is still scheduled
    /// through the event queue to preserve FIFO ordering with other events).
    pub fn run_job<F>(&mut self, sim: &mut Sim, duration: SimDuration, on_complete: F) -> SimTime
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let start = self.busy_until.max(sim.now());
        let end = start + duration;
        self.meter.record(start, end);
        self.busy_until = end;
        self.jobs_completed += 1;
        sim.schedule_at(end, on_complete);
        end
    }

    /// Submits a job without a completion callback; the busy time is still
    /// accounted. Returns the completion instant.
    pub fn consume(&mut self, sim: &mut Sim, duration: SimDuration) -> SimTime {
        let start = self.busy_until.max(sim.now());
        let end = start + duration;
        self.meter.record(start, end);
        self.busy_until = end;
        self.jobs_completed += 1;
        end
    }

    /// Opens this resource's utilization window at `at` (see
    /// [`UtilizationMeter::begin_window`]).
    pub fn begin_window(&mut self, at: SimTime) {
        self.meter.begin_window(at);
    }

    /// Busy-time accounting for this resource.
    pub fn meter(&self) -> &UtilizationMeter {
        &self.meter
    }
}

/// A pool of identical serialized resources (e.g. the cores of a node).
///
/// The pool dispatches to the member with the shortest backlog, which is
/// how the simulated OS spreads application threads across cores while the
/// receive path stays pinned to a designated interrupt core.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    members: Vec<ResourceRef>,
}

impl ResourcePool {
    /// Creates a pool of `n` resources named `{prefix}{index}`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(prefix: &str, n: usize) -> Self {
        assert!(n > 0, "a resource pool needs at least one member");
        ResourcePool {
            members: (0..n)
                .map(|i| Resource::new_ref(format!("{prefix}{i}")))
                .collect(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the pool somehow has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Shared handle to member `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn member(&self, idx: usize) -> &ResourceRef {
        &self.members[idx]
    }

    /// All members.
    pub fn members(&self) -> &[ResourceRef] {
        &self.members
    }

    /// The member with the least queued work at `now` (ties broken by
    /// lowest index, keeping runs deterministic).
    pub fn least_loaded(&self, now: SimTime) -> &ResourceRef {
        self.member(self.least_loaded_index(now))
    }

    /// Index of the member [`ResourcePool::least_loaded`] would pick —
    /// for callers that also need to attribute the work to a core.
    pub fn least_loaded_index(&self, now: SimTime) -> usize {
        self.members
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.borrow().backlog_at(now))
            .expect("pool is non-empty")
            .0
    }

    /// Opens every member's utilization window at `at`.
    pub fn begin_window(&self, at: SimTime) {
        for r in &self.members {
            r.borrow_mut().begin_window(at);
        }
    }

    /// Aggregate busy time across members within `[from, to)` (the
    /// window contract of [`UtilizationMeter::busy_between`] applies).
    pub fn busy_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        self.members
            .iter()
            .map(|r| r.borrow().meter().busy_between(from, to))
            .sum()
    }

    /// Mean utilization across all members within `[from, to)` — the
    /// paper's "overall CPU utilization" for a node.
    pub fn utilization_between(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let window = (to - from).as_nanos() as f64 * self.members.len() as f64;
        self.busy_between(from, to).as_nanos() as f64 / window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_serialize_fifo() {
        let mut sim = Sim::new();
        let r = Resource::new_ref("r");
        let d = SimDuration::from_micros(10);
        let t1 = r.borrow_mut().run_job(&mut sim, d, |_| {});
        let t2 = r.borrow_mut().run_job(&mut sim, d, |_| {});
        assert_eq!(t1, SimTime::from_micros(10));
        assert_eq!(t2, SimTime::from_micros(20));
        sim.run();
        assert_eq!(r.borrow().jobs_completed(), 2);
        assert_eq!(r.borrow().meter().total_busy(), d * 2);
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let mut sim = Sim::new();
        let r = Resource::new_ref("r");
        let rr = Rc::clone(&r);
        r.borrow_mut()
            .run_job(&mut sim, SimDuration::from_micros(1), move |sim| {
                // Resubmit after a 9us idle gap.
                sim.schedule(SimDuration::from_micros(9), move |sim| {
                    rr.borrow_mut()
                        .run_job(sim, SimDuration::from_micros(1), |_| {});
                });
            });
        sim.run();
        let m = r.borrow();
        let meter = m.meter();
        assert_eq!(meter.total_busy(), SimDuration::from_micros(2));
        let util = meter.utilization_between(SimTime::ZERO, SimTime::from_micros(11));
        assert!((util - 2.0 / 11.0).abs() < 1e-9, "util = {util}");
    }

    #[test]
    fn utilization_window_clips_intervals() {
        let mut m = UtilizationMeter::new();
        m.record(SimTime::from_nanos(10), SimTime::from_nanos(20));
        m.begin_window(SimTime::from_nanos(15));
        m.record(SimTime::from_nanos(30), SimTime::from_nanos(40));
        // Window covering half of each interval.
        let busy = m.busy_between(SimTime::from_nanos(15), SimTime::from_nanos(35));
        assert_eq!(busy, SimDuration::from_nanos(10));
        assert_eq!(
            m.busy_between(SimTime::ZERO, SimTime::from_nanos(15)),
            SimDuration::from_nanos(5)
        );
        assert_eq!(
            m.busy_between(SimTime::from_nanos(40), SimTime::from_nanos(10)),
            SimDuration::ZERO,
            "inverted window is empty"
        );
    }

    #[test]
    fn adjacent_intervals_merge() {
        let mut m = UtilizationMeter::new();
        m.record(SimTime::from_nanos(0), SimTime::from_nanos(10));
        m.record(SimTime::from_nanos(10), SimTime::from_nanos(20));
        assert_eq!(m.last, (SimTime::ZERO, SimTime::from_nanos(20)));
        assert_eq!(m.total_busy(), SimDuration::from_nanos(20));
    }

    #[test]
    #[should_panic(expected = "keeps no history")]
    fn window_from_an_unmarked_instant_panics() {
        let mut m = UtilizationMeter::new();
        m.record(SimTime::from_nanos(10), SimTime::from_nanos(20));
        m.begin_window(SimTime::from_nanos(25));
        m.record(SimTime::from_nanos(30), SimTime::from_nanos(40));
        let _ = m.busy_between(SimTime::from_nanos(35), SimTime::from_nanos(40));
    }

    #[test]
    #[should_panic(expected = "keeps no history")]
    fn window_ending_inside_history_panics() {
        let mut m = UtilizationMeter::new();
        m.record(SimTime::from_nanos(10), SimTime::from_nanos(20));
        m.record(SimTime::from_nanos(30), SimTime::from_nanos(40));
        let _ = m.busy_between(SimTime::ZERO, SimTime::from_nanos(25));
    }

    /// The interval-list meter this one replaced: keeps every merged
    /// interval and answers any window.
    #[derive(Default)]
    struct ReferenceMeter {
        intervals: Vec<(SimTime, SimTime)>,
    }

    impl ReferenceMeter {
        fn record(&mut self, start: SimTime, end: SimTime) {
            if start == end {
                return;
            }
            if let Some(last) = self.intervals.last_mut() {
                assert!(start >= last.1);
                if start == last.1 {
                    last.1 = end;
                    return;
                }
            }
            self.intervals.push((start, end));
        }

        fn busy_between(&self, from: SimTime, to: SimTime) -> SimDuration {
            if to <= from {
                return SimDuration::ZERO;
            }
            let idx = self.intervals.partition_point(|&(_, end)| end <= from);
            let mut busy = SimDuration::ZERO;
            for &(s, e) in &self.intervals[idx..] {
                if s >= to {
                    break;
                }
                let lo = s.max(from);
                let hi = e.min(to);
                if hi > lo {
                    busy += hi - lo;
                }
            }
            busy
        }

        fn utilization_between(&self, from: SimTime, to: SimTime) -> f64 {
            if to <= from {
                return 0.0;
            }
            self.busy_between(from, to).as_nanos() as f64 / (to - from).as_nanos() as f64
        }
    }

    /// Drives a resource through random idle gaps, zero-length jobs and
    /// bursts queued behind a backlog, opens the window at a random
    /// instant, and checks every answer the contract allows against the
    /// interval-list reference, bit for bit.
    #[test]
    fn o1_meter_matches_interval_list_reference() {
        use crate::rng::SimRng;
        const JOBS: usize = 12_000;
        for seed in 0..4 {
            let mut rng = SimRng::seed_from(seed);
            let mut sim = Sim::new();
            let r = Resource::new_ref("r");
            let mut reference = ReferenceMeter::default();
            let open_at = rng.range(0, JOBS as u64) as usize;
            let mut from = SimTime::ZERO;
            let mut checks = 0;
            for job in 0..JOBS {
                // Idle gaps of up to 2 µs, or none, so bursts queue.
                if rng.chance(0.5) {
                    let gap = SimDuration::from_nanos(rng.range(0, 2_000));
                    sim.run_until(sim.now() + gap);
                }
                if job == open_at {
                    from = sim.now();
                    r.borrow_mut().begin_window(from);
                }
                let d = if rng.chance(0.1) {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(rng.range(1, 1_500))
                };
                let end = if rng.chance(0.5) {
                    r.borrow_mut().run_job(&mut sim, d, |_| {})
                } else {
                    r.borrow_mut().consume(&mut sim, d)
                };
                reference.record(end - d, end);
                if rng.chance(0.01) || job + 1 == JOBS {
                    let now = sim.now();
                    let res = r.borrow();
                    let m = res.meter();
                    assert_eq!(
                        m.busy_between(SimTime::ZERO, now),
                        reference.busy_between(SimTime::ZERO, now)
                    );
                    assert_eq!(
                        m.utilization_between(SimTime::ZERO, now).to_bits(),
                        reference.utilization_between(SimTime::ZERO, now).to_bits()
                    );
                    if job >= open_at {
                        assert_eq!(m.busy_between(from, now), reference.busy_between(from, now));
                        assert_eq!(
                            m.busy_between(SimTime::ZERO, from),
                            reference.busy_between(SimTime::ZERO, from)
                        );
                        assert_eq!(
                            m.utilization_between(from, now).to_bits(),
                            reference.utilization_between(from, now).to_bits()
                        );
                    }
                    checks += 1;
                }
            }
            sim.run();
            let now = sim.now();
            let m = r.borrow();
            assert_eq!(
                m.meter().busy_between(from, now),
                reference.busy_between(from, now)
            );
            assert!(checks > 10, "seed {seed}: only {checks} checkpoints");
        }
    }

    #[test]
    #[should_panic(expected = "must be reported in order")]
    fn overlapping_intervals_panic() {
        let mut m = UtilizationMeter::new();
        m.record(SimTime::from_nanos(0), SimTime::from_nanos(10));
        m.record(SimTime::from_nanos(5), SimTime::from_nanos(15));
    }

    #[test]
    fn pool_dispatches_to_least_loaded() {
        let mut sim = Sim::new();
        let pool = ResourcePool::new("core", 2);
        pool.member(0)
            .borrow_mut()
            .run_job(&mut sim, SimDuration::from_micros(100), |_| {});
        let pick = pool.least_loaded(sim.now());
        assert_eq!(pick.borrow().name(), "core1");
        pick.borrow_mut()
            .run_job(&mut sim, SimDuration::from_micros(10), |_| {});
        sim.run();
        // Overall utilization over 100us on 2 cores: (100 + 10) / 200.
        let u = pool.utilization_between(SimTime::ZERO, SimTime::from_micros(100));
        assert!((u - 0.55).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn consume_accounts_busy_without_callback() {
        let mut sim = Sim::new();
        let r = Resource::new_ref("r");
        let end = r.borrow_mut().consume(&mut sim, SimDuration::from_nanos(7));
        assert_eq!(end, SimTime::from_nanos(7));
        assert_eq!(r.borrow().meter().total_busy(), SimDuration::from_nanos(7));
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn backlog_reflects_queued_work() {
        let mut sim = Sim::new();
        let r = Resource::new_ref("r");
        assert!(r.borrow().is_idle_at(sim.now()));
        r.borrow_mut()
            .run_job(&mut sim, SimDuration::from_micros(3), |_| {});
        assert_eq!(
            r.borrow().backlog_at(SimTime::ZERO),
            SimDuration::from_micros(3)
        );
        assert!(!r.borrow().is_idle_at(SimTime::ZERO));
        assert!(r.borrow().is_idle_at(SimTime::from_micros(3)));
    }
}
