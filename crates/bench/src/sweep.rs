//! The parallel sweep executor and its supervisor.
//!
//! Every figure of the paper's evaluation is a grid of *independent*
//! configuration points (ports × I/OAT on/off, thread counts, Zipf α,
//! PVFS client counts, ...). Each point is a deterministic
//! single-threaded simulation — `Sim` is `Rc`-based and never crosses a
//! thread — but nothing orders one point after another, so the sweep as
//! a whole parallelizes perfectly. [`run_jobs`] fans a figure's points
//! across a small `std::thread` pool and reassembles the results in
//! input order, which keeps the output bit-identical to a sequential
//! run (asserted by `tests/parallel_determinism.rs`).
//!
//! Supervision: every job runs under its own `catch_unwind`, so one
//! panicking point can never take down in-flight siblings or leak the
//! pool — the other workers drain their queues normally and every
//! completed result survives. What happens to the caught panic depends
//! on the entry point:
//!
//! * [`run_jobs`] re-raises the first panic (in input order) after the
//!   pool drains — the historical contract, kept for figure builders
//!   where a panic means the figure itself is broken.
//! * [`run_jobs_supervised`] converts each panic into
//!   [`JobOutcome::Failed`] with a reason classified by
//!   [`ioat_guard::failure_reason`] (`wedged:` for the deterministic
//!   sim-event-budget watchdog, `panicked:` for everything else), and
//!   optionally re-runs a failed job up to `retries` times before giving
//!   up on it. Successful jobs are byte-for-byte unaffected by the
//!   supervision (the closure result is moved out, never cloned).
//!
//! Determinism contract:
//!
//! * each job is a pure function of its inputs (every simulation seeds
//!   its own RNG streams; no job reads global mutable state),
//! * results are stored at the job's input index, never in completion
//!   order,
//! * `workers == 1` runs every job inline on the calling thread — the
//!   exact sequential behaviour, preserved for `--trace`/telemetry
//!   paths that rely on single-threaded execution.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the host's available parallelism, or 1
/// when the platform cannot report it.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// What the supervisor reports for one job: its result, or the reason
/// it was given up on after every allowed attempt panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned normally (possibly after retries).
    Ok(T),
    /// Every attempt panicked; `reason` is the final attempt's panic
    /// classified by [`ioat_guard::failure_reason`].
    Failed {
        /// `wedged: ...` (event-budget watchdog) or `panicked: ...`.
        reason: String,
    },
}

impl<T> JobOutcome<T> {
    /// The success value, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// True for [`JobOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }
}

type JobResult<T> = Result<T, Box<dyn Any + Send>>;

/// One supervised attempt sequence: run `job`, retrying a panicking run
/// up to `retries` extra times, and hand back the last panic payload if
/// none succeeds. `AssertUnwindSafe` is sound here because a failed
/// attempt's partially-mutated state is dropped wholesale — the next
/// attempt re-runs the deterministic simulation from scratch and nothing
/// outside the closure observes the torn state.
fn attempt<T, F: FnMut() -> T>(job: &mut F, retries: usize) -> JobResult<T> {
    let mut last = None;
    for _ in 0..=retries {
        match panic::catch_unwind(AssertUnwindSafe(&mut *job)) {
            Ok(v) => return Ok(v),
            Err(payload) => last = Some(payload),
        }
    }
    Err(last.expect("at least one attempt always runs"))
}

/// The shared executor core: runs every job (with per-job panic
/// isolation and retries) and returns `Result`s **in input order**, the
/// panic payload preserved for the caller to classify or re-raise.
///
/// `workers` is clamped to `1..=jobs.len()`; `workers <= 1` (or a
/// single job) degenerates to a plain sequential loop on the calling
/// thread. Otherwise `workers` scoped threads pull jobs from a shared
/// cursor — index order, so early rows start first — and write each
/// outcome into its input slot. Workers themselves never panic (every
/// job runs under `catch_unwind`), so the pool always drains fully.
///
/// # Panics
///
/// On an empty job list: a figure that sweeps zero points is a harness
/// bug, and silently returning an empty table would let it masquerade
/// as a completed run (the config-validation counterpart to the
/// zero-bandwidth-link and zero-core-node constructor asserts).
fn run_jobs_raw<T, F>(jobs: Vec<F>, workers: usize, retries: usize) -> Vec<JobResult<T>>
where
    T: Send,
    F: FnMut() -> T + Send,
{
    let n = jobs.len();
    assert!(
        n > 0,
        "sweep invoked with an empty job list — a figure with zero configuration points \
         cannot produce a table and indicates a harness bug"
    );
    if workers <= 1 || n == 1 {
        return jobs
            .into_iter()
            .map(|mut job| attempt(&mut job, retries))
            .collect();
    }
    let workers = workers.min(n);

    // Jobs move into per-slot cells so each worker can take ownership of
    // the closure it claimed; outcomes land in matching slots.
    let job_cells: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_cells: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Workers run under the caller's audit scope (if any), exactly as the
    // sequential path does on the calling thread.
    let audit = ioat_guard::current_scope();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                audit.enter(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let mut job = job_cells[i]
                        .lock()
                        .expect("job mutex never poisoned: taken exactly once")
                        .take()
                        .expect("each job index is claimed exactly once");
                    let out = attempt(&mut job, retries);
                    *result_cells[i]
                        .lock()
                        .expect("result mutex never poisoned: written exactly once") = Some(out);
                })
            });
        }
    });

    result_cells
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result mutex never poisoned")
                .expect("every job slot is filled: workers catch all job panics")
        })
        .collect()
}

/// Runs every job and returns their results **in input order**.
///
/// See the module docs for the pool mechanics. This is the
/// panic-*propagating* entry point used by the figure builders.
///
/// # Panics
///
/// * On an empty job list: a figure that sweeps zero points is a
///   harness bug, not an empty table.
/// * A panic inside any job propagates to the caller after the pool
///   drains, with its original payload and in input order (job 3's
///   panic is re-raised even if job 7 also panicked earlier in wall
///   time): no result is silently dropped, no thread is leaked — the
///   other workers finish their queues first.
pub fn run_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    // Adapt `FnOnce` to the executor's re-runnable `FnMut` interface;
    // with zero retries each slot is taken exactly once.
    let wrapped: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let mut slot = Some(job);
            move || {
                (slot
                    .take()
                    .expect("zero retries: each job runs at most once"))()
            }
        })
        .collect();
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    let mut out = Vec::with_capacity(wrapped.len());
    for result in run_jobs_raw(wrapped, workers, 0) {
        match result {
            Ok(v) => out.push(v),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    out
}

/// Runs every job under full supervision: a job whose every attempt
/// (1 + `retries`) panics becomes [`JobOutcome::Failed`] instead of
/// killing the sweep, and all other jobs' results are returned intact,
/// in input order.
///
/// # Panics
///
/// Only on an empty job list: a figure that sweeps zero points is a
/// harness bug, not an empty table.
pub fn run_jobs_supervised<T, F>(jobs: Vec<F>, workers: usize, retries: usize) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: FnMut() -> T + Send,
{
    run_jobs_raw(jobs, workers, retries)
        .into_iter()
        .map(|result| match result {
            Ok(v) => JobOutcome::Ok(v),
            Err(payload) => JobOutcome::Failed {
                reason: ioat_guard::failure_reason(payload.as_ref()),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Jobs deliberately finish out of order (later indices are
        // cheaper); the output must still follow input order.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    let mut acc = 0u64;
                    for k in 0..((32 - i) * 10_000) {
                        acc = acc.wrapping_add(k ^ i);
                    }
                    std::hint::black_box(acc);
                    i * 2
                }
            })
            .collect();
        let out = run_jobs(jobs, 8);
        assert_eq!(out, (0..32u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let mk = || (0..16u64).map(|i| move || i * i + 1).collect::<Vec<_>>();
        assert_eq!(run_jobs(mk(), 1), run_jobs(mk(), 7));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..3u32).map(|i| move || i).collect();
        assert_eq!(run_jobs(jobs, 64), vec![0, 1, 2]);
    }

    #[test]
    fn zero_workers_clamps_to_sequential() {
        let jobs: Vec<_> = (0..4u32).map(|i| move || i + 10).collect();
        assert_eq!(run_jobs(jobs, 0), vec![10, 11, 12, 13]);
    }

    #[test]
    fn workers_run_under_the_callers_audit_scope() {
        let (budgets, _) = ioat_guard::with_audit_budget(Some(777), || {
            let jobs: Vec<_> = (0..8).map(|_| ioat_guard::event_budget).collect();
            run_jobs(jobs, 4)
        });
        assert_eq!(budgets.unwrap(), vec![Some(777); 8]);
        let jobs: Vec<_> = (0..8).map(|_| ioat_guard::event_budget).collect();
        assert_eq!(run_jobs(jobs, 4), vec![None; 8], "no scope, no budget");
    }

    #[test]
    #[should_panic(expected = "empty job list")]
    fn empty_job_list_is_rejected_as_a_harness_bug() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        let _ = run_jobs(jobs, 4);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("job 5 exploded");
                    }
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs, 4)))
            .expect_err("the job panic must reach the caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job 5 exploded"), "got panic payload: {msg:?}");
    }

    #[test]
    fn first_panic_in_input_order_wins() {
        // Job 1 panics but is slow; job 6 panics immediately. The caller
        // must still see job 1's payload: re-raise order follows input
        // position, not completion order.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                Box::new(move || {
                    if i == 1 {
                        let mut acc = 0u64;
                        for k in 0..2_000_000u64 {
                            acc = acc.wrapping_add(k);
                        }
                        std::hint::black_box(acc);
                        panic!("slow early panic");
                    }
                    if i == 6 {
                        panic!("fast late panic");
                    }
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs, 8)))
            .expect_err("panics propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "slow early panic");
    }

    #[test]
    fn supervised_isolates_a_panicking_job() {
        let jobs: Vec<Box<dyn FnMut() -> u32 + Send>> = (0..6u32)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("point 2 is cursed");
                    }
                    i * 10
                }) as Box<dyn FnMut() -> u32 + Send>
            })
            .collect();
        let out = run_jobs_supervised(jobs, 3, 0);
        assert_eq!(out.len(), 6);
        for (i, outcome) in out.into_iter().enumerate() {
            if i == 2 {
                let JobOutcome::Failed { reason } = outcome else {
                    panic!("job 2 must fail");
                };
                assert!(reason.starts_with("panicked:"), "reason: {reason}");
                assert!(reason.contains("point 2 is cursed"), "reason: {reason}");
            } else {
                assert_eq!(outcome.ok(), Some(i as u32 * 10), "job {i} unaffected");
            }
        }
    }

    #[test]
    fn retries_rerun_the_same_job_until_it_succeeds() {
        // A job that panics on its first attempts and succeeds later:
        // recoverable only through the supervised entry point, and only
        // when the retry budget covers it.
        let mk = |failures: u32| {
            let mut calls = 0u32;
            move || {
                calls += 1;
                if calls <= failures {
                    panic!("transient failure #{calls}");
                }
                calls
            }
        };
        let out = run_jobs_supervised(vec![mk(2)], 1, 2);
        assert_eq!(out, vec![JobOutcome::Ok(3)], "succeeds on attempt 3 of 3");
        let out = run_jobs_supervised(vec![mk(2)], 1, 1);
        assert!(out[0].is_failed(), "retry budget of 1 is not enough");
        let JobOutcome::Failed { reason } = &out[0] else {
            unreachable!()
        };
        assert!(
            reason.contains("transient failure #2"),
            "the *last* attempt's panic is reported: {reason}"
        );
    }

    #[test]
    fn watchdog_panics_classify_as_wedged() {
        // The deterministic event-budget watchdog kills a wedged job with
        // an "event limit ... exceeded" panic; the supervisor labels it
        // `wedged:` so a report reader can tell livelock from a crash.
        let jobs: Vec<Box<dyn FnMut() + Send>> = vec![Box::new(|| {
            panic!("event limit 5000 exceeded at t=1.2ms — possible event loop")
        })];
        let out = run_jobs_supervised(jobs, 1, 0);
        let JobOutcome::Failed { reason } = &out[0] else {
            panic!("watchdog panic must surface as Failed");
        };
        assert!(reason.starts_with("wedged:"), "reason: {reason}");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
