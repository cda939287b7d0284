//! Deterministic fault injection for `ioat-sim`.
//!
//! The paper's testbed is a loss-free dedicated-switch LAN, and the rest
//! of the simulator mirrors that. This crate adds the misbehaving-cluster
//! regime as a first-class, *deterministic* modeling target: a seed-driven
//! [`FaultPlan`] describes what goes wrong, and a per-node
//! [`FaultInjector`] is consulted by the stack, the tiers and the PVFS
//! daemons at well-defined hook points:
//!
//! * **Per-link frame loss/corruption** ([`LossModel`]): Bernoulli or
//!   Gilbert–Elliott burst loss decided at the sender's egress, one
//!   dedicated RNG stream per `(node, link)` so the fault stream never
//!   perturbs workload randomness (see [`ioat_simcore::SimRng::stream`]).
//!   A corrupted frame is dropped at the receiver's CRC check, which is
//!   indistinguishable from wire loss at this level, so the two are
//!   folded into one model.
//! * **NIC rx-ring overflow** (`rx_ring_slots`): a deterministic capacity
//!   on frames accumulated between interrupts; arrivals beyond it are
//!   dropped under backlog, RNG-free.
//! * **DMA-channel failure windows** (`dma_down`): while a window is open
//!   the copy engine is unavailable and deliveries transparently fall
//!   back to the CPU `memcpy` path.
//! * **Daemon crash–restart windows** ([`CrashWindow`]): a service id
//!   (web-tier daemon, PVFS I/O daemon) silently drops requests inside
//!   the window; clients recover with timeouts, retries and failover
//!   governed by a [`RetryPolicy`].
//! * **Fabric link flaps** ([`LinkFlapModel`]): per-fabric-link down
//!   windows, drawn once per link from a dedicated stream when the
//!   fabric installs the plan. ECMP routes around a down link over the
//!   surviving equal-cost ports; frames with no live path are counted
//!   as route blackholes (see `ioat-fabric`). The windows for `n` flaps
//!   per link are a prefix of the windows for `n+1` flaps from the same
//!   stream, so degradation is structurally monotone in the flap rate.
//! * **Switch crash windows** (`switch_crashes`): [`CrashWindow`]s whose
//!   service id is a fabric switch index; inside the window the switch
//!   forwards nothing and its neighbors route around it.
//!
//! **Inertness contract**: with [`FaultPlan::none()`] every hook returns
//! its no-fault answer without drawing a single random number or
//! scheduling a single event, so runs are bit-identical — same outputs,
//! same final RNG state — to runs that never consult the injector at all.
//! `tests/determinism.rs` pins this.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ioat_simcore::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-link frame-loss model, applied at the sender's egress.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No loss (the hook consumes no randomness).
    #[default]
    None,
    /// Independent loss: each frame is dropped with probability `p`.
    Bernoulli {
        /// Per-frame drop probability.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss. Each frame first runs the
    /// state transition, then draws the state's loss probability — two
    /// draws per frame, so the stream position is frame-count
    /// deterministic regardless of outcomes.
    GilbertElliott {
        /// Probability of entering the bad state from the good state.
        p_enter_bad: f64,
        /// Probability of leaving the bad state.
        p_exit_bad: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// True when the model can drop frames (and therefore draws RNG).
    pub fn is_active(&self) -> bool {
        !matches!(self, LossModel::None)
    }

    /// Panics unless every configured probability is a probability.
    fn validate(&self) {
        let check = |name: &str, p: f64| {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "LossModel: {name} must be a probability in [0, 1], got {p}"
            );
        };
        match *self {
            LossModel::None => {}
            LossModel::Bernoulli { p } => check("p", p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                check("p_enter_bad", p_enter_bad);
                check("p_exit_bad", p_exit_bad);
                check("loss_good", loss_good);
                check("loss_bad", loss_bad);
            }
        }
    }
}

/// A half-open interval of simulated time `[from, to)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
}

impl TimeWindow {
    /// Builds a window; `from` must not exceed `to`.
    pub fn new(from: SimTime, to: SimTime) -> Self {
        assert!(from <= to, "window runs backwards");
        TimeWindow { from, to }
    }

    /// True while `now` is inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        self.from <= now && now < self.to
    }
}

/// A scheduled crash–restart of one service: inside the window the daemon
/// identified by `service` silently drops incoming requests (it has
/// crashed and not yet restarted). Service ids are domain-scoped: the
/// data-center tiers use [`WEB_SERVICE`], PVFS uses the I/O-daemon index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Which daemon crashes.
    pub service: u32,
    /// When it is down.
    pub window: TimeWindow,
}

/// Service id of the data-center web-tier daemon in [`CrashWindow`]s.
pub const WEB_SERVICE: u32 = 0;

/// Salt folded into the per-fabric-link flap streams so they can never
/// collide with the per-`(node, link)` loss streams (whose high half is
/// a node id, always far below this).
const FLAP_STREAM_SALT: u64 = 0xF1A9 << 48;

/// Seed-driven fabric link flaps: every directed fabric link gets
/// `flaps_per_link` down-windows of length `down_for`, with start times
/// drawn uniformly over `[0, horizon)` from a stream dedicated to that
/// link. The whole schedule is a pure function of `(plan seed, link id)`
/// — the fabric materializes it once at plan-install time, so no RNG is
/// drawn while the simulation runs and the schedule is identical under
/// any partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlapModel {
    /// Down-windows per directed fabric link over the horizon.
    pub flaps_per_link: u32,
    /// How long each flap keeps the link down.
    pub down_for: SimDuration,
    /// Flap start times are drawn uniformly over `[0, horizon)`.
    pub horizon: SimTime,
}

impl LinkFlapModel {
    /// True when the model can take links down.
    pub fn is_active(&self) -> bool {
        self.flaps_per_link > 0
    }

    /// The down-windows for the link identified by `link_id`, drawn from
    /// that link's dedicated stream seeded by `seed`. Start times are
    /// drawn sequentially, so the windows for `n` flaps are a prefix of
    /// the windows for `n + 1` flaps at the same seed: raising the flap
    /// rate only ever *adds* down-time, which is what makes degradation
    /// monotone in the rate.
    pub fn windows(&self, seed: u64, link_id: u64) -> Vec<TimeWindow> {
        self.validate();
        let mut rng = SimRng::stream(seed, FLAP_STREAM_SALT ^ link_id);
        (0..self.flaps_per_link)
            .map(|_| {
                let start = rng.range(0, self.horizon.as_nanos().max(1));
                TimeWindow::new(
                    SimTime::from_nanos(start),
                    SimTime::from_nanos(start.saturating_add(self.down_for.as_nanos())),
                )
            })
            .collect()
    }

    /// Panics unless an active model has a positive window length and a
    /// positive horizon to place the windows in.
    fn validate(&self) {
        if !self.is_active() {
            return;
        }
        assert!(
            self.down_for > SimDuration::ZERO,
            "LinkFlapModel: down_for must be positive when flaps_per_link > 0"
        );
        assert!(
            self.horizon > SimTime::ZERO,
            "LinkFlapModel: horizon must be positive when flaps_per_link > 0"
        );
    }
}

/// The full, seed-driven description of what goes wrong in a run.
///
/// [`FaultPlan::none()`] (also `Default`) configures nothing: every hook
/// is inert and runs stay bit-identical to fault-free builds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG streams (ignored when no
    /// stochastic model is active).
    pub seed: u64,
    /// Egress frame loss on every link.
    pub loss: LossModel,
    /// NIC rx-ring capacity in frames; arrivals past it are dropped.
    /// `None` models an unbounded ring (today's behavior).
    pub rx_ring_slots: Option<usize>,
    /// Windows during which the DMA copy engine is unavailable and
    /// deliveries fall back to the CPU copy path.
    pub dma_down: Vec<TimeWindow>,
    /// Scheduled daemon crash–restart windows.
    pub crashes: Vec<CrashWindow>,
    /// Seed-driven fabric link flaps; consumed by the fabric, not the
    /// per-node injectors.
    pub link_flap: Option<LinkFlapModel>,
    /// Scheduled fabric switch crash windows; `service` is the switch
    /// index. Consumed by the fabric, not the per-node injectors.
    pub switch_crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// The inert plan: no faults, no RNG draws, no scheduled events.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with only independent frame loss at probability `p`.
    pub fn bernoulli_loss(seed: u64, p: f64) -> Self {
        // Checked here as well as in validate(): `p > 0.0` below would
        // silently collapse NaN to the inert model.
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "LossModel: p must be a probability in [0, 1], got {p}"
        );
        FaultPlan {
            seed,
            loss: if p > 0.0 {
                LossModel::Bernoulli { p }
            } else {
                LossModel::None
            },
            ..FaultPlan::none()
        }
    }

    /// True when the plan configures at least one fault.
    pub fn is_active(&self) -> bool {
        self.has_node_faults() || self.has_fabric_faults()
    }

    /// True when the plan configures a fault the per-node injectors
    /// consume (loss, ring capacity, DMA outages, daemon crashes).
    pub fn has_node_faults(&self) -> bool {
        self.loss.is_active()
            || self.rx_ring_slots.is_some()
            || !self.dma_down.is_empty()
            || !self.crashes.is_empty()
    }

    /// True when the plan configures a fault the fabric consumes (link
    /// flaps, switch crashes).
    pub fn has_fabric_faults(&self) -> bool {
        self.link_flap.is_some_and(|m| m.is_active()) || !self.switch_crashes.is_empty()
    }

    /// Panics with a named message unless every probability is a
    /// probability and every window runs forwards. Struct-literal plans
    /// bypass [`TimeWindow::new`], so the consumers ([`FaultInjector::new`]
    /// and the fabric's plan install) re-check here.
    pub fn validate(&self) {
        self.loss.validate();
        if let Some(slots) = self.rx_ring_slots {
            assert!(slots > 0, "FaultPlan: rx_ring_slots must be at least 1");
        }
        for w in &self.dma_down {
            assert!(
                w.from <= w.to,
                "FaultPlan: dma_down window runs backwards ({:?} > {:?})",
                w.from,
                w.to
            );
        }
        for c in self.crashes.iter().chain(&self.switch_crashes) {
            assert!(
                c.window.from <= c.window.to,
                "FaultPlan: crash window for service {} runs backwards ({:?} > {:?})",
                c.service,
                c.window.from,
                c.window.to
            );
        }
        if let Some(flap) = &self.link_flap {
            flap.validate();
        }
    }
}

/// Recovery knobs for request/response layers (data-center tiers, PVFS
/// clients): per-op deadline, bounded retries, exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Deadline for the first attempt.
    pub timeout: SimDuration,
    /// Retries after the first attempt before the op is abandoned.
    pub max_retries: u32,
    /// Deadline multiplier per retry (`timeout * backoff^attempt`).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(20),
            max_retries: 3,
            backoff: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Deadline for attempt number `attempt` (0-based).
    pub fn deadline(&self, attempt: u32) -> SimDuration {
        self.timeout.mul_f64(self.backoff.powi(attempt as i32))
    }
}

/// Gilbert–Elliott state plus the dedicated per-link RNG stream.
#[derive(Debug)]
struct LinkState {
    rng: SimRng,
    bad: bool,
}

#[derive(Debug, Default)]
struct Counters {
    daemon_drops: u64,
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    node: u32,
    links: Vec<Option<LinkState>>,
    counters: Counters,
}

impl Inner {
    fn link_state(&mut self, link: usize) -> &mut LinkState {
        if self.links.len() <= link {
            self.links.resize_with(link + 1, || None);
        }
        let (seed, node) = (self.plan.seed, self.node);
        self.links[link].get_or_insert_with(|| LinkState {
            // One independent stream per (node, link): drawing for one
            // link never shifts another link's (or the workload's) stream.
            rng: SimRng::stream(seed, ((node as u64) << 32) | link as u64),
            bad: false,
        })
    }
}

/// A per-node handle on a [`FaultPlan`]: cheap to clone, consulted at the
/// hook points. [`FaultInjector::inert()`] (the default) answers every
/// query with the no-fault answer at zero cost.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl FaultInjector {
    /// The no-fault injector; every hook is a no-op.
    pub fn inert() -> Self {
        FaultInjector::default()
    }

    /// Builds the injector for node `node`. A plan with no node-level
    /// faults yields an inert injector, preserving the bit-identity
    /// contract — fabric-only plans (link flaps, switch crashes) are the
    /// fabric's business and must not wake per-node recovery timers.
    pub fn new(plan: &FaultPlan, node: u32) -> Self {
        plan.validate();
        if !plan.has_node_faults() {
            return FaultInjector::inert();
        }
        FaultInjector {
            inner: Some(Rc::new(RefCell::new(Inner {
                plan: plan.clone(),
                node,
                links: Vec::new(),
                counters: Counters::default(),
            }))),
        }
    }

    /// True when any fault is configured. Recovery layers gate *all*
    /// timer arming on this so the inert injector schedules zero events.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Egress hook: should the frame leaving on `link` be lost? Draws
    /// from the link's dedicated stream only when a loss model is active.
    pub fn frame_lost(&self, link: usize) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut st = inner.borrow_mut();
        match st.plan.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => st.link_state(link).rng.chance(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let ls = st.link_state(link);
                let flip = ls.rng.chance(if ls.bad { p_exit_bad } else { p_enter_bad });
                if flip {
                    ls.bad = !ls.bad;
                }
                let p = if ls.bad { loss_bad } else { loss_good };
                ls.rng.chance(p)
            }
        }
    }

    /// NIC hook: the rx-ring frame capacity, when one is configured.
    pub fn rx_ring_slots(&self) -> Option<usize> {
        self.inner.as_ref()?.borrow().plan.rx_ring_slots
    }

    /// Delivery hook: is the DMA copy engine down at `now`?
    pub fn dma_down(&self, now: SimTime) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.borrow().plan.dma_down.iter().any(|w| w.contains(now)),
        }
    }

    /// Daemon hook: is `service` inside one of its crash windows at `now`?
    pub fn service_down(&self, service: u32, now: SimTime) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner
                .borrow()
                .plan
                .crashes
                .iter()
                .any(|c| c.service == service && c.window.contains(now)),
        }
    }

    /// Records one request silently dropped by a crashed daemon.
    pub fn note_daemon_drop(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().counters.daemon_drops += 1;
        }
    }

    /// Requests dropped by crashed daemons so far.
    pub fn daemon_drops(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().counters.daemon_drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let inj = FaultInjector::new(&plan, 0);
        assert!(!inj.is_active());
        assert!(!inj.frame_lost(0));
        assert!(inj.rx_ring_slots().is_none());
        assert!(!inj.dma_down(SimTime::from_micros(10)));
        assert!(!inj.service_down(0, SimTime::from_micros(10)));
        assert_eq!(inj.daemon_drops(), 0);
    }

    #[test]
    fn bernoulli_zero_probability_collapses_to_none() {
        assert!(!FaultPlan::bernoulli_loss(1, 0.0).is_active());
        assert!(FaultPlan::bernoulli_loss(1, 0.01).is_active());
    }

    #[test]
    fn bernoulli_loss_rate_tracks_p() {
        let inj = FaultInjector::new(&FaultPlan::bernoulli_loss(7, 0.1), 0);
        let drops = (0..20_000).filter(|_| inj.frame_lost(0)).count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn loss_streams_are_per_link_and_reproducible() {
        let plan = FaultPlan::bernoulli_loss(42, 0.5);
        let a = FaultInjector::new(&plan, 3);
        let b = FaultInjector::new(&plan, 3);
        let seq_a: Vec<bool> = (0..64).map(|_| a.frame_lost(1)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.frame_lost(1)).collect();
        assert_eq!(seq_a, seq_b, "same (seed, node, link) replays exactly");
        // A different link (same node) has an independent stream.
        let seq_c: Vec<bool> = (0..64).map(|_| b.frame_lost(2)).collect();
        assert_ne!(seq_a, seq_c);
        // Interleaving draws across links does not perturb either stream.
        let d = FaultInjector::new(&plan, 3);
        let mut interleaved = Vec::new();
        for _ in 0..64 {
            interleaved.push(d.frame_lost(1));
            let _ = d.frame_lost(2);
        }
        assert_eq!(seq_a, interleaved);
    }

    #[test]
    fn gilbert_elliott_bursts_more_than_bernoulli_at_equal_rate() {
        // Same long-run loss rate, but GE clusters drops into bursts: the
        // mean run length of consecutive drops must exceed Bernoulli's.
        let ge = FaultInjector::new(
            &FaultPlan {
                seed: 11,
                loss: LossModel::GilbertElliott {
                    p_enter_bad: 0.02,
                    p_exit_bad: 0.2,
                    loss_good: 0.0,
                    loss_bad: 0.5,
                },
                ..FaultPlan::none()
            },
            0,
        );
        let be = FaultInjector::new(&FaultPlan::bernoulli_loss(11, 0.045), 0);
        let run_lengths = |inj: &FaultInjector| {
            let (mut runs, mut len, mut total, mut drops) = (0u64, 0u64, 0u64, 0u64);
            for _ in 0..100_000 {
                if inj.frame_lost(0) {
                    len += 1;
                    drops += 1;
                } else if len > 0 {
                    runs += 1;
                    total += len;
                    len = 0;
                }
            }
            (drops, total as f64 / runs.max(1) as f64)
        };
        let (ge_drops, ge_run) = run_lengths(&ge);
        let (be_drops, be_run) = run_lengths(&be);
        assert!(ge_drops > 1_000 && be_drops > 1_000);
        assert!(
            ge_run > 1.5 * be_run,
            "GE mean burst {ge_run:.2} vs Bernoulli {be_run:.2}"
        );
    }

    #[test]
    fn windows_and_services() {
        let w = TimeWindow::new(SimTime::from_micros(10), SimTime::from_micros(20));
        assert!(!w.contains(SimTime::from_micros(9)));
        assert!(w.contains(SimTime::from_micros(10)));
        assert!(!w.contains(SimTime::from_micros(20)));
        let plan = FaultPlan {
            dma_down: vec![w],
            crashes: vec![CrashWindow {
                service: 2,
                window: w,
            }],
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(&plan, 0);
        assert!(inj.dma_down(SimTime::from_micros(15)));
        assert!(!inj.dma_down(SimTime::from_micros(25)));
        assert!(inj.service_down(2, SimTime::from_micros(15)));
        assert!(!inj.service_down(1, SimTime::from_micros(15)));
        inj.note_daemon_drop();
        assert_eq!(inj.daemon_drops(), 1);
    }

    #[test]
    fn retry_policy_backs_off() {
        let r = RetryPolicy::default();
        assert_eq!(r.deadline(0), r.timeout);
        assert!(r.deadline(2) > r.deadline(1));
        assert_eq!(r.deadline(1), r.timeout.mul_f64(r.backoff));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn backwards_window_panics() {
        TimeWindow::new(SimTime::from_micros(2), SimTime::from_micros(1));
    }

    fn flap(flaps: u32) -> LinkFlapModel {
        LinkFlapModel {
            flaps_per_link: flaps,
            down_for: SimDuration::from_micros(500),
            horizon: SimTime::from_millis(30),
        }
    }

    #[test]
    fn fabric_only_plans_keep_node_injectors_inert() {
        let plan = FaultPlan {
            link_flap: Some(flap(2)),
            switch_crashes: vec![CrashWindow {
                service: 7,
                window: TimeWindow::new(SimTime::from_micros(1), SimTime::from_micros(2)),
            }],
            ..FaultPlan::none()
        };
        assert!(plan.is_active() && plan.has_fabric_faults());
        assert!(!plan.has_node_faults());
        // Per-node injectors must not arm recovery machinery for faults
        // that live entirely inside the fabric.
        assert!(!FaultInjector::new(&plan, 0).is_active());
    }

    #[test]
    fn flap_windows_replay_and_are_per_link() {
        let m = flap(4);
        let a = m.windows(9, 3);
        assert_eq!(a.len(), 4);
        assert_eq!(a, m.windows(9, 3), "same (seed, link) replays exactly");
        assert_ne!(a, m.windows(9, 4), "links draw independent schedules");
        assert_ne!(a, m.windows(10, 3), "seeds draw independent schedules");
        for w in &a {
            assert_eq!(w.to, w.from + SimDuration::from_micros(500));
            assert!(w.from < SimTime::from_millis(30));
        }
    }

    #[test]
    fn more_flaps_extend_the_same_schedule() {
        // The monotonicity backbone: n flaps are a prefix of n+1 flaps,
        // so a higher rate only ever adds down-time.
        let lo = flap(2).windows(42, 5);
        let hi = flap(3).windows(42, 5);
        assert_eq!(lo[..], hi[..2]);
    }

    #[test]
    fn zero_flap_model_is_inactive() {
        let m = LinkFlapModel {
            flaps_per_link: 0,
            down_for: SimDuration::ZERO,
            horizon: SimTime::ZERO,
        };
        assert!(!m.is_active());
        assert!(m.windows(1, 1).is_empty());
        assert!(!FaultPlan {
            link_flap: Some(m),
            ..FaultPlan::none()
        }
        .is_active());
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn nan_loss_probability_panics() {
        FaultInjector::new(&FaultPlan::bernoulli_loss(1, f64::NAN), 0);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn negative_loss_probability_panics() {
        let plan = FaultPlan {
            loss: LossModel::GilbertElliott {
                p_enter_bad: 0.1,
                p_exit_bad: -0.2,
                loss_good: 0.0,
                loss_bad: 0.5,
            },
            ..FaultPlan::none()
        };
        FaultInjector::new(&plan, 0);
    }

    #[test]
    #[should_panic(expected = "runs backwards")]
    fn literal_backwards_crash_window_is_rejected() {
        // Struct-literal windows bypass TimeWindow::new; validate() has
        // to catch them at the consumer boundary.
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                service: 1,
                window: TimeWindow {
                    from: SimTime::from_micros(2),
                    to: SimTime::from_micros(1),
                },
            }],
            ..FaultPlan::none()
        };
        FaultInjector::new(&plan, 0);
    }

    #[test]
    #[should_panic(expected = "down_for must be positive")]
    fn zero_length_flap_panics() {
        let plan = FaultPlan {
            link_flap: Some(LinkFlapModel {
                flaps_per_link: 1,
                down_for: SimDuration::ZERO,
                horizon: SimTime::from_millis(1),
            }),
            ..FaultPlan::none()
        };
        plan.validate();
    }
}
