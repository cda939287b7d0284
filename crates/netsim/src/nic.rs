//! NIC-side receive machinery: frames and interrupt coalescing.
//!
//! The NIC DMAs arriving frames into kernel memory without CPU
//! involvement; the CPU cost starts at the interrupt. With coalescing
//! enabled the adapter batches several frames per interrupt (§2.1: "one
//! interrupt for multiple packets rather than ... every single packet"),
//! trading a bounded delay for fewer handler entries.

use crate::tcp::ConnId;
use ioat_simcore::{SimDuration, SimTime};

/// Default interrupt-throttle gap: even with explicit coalescing off, the
/// adapter (like the e1000's default ITR) never raises interrupts closer
/// together than this.
pub const ITR_MIN_GAP: SimDuration = SimDuration::from_micros(35);

/// Wire overhead per Ethernet frame beyond the TCP payload: Ethernet
/// header + CRC (18), preamble + IFG (20), IP + TCP headers (40).
pub const FRAME_OVERHEAD: u64 = 78;

/// A frame as seen by the receiving NIC: payload bytes of a connection's
/// stream ending at cumulative sequence `seq_end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The connection the frame belongs to.
    pub conn: ConnId,
    /// TCP payload bytes.
    pub payload: u64,
    /// Cumulative stream position after this frame.
    pub seq_end: u64,
}

impl Frame {
    /// Bytes the frame occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.payload + FRAME_OVERHEAD
    }
}

/// What the NIC should do after accepting a frame into the RX ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceAction {
    /// Raise an interrupt immediately (batch is ready or coalescing off).
    RaiseNow,
    /// First frame of a batch: arm the coalescing timer for this delay.
    ArmTimer(SimDuration),
    /// A timer is already armed; just accumulate.
    Accumulate,
}

/// Per-port interrupt coalescing state machine.
///
/// ```rust
/// use ioat_netsim::nic::{CoalesceAction, RxCoalescer};
/// use ioat_simcore::{SimDuration, SimTime};
///
/// let mut c = RxCoalescer::new(true, 4, SimDuration::from_micros(30));
/// assert!(matches!(c.on_frame(SimTime::ZERO), CoalesceAction::ArmTimer(_)));
/// assert_eq!(c.on_frame(SimTime::ZERO), CoalesceAction::Accumulate);
/// assert!(c.on_timer(), "timer flushes the partial batch");
/// assert_eq!(c.take_batch(SimTime::from_micros(30)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RxCoalescer {
    enabled: bool,
    /// Polling receive (busy-poll / kernel-bypass): every frame is picked
    /// up immediately — no coalescing delay and no interrupt throttling.
    polling: bool,
    max_frames: u32,
    delay: SimDuration,
    pending: u32,
    timer_armed: bool,
    last_raise: Option<SimTime>,
    interrupts_raised: u64,
    frames_seen: u64,
}

impl RxCoalescer {
    /// Creates a coalescer. With `enabled == false` every frame raises an
    /// interrupt immediately.
    pub fn new(enabled: bool, max_frames: u32, delay: SimDuration) -> Self {
        assert!(max_frames > 0, "coalescing batch must be at least 1 frame");
        RxCoalescer {
            enabled,
            polling: false,
            max_frames,
            delay,
            pending: 0,
            timer_armed: false,
            last_raise: None,
            interrupts_raised: 0,
            frames_seen: 0,
        }
    }

    /// Creates a polling-mode coalescer: a dedicated polling core reaps
    /// every frame as it lands, so there is no delay timer and no ITR
    /// throttle — `on_frame` always answers [`CoalesceAction::RaiseNow`].
    pub fn polling() -> Self {
        RxCoalescer {
            polling: true,
            ..Self::new(false, 1, SimDuration::ZERO)
        }
    }

    /// Registers an arriving frame and decides what to do.
    pub fn on_frame(&mut self, now: SimTime) -> CoalesceAction {
        self.frames_seen += 1;
        self.pending += 1;
        if self.polling {
            return CoalesceAction::RaiseNow;
        }
        if self.enabled {
            // The full-batch check must run even while the delay timer is
            // armed — the timer arms on the *first* frame of a batch, so
            // every batch that fills up does so with the timer armed.
            // (Checking `timer_armed` first made this branch dead code and
            // batches grew without bound at high link rates.) The raise
            // drains the batch; the still-scheduled timer later finds
            // whatever a subsequent partial batch accumulated, or nothing.
            if self.pending >= self.max_frames {
                return CoalesceAction::RaiseNow;
            }
            if self.timer_armed {
                return CoalesceAction::Accumulate;
            }
            self.timer_armed = true;
            return CoalesceAction::ArmTimer(self.delay);
        }
        if self.timer_armed {
            return CoalesceAction::Accumulate;
        }
        // Interrupt throttling only: raise immediately unless the
        // last interrupt was too recent.
        match self.last_raise {
            Some(last) if now < last + ITR_MIN_GAP => {
                self.timer_armed = true;
                CoalesceAction::ArmTimer((last + ITR_MIN_GAP) - now)
            }
            _ => CoalesceAction::RaiseNow,
        }
    }

    /// The coalescing timer fired. Returns `true` if there is a batch to
    /// process (it may have been drained already by a full-batch raise).
    pub fn on_timer(&mut self) -> bool {
        self.timer_armed = false;
        self.pending > 0
    }

    /// Takes the accumulated batch for interrupt processing, resetting the
    /// state machine.
    pub fn take_batch(&mut self, now: SimTime) -> u32 {
        let n = self.pending;
        self.pending = 0;
        self.timer_armed = false;
        if n > 0 {
            self.interrupts_raised += 1;
            self.last_raise = Some(now);
        }
        n
    }

    /// Frames currently accumulated.
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Interrupts raised so far.
    pub fn interrupts_raised(&self) -> u64 {
        self.interrupts_raised
    }

    /// Frames seen so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_coalescer_is_interrupt_throttled() {
        let mut c = RxCoalescer::new(false, 8, SimDuration::from_micros(30));
        // First frame raises immediately.
        assert_eq!(c.on_frame(SimTime::ZERO), CoalesceAction::RaiseNow);
        assert_eq!(c.take_batch(SimTime::ZERO), 1);
        // A frame inside the ITR gap defers to the gap edge...
        let t1 = SimTime::from_micros(10);
        assert!(matches!(
            c.on_frame(t1),
            CoalesceAction::ArmTimer(d) if d == ITR_MIN_GAP - SimDuration::from_micros(10)
        ));
        assert_eq!(
            c.on_frame(SimTime::from_micros(20)),
            CoalesceAction::Accumulate
        );
        assert!(c.on_timer());
        assert_eq!(c.take_batch(SimTime::ZERO + ITR_MIN_GAP), 2);
        // ...and a frame past the gap raises immediately again.
        let late = SimTime::ZERO + ITR_MIN_GAP + ITR_MIN_GAP;
        assert_eq!(c.on_frame(late), CoalesceAction::RaiseNow);
    }

    #[test]
    fn timer_flushes_partial_batch() {
        let mut c = RxCoalescer::new(true, 8, SimDuration::from_micros(30));
        assert!(
            matches!(c.on_frame(SimTime::ZERO), CoalesceAction::ArmTimer(d) if d == SimDuration::from_micros(30))
        );
        assert_eq!(c.on_frame(SimTime::ZERO), CoalesceAction::Accumulate);
        assert!(c.on_timer(), "timer finds a 2-frame batch");
        assert_eq!(c.take_batch(SimTime::from_micros(30)), 2);
        assert!(!c.on_timer(), "no second batch");
    }

    #[test]
    fn full_batch_preempts_timer() {
        // Regression for the coalescing tail-flush bug: the timer arms on
        // the first frame of every batch, so the old `timer_armed` early
        // return made the max-frames check unreachable and batches grew
        // without bound at high link rates.
        let mut c = RxCoalescer::new(true, 3, SimDuration::from_micros(30));
        assert!(matches!(
            c.on_frame(SimTime::ZERO),
            CoalesceAction::ArmTimer(_)
        ));
        assert_eq!(c.on_frame(SimTime::ZERO), CoalesceAction::Accumulate);
        // Third frame fills the batch while the timer is armed: it must
        // fire immediately, not wait out the delay.
        assert_eq!(c.on_frame(SimTime::ZERO), CoalesceAction::RaiseNow);
        assert_eq!(c.take_batch(SimTime::ZERO), 3);
        // The stale timer finds an empty batch and does nothing.
        assert!(!c.on_timer());
        // Next frame re-arms a fresh timer.
        assert!(matches!(
            c.on_frame(SimTime::ZERO),
            CoalesceAction::ArmTimer(_)
        ));
    }

    #[test]
    fn stale_timer_flushes_a_partial_tail_batch() {
        // A full batch preempts the timer, then a stream's *final* frames
        // arrive — fewer than max_frames. The delayed interrupt must still
        // fire for them (the held-partial-batch hazard): either the stale
        // first timer or the freshly armed one flushes the tail.
        let mut c = RxCoalescer::new(true, 2, SimDuration::from_micros(30));
        assert!(matches!(
            c.on_frame(SimTime::ZERO),
            CoalesceAction::ArmTimer(_)
        ));
        assert_eq!(c.on_frame(SimTime::ZERO), CoalesceAction::RaiseNow);
        assert_eq!(c.take_batch(SimTime::ZERO), 2);
        // Tail frame (e.g. the frame that would have completed the next
        // batch was dropped by a fault): a new timer arms...
        assert!(matches!(
            c.on_frame(SimTime::ZERO),
            CoalesceAction::ArmTimer(_)
        ));
        // ...and the stale timer from the preempted batch fires first,
        // flushing the partial tail early. No frame is ever held forever.
        assert!(c.on_timer(), "stale timer flushes the 1-frame tail");
        assert_eq!(c.take_batch(SimTime::from_micros(30)), 1);
        // The fresh timer then finds nothing.
        assert!(!c.on_timer());
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn polling_mode_reaps_every_frame_immediately() {
        let mut c = RxCoalescer::polling();
        for i in 0..5u64 {
            // Back-to-back arrivals well inside the ITR gap: polling has
            // neither a delay timer nor an interrupt throttle.
            let now = SimTime::from_micros(i);
            assert_eq!(c.on_frame(now), CoalesceAction::RaiseNow);
            assert_eq!(c.take_batch(now), 1);
        }
        assert_eq!(c.frames_seen(), 5);
        assert_eq!(c.interrupts_raised(), 5);
    }

    #[test]
    fn frame_wire_size_includes_overhead() {
        let f = Frame {
            conn: ConnId(1),
            payload: 1460,
            seq_end: 1460,
        };
        assert_eq!(f.wire_bytes(), 1538);
    }

    #[test]
    fn coalescing_batches_more_than_throttling() {
        // Frames every 10us for 1ms: explicit coalescing (80us windows)
        // takes fewer interrupts than ITR throttling (35us gap).
        let run = |enabled: bool| {
            let mut c = RxCoalescer::new(enabled, 16, SimDuration::from_micros(80));
            let mut timer_at: Option<SimTime> = None;
            let mut irqs = 0u64;
            for i in 0..100u64 {
                let now = SimTime::from_micros(10 * i);
                if let Some(t) = timer_at {
                    if now >= t {
                        timer_at = None;
                        if c.on_timer() && c.take_batch(t) > 0 {
                            irqs += 1;
                        }
                    }
                }
                match c.on_frame(now) {
                    CoalesceAction::RaiseNow => {
                        c.take_batch(now);
                        irqs += 1;
                    }
                    CoalesceAction::ArmTimer(d) => timer_at = Some(now + d),
                    CoalesceAction::Accumulate => {}
                }
            }
            irqs
        };
        let coalesced = run(true);
        let throttled = run(false);
        assert!(
            coalesced < throttled,
            "coalesced {coalesced} should batch more than throttled {throttled}"
        );
        assert!(throttled < 100, "ITR must batch at least somewhat");
    }
}
