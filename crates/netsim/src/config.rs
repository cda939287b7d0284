//! Configuration: socket options, I/OAT feature flags and stack cost
//! parameters.

use ioat_memsim::{CopyParams, DmaConfig};
use ioat_simcore::SimDuration;

/// Standard Ethernet MTU.
pub const MTU_STANDARD: u64 = 1500;
/// The paper's "jumbo" MTU for Case 4 (§4.3: "we increased the MTU-size to
/// 2048 bytes").
pub const MTU_JUMBO: u64 = 2048;
/// Full 9000-byte jumbo frames, standard on post-10GbE fabrics — used by
/// the 2026-class stack profile (`SocketOpts::modern_2026`).
pub const MTU_MODERN: u64 = 9000;
/// TCP + IP header bytes carried inside the MTU.
pub const TCPIP_HEADERS: u64 = 40;

/// How the receive path gets told about arriving frames — the stack-variant
/// axis of the modern-offload ablation grid (`repro abl-modern`).
///
/// The 2007 testbed only had [`RxMode::Interrupt`] (with the NIC's ITR
/// throttle) and optional coalescing; the other variants model the stacks
/// that displaced it and attack the same per-packet costs I/OAT attacks
/// from the other side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RxMode {
    /// Interrupt per frame, subject only to the adapter's ITR minimum gap
    /// — the 2007 default.
    #[default]
    Interrupt,
    /// Hardware interrupt coalescing forced on: one interrupt per batch
    /// (bounded by `coalesce_max_frames` / `coalesce_delay`), regardless
    /// of the per-socket `coalescing` option.
    Coalesced,
    /// Busy-polling receive (NAPI-poll/`SO_BUSY_POLL` lineage): dedicated
    /// polling cores reap frames as they land. No interrupt entry cost, no
    /// coalescing delay, and no scheduler wake on delivery (the reader
    /// spins); syscall and copy costs remain.
    BusyPoll,
    /// Kernel-bypass zero-copy (DPDK/io_uring-zc lineage): polling receive
    /// *and* the NIC DMAs payload directly into user buffers, so there is
    /// no process-context rx-copy at all — neither CPU nor copy-engine.
    /// Headers are processed from a compact descriptor ring (same
    /// confinement as split-header placement).
    ZeroCopy,
}

impl RxMode {
    /// Every variant, in ablation-grid sweep order.
    pub const ALL: [RxMode; 4] = [
        RxMode::Interrupt,
        RxMode::Coalesced,
        RxMode::BusyPoll,
        RxMode::ZeroCopy,
    ];

    /// Short stable tag used in dotted row IDs (`abl.modern/10g/busypoll`).
    pub fn tag(&self) -> &'static str {
        match self {
            RxMode::Interrupt => "irq",
            RxMode::Coalesced => "coalesce",
            RxMode::BusyPoll => "busypoll",
            RxMode::ZeroCopy => "zerocopy",
        }
    }

    /// True for the polling variants (no interrupt cost).
    pub fn is_polling(&self) -> bool {
        matches!(self, RxMode::BusyPoll | RxMode::ZeroCopy)
    }
}

/// Per-connection socket options — the knobs the paper sweeps as
/// "Cases 1–5" in §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketOpts {
    /// Send socket buffer in bytes; bounds the sender's in-flight window.
    pub sndbuf: u64,
    /// Receive socket buffer in bytes; bounds the advertised window.
    pub rcvbuf: u64,
    /// TCP segmentation offload: the host hands the NIC buffers larger
    /// than the MTU and the controller cuts the frames.
    pub tso: bool,
    /// Maximum transmission unit in bytes.
    pub mtu: u64,
    /// Receive interrupt coalescing (one interrupt for several frames).
    pub coalescing: bool,
    /// Zero-copy send (`sendfile()`): skip the user→kernel copy.
    pub sendfile: bool,
    /// Application read size: how many bytes each `recv()` drains; also
    /// the kernel→user copy granularity.
    pub read_size: u64,
}

impl SocketOpts {
    /// Case 1: default socket options, no optimizations.
    pub fn case1() -> Self {
        SocketOpts {
            sndbuf: 64 * 1024,
            rcvbuf: 64 * 1024,
            tso: false,
            mtu: MTU_STANDARD,
            coalescing: false,
            sendfile: false,
            read_size: 16 * 1024,
        }
    }

    /// Case 2: Case 1 plus 1 MB socket buffers.
    pub fn case2() -> Self {
        SocketOpts {
            sndbuf: 1024 * 1024,
            rcvbuf: 1024 * 1024,
            read_size: 64 * 1024,
            ..Self::case1()
        }
    }

    /// Case 3: Case 2 plus TCP segmentation offload.
    pub fn case3() -> Self {
        SocketOpts {
            tso: true,
            ..Self::case2()
        }
    }

    /// Case 4: Case 3 plus jumbo (2048-byte) frames.
    pub fn case4() -> Self {
        SocketOpts {
            mtu: MTU_JUMBO,
            ..Self::case3()
        }
    }

    /// Case 5: Case 4 plus receive interrupt coalescing.
    pub fn case5() -> Self {
        SocketOpts {
            coalescing: true,
            ..Self::case4()
        }
    }

    /// The configuration used when the paper is not sweeping socket
    /// options (all optimizations on).
    pub fn tuned() -> Self {
        Self::case5()
    }

    /// Socket options for the 2026-class stack profile: 9000-byte jumbo
    /// frames, 4 MB socket buffers, TSO and `sendfile` on, 64 KB reads.
    /// `coalescing` stays *off* here — in the modern ablation the receive
    /// notification strategy is governed by [`RxMode`], not the per-socket
    /// flag.
    pub fn modern_2026() -> Self {
        SocketOpts {
            sndbuf: 4 * 1024 * 1024,
            rcvbuf: 4 * 1024 * 1024,
            tso: true,
            mtu: MTU_MODERN,
            coalescing: false,
            sendfile: true,
            read_size: 64 * 1024,
        }
    }

    /// The five cases in sweep order, with their paper labels.
    pub fn all_cases() -> [(&'static str, SocketOpts); 5] {
        [
            ("Case 1", Self::case1()),
            ("Case 2", Self::case2()),
            ("Case 3", Self::case3()),
            ("Case 4", Self::case4()),
            ("Case 5", Self::case5()),
        ]
    }

    /// Maximum TCP payload per frame under these options.
    pub fn mss(&self) -> u64 {
        self.mtu - TCPIP_HEADERS
    }

    /// The advertised receive window.
    pub fn window(&self) -> u64 {
        self.rcvbuf
    }
}

impl Default for SocketOpts {
    fn default() -> Self {
        Self::tuned()
    }
}

/// Which I/OAT features are active on a node (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoatConfig {
    /// Offload kernel→user copies to the asynchronous DMA engine.
    pub dma_engine: bool,
    /// Split-header receive placement: headers land in a small dedicated
    /// ring, payload goes to separate buffers the CPU never touches during
    /// protocol processing.
    pub split_header: bool,
    /// Multiple receive queues with flow affinity (RSS). The paper could
    /// not evaluate this ("currently disabled in Linux"); we implement it
    /// as a core-count-aware model: one queue per core, flows steered by a
    /// seed-stable hash of the connection id.
    pub multi_queue: bool,
    /// Receive-notification stack variant (interrupt / coalesced /
    /// busy-poll / kernel-bypass zero-copy). Defaults to
    /// [`RxMode::Interrupt`], the paper's configuration.
    pub rx_mode: RxMode,
}

impl IoatConfig {
    /// Traditional communication — the paper's "non-I/OAT" baseline.
    pub fn disabled() -> Self {
        IoatConfig::default()
    }

    /// Only the copy engine (the paper's "I/OAT-DMA" configuration in
    /// Fig. 7).
    pub fn dma_only() -> Self {
        IoatConfig {
            dma_engine: true,
            ..Self::default()
        }
    }

    /// DMA engine + split headers — the paper's "I/OAT" / "I/OAT-SPLIT"
    /// configuration (multi-queue stays off, as in the Linux kernel the
    /// paper used).
    pub fn full() -> Self {
        IoatConfig {
            dma_engine: true,
            split_header: true,
            ..Self::default()
        }
    }

    /// Everything on, including the multi-queue feature the paper could
    /// not measure.
    pub fn full_with_multi_queue() -> Self {
        IoatConfig {
            multi_queue: true,
            ..Self::full()
        }
    }

    /// The same feature set under a different receive-notification mode.
    pub fn with_rx_mode(mut self, mode: RxMode) -> Self {
        self.rx_mode = mode;
        self
    }

    /// The same feature set with multi-queue RSS forced on or off.
    pub fn with_multi_queue(mut self, on: bool) -> Self {
        self.multi_queue = on;
        self
    }

    /// True when anything differs from the traditional 2007 baseline:
    /// any I/OAT feature bit, or a non-default receive mode.
    pub fn any(&self) -> bool {
        self.dma_engine
            || self.split_header
            || self.multi_queue
            || self.rx_mode != RxMode::Interrupt
    }

    /// Short label used in result tables. Exhaustive over every feature ×
    /// rx-mode combination — no variant silently renders as a wrong or
    /// catch-all label (`config::tests::labels_are_exhaustive_and_unique`
    /// enumerates all of them).
    pub fn label(&self) -> &'static str {
        use RxMode::*;
        match (
            self.rx_mode,
            self.dma_engine,
            self.split_header,
            self.multi_queue,
        ) {
            (Interrupt, false, false, false) => "non-I/OAT",
            (Interrupt, false, false, true) => "non-I/OAT+MQ",
            (Interrupt, false, true, false) => "SPLIT-only",
            (Interrupt, false, true, true) => "SPLIT-only+MQ",
            (Interrupt, true, false, false) => "I/OAT-DMA",
            (Interrupt, true, false, true) => "I/OAT-DMA+MQ",
            (Interrupt, true, true, false) => "I/OAT",
            (Interrupt, true, true, true) => "I/OAT+MQ",
            (Coalesced, false, false, false) => "non-I/OAT/coalesce",
            (Coalesced, false, false, true) => "non-I/OAT+MQ/coalesce",
            (Coalesced, false, true, false) => "SPLIT-only/coalesce",
            (Coalesced, false, true, true) => "SPLIT-only+MQ/coalesce",
            (Coalesced, true, false, false) => "I/OAT-DMA/coalesce",
            (Coalesced, true, false, true) => "I/OAT-DMA+MQ/coalesce",
            (Coalesced, true, true, false) => "I/OAT/coalesce",
            (Coalesced, true, true, true) => "I/OAT+MQ/coalesce",
            (BusyPoll, false, false, false) => "non-I/OAT/busypoll",
            (BusyPoll, false, false, true) => "non-I/OAT+MQ/busypoll",
            (BusyPoll, false, true, false) => "SPLIT-only/busypoll",
            (BusyPoll, false, true, true) => "SPLIT-only+MQ/busypoll",
            (BusyPoll, true, false, false) => "I/OAT-DMA/busypoll",
            (BusyPoll, true, false, true) => "I/OAT-DMA+MQ/busypoll",
            (BusyPoll, true, true, false) => "I/OAT/busypoll",
            (BusyPoll, true, true, true) => "I/OAT+MQ/busypoll",
            (ZeroCopy, false, false, false) => "non-I/OAT/zerocopy",
            (ZeroCopy, false, false, true) => "non-I/OAT+MQ/zerocopy",
            (ZeroCopy, false, true, false) => "SPLIT-only/zerocopy",
            (ZeroCopy, false, true, true) => "SPLIT-only+MQ/zerocopy",
            (ZeroCopy, true, false, false) => "I/OAT-DMA/zerocopy",
            (ZeroCopy, true, false, true) => "I/OAT-DMA+MQ/zerocopy",
            (ZeroCopy, true, true, false) => "I/OAT/zerocopy",
            (ZeroCopy, true, true, true) => "I/OAT+MQ/zerocopy",
        }
    }
}

/// Cost parameters of the host stack model.
///
/// Defaults are calibrated against the paper's testbed (dual-core dual
/// 3.46 GHz Xeon, 2 MB L2) and the TCP/IP processing characterizations the
/// paper cites (\[11], \[15], \[16]): receive-side processing costs a few
/// microseconds per packet, dominated by memory accesses, and goes up
/// sharply when connection/header state misses in cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackParams {
    /// Fixed CPU cost per received packet (demux, TCP state machine),
    /// excluding the cache-dependent accesses below.
    pub proto_base: SimDuration,
    /// Cost to take one interrupt (context save, handler entry).
    pub irq_cost: SimDuration,
    /// NIC→kernel bookkeeping per frame inside the handler (ring
    /// manipulation, skb alloc).
    pub irq_per_frame: SimDuration,
    /// Cost of a syscall entry/exit (`recv`, `send`).
    pub syscall: SimDuration,
    /// Cost to wake and dispatch a blocked thread (scheduler + context
    /// switch).
    pub wake: SimDuration,
    /// Sender CPU cost to cut one MSS-sized segment when TSO is off.
    pub segment_cost: SimDuration,
    /// Sender CPU cost per large TSO chunk handed to the NIC.
    pub tso_chunk_cost: SimDuration,
    /// TSO chunk size in bytes.
    pub tso_chunk: u64,
    /// Bytes of hot per-connection state touched on every packet.
    pub conn_state_bytes: u64,
    /// Bytes of packet headers the CPU reads per packet.
    pub header_bytes: u64,
    /// Size of the dedicated split-header ring (stays cache-resident).
    pub header_ring_bytes: u64,
    /// Cost per cache line access that hits (pipelined L2 hit).
    pub line_hit: SimDuration,
    /// Cost per *dependent* cache line miss on the protocol path (full
    /// memory latency; these accesses serialize).
    pub line_miss: SimDuration,
    /// Scheduler contention: fractional extra wake cost per runnable
    /// receive thread beyond the core count (run-queue lengths, context
    /// switch cache damage). Drives the Fig. 4 CPU growth with thread
    /// count.
    pub sched_contention: f64,
    /// Extra per-frame stall on the receive path once the undelivered
    /// backlog overflows the L2's headroom: without split headers the
    /// handler walks skb chains and headers interleaved with DMA-cold
    /// payload, so every step is a dependent memory stall. Split-header
    /// placement is immune (headers live in their own hot ring).
    /// Magnitude calibrated against Fig. 7b.
    pub pollution_stall_per_frame: SimDuration,
    /// CPU `memcpy` cost model for kernel↔user copies.
    pub copy: CopyParams,
    /// DMA engine cost model.
    pub dma: DmaConfig,
    /// Minimum kernel→user copy size offloaded to the DMA engine; smaller
    /// copies stay on the CPU (mirrors the `net_dma` sysctl threshold).
    pub dma_min_bytes: u64,
    /// ACK processing cost on the sender.
    pub ack_cost: SimDuration,
    /// Max frames folded into one coalesced interrupt.
    pub coalesce_max_frames: u32,
    /// Max time the NIC delays an interrupt while coalescing.
    pub coalesce_delay: SimDuration,
    /// Initial retransmission timeout. Only consulted when a fault plan
    /// injects loss; LAN-tuned so recovery fits the measurement windows
    /// (a real kernel's 200 ms floor would dwarf the 150 ms experiment).
    pub rto_initial: SimDuration,
    /// Upper bound on the exponentially backed-off RTO.
    pub rto_max: SimDuration,
}

impl Default for StackParams {
    fn default() -> Self {
        StackParams {
            proto_base: SimDuration::from_nanos(750),
            irq_cost: SimDuration::from_nanos(2_000),
            irq_per_frame: SimDuration::from_nanos(200),
            syscall: SimDuration::from_nanos(700),
            wake: SimDuration::from_nanos(1_500),
            segment_cost: SimDuration::from_nanos(450),
            tso_chunk_cost: SimDuration::from_nanos(1_400),
            tso_chunk: 64 * 1024,
            conn_state_bytes: 320,
            header_bytes: 128,
            header_ring_bytes: 8 * 1024,
            line_hit: SimDuration::from_nanos(5),
            line_miss: SimDuration::from_nanos(90),
            sched_contention: 0.12,
            pollution_stall_per_frame: SimDuration::from_nanos(4_500),
            copy: CopyParams::default(),
            // Kernel-context engine costs: the per-request descriptor
            // write is far cheaper than the user-level channel
            // acquisition Fig. 6 measures (DmaConfig::default covers that
            // case).
            dma: DmaConfig {
                startup: SimDuration::from_nanos(300),
                ..DmaConfig::default()
            },
            dma_min_bytes: 1024,
            ack_cost: SimDuration::from_nanos(350),
            coalesce_max_frames: 8,
            coalesce_delay: SimDuration::from_micros(40),
            rto_initial: SimDuration::from_millis(3),
            rto_max: SimDuration::from_millis(50),
        }
    }
}

impl StackParams {
    /// Cost parameters for a 2026-class host: ~3× cheaper per-packet
    /// software costs (two decades of stack work — skb recycling, lockless
    /// rings, GRO plumbing), DDR5-era copy bandwidth and a modern on-die
    /// DMA engine. Relative structure is preserved — interrupts still
    /// dwarf polling, cold lines still dwarf hot ones — so the model's
    /// qualitative behaviors carry over; only the constants shrink.
    pub fn modern_2026() -> Self {
        StackParams {
            proto_base: SimDuration::from_nanos(250),
            irq_cost: SimDuration::from_nanos(700),
            irq_per_frame: SimDuration::from_nanos(70),
            syscall: SimDuration::from_nanos(250),
            wake: SimDuration::from_nanos(500),
            segment_cost: SimDuration::from_nanos(150),
            tso_chunk_cost: SimDuration::from_nanos(500),
            line_hit: SimDuration::from_nanos(2),
            line_miss: SimDuration::from_nanos(65),
            pollution_stall_per_frame: SimDuration::from_nanos(1_500),
            copy: CopyParams::modern_2026(),
            dma: DmaConfig::modern_2026(),
            dma_min_bytes: 4096,
            ack_cost: SimDuration::from_nanos(120),
            coalesce_max_frames: 32,
            coalesce_delay: SimDuration::from_micros(20),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_build_on_each_other() {
        let [c1, c2, c3, c4, c5] = SocketOpts::all_cases().map(|(_, c)| c);
        assert!(c2.sndbuf > c1.sndbuf && c2.rcvbuf > c1.rcvbuf);
        assert!(!c2.tso && c3.tso);
        assert_eq!(c3.mtu, MTU_STANDARD);
        assert_eq!(c4.mtu, MTU_JUMBO);
        assert!(!c4.coalescing && c5.coalescing);
        assert_eq!(SocketOpts::tuned(), c5);
    }

    #[test]
    fn mss_subtracts_headers() {
        assert_eq!(SocketOpts::case1().mss(), 1460);
        assert_eq!(SocketOpts::case4().mss(), 2008);
    }

    #[test]
    fn ioat_labels() {
        assert_eq!(IoatConfig::disabled().label(), "non-I/OAT");
        assert_eq!(IoatConfig::dma_only().label(), "I/OAT-DMA");
        assert_eq!(IoatConfig::full().label(), "I/OAT");
        assert_eq!(IoatConfig::full_with_multi_queue().label(), "I/OAT+MQ");
        assert!(!IoatConfig::disabled().any());
        assert!(IoatConfig::full().any());
        assert!(IoatConfig::disabled().with_rx_mode(RxMode::BusyPoll).any());
        assert_eq!(
            IoatConfig::full().with_rx_mode(RxMode::ZeroCopy).label(),
            "I/OAT/zerocopy"
        );
    }

    #[test]
    fn labels_are_exhaustive_and_unique() {
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for rx_mode in RxMode::ALL {
            for bits in 0u8..8 {
                let cfg = IoatConfig {
                    dma_engine: bits & 1 != 0,
                    split_header: bits & 2 != 0,
                    multi_queue: bits & 4 != 0,
                    rx_mode,
                };
                let label = cfg.label();
                assert!(!label.is_empty() && !label.contains("custom"), "{label}");
                assert!(seen.insert(label), "duplicate label {label} for {cfg:?}");
                // `any()` is false only for the single all-default config.
                assert_eq!(cfg.any(), cfg != IoatConfig::default());
            }
        }
        assert_eq!(seen.len(), 32);
        // Tags are unique too (they feed dotted row IDs).
        let tags: BTreeSet<_> = RxMode::ALL.iter().map(|m| m.tag()).collect();
        assert_eq!(tags.len(), RxMode::ALL.len());
    }

    #[test]
    fn modern_profile_is_cheaper_across_the_board() {
        let old = StackParams::default();
        let new = StackParams::modern_2026();
        assert!(new.proto_base < old.proto_base);
        assert!(new.irq_cost < old.irq_cost);
        assert!(new.wake < old.wake);
        assert!(new.copy.miss_per_line < old.copy.miss_per_line);
        assert!(new.dma.transfer_ps_per_byte < old.dma.transfer_ps_per_byte);
        assert!(new.dma.completion_batch > 1);
        assert_eq!(SocketOpts::modern_2026().mtu, MTU_MODERN);
        assert!(!SocketOpts::modern_2026().coalescing);
    }

    #[test]
    fn default_params_are_positive() {
        let p = StackParams::default();
        assert!(p.proto_base.as_nanos() > 0);
        assert!(p.line_miss > p.line_hit);
        assert!(p.pollution_stall_per_frame > p.proto_base);
        assert!(p.tso_chunk > 0 && p.dma_min_bytes > 0);
    }
}
