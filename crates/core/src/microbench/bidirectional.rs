//! Fig. 3b — bi-directional bandwidth.
//!
//! 2·N threads per machine, N acting as servers and N as clients, one
//! connection per thread pair; each connection runs the basic bandwidth
//! test, N in each direction (§4.1). The aggregate of both directions is
//! the bi-directional bandwidth.

use crate::cluster::{Cluster, NodeConfig};
use crate::metrics::{Comparison, ExperimentWindow, ThroughputResult};
use crate::microbench::stream;
use ioat_netsim::{IoatConfig, SocketOpts};

/// Configuration of a bi-directional bandwidth run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidirConfig {
    /// Number of port pairs; N connections flow in each direction.
    pub ports: usize,
    /// Socket options.
    pub opts: SocketOpts,
    /// Measurement window.
    pub window: ExperimentWindow,
}

impl BidirConfig {
    /// The paper's configuration at a given port count.
    pub fn paper(ports: usize) -> Self {
        BidirConfig {
            ports,
            opts: SocketOpts::tuned(),
            window: ExperimentWindow::standard(),
        }
    }

    /// Small fast configuration for unit tests.
    pub fn quick_test() -> Self {
        BidirConfig {
            ports: 1,
            opts: SocketOpts::tuned(),
            window: ExperimentWindow::quick(),
        }
    }
}

/// Runs the bi-directional test. `mbps` is the aggregate of both
/// directions; `rx_cpu`/`tx_cpu` are the two nodes' utilizations (both
/// nodes send *and* receive, so they are near-symmetric).
pub fn run(cfg: &BidirConfig, ioat: IoatConfig) -> ThroughputResult {
    let mut cluster = Cluster::new(0xB1);
    let a = cluster.add_node(NodeConfig::testbed("node-a", ioat));
    let b = cluster.add_node(NodeConfig::testbed("node-b", ioat));
    let pairs = cluster.connect_ports(a, b, cfg.ports, cfg.opts.coalescing);

    let hint = cfg.window.to().as_nanos();
    for pair in pairs {
        // One connection per direction on each port pair.
        let (sa, _) = cluster.open(a, b, pair, cfg.opts);
        stream(&sa, cluster.sim_mut(), hint, 1_000.0);
        let (_, sb) = cluster.open(a, b, pair, cfg.opts);
        stream(&sb, cluster.sim_mut(), hint, 1_000.0);
    }

    let (from, to) = cfg.window.execute(&mut cluster, &[a, b]);
    let sa = cluster.stack(a).borrow();
    let sb = cluster.stack(b).borrow();
    ThroughputResult {
        mbps: sa.rx_meter().mbps(to) + sb.rx_meter().mbps(to),
        rx_cpu: sb.cpu_utilization(from, to),
        tx_cpu: sa.cpu_utilization(from, to),
        rx_occupancy: sb.cpu_occupancy(from, to),
    }
}

/// Runs both configurations and pairs them.
pub fn compare(cfg: &BidirConfig) -> Comparison {
    Comparison {
        non_ioat: run(cfg, IoatConfig::disabled()),
        ioat: run(cfg, IoatConfig::full()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_directions_carry_traffic() {
        let r = run(&BidirConfig::quick_test(), IoatConfig::disabled());
        // One duplex port pair: aggregate approaches 2× one-way goodput.
        assert!(
            (1_500.0..2_000.0).contains(&r.mbps),
            "bidir bandwidth {:.0} Mbps",
            r.mbps
        );
    }

    #[test]
    fn node_utilizations_are_symmetric() {
        let r = run(&BidirConfig::quick_test(), IoatConfig::disabled());
        let ratio = r.rx_cpu / r.tx_cpu;
        assert!(
            (0.7..1.4).contains(&ratio),
            "asymmetric utils: {:.3} vs {:.3}",
            r.rx_cpu,
            r.tx_cpu
        );
    }

    #[test]
    fn bidir_cpu_exceeds_unidirectional() {
        use crate::microbench::bandwidth::{self, BandwidthConfig};
        let uni = bandwidth::run(&BandwidthConfig::quick_test(), IoatConfig::disabled());
        let bid = run(&BidirConfig::quick_test(), IoatConfig::disabled());
        assert!(
            bid.rx_cpu > uni.rx_cpu,
            "bidir rx cpu {:.3} should exceed unidirectional {:.3}",
            bid.rx_cpu,
            uni.rx_cpu
        );
    }

    #[test]
    fn ioat_benefit_appears_bidirectionally() {
        let c = compare(&BidirConfig::quick_test());
        assert!(c.relative_cpu_benefit() > 0.0);
    }
}
