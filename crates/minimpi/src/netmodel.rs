//! Interconnect cost model.
//!
//! Real multi-node runs pay network latency and bandwidth on every message;
//! an in-process reproduction must charge an equivalent cost or multi-node
//! scaling curves (paper Fig. 8) would look implausibly flat. [`NetModel`]
//! spins for `latency + bytes / bandwidth` on messages that cross a node
//! boundary (ranks are grouped into nodes round-robin by
//! `ranks_per_node`).

use std::time::{Duration, Instant};

/// Network cost model for inter-node messages.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Per-message one-way latency for inter-node messages.
    pub latency: Duration,
    /// Inter-node bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Number of ranks hosted per emulated node (intra-node messages are
    /// free). `usize::MAX` puts every rank on one node.
    pub ranks_per_node: usize,
}

impl Default for NetModel {
    /// Everything on one node: no charges.
    fn default() -> NetModel {
        NetModel {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
            ranks_per_node: usize::MAX,
        }
    }
}

impl NetModel {
    /// A zero-cost model (single node).
    pub fn local() -> NetModel {
        NetModel::default()
    }

    /// A model resembling a commodity cluster interconnect
    /// (~1.5 µs latency, ~12.5 GB/s ≈ 100 Gb/s links).
    pub fn cluster(ranks_per_node: usize) -> NetModel {
        NetModel {
            latency: Duration::from_micros(2),
            bandwidth: 12.5e9,
            ranks_per_node: ranks_per_node.max(1),
        }
    }

    /// The emulated node index of a rank.
    pub fn node_of(&self, rank: usize) -> usize {
        if self.ranks_per_node == usize::MAX {
            0
        } else {
            rank / self.ranks_per_node.max(1)
        }
    }

    /// Whether a message between two ranks crosses nodes.
    pub fn crosses_nodes(&self, from: usize, to: usize) -> bool {
        self.node_of(from) != self.node_of(to)
    }

    /// Transfer cost of a message of `bytes` between two ranks.
    pub fn cost(&self, from: usize, to: usize, bytes: usize) -> Duration {
        if !self.crosses_nodes(from, to) {
            return Duration::ZERO;
        }
        let transfer = if self.bandwidth.is_finite() && self.bandwidth > 0.0 {
            Duration::from_secs_f64(bytes as f64 / self.bandwidth)
        } else {
            Duration::ZERO
        };
        self.latency + transfer
    }

    /// Charge the cost of a message (spin-wait: sleeping has too coarse a
    /// granularity for microsecond latencies).
    pub fn charge(&self, from: usize, to: usize, bytes: usize) {
        let cost = self.cost(from, to, bytes);
        if cost.is_zero() {
            return;
        }
        let start = Instant::now();
        while start.elapsed() < cost {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_free() {
        let m = NetModel::default();
        assert!(!m.crosses_nodes(0, 7));
        assert_eq!(m.cost(0, 7, 1 << 20), Duration::ZERO);
    }

    #[test]
    fn node_grouping() {
        let m = NetModel {
            ranks_per_node: 4,
            ..NetModel::cluster(4)
        };
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        assert!(!m.crosses_nodes(0, 3));
        assert!(m.crosses_nodes(3, 4));
    }

    #[test]
    fn cost_scales_with_bytes() {
        let m = NetModel {
            latency: Duration::from_micros(1),
            bandwidth: 1e9,
            ranks_per_node: 1,
        };
        let small = m.cost(0, 1, 1_000);
        let big = m.cost(0, 1, 1_000_000);
        assert!(big > small);
        assert!(big >= Duration::from_micros(1000));
    }

    #[test]
    fn charge_spins_for_cost() {
        let m = NetModel {
            latency: Duration::from_micros(200),
            bandwidth: f64::INFINITY,
            ranks_per_node: 1,
        };
        let start = Instant::now();
        m.charge(0, 1, 8);
        assert!(start.elapsed() >= Duration::from_micros(150));
    }
}
