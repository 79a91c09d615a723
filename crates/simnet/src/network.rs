//! Network performance model and fault injection.
//!
//! The paper's model (§5.1): each message has a latency chosen uniformly at
//! random in \[10 ms, 30 ms\]; failures are injected either by dropping all
//! messages in and out of designated nodes for a fixed window (simulating a
//! crash-and-recover or a partition) or by dropping a percentage of all
//! messages system-wide (the lossy-network experiment).

use rand::Rng;

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// A latency override for links between two node groups — e.g. to model
/// fast intra-data-center links against a slow WAN. The paper's model is
/// a single uniform distribution for every link, so overrides are an
/// opt-in extension (used by ablations).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyOverride {
    /// One endpoint group.
    pub group_a: Vec<NodeId>,
    /// The other endpoint group.
    pub group_b: Vec<NodeId>,
    /// Minimum one-way latency on matching links.
    pub latency_min: SimDuration,
    /// Maximum one-way latency on matching links.
    pub latency_max: SimDuration,
}

impl LatencyOverride {
    fn matches(&self, from: NodeId, to: NodeId) -> bool {
        (self.group_a.contains(&from) && self.group_b.contains(&to))
            || (self.group_b.contains(&from) && self.group_a.contains(&to))
    }
}

/// Latency distribution and system-wide loss rate.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Minimum one-way message latency.
    pub latency_min: SimDuration,
    /// Maximum one-way message latency (inclusive bound of the uniform
    /// distribution).
    pub latency_max: SimDuration,
    /// Probability in `[0, 1]` that any given message is silently dropped
    /// (the paper's lossy-network drop rate; zero by default).
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a delivered message is delivered
    /// *twice* (with independent latencies). The paper's channel model is
    /// "point-to-point channels with fair losses and **bounded message
    /// duplication**" (§3.1); protocols must be idempotent under it. Zero
    /// by default.
    pub duplicate_rate: f64,
    /// Per-link latency overrides, first match wins (empty by default —
    /// the paper's single uniform distribution).
    pub latency_overrides: Vec<LatencyOverride>,
}

impl NetworkConfig {
    /// The paper's model: uniform 10–30 ms latency, no random loss.
    pub fn paper_default() -> Self {
        NetworkConfig {
            latency_min: SimDuration::from_millis(10),
            latency_max: SimDuration::from_millis(30),
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            latency_overrides: Vec::new(),
        }
    }

    /// Same latency model with a system-wide message drop rate.
    ///
    /// # Panics
    ///
    /// Panics if `drop_rate` is not within `[0, 1]`.
    pub fn with_drop_rate(drop_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_rate),
            "drop rate must be a probability"
        );
        NetworkConfig {
            drop_rate,
            ..NetworkConfig::paper_default()
        }
    }

    /// Same latency model with a message duplication rate.
    ///
    /// # Panics
    ///
    /// Panics if `duplicate_rate` is not within `[0, 1]`.
    pub fn with_duplicate_rate(duplicate_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&duplicate_rate),
            "duplicate rate must be a probability"
        );
        NetworkConfig {
            duplicate_rate,
            ..NetworkConfig::paper_default()
        }
    }

    /// Samples a one-way latency from the default uniform distribution.
    pub fn sample_latency<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        Self::sample(self.latency_min, self.latency_max, rng)
    }

    /// Samples a one-way latency for the specific link `from → to`,
    /// honoring [`latency_overrides`](Self::latency_overrides) (first
    /// match wins).
    pub fn sample_link_latency<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> SimDuration {
        for ov in &self.latency_overrides {
            if ov.matches(from, to) {
                return Self::sample(ov.latency_min, ov.latency_max, rng);
            }
        }
        self.sample_latency(rng)
    }

    fn sample<R: Rng + ?Sized>(min: SimDuration, max: SimDuration, rng: &mut R) -> SimDuration {
        let lo = min.as_micros();
        let hi = max.as_micros();
        if lo >= hi {
            return min;
        }
        SimDuration::from_micros(rng.random_range(lo..=hi))
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper_default()
    }
}

/// A half-open outage window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    start: SimTime,
    end: SimTime,
}

impl Window {
    fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Scheduled failures: node outages and link outages.
///
/// A *node outage* drops every message into or out of the node during the
/// window — the paper's simulation of a server crash and recovery (state is
/// preserved; only connectivity is lost, matching the crash-recovery model
/// with stable storage). A *link outage* drops messages between a specific
/// pair in both directions; [`FaultPlan::add_partition`] builds the full
/// bipartite set of link outages between two groups, the paper's WAN
/// partition.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    node_outages: Vec<(NodeId, Window)>,
    link_outages: Vec<(NodeId, NodeId, Window)>,
}

impl FaultPlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Makes `node` unreachable (all messages in and out dropped) during
    /// `[start, start + duration)`.
    pub fn add_node_outage(
        &mut self,
        node: NodeId,
        start: SimTime,
        duration: SimDuration,
    ) -> &mut Self {
        self.node_outages.push((
            node,
            Window {
                start,
                end: start + duration,
            },
        ));
        self
    }

    /// Blocks the link between `a` and `b` (both directions) during
    /// `[start, start + duration)`.
    pub fn add_link_outage(
        &mut self,
        a: NodeId,
        b: NodeId,
        start: SimTime,
        duration: SimDuration,
    ) -> &mut Self {
        self.link_outages.push((
            a,
            b,
            Window {
                start,
                end: start + duration,
            },
        ));
        self
    }

    /// Partitions `group_a` from `group_b` during
    /// `[start, start + duration)`: every cross-group link is blocked,
    /// links within each group stay up.
    pub fn add_partition(
        &mut self,
        group_a: &[NodeId],
        group_b: &[NodeId],
        start: SimTime,
        duration: SimDuration,
    ) -> &mut Self {
        for &a in group_a {
            for &b in group_b {
                self.add_link_outage(a, b, start, duration);
            }
        }
        self
    }

    /// Adds every outage of `other` to this plan.
    pub fn merge(&mut self, other: &FaultPlan) -> &mut Self {
        self.node_outages.extend_from_slice(&other.node_outages);
        self.link_outages.extend_from_slice(&other.link_outages);
        self
    }

    /// Whether a message from `from` to `to` sent at time `t` is blocked by
    /// a scheduled fault (node outage on either endpoint, or a link outage
    /// between them).
    pub fn blocks(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        self.node_outages
            .iter()
            .any(|&(n, w)| (n == from || n == to) && w.contains(t))
            || self.link_outages.iter().any(|&(a, b, w)| {
                ((a == from && b == to) || (a == to && b == from)) && w.contains(t)
            })
    }

    /// Whether `node` is inside any node-outage window at time `t`.
    pub fn node_down(&self, node: NodeId, t: SimTime) -> bool {
        self.node_outages
            .iter()
            .any(|&(n, w)| n == node && w.contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn latency_within_bounds() {
        let cfg = NetworkConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let l = cfg.sample_latency(&mut rng);
            assert!(l >= SimDuration::from_millis(10));
            assert!(l <= SimDuration::from_millis(30));
        }
    }

    #[test]
    fn latency_spans_the_range() {
        let cfg = NetworkConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<u64> = (0..10_000)
            .map(|_| cfg.sample_latency(&mut rng).as_micros())
            .collect();
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        // With 10k uniform samples the extremes get within 1% of the bounds.
        assert!(lo < 10_200, "min {lo}");
        assert!(hi > 29_800, "max {hi}");
    }

    #[test]
    fn degenerate_latency_range() {
        let cfg = NetworkConfig {
            latency_min: SimDuration::from_millis(5),
            latency_max: SimDuration::from_millis(5),
            ..NetworkConfig::paper_default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cfg.sample_latency(&mut rng), SimDuration::from_millis(5));
    }

    #[test]
    fn latency_overrides_apply_per_link_symmetrically() {
        let fast = LatencyOverride {
            group_a: vec![NodeId::new(0), NodeId::new(1)],
            group_b: vec![NodeId::new(0), NodeId::new(1)],
            latency_min: SimDuration::from_millis(1),
            latency_max: SimDuration::from_millis(3),
        };
        let cfg = NetworkConfig {
            latency_overrides: vec![fast],
            ..NetworkConfig::paper_default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            // Intra-group link: fast range.
            let l = cfg.sample_link_latency(NodeId::new(0), NodeId::new(1), &mut rng);
            assert!(l <= SimDuration::from_millis(3), "{l}");
            let l = cfg.sample_link_latency(NodeId::new(1), NodeId::new(0), &mut rng);
            assert!(l <= SimDuration::from_millis(3), "{l}");
            // Unmatched link: default 10-30ms.
            let l = cfg.sample_link_latency(NodeId::new(0), NodeId::new(9), &mut rng);
            assert!(l >= SimDuration::from_millis(10), "{l}");
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_drop_rate_panics() {
        let _ = NetworkConfig::with_drop_rate(1.5);
    }

    #[test]
    fn node_outage_blocks_both_directions() {
        let mut plan = FaultPlan::none();
        plan.add_node_outage(NodeId::new(2), t(10), SimDuration::from_secs(5));
        let other = NodeId::new(0);
        let down = NodeId::new(2);
        assert!(!plan.blocks(other, down, t(9)));
        assert!(plan.blocks(other, down, t(10)));
        assert!(plan.blocks(down, other, t(14)));
        assert!(!plan.blocks(down, other, t(15)), "window is half-open");
        assert!(plan.node_down(down, t(12)));
        assert!(!plan.node_down(other, t(12)));
    }

    #[test]
    fn link_outage_is_pairwise_and_symmetric() {
        let mut plan = FaultPlan::none();
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        plan.add_link_outage(a, b, t(0), SimDuration::from_secs(1));
        assert!(plan.blocks(a, b, t(0)));
        assert!(plan.blocks(b, a, t(0)));
        assert!(!plan.blocks(a, c, t(0)));
        assert!(!plan.node_down(a, t(0)), "link outage is not a node outage");
    }

    #[test]
    fn merge_combines_outages() {
        let mut a = FaultPlan::none();
        a.add_node_outage(NodeId::new(0), t(0), SimDuration::from_secs(5));
        let mut b = FaultPlan::none();
        b.add_link_outage(
            NodeId::new(1),
            NodeId::new(2),
            t(0),
            SimDuration::from_secs(5),
        );
        a.merge(&b);
        assert!(a.node_down(NodeId::new(0), t(1)));
        assert!(a.blocks(NodeId::new(1), NodeId::new(2), t(1)));
    }

    #[test]
    fn partition_blocks_every_cross_pair_only() {
        let g1 = [NodeId::new(0), NodeId::new(1)];
        let g2 = [NodeId::new(2), NodeId::new(3)];
        let mut plan = FaultPlan::none();
        plan.add_partition(&g1, &g2, t(0), SimDuration::from_secs(60));
        for &a in &g1 {
            for &b in &g2 {
                assert!(plan.blocks(a, b, t(30)));
                assert!(plan.blocks(b, a, t(30)));
            }
        }
        assert!(!plan.blocks(g1[0], g1[1], t(30)));
        assert!(!plan.blocks(g2[0], g2[1], t(30)));
    }
}
