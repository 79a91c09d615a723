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
/// opt-in extension.
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
///
/// The engine asks [`FaultPlan::blocks`] once per send, so windows are
/// indexed by endpoint: a send reads its two nodes' outage lists and the
/// link list of its lower endpoint, never the windows of other nodes — and
/// none at all at a time no window is open.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Node outage windows, by node index.
    node_outages: Vec<Vec<Window>>,
    /// Link outage windows, by the index of the link's lower endpoint:
    /// the higher endpoint and the window.
    link_outages: Vec<Vec<(NodeId, Window)>>,
    /// When any window is open: their union, as disjoint windows in time
    /// order.
    open: Vec<Window>,
}

/// The list at `index` of a per-node table, empty past its end.
fn at<T>(table: &[Vec<T>], index: usize) -> &[T] {
    table.get(index).map_or(&[][..], Vec::as_slice)
}

/// The list at `index` of a per-node table, growing the table to reach it.
fn at_mut<T>(table: &mut Vec<Vec<T>>, index: usize) -> &mut Vec<T> {
    if table.len() <= index {
        table.resize_with(index + 1, Vec::new);
    }
    &mut table[index]
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
        let window = Window {
            start,
            end: start + duration,
        };
        at_mut(&mut self.node_outages, node.index()).push(window);
        self.note_open(window);
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
        let window = Window {
            start,
            end: start + duration,
        };
        let (lo, hi) = (a.min(b), a.max(b));
        at_mut(&mut self.link_outages, lo.index()).push((hi, window));
        self.note_open(window);
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
        for (node, windows) in other.node_outages.iter().enumerate() {
            at_mut(&mut self.node_outages, node).extend_from_slice(windows);
        }
        for (lo, links) in other.link_outages.iter().enumerate() {
            at_mut(&mut self.link_outages, lo).extend_from_slice(links);
        }
        for &window in &other.open {
            self.note_open(window);
        }
        self
    }

    /// Adds `window` to the union of open windows, merging it with every
    /// open window it overlaps or touches.
    fn note_open(&mut self, window: Window) {
        if window.start >= window.end {
            return;
        }
        let first = self.open.partition_point(|o| o.end < window.start);
        let last = self.open.partition_point(|o| o.start <= window.end);
        let merged = self.open[first..last].iter().fold(window, |m, o| Window {
            start: m.start.min(o.start),
            end: m.end.max(o.end),
        });
        self.open.splice(first..last, [merged]);
    }

    /// Whether any window, of any node or link, is open at `t`.
    fn any_open(&self, t: SimTime) -> bool {
        // Compared without a branch per window: `t` is as good as random
        // from one send to the next, and the union is a handful of windows
        // (a partition's links all share one).
        self.open
            .iter()
            .fold(false, |hit, o| hit | ((o.start <= t) & (t < o.end)))
    }

    /// Whether a message from `from` to `to` sent at time `t` is blocked by
    /// a scheduled fault (node outage on either endpoint, or a link outage
    /// between them).
    // lint:hot
    pub fn blocks(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        if !self.any_open(t) {
            return false;
        }
        let (lo, hi) = (from.min(to), from.max(to));
        self.node_down(from, t)
            || self.node_down(to, t)
            || at(&self.link_outages, lo.index())
                .iter()
                .any(|&(b, w)| b == hi && w.contains(t))
    }

    /// Whether `node` is inside any node-outage window at time `t`.
    pub fn node_down(&self, node: NodeId, t: SimTime) -> bool {
        at(&self.node_outages, node.index())
            .iter()
            .any(|w| w.contains(t))
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

    /// One scheduled fault of [`indexed_plan_agrees_with_a_linear_scan`]:
    /// `(a, b, start_s, len_s)`, an outage of node `a` when `b` is
    /// [`NODE_OUTAGE`], else of the link `a`–`b`.
    type Outage = (u32, u32, u64, u64);
    const NODE_OUTAGE: u32 = 12;

    /// The plan as one flat list, every entry scanned per question: how
    /// [`FaultPlan`] answered before it indexed windows by endpoint.
    fn linear_blocks(outages: &[Outage], from: NodeId, to: NodeId, now: SimTime) -> bool {
        let (from, to) = (from.index() as u32, to.index() as u32);
        outages.iter().any(|&(a, b, start, len)| {
            let touches = if b == NODE_OUTAGE {
                a == from || a == to
            } else {
                (a, b) == (from, to) || (a, b) == (to, from)
            };
            touches && t(start) <= now && now < t(start + len)
        })
    }

    fn linear_node_down(outages: &[Outage], node: NodeId, now: SimTime) -> bool {
        let nodes_only: Vec<Outage> = outages
            .iter()
            .copied()
            .filter(|&(_, b, ..)| b == NODE_OUTAGE)
            .collect();
        linear_blocks(&nodes_only, node, node, now)
    }

    proptest::proptest! {
        #[test]
        fn indexed_plan_agrees_with_a_linear_scan(
            outages in proptest::collection::vec(
                (0u32..NODE_OUTAGE, 0u32..=NODE_OUTAGE, 0u64..100, 0u64..40),
                0..32,
            ),
            probes in proptest::collection::vec((0u32..14, 0u32..14, 0u64..150), 1..64),
        ) {
            // Built in two halves and merged, so `merge` is checked too.
            let (first, rest) = outages.split_at(outages.len() / 2);
            let build = |part: &[Outage]| {
                let mut plan = FaultPlan::none();
                for &(a, b, start, len) in part {
                    let (a, len) = (NodeId::new(a), SimDuration::from_secs(len));
                    if b == NODE_OUTAGE {
                        plan.add_node_outage(a, t(start), len);
                    } else {
                        plan.add_link_outage(a, NodeId::new(b), t(start), len);
                    }
                }
                plan
            };
            let mut plan = build(first);
            plan.merge(&build(rest));
            for (from, to, at) in probes {
                let (from, to, now) = (NodeId::new(from), NodeId::new(to), t(at));
                proptest::prop_assert_eq!(
                    plan.blocks(from, to, now),
                    linear_blocks(&outages, from, to, now),
                    "{:?} -> {:?} at {:?}", from, to, now
                );
                proptest::prop_assert_eq!(
                    plan.node_down(from, now),
                    linear_node_down(&outages, from, now)
                );
            }
        }
    }
}
