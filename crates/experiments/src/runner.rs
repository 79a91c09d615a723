//! Parallel multi-seed trial execution and aggregation.

use std::collections::BTreeMap;

use pahoehoe::cluster::{Cluster, ConvergenceReport};
use simnet::RunOutcome;
use stats::{Accumulator, Summary};

/// Runs one seeded trial per value in `seeds`, in parallel across CPU
/// cores, and returns the convergence reports in seed order.
///
/// `build` constructs a fresh cluster for a seed; each trial runs
/// [`Cluster::run_to_convergence`]. Fan-out goes through the shared
/// deterministic sweep harness ([`simnet::sweep::map_indexed`]), so the
/// reports are in seed order regardless of worker scheduling.
pub fn run_many<F>(seeds: std::ops::Range<u64>, build: F) -> Vec<ConvergenceReport>
where
    F: Fn(u64) -> Cluster + Send + Sync,
{
    let seeds: Vec<u64> = seeds.collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    simnet::sweep::map_indexed(seeds, workers, |_, seed| {
        let mut cluster = build(seed);
        cluster.run_to_convergence()
    })
}

/// Aggregated results for one experiment configuration (one bar/column of
/// a paper figure): per-message-kind means plus run-level statistics.
///
/// Client↔proxy traffic (`Client*` kinds) is excluded, matching the
/// paper's accounting of "all activity from the proxy's put and all
/// convergence activity".
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Column label, e.g. `"FSAMR-U"` or `"2P-Sibling"`.
    pub label: String,
    /// Mean message count per kind.
    pub kind_counts: BTreeMap<&'static str, Summary>,
    /// Mean message bytes per kind.
    pub kind_bytes: BTreeMap<&'static str, Summary>,
    /// Mean dropped-message counts per kind, split fault vs. random loss.
    pub kind_drops: BTreeMap<&'static str, DropSummary>,
    /// Mean per-run totals of the dense protocol event counters (the
    /// repair ledger and `degraded_reads`). Empty when no trial recorded
    /// any.
    pub event_counts: BTreeMap<&'static str, Summary>,
    /// Total fault-dropped protocol messages per run.
    pub dropped_fault: Summary,
    /// Total randomly dropped protocol messages per run.
    pub dropped_random: Summary,
    /// Total protocol messages per run.
    pub total_count: Summary,
    /// Total protocol bytes per run.
    pub total_bytes: Summary,
    /// Virtual time to convergence (seconds).
    pub sim_secs: Summary,
    /// Put attempts per run.
    pub puts_attempted: Summary,
    /// Excess-AMR versions per run.
    pub excess_amr: Summary,
    /// Non-durable versions per run.
    pub non_durable: Summary,
    /// Whether every trial converged (`PredicateSatisfied`).
    pub all_converged: bool,
}

/// Whether a metric kind is client↔proxy traffic.
fn is_client_kind(kind: &str) -> bool {
    kind.starts_with("Client")
}

/// Mean per-kind drop counts for one configuration, split by cause.
#[derive(Debug, Clone, Copy)]
pub struct DropSummary {
    /// Messages dropped by an injected fault (outage, partition).
    pub fault: Summary,
    /// Messages dropped by the channel's random loss rate.
    pub random: Summary,
}

/// Aggregates trial reports into a [`ConfigResult`].
pub fn aggregate(label: impl Into<String>, reports: &[ConvergenceReport]) -> ConfigResult {
    assert!(!reports.is_empty(), "need at least one trial");
    let mut kind_counts: BTreeMap<&'static str, Accumulator> = BTreeMap::new();
    let mut kind_bytes: BTreeMap<&'static str, Accumulator> = BTreeMap::new();
    let mut kind_drop_accs: BTreeMap<&'static str, (Accumulator, Accumulator)> = BTreeMap::new();

    // Every kind must appear in every trial's accumulator (absent = 0),
    // so collect the kind universes first.
    let kinds: Vec<&'static str> = {
        let mut set = BTreeMap::new();
        for r in reports {
            for (k, _) in r.metrics.iter() {
                if !is_client_kind(k) {
                    set.insert(k, ());
                }
            }
        }
        set.into_keys().collect()
    };
    let drop_kinds: Vec<&'static str> = {
        let mut set = BTreeMap::new();
        for r in reports {
            for (k, _) in r.metrics.iter_drops() {
                if !is_client_kind(k) {
                    set.insert(k, ());
                }
            }
        }
        set.into_keys().collect()
    };
    let event_labels: Vec<&'static str> = {
        let mut set = BTreeMap::new();
        for r in reports {
            for (label, _) in r.metrics.iter_events() {
                set.insert(label, ());
            }
        }
        set.into_keys().collect()
    };
    let mut event_accs: BTreeMap<&'static str, Accumulator> = BTreeMap::new();

    let mut total_count = Accumulator::new();
    let mut total_bytes = Accumulator::new();
    let mut dropped_fault = Accumulator::new();
    let mut dropped_random = Accumulator::new();
    let mut sim_secs = Accumulator::new();
    let mut puts_attempted = Accumulator::new();
    let mut excess_amr = Accumulator::new();
    let mut non_durable = Accumulator::new();
    let mut all_converged = true;

    for r in reports {
        let mut count_sum = 0u64;
        let mut byte_sum = 0u64;
        for &k in &kinds {
            let s = r.metrics.kind(k);
            kind_counts.entry(k).or_default().push(s.count as f64);
            kind_bytes.entry(k).or_default().push(s.bytes as f64);
            count_sum += s.count;
            byte_sum += s.bytes;
        }
        total_count.push(count_sum as f64);
        total_bytes.push(byte_sum as f64);
        let mut fault_sum = 0u64;
        let mut random_sum = 0u64;
        for &k in &drop_kinds {
            let d = r.metrics.drops_for(k);
            let (fa, ra) = kind_drop_accs.entry(k).or_default();
            fa.push(d.fault_count as f64);
            ra.push(d.random_count as f64);
            fault_sum += d.fault_count;
            random_sum += d.random_count;
        }
        dropped_fault.push(fault_sum as f64);
        dropped_random.push(random_sum as f64);
        for &label in &event_labels {
            event_accs
                .entry(label)
                .or_default()
                .push(r.metrics.event(label) as f64);
        }
        sim_secs.push(r.sim_time.as_secs_f64());
        puts_attempted.push(r.puts_attempted as f64);
        excess_amr.push(r.excess_amr as f64);
        non_durable.push(r.non_durable as f64);
        all_converged &= r.outcome == RunOutcome::PredicateSatisfied;
    }

    ConfigResult {
        label: label.into(),
        kind_counts: kind_counts
            .into_iter()
            .map(|(k, a)| (k, a.summary()))
            .collect(),
        kind_bytes: kind_bytes
            .into_iter()
            .map(|(k, a)| (k, a.summary()))
            .collect(),
        kind_drops: kind_drop_accs
            .into_iter()
            .map(|(k, (fa, ra))| {
                (
                    k,
                    DropSummary {
                        fault: fa.summary(),
                        random: ra.summary(),
                    },
                )
            })
            .collect(),
        event_counts: event_accs
            .into_iter()
            .map(|(k, a)| (k, a.summary()))
            .collect(),
        dropped_fault: dropped_fault.summary(),
        dropped_random: dropped_random.summary(),
        total_count: total_count.summary(),
        total_bytes: total_bytes.summary(),
        sim_secs: sim_secs.summary(),
        puts_attempted: puts_attempted.summary(),
        excess_amr: excess_amr.summary(),
        non_durable: non_durable.summary(),
        all_converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pahoehoe::cluster::ClusterConfig;
    use pahoehoe::workload::StreamingWorkload;

    fn tiny(seed: u64) -> Cluster {
        let mut cfg = ClusterConfig::paper_default();
        cfg.streaming_workload = Some(StreamingWorkload::numbered(2, 1, 2048, cfg.policy));
        Cluster::build(cfg, seed)
    }

    #[test]
    fn run_many_is_seed_ordered_and_deterministic() {
        let a = run_many(0..4, tiny);
        let b = run_many(0..4, tiny);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sim_time, y.sim_time);
            assert_eq!(x.metrics.total_count(), y.metrics.total_count());
        }
    }

    #[test]
    fn aggregate_excludes_client_traffic() {
        let reports = run_many(0..3, tiny);
        let agg = aggregate("test", &reports);
        assert!(agg.all_converged);
        assert!(agg.kind_counts.keys().all(|k| !k.starts_with("Client")));
        assert!(reports[0].metrics.kind("ClientPutReq").count > 0);
        // Totals equal the sum over kinds.
        let kind_sum: f64 = agg.kind_counts.values().map(|s| s.mean).sum();
        assert!((kind_sum - agg.total_count.mean).abs() < 1e-6);
    }

    #[test]
    fn aggregate_statistics_are_consistent() {
        let reports = run_many(0..5, tiny);
        let agg = aggregate("x", &reports);
        assert_eq!(agg.total_count.n, 5);
        assert!(agg.total_count.min <= agg.total_count.mean);
        assert!(agg.total_count.mean <= agg.total_count.max);
        assert_eq!(agg.puts_attempted.mean, 2.0, "failure-free: no retries");
        assert_eq!(agg.non_durable.mean, 0.0);
    }
}
