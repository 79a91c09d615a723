//! The metric tables behind `BENCHMARK.json`, and the order statistics
//! every report uses.

use std::fmt::Write as _;

use crate::workloads::{NOMINAL_SECONDS, WORKLOADS};

/// An end-to-end metric: something a user of the archive would see.
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Measured on the host clock (median of the children) or simulated
    /// (bit-identical across the children).
    pub host: bool,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        host: true,
    }
}

const fn sim(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
        host: false,
    }
}

/// All eleven are reported for every workload. `BENCHMARK.json` holds one
/// bound per metric, not one per workload, and the driver asks that ten
/// runs on ten different seeds spread (quartile to quartile) by less than
/// the bound, so each bound is about three times the widest spread
/// measured on any workload (README.md has the table). That is looser
/// than the issue's per-seed bounds wherever seeds differ more than that.
/// The two host-clock bounds are the largest the contract allows: on the
/// shared host the counts were frozen on, the same build ran 11 % slower
/// half an hour later.
pub const END_TO_END: [EndToEnd; 11] = [
    host("setup_s", "s", false, 0.25),
    host("ops_per_wall_s", "1/s", true, 0.25),
    host("peak_rss_mb", "MB", false, 0.05),
    sim("op_latency_sim_ms_p50", "ms", 0.02),
    sim("op_latency_sim_ms_p99", "ms", 0.02),
    sim("time_to_amr_sim_s_p50", "s", 0.02),
    sim("time_to_amr_sim_s_p99", "s", 0.08),
    sim("wire_bytes_per_user_byte", "B/B", 0.12),
    sim("convergence_bytes_per_put", "B", 0.25),
    sim("msgs_per_op", "count", 0.15),
    EndToEnd {
        name: "ok_op_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.005,
        host: false,
    },
];

/// A per-layer metric from the traced run. No bound.
pub struct PerLayer {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Every per-layer metric, reported for every workload (zero where the
/// workload does not use the layer). README.md says which end-to-end
/// metric each should move, and on which workload.
pub const PER_LAYER: [PerLayer; 57] = [
    lower("erasure.encode.calls", "count"),
    higher("erasure.encode.mb_per_s", "MB/s"),
    lower("erasure.encode.busy_share", "ratio"),
    higher("erasure.checksum.mb_per_s", "MB/s"),
    lower("erasure.checksum.busy_share", "ratio"),
    lower("erasure.decode.calls", "count"),
    lower("erasure.decode.degraded_share", "ratio"),
    lower("erasure.decode.busy_share", "ratio"),
    lower("erasure.recover.calls", "count"),
    lower("erasure.recover.busy_share", "ratio"),
    lower("simnet.events", "count"),
    lower("simnet.events_per_op", "count"),
    higher("simnet.events_per_wall_s", "1/s"),
    lower("simnet.engine.busy_share", "ratio"),
    higher("simnet.null_replay.events_per_wall_s", "1/s"),
    lower("simnet.faultplan.blocks.ns_per_call", "ns"),
    lower("simnet.msgs_dropped_fault", "count"),
    lower("simnet.msgs_dropped_random", "count"),
    higher("simnet.sim_s_per_wall_s", "ratio"),
    lower("simnet.timers_pending_end", "count"),
    lower("pahoehoe.cluster.build_s", "s"),
    lower("pahoehoe.client.busy_share", "ratio"),
    lower("pahoehoe.client.calls", "count"),
    lower("pahoehoe.client.ns_per_call", "ns"),
    lower("pahoehoe.proxy.busy_share", "ratio"),
    lower("pahoehoe.proxy.calls", "count"),
    lower("pahoehoe.proxy.ns_per_call", "ns"),
    lower("pahoehoe.kls.busy_share", "ratio"),
    lower("pahoehoe.kls.calls", "count"),
    lower("pahoehoe.kls.ns_per_call", "ns"),
    lower("pahoehoe.fs.msg.busy_share", "ratio"),
    lower("pahoehoe.fs.msg.calls", "count"),
    lower("pahoehoe.fs.msg.ns_per_call", "ns"),
    lower("pahoehoe.fs.timer.busy_share", "ratio"),
    lower("pahoehoe.fs.timer.calls", "count"),
    lower("pahoehoe.fs.timer.ns_per_call", "ns"),
    lower("pahoehoe.repair.busy_share", "ratio"),
    lower("pahoehoe.repair.calls", "count"),
    lower("pahoehoe.repair.ns_per_call", "ns"),
    lower("pahoehoe.put.msgs_per_put", "count"),
    lower("pahoehoe.put.bytes_per_user_byte", "B/B"),
    lower("pahoehoe.get.msgs_per_get", "count"),
    lower("pahoehoe.get.bytes_per_user_byte", "B/B"),
    lower("pahoehoe.get.degraded_reads", "count"),
    lower("pahoehoe.convergence.msgs_per_put", "count"),
    lower("pahoehoe.convergence.recovered_frags_per_put", "count"),
    lower("pahoehoe.put.attempts_per_put", "ratio"),
    lower("pahoehoe.put.timeouts", "count"),
    lower("pahoehoe.versions.non_durable", "count"),
    lower("pahoehoe.versions.excess_amr", "count"),
    higher("pahoehoe.fs.compacted_entries", "count"),
    lower("pahoehoe.rss_bytes_per_put", "B"),
    lower("harness.batch_wall_ms_p50", "ms"),
    lower("harness.batch_wall_ms_p95", "ms"),
    lower("harness.predicate.busy_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed_share", "ratio"),
];

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`, generated from the tables above;
/// `check.sh` fails when the committed file differs.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {NOMINAL_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Nearest-rank percentile of an ascending slice, with how many samples
/// lie beyond it. A tail percentile is only trusted with at least
/// [`MIN_BEYOND`] samples beyond.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<(T, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    Some((sorted[idx], sorted.len() - 1 - idx))
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the exclusive method): the spread rule of the driver.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_12000_leaves_120_beyond() {
        let v: Vec<u32> = (1..=12_000).collect();
        assert_eq!(percentile(&v, 99.0), Some((11_880, 120)));
        assert_eq!(percentile(&v, 50.0), Some((6_000, 6_000)));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let enough: Vec<u32> = (0..1_100).collect();
        let (_, beyond) = percentile(&enough, 99.0).unwrap();
        assert!(beyond >= MIN_BEYOND);
        let few: Vec<u32> = (0..500).collect();
        let (_, beyond) = percentile(&few, 99.0).unwrap();
        assert!(beyond < MIN_BEYOND);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile::<u32>(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.0), Some((7, 0)));
        assert_eq!(percentile(&[1, 2, 3, 4], 100.0), Some((4, 0)));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.0), Some((1, 3)));
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tables_fit_the_contract() {
        let legal = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| legal(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
