//! Plain-text table rendering for experiment results.

use crate::runner::ConfigResult;

/// The stacked-legend order of the paper's figures (bottom to top);
/// unknown kinds are appended alphabetically.
pub const KIND_ORDER: &[&str] = &[
    "DecideLocsReq",
    "DecideLocsRep",
    "StoreMetadataReq",
    "StoreMetadataRep",
    "StoreFragmentReq",
    "StoreFragmentRep",
    "AMRIndication",
    "KLSConvergeReq",
    "KLSConvergeRep",
    "FSConvergeReq",
    "FSConvergeRep",
    "RetrieveFragReq",
    "RetrieveFragRep",
    "SiblingStoreReq",
    "FSDecideLocsReq",
    "LocsIndication",
    "RetrieveTsReq",
    "RetrieveTsRep",
];

/// What a table's cells show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Mean message count.
    Count,
    /// Mean message bytes, reported in MiB (the paper's 2²⁰-byte unit).
    Bytes,
}

fn kind_rank(kind: &str) -> (usize, &str) {
    match KIND_ORDER.iter().position(|&k| k == kind) {
        Some(i) => (i, kind),
        None => (KIND_ORDER.len(), kind),
    }
}

/// Renders a per-kind breakdown table: one row per message kind, one
/// column per configuration, plus a TOTAL row with 95 % confidence
/// half-widths.
pub fn render(title: &str, results: &[ConfigResult], unit: Unit) -> String {
    let mut kinds: Vec<&'static str> = results
        .iter()
        .flat_map(|r| r.kind_counts.keys().copied())
        .collect();
    kinds.sort_by_key(|k| kind_rank(k));
    kinds.dedup();

    let cell = |r: &ConfigResult, kind: &str| -> f64 {
        let map = match unit {
            Unit::Count => &r.kind_counts,
            Unit::Bytes => &r.kind_bytes,
        };
        map.get(kind).map_or(0.0, |s| s.mean)
    };
    let scale = match unit {
        Unit::Count => 1.0,
        Unit::Bytes => (1 << 20) as f64,
    };

    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let label_w = kinds
        .iter()
        .map(|k| k.len())
        .chain(["TOTAL".len(), "kind".len()])
        .max()
        .unwrap_or(8);
    let col_w = results
        .iter()
        .map(|r| r.label.len().max(10))
        .collect::<Vec<_>>();

    out.push_str(&format!("{:label_w$}", "kind"));
    for (r, w) in results.iter().zip(&col_w) {
        out.push_str(&format!("  {:>w$}", r.label, w = w));
    }
    out.push('\n');

    for kind in &kinds {
        let values: Vec<f64> = results.iter().map(|r| cell(r, kind)).collect();
        if values.iter().all(|&v| v == 0.0) {
            continue;
        }
        out.push_str(&format!("{kind:label_w$}"));
        for (v, w) in values.iter().zip(&col_w) {
            out.push_str(&format!("  {:>w$.1}", v / scale, w = w));
        }
        out.push('\n');
    }

    out.push_str(&format!("{:label_w$}", "TOTAL"));
    for (r, w) in results.iter().zip(&col_w) {
        let s = match unit {
            Unit::Count => r.total_count,
            Unit::Bytes => r.total_bytes,
        };
        out.push_str(&format!("  {:>w$.1}", s.mean / scale, w = w));
    }
    out.push('\n');
    out.push_str(&format!("{:label_w$}", "±95% CI"));
    for (r, w) in results.iter().zip(&col_w) {
        let s = match unit {
            Unit::Count => r.total_count,
            Unit::Bytes => r.total_bytes,
        };
        out.push_str(&format!("  {:>w$.1}", s.ci95_half_width / scale, w = w));
    }
    out.push('\n');
    out
}

/// Renders the same per-kind breakdown as CSV (kind per row, one column
/// per configuration, raw units — counts or bytes), for plotting.
pub fn render_csv(results: &[ConfigResult], unit: Unit) -> String {
    let mut kinds: Vec<&'static str> = results
        .iter()
        .flat_map(|r| r.kind_counts.keys().copied())
        .collect();
    kinds.sort_by_key(|k| kind_rank(k));
    kinds.dedup();

    let mut out = String::from("kind");
    for r in results {
        out.push(',');
        out.push_str(&r.label);
    }
    out.push('\n');
    for kind in &kinds {
        out.push_str(kind);
        for r in results {
            let map = match unit {
                Unit::Count => &r.kind_counts,
                Unit::Bytes => &r.kind_bytes,
            };
            out.push_str(&format!(",{}", map.get(kind).map_or(0.0, |s| s.mean)));
        }
        out.push('\n');
    }
    out.push_str("TOTAL");
    for r in results {
        let s = match unit {
            Unit::Count => r.total_count,
            Unit::Bytes => r.total_bytes,
        };
        out.push_str(&format!(",{}", s.mean));
    }
    out.push('\n');
    out
}

/// Renders run-level statistics (convergence time, puts attempted, drop
/// totals split by cause, background repair bytes) as a compact
/// companion table. The repair-bytes column stays zero for repair-off
/// configurations — the engine is opt-in and the column makes its
/// silence visible.
pub fn render_run_stats(results: &[ConfigResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:12}  {:>12}  {:>14}  {:>13}  {:>14}  {:>12}  {:>10}\n",
        "config",
        "sim time (s)",
        "puts attempted",
        "fault drops",
        "random drops",
        "repair bytes",
        "converged"
    ));
    for r in results {
        let repair_bytes = r.event_counts.get("repair_bytes").map_or(0.0, |s| s.mean);
        out.push_str(&format!(
            "{:12}  {:>12.1}  {:>14.1}  {:>13.1}  {:>14.1}  {:>12.1}  {:>10}\n",
            r.label,
            r.sim_secs.mean,
            r.puts_attempted.mean,
            r.dropped_fault.mean,
            r.dropped_random.mean,
            repair_bytes,
            if r.all_converged { "yes" } else { "NO" },
        ));
    }
    out
}

/// Renders the per-kind dropped-message breakdown: one row per message
/// kind, one `fault/random` cell per configuration. Kinds that were never
/// dropped anywhere are elided; returns an empty string when nothing was
/// dropped at all (failure-free configurations).
pub fn render_drops(title: &str, results: &[ConfigResult]) -> String {
    let mut kinds: Vec<&'static str> = results
        .iter()
        .flat_map(|r| r.kind_drops.keys().copied())
        .collect();
    kinds.sort_by_key(|k| kind_rank(k));
    kinds.dedup();
    let cell = |r: &ConfigResult, kind: &str| -> (f64, f64) {
        r.kind_drops
            .get(kind)
            .map_or((0.0, 0.0), |d| (d.fault.mean, d.random.mean))
    };
    kinds.retain(|k| {
        results.iter().any(|r| {
            let (f, rnd) = cell(r, k);
            f > 0.0 || rnd > 0.0
        })
    });
    if kinds.is_empty() {
        return String::new();
    }

    let label_w = kinds
        .iter()
        .map(|k| k.len())
        .chain(["TOTAL".len(), "kind".len()])
        .max()
        .unwrap_or(8);
    let col_w = results
        .iter()
        .map(|r| r.label.len().max(15))
        .collect::<Vec<_>>();

    let mut out = String::new();
    out.push_str(&format!("## {title} (mean drops: fault/random)\n"));
    out.push_str(&format!("{:label_w$}", "kind"));
    for (r, w) in results.iter().zip(&col_w) {
        out.push_str(&format!("  {:>w$}", r.label, w = w));
    }
    out.push('\n');
    for kind in &kinds {
        out.push_str(&format!("{kind:label_w$}"));
        for (r, w) in results.iter().zip(&col_w) {
            let (f, rnd) = cell(r, kind);
            out.push_str(&format!("  {:>w$}", format!("{f:.1}/{rnd:.1}"), w = w));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:label_w$}", "TOTAL"));
    for (r, w) in results.iter().zip(&col_w) {
        out.push_str(&format!(
            "  {:>w$}",
            format!("{:.1}/{:.1}", r.dropped_fault.mean, r.dropped_random.mean),
            w = w
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idealized;
    use pahoehoe::cluster::ClusterLayout;
    use pahoehoe::Policy;

    fn sample() -> Vec<ConfigResult> {
        vec![idealized::as_config_result(
            ClusterLayout {
                dcs: 2,
                kls_per_dc: 2,
                fs_per_dc: 3,
            },
            Policy::paper_default(),
            100 * 1024,
            100,
        )]
    }

    #[test]
    fn render_contains_kinds_and_totals() {
        let t = render("Figure 5", &sample(), Unit::Count);
        assert!(t.contains("Figure 5"));
        assert!(t.contains("StoreFragmentReq"));
        assert!(t.contains("TOTAL"));
        assert!(t.contains("3600"), "{t}");
        // Zero-valued kinds are elided.
        assert!(!t.contains("SiblingStoreReq"));
    }

    #[test]
    fn byte_table_uses_mib() {
        let t = render("bytes", &sample(), Unit::Bytes);
        // 100 puts x ~300 KiB fragments ≈ 29.3 MiB total.
        let total_line = t
            .lines()
            .find(|l| l.starts_with("TOTAL"))
            .expect("total row");
        let v: f64 = total_line
            .split_whitespace()
            .nth(1)
            .expect("value")
            .parse()
            .expect("numeric");
        assert!((25.0..35.0).contains(&v), "{v}");
    }

    #[test]
    fn csv_has_header_and_total() {
        let t = render_csv(&sample(), Unit::Count);
        let mut lines = t.lines();
        assert_eq!(lines.next(), Some("kind,Idealized"));
        let total = t.lines().last().expect("total row");
        assert!(total.starts_with("TOTAL,"), "{total}");
        assert!(total.contains("3600"), "{total}");
        // Every data row has exactly one comma (one config column).
        for line in t.lines().skip(1) {
            assert_eq!(line.matches(',').count(), 1, "{line}");
        }
    }

    #[test]
    fn run_stats_render() {
        let t = render_run_stats(&sample());
        assert!(t.contains("Idealized"));
        assert!(t.contains("yes"));
        assert!(t.contains("fault drops"));
        assert!(t.contains("random drops"));
        assert!(t.contains("repair bytes"));

        // The repair-bytes column reads the mean of the `repair_bytes`
        // event counter.
        let mut results = sample();
        let bytes = [98304.0].into_iter().collect::<stats::Accumulator>();
        results[0]
            .event_counts
            .insert("repair_bytes", bytes.summary());
        let s = render_run_stats(&results);
        assert!(s.contains("98304.0"), "{s}");
    }

    #[test]
    fn drops_table_elides_clean_runs_and_splits_causes() {
        // The idealized bound drops nothing: the table must vanish.
        assert_eq!(render_drops("clean", &sample()), "");

        // A lossy faulted run must produce per-kind fault/random cells.
        let mut cfg = pahoehoe::cluster::ClusterConfig::paper_default();
        cfg.streaming_workload = Some(pahoehoe::workload::StreamingWorkload::numbered(
            2, 1, 2048, cfg.policy,
        ));
        cfg.network.drop_rate = 0.1;
        let layout = cfg.layout;
        let reports = crate::runner::run_many(0..2, |seed| {
            let mut faults = simnet::FaultPlan::none();
            faults.add_node_outage(
                layout.fs(0, 0),
                simnet::SimTime::ZERO,
                simnet::SimDuration::from_secs(30),
            );
            pahoehoe::cluster::Cluster::build_with_faults(cfg.clone(), seed, faults)
        });
        let agg = crate::runner::aggregate("Lossy", &reports);
        assert!(agg.dropped_random.mean > 0.0, "10% loss drops something");
        let t = render_drops("lossy", std::slice::from_ref(&agg));
        assert!(t.contains("fault/random"), "{t}");
        assert!(t.contains("TOTAL"), "{t}");
        assert!(t.contains('/'), "{t}");
    }

    #[test]
    fn kind_order_is_stable() {
        assert!(kind_rank("DecideLocsReq").0 < kind_rank("AMRIndication").0);
        assert_eq!(kind_rank("Zebra").0, KIND_ORDER.len());
    }
}
