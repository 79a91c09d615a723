//! Scenario matrices for each paper figure.

use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::convergence::ConvergenceOptions;
use pahoehoe::workload::StreamingWorkload;
use simnet::{FaultPlan, NetworkConfig, SimDuration, SimTime};
use stats::{percentile, Summary};

use crate::idealized;
use crate::runner::{aggregate, run_many, ConfigResult};

/// Sizing knobs shared by every figure.
#[derive(Debug, Clone, Copy)]
pub struct FigureOptions {
    /// Trials per configuration (paper: 50; 150 for the lossy sweep).
    pub seeds: u64,
    /// Puts in the workload (paper: 100).
    pub puts: usize,
    /// Object size in bytes (paper: 100 KiB).
    pub value_len: usize,
}

impl FigureOptions {
    /// The paper's experimental scale.
    pub fn paper() -> Self {
        FigureOptions {
            seeds: 50,
            puts: 100,
            value_len: 100 * 1024,
        }
    }

    /// A reduced scale for tests and the figure binaries' `--quick`.
    pub fn quick() -> Self {
        FigureOptions {
            seeds: 3,
            puts: 20,
            value_len: 16 * 1024,
        }
    }
}

/// The paper's cluster shape.
pub fn paper_layout() -> ClusterLayout {
    ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    }
}

/// The paper's cluster running `opts`' workload under `conv`.
pub fn base_config(opts: FigureOptions, conv: ConvergenceOptions) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default();
    let workload = StreamingWorkload::numbered(opts.puts as u64, 1, opts.value_len, cfg.policy);
    cfg.streaming_workload = Some(workload);
    cfg.convergence = conv;
    cfg
}

fn run_config(
    label: &str,
    opts: FigureOptions,
    conv: ConvergenceOptions,
    faults: impl Fn() -> FaultPlan + Send + Sync,
    network: NetworkConfig,
) -> ConfigResult {
    let reports = run_many(1..opts.seeds + 1, |seed| {
        let mut cfg = base_config(opts, conv.clone());
        cfg.network = network.clone();
        Cluster::build_with_faults(cfg, seed, faults())
    });
    aggregate(label, &reports)
}

/// The outage used throughout §5.3: all messages in and out of the node
/// dropped for ten minutes starting with the workload.
pub const OUTAGE: SimDuration = SimDuration::from_mins(10);

// ---------------------------------------------------------------- Fig. 5

/// Figure 5: failure-free execution — message count per optimization
/// level, plus the analytic Idealized bound.
pub fn fig5(opts: FigureOptions) -> Vec<ConfigResult> {
    let configs = [
        ("Naive", ConvergenceOptions::naive()),
        ("FSAMR-S", ConvergenceOptions::fs_amr_synchronized()),
        ("FSAMR-U", ConvergenceOptions::fs_amr_unsynchronized()),
        ("PutAMR", ConvergenceOptions::all()),
    ];
    let mut out: Vec<ConfigResult> = configs
        .into_iter()
        .map(|(label, conv)| {
            run_config(
                label,
                opts,
                conv,
                FaultPlan::none,
                NetworkConfig::paper_default(),
            )
        })
        .collect();
    out.push(idealized::as_config_result(
        paper_layout(),
        pahoehoe::Policy::paper_default(),
        opts.value_len,
        opts.puts as u64,
    ));
    out
}

// ----------------------------------------------------------- Figs. 6 & 7

/// The four optimization settings compared in Figures 6–8.
pub fn failure_optimization_matrix() -> Vec<(&'static str, ConvergenceOptions)> {
    vec![
        ("PutAMR", ConvergenceOptions::put_amr()),
        ("FSAMR", ConvergenceOptions::fs_amr_unsynchronized()),
        ("Sibling", ConvergenceOptions::sibling()),
        ("All", ConvergenceOptions::all()),
    ]
}

/// FS outage pattern for `down` unavailable FSs, "roughly balanced
/// between data centers" (§5.3).
pub fn fs_outage(layout: ClusterLayout, down: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for i in 0..down {
        let dc = i % layout.dcs;
        let idx = i / layout.dcs;
        plan.add_node_outage(layout.fs(dc, idx), SimTime::ZERO, OUTAGE);
    }
    plan
}

/// Figures 6 and 7: message counts and bytes as 0–4 FSs are unavailable
/// for ten minutes, for each optimization setting. The `0-All` column is
/// the reference point (same data as Fig. 5's PutAMR bar).
pub fn fig6_7(opts: FigureOptions) -> Vec<ConfigResult> {
    let layout = paper_layout();
    let mut out = vec![run_config(
        "0-All",
        opts,
        ConvergenceOptions::all(),
        FaultPlan::none,
        NetworkConfig::paper_default(),
    )];
    for down in 1..=4usize {
        for (name, conv) in failure_optimization_matrix() {
            out.push(run_config(
                &format!("{down}-{name}"),
                opts,
                conv,
                move || fs_outage(layout, down),
                NetworkConfig::paper_default(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- Fig. 8

/// KLS outage patterns of §5.3, each with the `(dc, i)` KLSs it takes
/// down: `0` (none), `1` (one KLS down), `2C` (one per DC — network stays
/// connected), `2P` (both KLSs of the proxy-remote DC — effectively a WAN
/// partition for metadata), `3`.
const KLS_OUTAGES: [(&str, &[(usize, usize)]); 5] = [
    ("0", &[]),
    ("1", &[(0, 0)]),
    ("2C", &[(0, 0), (1, 0)]),
    ("2P", &[(1, 0), (1, 1)]),
    ("3", &[(0, 0), (1, 0), (1, 1)]),
];

/// The outage of the KLS outage pattern named `pattern` (`0`, `1`, `2C`,
/// `2P` or `3`) on `layout`.
///
/// # Errors
///
/// An unknown pattern, or one that takes down a KLS `layout` lacks.
pub fn kls_outage(layout: ClusterLayout, pattern: &str) -> Result<FaultPlan, String> {
    let (_, klss) = KLS_OUTAGES
        .iter()
        .find(|(name, _)| *name == pattern)
        .ok_or_else(|| {
            let names: Vec<&str> = KLS_OUTAGES.iter().map(|(name, _)| *name).collect();
            format!(
                "unknown KLS outage pattern {pattern:?} (one of {})",
                names.join(", ")
            )
        })?;
    let mut plan = FaultPlan::none();
    for &(dc, i) in *klss {
        if dc >= layout.dcs || i >= layout.kls_per_dc {
            return Err(format!(
                "KLS outage pattern {pattern} takes down KLS {i} of data center {dc}, \
                 but the layout has {} data centers of {} KLSs",
                layout.dcs, layout.kls_per_dc
            ));
        }
        plan.add_node_outage(layout.kls(dc, i), SimTime::ZERO, OUTAGE);
    }
    Ok(plan)
}

/// Figure 8: message bytes as KLSs become unavailable, for each
/// optimization setting.
pub fn fig8(opts: FigureOptions) -> Vec<ConfigResult> {
    let layout = paper_layout();
    let mut out = vec![run_config(
        "0-All",
        opts,
        ConvergenceOptions::all(),
        FaultPlan::none,
        NetworkConfig::paper_default(),
    )];
    // Pattern `0` is the `0-All` reference column above.
    for &(pattern, _) in &KLS_OUTAGES[1..] {
        for (name, conv) in failure_optimization_matrix() {
            out.push(run_config(
                &format!("{pattern}-{name}"),
                opts,
                conv,
                move || {
                    kls_outage(layout, pattern).expect("the paper layout has every pattern's KLSs")
                },
                NetworkConfig::paper_default(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- Fig. 9

/// One drop-rate point of the lossy-network sweep.
#[derive(Debug, Clone)]
pub struct LossyPoint {
    /// System-wide message drop rate.
    pub drop_rate: f64,
    /// Put attempts needed for the workload's successes (mean ± CI).
    pub attempts: Summary,
    /// 5th/95th percentile of attempts across trials — the "low to high
    /// range" whiskers of Fig. 9.
    pub attempts_low_high: (f64, f64),
    /// Excess-AMR object versions (converged, but their put was never
    /// acknowledged to the client).
    pub excess_amr: Summary,
    /// Non-durable object versions (fewer than `k` fragments ever stored;
    /// can never reach AMR).
    pub non_durable: Summary,
    /// Whether every trial converged.
    pub all_converged: bool,
}

/// Figure 9: behaviour under a lossy network, drop rates 0–15 %. All
/// optimizations are enabled, as in the paper.
pub fn fig9(opts: FigureOptions, drop_rates: &[f64]) -> Vec<LossyPoint> {
    drop_rates
        .iter()
        .map(|&rate| {
            let reports = run_many(1..opts.seeds + 1, |seed| {
                let mut cfg = base_config(opts, ConvergenceOptions::all());
                cfg.network = NetworkConfig::with_drop_rate(rate);
                Cluster::build(cfg, seed)
            });
            let agg = aggregate(format!("{:.1}%", rate * 100.0), &reports);
            let attempts: Vec<f64> = reports.iter().map(|r| r.puts_attempted as f64).collect();
            LossyPoint {
                drop_rate: rate,
                attempts: agg.puts_attempted,
                attempts_low_high: (
                    percentile(&attempts, 5.0).expect("non-empty"),
                    percentile(&attempts, 95.0).expect("non-empty"),
                ),
                excess_amr: agg.excess_amr,
                non_durable: agg.non_durable,
                all_converged: agg.all_converged,
            }
        })
        .collect()
}

/// The drop rates the paper sweeps (0 % to 15 %).
pub fn paper_drop_rates() -> Vec<f64> {
    vec![0.0, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_outage_is_balanced_across_dcs() {
        let layout = paper_layout();
        let plan = fs_outage(layout, 4);
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        // Two FSs down in each DC.
        for dc in 0..2 {
            let down = (0..3)
                .filter(|&i| plan.node_down(layout.fs(dc, i), t))
                .count();
            assert_eq!(down, 2, "dc{dc}");
        }
    }

    #[test]
    fn kls_outage_patterns() {
        let layout = paper_layout();
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let down_set = |pattern: &str| -> Vec<(usize, usize)> {
            let plan = kls_outage(layout, pattern).unwrap();
            let mut v = Vec::new();
            for dc in 0..2 {
                for i in 0..2 {
                    if plan.node_down(layout.kls(dc, i), t) {
                        v.push((dc, i));
                    }
                }
            }
            v
        };
        assert_eq!(down_set("0"), vec![]);
        assert_eq!(down_set("1"), vec![(0, 0)]);
        assert_eq!(down_set("2C"), vec![(0, 0), (1, 0)]);
        assert_eq!(down_set("2P"), vec![(1, 0), (1, 1)], "whole remote DC");
        assert_eq!(down_set("3").len(), 3);
        // A layout without the pattern's KLSs is an error, not a panic
        // inside `ClusterLayout::kls`.
        let one_kls = ClusterLayout {
            kls_per_dc: 1,
            ..layout
        };
        assert!(kls_outage(one_kls, "2C").is_ok());
        assert!(kls_outage(one_kls, "2P").is_err());
    }

    #[test]
    #[should_panic(expected = "unknown KLS outage pattern")]
    fn bogus_pattern_panics() {
        kls_outage(paper_layout(), "4X").unwrap();
    }

    /// One-seed miniature for fast structural checks.
    fn mini() -> FigureOptions {
        FigureOptions {
            seeds: 1,
            puts: 5,
            value_len: 4 * 1024,
        }
    }

    #[test]
    fn fig6_7_matrix_shape_and_monotonicity() {
        let results = fig6_7(mini());
        assert_eq!(results.len(), 17, "0-All + 4 x 4 settings");
        assert_eq!(results[0].label, "0-All");
        assert!(results.iter().all(|r| r.all_converged));
        // Recovery traffic appears once failures do.
        let zero = &results[0];
        assert_eq!(
            zero.kind_counts
                .get("RetrieveFragReq")
                .map_or(0.0, |s| s.mean),
            0.0
        );
        let one_putamr = &results[1];
        assert!(one_putamr.label.starts_with("1-"));
        assert!(
            one_putamr
                .kind_counts
                .get("RetrieveFragReq")
                .is_some_and(|s| s.mean > 0.0),
            "failures force fragment retrievals"
        );
        // Without sibling recovery, retrieval work grows with the number
        // of rebuilding FSs (each retrieves k fragments itself).
        let retrievals = |label: &str| {
            results
                .iter()
                .find(|r| r.label == label)
                .expect("present")
                .kind_counts
                .get("RetrieveFragReq")
                .map_or(0.0, |s| s.mean)
        };
        assert!(retrievals("4-PutAMR") > retrievals("1-PutAMR"));
    }

    #[test]
    fn fig8_partitioned_case_dominates() {
        let results = fig8(mini());
        assert_eq!(results.len(), 17);
        assert!(results.iter().all(|r| r.all_converged));
        let retrievals = |label: &str| {
            results
                .iter()
                .find(|r| r.label == label)
                .expect("present")
                .kind_counts
                .get("RetrieveFragReq")
                .map_or(0.0, |s| s.mean)
        };
        // The metadata partition (2P) forces fragment recovery that the
        // connected two-failure case (2C) never needs…
        assert_eq!(retrievals("2C-PutAMR"), 0.0);
        assert!(retrievals("2P-PutAMR") > 0.0);
        // …and sibling recovery amortizes the retrievals.
        assert!(retrievals("2P-All") < retrievals("2P-PutAMR"));
    }

    #[test]
    fn fig9_attempts_never_drop_below_successes() {
        let points = fig9(mini(), &[0.0, 0.10]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.all_converged);
            assert!(p.attempts.mean >= 5.0);
            assert!(p.attempts_low_high.0 <= p.attempts_low_high.1);
        }
        assert!(points[1].attempts.mean >= points[0].attempts.mean);
    }

    #[test]
    fn fig5_quick_reproduces_the_ordering() {
        let results = fig5(FigureOptions::quick());
        assert_eq!(results.len(), 5);
        let by_label = |l: &str| {
            results
                .iter()
                .find(|r| r.label == l)
                .unwrap_or_else(|| panic!("{l} missing"))
                .total_count
                .mean
        };
        let (naive, s, u, put, ideal) = (
            by_label("Naive"),
            by_label("FSAMR-S"),
            by_label("FSAMR-U"),
            by_label("PutAMR"),
            by_label("Idealized"),
        );
        assert!(results.iter().all(|r| r.all_converged));
        // The paper's qualitative ordering (§5.2).
        assert!(s > naive, "FSAMR-S adds overhead: {s} vs {naive}");
        assert!(u < naive, "FSAMR-U saves: {u} vs {naive}");
        assert!(put < u, "PutAMR saves most: {put} vs {u}");
        assert!(ideal < put, "Idealized is the floor: {ideal} vs {put}");
    }
}
