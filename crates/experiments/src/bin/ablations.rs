//! Ablations over the convergence tunables DESIGN.md calls out, measured
//! in the currency the paper cares about — messages and bytes — plus
//! time-to-full-redundancy. Scenario: the Figure 6/7 "2 FSs down for ten
//! minutes" workload with all optimizations enabled, varying one knob at
//! a time.
//!
//! Usage: `cargo run -p experiments --release --bin ablations [--quick]`

use experiments::figures::{base_config, fs_outage, paper_layout, FigureOptions};
use experiments::runner::{aggregate, run_many};
use pahoehoe::cluster::Cluster;
use pahoehoe::convergence::ConvergenceOptions;
use simnet::SimDuration;
use stats::Accumulator;

fn run_knob(
    label: &str,
    opts: FigureOptions,
    conv: ConvergenceOptions,
) -> (String, f64, f64, f64, f64) {
    let layout = paper_layout();
    let reports = run_many(1..opts.seeds + 1, |seed| {
        Cluster::build_with_faults(base_config(opts, conv.clone()), seed, fs_outage(layout, 2))
    });
    let agg = aggregate(label, &reports);
    let mut amr_p95 = Accumulator::new();
    for r in &reports {
        if let Some(d) = stats::percentile(
            &r.time_to_amr
                .iter()
                .map(|d| d.as_secs_f64())
                .collect::<Vec<_>>(),
            95.0,
        ) {
            amr_p95.push(d);
        }
    }
    (
        label.to_string(),
        agg.total_count.mean,
        agg.total_bytes.mean / (1 << 20) as f64,
        agg.sim_secs.mean,
        amr_p95.mean(),
    )
}

fn print_rows(title: &str, rows: &[(String, f64, f64, f64, f64)]) {
    println!("\n## {title}");
    println!(
        "{:24} {:>10} {:>10} {:>12} {:>16}",
        "variant", "msgs", "MiB", "sim time(s)", "p95 t-to-AMR(s)"
    );
    for (label, msgs, mib, secs, p95) in rows {
        println!("{label:24} {msgs:>10.0} {mib:>10.1} {secs:>12.1} {p95:>16.1}");
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let opts = if quick {
        FigureOptions::quick()
    } else {
        FigureOptions {
            seeds: 20,
            ..FigureOptions::paper()
        }
    };
    eprintln!(
        "ablations: {} puts x {} KiB, {} seeds per variant, 2 FSs down ...",
        opts.puts,
        opts.value_len / 1024,
        opts.seeds
    );

    // Exponential backoff base: too eager re-probes a dead server; too
    // lazy delays the repair after it heals.
    let rows: Vec<_> = [15u64, 60, 240]
        .into_iter()
        .map(|base| {
            let mut conv = ConvergenceOptions::all();
            conv.backoff_base = SimDuration::from_secs(base);
            run_knob(&format!("backoff_base={base}s"), opts, conv)
        })
        .collect();
    print_rows("Backoff base (paper: 60s, doubling, capped)", &rows);

    // Convergence round interval (paper: uniform 30-90 s).
    let rows: Vec<_> = [(5u64, 15u64), (30, 90), (120, 360)]
        .into_iter()
        .map(|(lo, hi)| {
            let mut conv = ConvergenceOptions::all();
            conv.round_min = SimDuration::from_secs(lo);
            conv.round_max = SimDuration::from_secs(hi);
            run_knob(&format!("rounds={lo}-{hi}s"), opts, conv)
        })
        .collect();
    print_rows("Round interval (paper: 30-90s)", &rows);

    // Sibling-recovery accumulation window (paper: "waits some time").
    let rows: Vec<_> = [50u64, 500, 2000]
        .into_iter()
        .map(|ms| {
            let mut conv = ConvergenceOptions::all();
            conv.recovery_wait = SimDuration::from_millis(ms);
            run_knob(&format!("recovery_wait={ms}ms"), opts, conv)
        })
        .collect();
    print_rows("Sibling-recovery accumulation window", &rows);

    // Minimum version age before FS-initiated convergence (paper: 300 s).
    let rows: Vec<_> = [0u64, 60, 300, 900]
        .into_iter()
        .map(|secs| {
            let mut conv = ConvergenceOptions::all();
            conv.min_age = SimDuration::from_secs(secs);
            run_knob(&format!("min_age={secs}s"), opts, conv)
        })
        .collect();
    print_rows("Minimum age before convergence (paper: 300s)", &rows);
}
