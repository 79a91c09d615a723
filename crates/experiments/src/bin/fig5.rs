//! Regenerates **Figure 5** of the paper: failure-free execution —
//! message count (and bytes) per convergence-optimization level, compared
//! against the analytic Idealized bound.
//!
//! Usage: `cargo run -p experiments --release --bin fig5 [--quick]`

use experiments::figures::{fig5, FigureOptions};
use experiments::table::{render, render_csv, render_events, render_run_stats, Unit};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let csv = std::env::args().any(|a| a == "--csv");
    let opts = if quick {
        FigureOptions::quick()
    } else {
        FigureOptions::paper()
    };
    eprintln!(
        "fig5: {} puts x {} KiB, {} seeds per config ...",
        opts.puts,
        opts.value_len / 1024,
        opts.seeds
    );
    let results = fig5(opts);
    println!(
        "{}",
        render(
            "Figure 5 - failure-free execution, message count",
            &results,
            Unit::Count
        )
    );
    println!(
        "{}",
        render(
            "Figure 5 (companion) - failure-free execution, message MiB",
            &results,
            Unit::Bytes
        )
    );
    println!("{}", render_run_stats(&results));
    // Non-empty only when a configuration recorded protocol events
    // (e.g. the put path's fragment-byte ledger).
    let events = render_events("Figure 5 - protocol event counters", &results);
    if !events.is_empty() {
        println!("{events}");
    }
    if csv {
        std::fs::write("fig5_counts.csv", render_csv(&results, Unit::Count))
            .expect("write fig5_counts.csv");
        std::fs::write("fig5_bytes.csv", render_csv(&results, Unit::Bytes))
            .expect("write fig5_bytes.csv");
        eprintln!("wrote fig5_counts.csv, fig5_bytes.csv");
    }

    let naive = results
        .iter()
        .find(|r| r.label == "Naive")
        .expect("naive config present")
        .total_count
        .mean;
    println!("relative to Naive:");
    for r in &results {
        println!(
            "  {:10} {:>7.1}%",
            r.label,
            100.0 * r.total_count.mean / naive
        );
    }
}
