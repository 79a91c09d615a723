//! Regenerates **Figures 6 and 7** of the paper: message count and
//! message bytes during convergence as 0–4 fragment servers are
//! unavailable for ten minutes, under each optimization setting
//! (PutAMR / FSAMR / Sibling / All).
//!
//! Usage: `cargo run -p experiments --release --bin fig6_7 [--quick]`

use experiments::figures::{fig6_7, FigureOptions};
use experiments::table::{render, render_csv, render_run_stats, Unit};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let csv = std::env::args().any(|a| a == "--csv");
    let opts = if quick {
        FigureOptions::quick()
    } else {
        FigureOptions::paper()
    };
    eprintln!(
        "fig6_7: {} puts x {} KiB, {} seeds x 17 configs ...",
        opts.puts,
        opts.value_len / 1024,
        opts.seeds
    );
    let results = fig6_7(opts);
    println!(
        "{}",
        render(
            "Figure 6 - FS failures, message count",
            &results,
            Unit::Count
        )
    );
    println!(
        "{}",
        render("Figure 7 - FS failures, message MiB", &results, Unit::Bytes)
    );
    println!("{}", render_run_stats(&results));
    if csv {
        std::fs::write("fig6_counts.csv", render_csv(&results, Unit::Count))
            .expect("write fig6_counts.csv");
        std::fs::write("fig7_bytes.csv", render_csv(&results, Unit::Bytes))
            .expect("write fig7_bytes.csv");
        eprintln!("wrote fig6_counts.csv, fig7_bytes.csv");
    }
}
