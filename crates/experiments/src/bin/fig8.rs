//! Regenerates **Figure 8** of the paper: message bytes during
//! convergence as KLSs become unavailable — including the paper's split
//! between `2C` (one KLS down per data center; network stays connected)
//! and `2P` (both KLSs of one data center down; effectively a WAN
//! partition for metadata).
//!
//! Usage: `cargo run -p experiments --release --bin fig8 [--quick]`

use experiments::figures::{fig8, FigureOptions};
use experiments::table::{render, render_csv, render_drops, render_run_stats, Unit};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let csv = std::env::args().any(|a| a == "--csv");
    let opts = if quick {
        FigureOptions::quick()
    } else {
        FigureOptions::paper()
    };
    eprintln!(
        "fig8: {} puts x {} KiB, {} seeds x 17 configs ...",
        opts.puts,
        opts.value_len / 1024,
        opts.seeds
    );
    let results = fig8(opts);
    println!(
        "{}",
        render(
            "Figure 8 - KLS failures, message MiB",
            &results,
            Unit::Bytes
        )
    );
    println!(
        "{}",
        render(
            "Figure 8 (companion) - KLS failures, message count",
            &results,
            Unit::Count
        )
    );
    println!("{}", render_run_stats(&results));
    let drops = render_drops("Figure 8 - messages lost to KLS outages", &results);
    if !drops.is_empty() {
        println!("{drops}");
    }
    if csv {
        std::fs::write("fig8_bytes.csv", render_csv(&results, Unit::Bytes))
            .expect("write fig8_bytes.csv");
        eprintln!("wrote fig8_bytes.csv");
    }
}
