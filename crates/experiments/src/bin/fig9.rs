//! Regenerates **Figure 9** of the paper: convergence under a lossy
//! network — puts attempted to reach the workload's successes (with
//! low/high whiskers), excess-AMR object versions, and non-durable object
//! versions, as the system-wide message drop rate sweeps 0–15 %.
//!
//! Usage: `cargo run -p experiments --release --bin fig9 [--quick] [--csv]`
//! (`--csv` also writes `fig9.csv`, one row per drop rate, raw values).

use experiments::figures::{fig9, paper_drop_rates, FigureOptions};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let csv = std::env::args().any(|a| a == "--csv");
    let mut opts = if quick {
        FigureOptions::quick()
    } else {
        FigureOptions::paper()
    };
    if !quick {
        opts.seeds = 150; // the paper runs the lossy sweep 150 times
    }
    let rates = if quick {
        vec![0.0, 0.05, 0.10]
    } else {
        paper_drop_rates()
    };
    eprintln!(
        "fig9: {} puts x {} KiB, {} seeds x {} drop rates ...",
        opts.puts,
        opts.value_len / 1024,
        opts.seeds,
        rates.len()
    );
    let points = fig9(opts, &rates);
    println!("## Figure 9 - convergence and a lossy network");
    println!(
        "{:>9}  {:>14}  {:>13}  {:>12}  {:>12}  {:>9}",
        "drop rate", "puts attempted", "low..high", "excess AMR", "non-durable", "converged"
    );
    for p in &points {
        println!(
            "{:>8.1}%  {:>14.1}  {:>6.0}..{:<6.0}  {:>12.2}  {:>12.2}  {:>9}",
            p.drop_rate * 100.0,
            p.attempts.mean,
            p.attempts_low_high.0,
            p.attempts_low_high.1,
            p.excess_amr.mean,
            p.non_durable.mean,
            if p.all_converged { "yes" } else { "NO" },
        );
    }
    if csv {
        let mut out = String::from(
            "drop_rate,puts_attempted,attempts_low,attempts_high,excess_amr,non_durable,converged\n",
        );
        for p in &points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                p.drop_rate,
                p.attempts.mean,
                p.attempts_low_high.0,
                p.attempts_low_high.1,
                p.excess_amr.mean,
                p.non_durable.mean,
                p.all_converged,
            ));
        }
        std::fs::write("fig9.csv", out).expect("write fig9.csv");
        eprintln!("wrote fig9.csv");
    }
}
