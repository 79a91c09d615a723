//! `selftest`: evidence that the benchmark measures the program and not
//! itself. Each check perturbs one thing by a known amount and expects
//! the matching metric, and only that amount, to move.

use crate::api;
use crate::run::{spawn_child, ChildOut};
use crate::workloads::{by_name, BATCHES};

fn within(what: &str, got: f64, want: f64, tolerance: f64) -> bool {
    let ok = (got - want).abs() <= tolerance * want.abs();
    println!(
        "{} {what}: got {got:.4}, want {want:.4} ± {:.0} %",
        if ok { "ok  " } else { "FAIL" },
        tolerance * 100.0
    );
    ok
}

fn host(c: &ChildOut, name: &str) -> f64 {
    c.host.get(name).copied().unwrap_or(f64::NAN)
}

/// Runs every check; `Ok(false)` when one fails.
pub fn run() -> Result<bool, String> {
    let churn = by_name("small-put-churn").ok_or("workload table changed")?;
    let faulty = by_name("fault-recovery").ok_or("workload table changed")?;
    // Half the frozen count, so that "double" is the count the benchmark runs.
    let ops = churn.nominal_ops / 2;
    let seed = 42;
    let mut ok = true;

    // Four configurations of one workload, each kept as its fastest child
    // of three rounds. Interference on a shared host only ever slows a
    // child down and comes in bursts longer than a child, so the rounds
    // interleave the configurations: a burst hits all four, not one.
    let configs: [(u64, &[&str]); 4] = [
        (ops, &[]),
        (ops, &["--inject-batch-us", "10000"]),
        (ops / 2, &[]),
        (ops * 2, &[]),
    ];
    let mut fastest: Vec<ChildOut> = Vec::new();
    for round in 0..3 {
        for (i, &(n, extra)) in configs.iter().enumerate() {
            let child = spawn_child(churn, seed, n, extra)?;
            ok &= child.correct;
            if round == 0 {
                fastest.push(child);
            } else if host(&child, "ops_per_wall_s") > host(&fastest[i], "ops_per_wall_s") {
                fastest[i] = child;
            }
        }
    }
    let [base, slow_batches, half, double] = &fastest[..] else {
        return Err("four configurations ran".into());
    };

    // A busy-wait of known length in set-up moves setup_s by that amount.
    let slow_setup = spawn_child(churn, seed, ops, &["--inject-setup-ms", "1000"])?;
    ok &= within(
        "setup_s moved by the 1.0 s injected into set-up",
        host(&slow_setup, "setup_s") - host(base, "setup_s"),
        1.0,
        0.10,
    );

    // The same per batch moves the timed phase, and so ops_per_wall_s.
    let injected_s = BATCHES as f64 * 10_000e-6;
    ok &= within(
        "timed wall (ops ÷ ops_per_wall_s) moved by the 2.0 s injected into batches",
        ops as f64 / host(slow_batches, "ops_per_wall_s")
            - ops as f64 / host(base, "ops_per_wall_s"),
        injected_s,
        0.10,
    );
    ok &= within(
        "setup_s did not move with the batch injection",
        host(slow_batches, "setup_s"),
        host(base, "setup_s"),
        0.10,
    );

    // Steady state: half and double the ops keep the rate.
    for (label, other) in [("half", half), ("double", double)] {
        ok &= within(
            &format!("ops_per_wall_s at {label} the op count"),
            host(other, "ops_per_wall_s"),
            host(base, "ops_per_wall_s"),
            0.10,
        );
    }

    // The right counters are read: naive convergence costs more bytes.
    let fault_ops = faulty.nominal_ops / 10;
    let all = spawn_child(faulty, seed, fault_ops, &[])?;
    let naive = spawn_child(faulty, seed, fault_ops, &["--naive"])?;
    ok &= all.correct && naive.correct;
    let (all_bytes, naive_bytes) = (
        all.sim_f64("convergence_bytes_per_put"),
        naive.sim_f64("convergence_bytes_per_put"),
    );
    let more = naive_bytes > all_bytes;
    println!(
        "{} convergence_bytes_per_put: naive {naive_bytes:.0} > all {all_bytes:.0}",
        if more { "ok  " } else { "FAIL" }
    );
    ok &= more;

    // No value sits on a configured time-out or cap.
    for (run, child) in [("small-put-churn", base), ("fault-recovery", &all)] {
        for (metric, to_seconds) in [
            ("op_latency_sim_ms_p50", 1e-3),
            ("op_latency_sim_ms_p99", 1e-3),
            ("time_to_amr_sim_s_p50", 1.0),
            ("time_to_amr_sim_s_p99", 1.0),
        ] {
            let v = child.sim_f64(metric) * to_seconds;
            for (limit, secs) in api::configured_limits() {
                if (v - secs).abs() <= 1e-3 * secs {
                    println!("FAIL {run} {metric} = {v} s sits on {limit} = {secs} s");
                    ok = false;
                }
            }
        }
    }
    println!("ok   no latency or time-to-AMR value sits on a configured limit");

    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
