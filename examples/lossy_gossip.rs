//! Lossy network: what eventual consistency costs as messages vanish.
//!
//! A compact version of the paper's §5.4 "thought experiment": sweep the
//! system-wide message drop rate and watch three quantities — how many
//! put attempts it takes to collect the workload's success replies, how
//! many *excess AMR* versions pile up (puts whose success answer was
//! lost, yet whose fragments converged anyway), and how rare truly
//! *non-durable* versions are even under egregious loss.
//!
//! Run with: `cargo run --release --example lossy_gossip`

use pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe::workload::StreamingWorkload;
use simnet::NetworkConfig;
use stats::Accumulator;

fn main() {
    println!("== lossy network sweep (25 puts x 32 KiB, 5 seeds/rate) ==");
    println!(
        "{:>6}  {:>9}  {:>11}  {:>12}  {:>10}",
        "drop", "attempts", "excess AMR", "non-durable", "sim time"
    );
    for drop in [0.0, 0.05, 0.10, 0.15] {
        let mut attempts = Accumulator::new();
        let mut excess = Accumulator::new();
        let mut non_durable = Accumulator::new();
        let mut sim_secs = Accumulator::new();
        for seed in 0..5 {
            let mut cfg = ClusterConfig::paper_default();
            cfg.streaming_workload =
                Some(StreamingWorkload::numbered(25, 1, 32 * 1024, cfg.policy));
            cfg.network = NetworkConfig::with_drop_rate(drop);
            let mut cluster = Cluster::build(cfg, seed);
            let report = cluster.run_to_convergence();
            assert_eq!(
                report.puts_succeeded, 25,
                "retries always reach 25 successes"
            );
            assert_eq!(
                report.durable_not_amr, 0,
                "eventual consistency: every durable version became AMR"
            );
            attempts.push(report.puts_attempted as f64);
            excess.push(report.excess_amr as f64);
            non_durable.push(report.non_durable as f64);
            sim_secs.push(report.sim_time.as_secs_f64());
        }
        println!(
            "{:>5.0}%  {:>9.1}  {:>11.1}  {:>12.1}  {:>8.0}s",
            drop * 100.0,
            attempts.mean(),
            excess.mean(),
            non_durable.mean(),
            sim_secs.mean(),
        );
    }
    println!(
        "\nTakeaway: loss inflates retries and leaves behind extra \
         converged versions,\nbut convergence still drives every durable \
         version to maximum redundancy."
    );
}
