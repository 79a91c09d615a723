//! `pahoehoe-sim` — run a Pahoehoe scenario from the command line.
//!
//! A swiss-army driver for the simulated cluster: choose a workload, an
//! optimization preset, failures and a loss rate, and get the paper-style
//! per-message-kind report plus convergence statistics.
//!
//! ```text
//! USAGE: pahoehoe-sim [OPTIONS]
//!   --puts N            number of puts              [default: 20]
//!   --value-bytes N     object size in bytes        [default: 102400]
//!   --opt PRESET        naive|fsamr-s|fsamr-u|putamr|sibling|all [default: all]
//!   --layout D,K,F      data centers, KLSs per DC, FSs per DC [default: 2,2,3]
//!   --policy K,N,D,M    k, n, data centers, max fragments per FS
//!                                                   [default: 4,12,2,2]
//!   --scale             ProtocolMode::scale(): compaction and batched rounds
//!   --drop-rate P       message drop probability    [default: 0.0]
//!   --fs-down N         FSs unavailable for 10 min  [default: 0]
//!   --kls-down PATTERN  0|1|2C|2P|3                 [default: 0]
//!   --seed N            simulation seed             [default: 42]
//!   --trace             print the first 40 traced messages
//! ```
//!
//! Example: reproduce one trial of the paper's Figure 7 "2-All" bar:
//!
//! ```text
//! cargo run --release --bin pahoehoe-sim -- --puts 100 --fs-down 2 --opt all
//! ```
//!
//! The benchmark's `small-put-churn` shape (four data centers of two KLSs
//! and four FSs, one fragment of 16 per FS, scale mode) with its 256-byte
//! values:
//!
//! ```text
//! cargo run --release --bin pahoehoe-sim -- --layout 4,2,4 --policy 4,16,4,1 \
//!     --scale --puts 200 --value-bytes 256
//! ```

use pahoehoe_repro::experiments::figures::{fs_outage, kls_outage, paper_layout};
use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::convergence::ConvergenceOptions;
use pahoehoe_repro::pahoehoe::policy::Policy;
use pahoehoe_repro::pahoehoe::protocol::ProtocolMode;
use pahoehoe_repro::simnet::{FaultPlan, NetworkConfig};

struct Args {
    puts: usize,
    value_bytes: usize,
    opt: String,
    layout: ClusterLayout,
    policy: Policy,
    scale: bool,
    drop_rate: f64,
    fs_down: usize,
    kls_down: String,
    /// `kls_down`'s outage on `layout`, checked by `parse_args`.
    kls_faults: FaultPlan,
    seed: u64,
    trace: bool,
}

/// `N` comma-separated whole numbers.
fn numbers<const N: usize>(flag: &str, text: &str) -> Result<[usize; N], String> {
    let parsed: Vec<usize> = text
        .split(',')
        .map(|v| v.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{flag}: {e}"))?;
    parsed
        .try_into()
        .map_err(|_| format!("{flag} takes {N} comma-separated numbers, got {text}"))
}

fn parse_layout(text: &str) -> Result<ClusterLayout, String> {
    let [dcs, kls_per_dc, fs_per_dc] = numbers("--layout", text)?;
    if dcs == 0 || kls_per_dc == 0 || fs_per_dc == 0 {
        return Err("--layout: every count must be at least 1".into());
    }
    Ok(ClusterLayout {
        dcs,
        kls_per_dc,
        fs_per_dc,
    })
}

/// The policy `K,N,DCS,MAX_PER_FS`, checked here so that a bad shape is a
/// usage error rather than a panic inside `Policy::new`.
fn parse_policy(text: &str) -> Result<Policy, String> {
    let [k, n, dcs, max_per_fs] = numbers("--policy", text)?;
    let byte = |v: usize| u8::try_from(v).map_err(|_| format!("--policy: {v} is over 255"));
    let (k, n, dcs, max_per_fs) = (byte(k)?, byte(n)?, byte(dcs)?, byte(max_per_fs)?);
    if dcs == 0 || n % dcs != 0 {
        return Err("--policy: N must divide evenly across DCS".into());
    }
    if k == 0 || k > n / dcs || max_per_fs == 0 {
        return Err("--policy: need 0 < K <= N / DCS and MAX_PER_FS > 0".into());
    }
    Ok(Policy::new(k, n, dcs, max_per_fs))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        puts: 20,
        value_bytes: 100 * 1024,
        opt: "all".into(),
        layout: paper_layout(),
        policy: Policy::paper_default(),
        scale: false,
        drop_rate: 0.0,
        fs_down: 0,
        kls_down: "0".into(),
        kls_faults: FaultPlan::none(),
        seed: 42,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--puts" => args.puts = val("--puts")?.parse().map_err(|e| format!("--puts: {e}"))?,
            "--value-bytes" => {
                args.value_bytes = val("--value-bytes")?
                    .parse()
                    .map_err(|e| format!("--value-bytes: {e}"))?
            }
            "--opt" => args.opt = val("--opt")?,
            "--layout" => args.layout = parse_layout(&val("--layout")?)?,
            "--policy" => args.policy = parse_policy(&val("--policy")?)?,
            "--scale" => args.scale = true,
            "--drop-rate" => {
                args.drop_rate = val("--drop-rate")?
                    .parse()
                    .map_err(|e| format!("--drop-rate: {e}"))?;
                if !(0.0..=1.0).contains(&args.drop_rate) {
                    return Err(format!("--drop-rate: {} is not in [0, 1]", args.drop_rate));
                }
            }
            "--fs-down" => {
                args.fs_down = val("--fs-down")?
                    .parse()
                    .map_err(|e| format!("--fs-down: {e}"))?
            }
            "--kls-down" => args.kls_down = val("--kls-down")?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => args.trace = true,
            "--help" | "-h" => {
                return Err("see the module docs at the top of pahoehoe-sim.rs".into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let (layout, policy) = (args.layout, args.policy);
    if usize::from(policy.data_centers()) != layout.dcs {
        return Err(format!(
            "the policy spans {} data centers and the layout has {}",
            policy.data_centers(),
            layout.dcs
        ));
    }
    if usize::from(policy.frags_per_dc) > layout.fs_per_dc * usize::from(policy.max_frags_per_fs) {
        return Err(format!(
            "{} fragments per data center do not fit on {} FSs of at most {} each",
            policy.frags_per_dc, layout.fs_per_dc, policy.max_frags_per_fs
        ));
    }
    if args.fs_down > layout.dcs * layout.fs_per_dc {
        return Err(format!(
            "--fs-down: the layout has {} FSs",
            layout.dcs * layout.fs_per_dc
        ));
    }
    args.kls_faults = kls_outage(layout, &args.kls_down).map_err(|e| format!("--kls-down: {e}"))?;
    Ok(args)
}

fn preset(name: &str) -> Result<ConvergenceOptions, String> {
    Ok(match name {
        "naive" => ConvergenceOptions::naive(),
        "fsamr-s" => ConvergenceOptions::fs_amr_synchronized(),
        "fsamr-u" => ConvergenceOptions::fs_amr_unsynchronized(),
        "putamr" => ConvergenceOptions::put_amr(),
        "sibling" => ConvergenceOptions::sibling(),
        "all" => ConvergenceOptions::all(),
        other => return Err(format!("unknown preset {other}")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pahoehoe-sim: {e}");
            std::process::exit(2);
        }
    };
    let conv = match preset(&args.opt) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pahoehoe-sim: {e}");
            std::process::exit(2);
        }
    };

    let layout = args.layout;
    let mut faults = fs_outage(layout, args.fs_down);
    faults.merge(&args.kls_faults);

    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = layout;
    cfg.policy = args.policy;
    if args.scale {
        cfg.protocol = ProtocolMode::scale();
    }
    cfg.convergence = conv;
    cfg.workload_puts = args.puts;
    cfg.workload_value_len = args.value_bytes;
    cfg.network = NetworkConfig::with_drop_rate(args.drop_rate);

    let mut cluster = Cluster::build_with_faults(cfg, args.seed, faults);
    if args.trace {
        cluster.sim_mut().enable_trace();
    }

    println!(
        "pahoehoe-sim: {} puts x {} B, opt={}, layout={},{},{}, policy={:?}{}, drop={}, \
         fs-down={}, kls-down={}, seed={}",
        args.puts,
        args.value_bytes,
        args.opt,
        layout.dcs,
        layout.kls_per_dc,
        layout.fs_per_dc,
        args.policy,
        if args.scale { ", scale" } else { "" },
        args.drop_rate,
        args.fs_down,
        args.kls_down,
        args.seed
    );
    let report = cluster.run_to_convergence();

    println!("\noutcome:        {:?}", report.outcome);
    println!("sim time:       {}", report.sim_time);
    println!(
        "puts:           {} attempted, {} succeeded",
        report.puts_attempted, report.puts_succeeded
    );
    println!(
        "versions:       {} AMR ({} excess), {} non-durable, {} stuck",
        report.amr_versions, report.excess_amr, report.non_durable, report.durable_not_amr
    );
    if !report.time_to_amr.is_empty() {
        let mid = &report.time_to_amr[report.time_to_amr.len() / 2];
        let max = report.time_to_amr.last().expect("non-empty");
        println!("time to AMR:    median {mid}, max {max}");
    }

    println!("\nper-kind traffic (client traffic excluded):");
    let per_put = |bytes: u64| bytes as f64 / args.puts.max(1) as f64;
    let row = |kind: &str, count: u64, bytes: u64| {
        println!(
            "{:22} {:>10} {:>14} {:>12.1}",
            kind,
            count,
            bytes,
            per_put(bytes)
        );
    };
    println!(
        "{:22} {:>10} {:>14} {:>12}",
        "kind", "count", "bytes", "bytes/put"
    );
    let (mut c, mut b) = (0u64, 0u64);
    for (kind, stats) in report.metrics.iter() {
        if kind.starts_with("Client") {
            continue;
        }
        row(kind, stats.count, stats.bytes);
        c += stats.count;
        b += stats.bytes;
    }
    row("TOTAL", c, b);

    if args.trace {
        if let Some(trace) = cluster.sim().trace() {
            println!("\nfirst traced messages:");
            for e in trace.events().iter().take(40) {
                println!(
                    "  {} {} -> {} {} ({} B) {:?}",
                    e.at, e.from, e.to, e.kind, e.bytes, e.disposition
                );
            }
        }
    }
}
