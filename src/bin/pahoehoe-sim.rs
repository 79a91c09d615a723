//! `pahoehoe-sim` — run a Pahoehoe scenario from the command line.
//!
//! A swiss-army driver for the simulated cluster: choose a workload, an
//! optimization preset, failures and a loss rate, and get the paper-style
//! per-message-kind report plus convergence statistics. Every run stops on
//! `Cluster::run_to_convergence`, the paper's termination condition.
//! Converged-version compaction always runs, as in every cluster; the
//! `compacted entries:` line counts the residuals it left.
//!
//! ```text
//! USAGE: pahoehoe-sim [OPTIONS]
//!   --puts N            number of puts              [default: 20]
//!   --value-bytes N     object size in bytes        [default: 102400]
//!   --keys N            stream the puts over N keys (a StreamingWorkload)
//!   --dist DIST         key popularity of the stream: seq|uniform|zipf:S|hot:H:P
//!                                                   [default: zipf:1.1]
//!   --opt PRESET        naive|fsamr-s|fsamr-u|putamr|sibling|all [default: all]
//!   --layout D,K,F      data centers, KLSs per DC, FSs per DC [default: 2,2,3]
//!   --policy K,N,D,M    k, n, data centers, max fragments per FS
//!                                                   [default: 4,12,2,2]
//!   --batch             batched convergence rounds
//!   --drop-rate P       message drop probability    [default: 0.0]
//!   --fs-down N         FSs unavailable for 10 min  [default: 0]
//!   --kls-down PATTERN  0|1|2C|2P|3                 [default: 0]
//!   --seed N            simulation and stream seed  [default: 42]
//!   --trace             print the first 40 traced messages
//! ```
//!
//! Stdout is a pure function of the flags. Host measurements — wall
//! seconds, events per wall-second, peak and steady RSS — go to stderr
//! as one `key=value` line, so `scripts/scale.sh` can run each scale cell
//! as its own process and read that process's peak.
//!
//! Example: reproduce one trial of the paper's Figure 7 "2-All" bar:
//!
//! ```text
//! cargo run --release --bin pahoehoe-sim -- --puts 100 --fs-down 2 --opt all
//! ```
//!
//! The benchmark's `small-put-churn` shape (four data centers of two KLSs
//! and four FSs, one fragment of 16 per FS, batched rounds) with its
//! 256-byte values:
//!
//! ```text
//! cargo run --release --bin pahoehoe-sim -- --layout 4,2,4 --policy 4,16,4,1 \
//!     --batch --puts 200 --value-bytes 256
//! ```
//!
//! A scale cell: 2 000 Zipf-1.1 puts of 4 KiB over 1 000 keys.
//!
//! ```text
//! cargo run --release --bin pahoehoe-sim -- --keys 1000 --puts 2000 \
//!     --value-bytes 4096 --batch
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use pahoehoe_repro::experiments::figures::{fs_outage, kls_outage, paper_layout};
use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::convergence::ConvergenceOptions;
use pahoehoe_repro::pahoehoe::fs::Fs;
use pahoehoe_repro::pahoehoe::messages::Message;
use pahoehoe_repro::pahoehoe::policy::Policy;
use pahoehoe_repro::pahoehoe::protocol::ProtocolMode;
use pahoehoe_repro::pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use pahoehoe_repro::simnet::{FaultPlan, NetworkConfig, Observer, SimDuration, TraceEvent};
use pahoehoe_repro::stats::{current_rss_bytes, peak_rss_bytes};

struct Args {
    puts: usize,
    value_bytes: usize,
    opt: String,
    layout: ClusterLayout,
    policy: Policy,
    /// The `--dist` text, and the stream `--keys` asks for.
    dist: Option<String>,
    stream: Option<StreamingWorkload>,
    mode: ProtocolMode,
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

/// A `--dist` value: `seq`, `uniform`, `zipf:S` with `S > 0`, or
/// `hot:H:P` (`P` of every thousand puts go to the `H` hottest keys).
fn parse_dist(text: &str) -> Result<KeyDistribution, String> {
    let bad = || format!("--dist takes seq, uniform, zipf:S or hot:H:P, got {text}");
    let parts: Vec<&str> = text.split(':').collect();
    Ok(match parts[..] {
        ["seq"] => KeyDistribution::Sequential,
        ["uniform"] => KeyDistribution::Uniform,
        ["zipf", s] => {
            let exponent: f64 = s.parse().map_err(|_| bad())?;
            if !(exponent > 0.0 && exponent.is_finite()) {
                return Err(format!("--dist: the Zipf exponent {s} is not positive"));
            }
            KeyDistribution::Zipf { exponent }
        }
        ["hot", h, p] => {
            let hot_keys = h.parse().map_err(|_| bad())?;
            let hot_permille = p.parse().map_err(|_| bad())?;
            if hot_keys == 0 || hot_permille > 1000 {
                return Err(format!("--dist: need H > 0 and P <= 1000, got {text}"));
            }
            KeyDistribution::HotKey {
                hot_keys,
                hot_permille,
            }
        }
        _ => return Err(bad()),
    })
}

/// The stream's key popularity when `--keys` comes without `--dist`.
const DEFAULT_DIST: &str = "zipf:1.1";

/// How many sends `--trace` prints.
const TRACED_SENDS: usize = 40;

/// The run's first [`TRACED_SENDS`] sends; the rest are not kept, so a
/// traced run holds no more memory than an untraced one.
#[derive(Default)]
struct FirstSends(Vec<TraceEvent>);

impl Observer<Message> for FirstSends {
    fn on_send(&mut self, event: &TraceEvent) {
        if self.0.len() < TRACED_SENDS {
            self.0.push(event.clone());
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        puts: 20,
        value_bytes: 100 * 1024,
        opt: "all".into(),
        layout: paper_layout(),
        policy: Policy::paper_default(),
        dist: None,
        stream: None,
        mode: ProtocolMode::default(),
        drop_rate: 0.0,
        fs_down: 0,
        kls_down: "0".into(),
        kls_faults: FaultPlan::none(),
        seed: 42,
        trace: false,
    };
    let mut keys = None;
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
            "--keys" => {
                let n = val("--keys")?.parse().map_err(|e| format!("--keys: {e}"))?;
                if n == 0 {
                    return Err("--keys: the stream needs at least one key".into());
                }
                keys = Some(n);
            }
            "--dist" => args.dist = Some(val("--dist")?),
            "--batch" => args.mode.batch_rounds = true,
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
    args.stream = match (keys, &args.dist) {
        (None, Some(_)) => return Err("--dist shapes a stream: give --keys too".into()),
        (None, None) => None,
        (Some(key_space), dist) => Some(StreamingWorkload {
            puts: args.puts as u64,
            key_space,
            value_len: args.value_bytes,
            policy,
            seed: args.seed,
            dist: parse_dist(dist.as_deref().unwrap_or(DEFAULT_DIST))?,
            overwrite_delta_permille: 0,
        }),
    };
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
    cfg.protocol = args.mode;
    cfg.convergence = conv;
    cfg.workload_puts = args.puts;
    cfg.workload_value_len = args.value_bytes;
    cfg.streaming_workload = args.stream.clone();
    cfg.network = NetworkConfig::with_drop_rate(args.drop_rate);
    // A million-put stream takes tens of simulated hours; the default
    // one-day safety net is too close.
    cfg.max_sim_time = SimDuration::from_secs(14 * 24 * 3600);

    let mut cluster = Cluster::build_with_faults(cfg, args.seed, faults);
    let first_sends = args.trace.then(|| {
        let sends = Rc::new(RefCell::new(FirstSends::default()));
        cluster.sim_mut().observe(Rc::clone(&sends));
        sends
    });

    let over = match &args.stream {
        Some(stream) => format!(
            " over {} keys ({})",
            stream.key_space,
            args.dist.as_deref().unwrap_or(DEFAULT_DIST)
        ),
        None => String::new(),
    };
    println!(
        "pahoehoe-sim: {} puts x {} B{}, opt={}, layout={},{},{}, policy={:?}{}, drop={}, \
         fs-down={}, kls-down={}, seed={}",
        args.puts,
        args.value_bytes,
        over,
        args.opt,
        layout.dcs,
        layout.kls_per_dc,
        layout.fs_per_dc,
        args.policy,
        if args.mode.batch_rounds {
            ", batch"
        } else {
            ""
        },
        args.drop_rate,
        args.fs_down,
        args.kls_down,
        args.seed
    );
    // The run's wall time is reported on stderr only; it never reaches
    // stdout or the simulation.
    // lint:allow(wall-clock) — host throughput of the run, stderr only
    let started = std::time::Instant::now();
    let report = cluster.run_to_convergence();
    let wall_s = started.elapsed().as_secs_f64();
    let sim = cluster.sim();
    let events = sim.events_processed();
    let compacted: usize = cluster
        .topology()
        .all_fss()
        .map(|fs| sim.actor::<Fs>(fs).compacted_count())
        .sum();
    eprintln!(
        "pahoehoe-sim: wall_s={wall_s:.3} events_per_wall_s={:.0} peak_rss_bytes={} \
         steady_rss_bytes={}",
        events as f64 / wall_s,
        peak_rss_bytes().unwrap_or(0),
        current_rss_bytes().unwrap_or(0)
    );

    println!("\noutcome:        {:?}", report.outcome);
    println!("sim time:       {}", report.sim_time);
    println!("events:         {events}");
    println!("compacted entries: {compacted}");
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

    if let Some(sends) = first_sends {
        println!("\nfirst traced messages:");
        for e in &sends.borrow().0 {
            println!(
                "  {} {} -> {} {} ({} B) {:?}",
                e.at, e.from, e.to, e.kind, e.bytes, e.disposition
            );
        }
    }
}
