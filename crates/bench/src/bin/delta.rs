//! Delta-codec sweep: `cargo run -p bench --release --bin delta`.
//!
//! Runs hot-key overwrite streams in **delta-on / delta-off pairs** and
//! records the put-path payload bytes each mode ships, the delta-engine
//! counters, and the convergence ledger into `BENCH_delta.json` at the
//! repo root (`--smoke` writes `target/BENCH_delta.smoke.json` and leaves
//! the committed record alone). The headline claim (DESIGN.md §8.8): at 4 KiB values with
//! ~1% of bytes changed per overwrite, XOR-delta stripes cut put-path
//! fragment payload by **at least 3x** while converging to the same AMR
//! ledger as the full-stripe run.
//!
//! Every cell runs in its own child process (this binary re-execs itself
//! with `--cell`): delta coding is a process-wide construction-time
//! switch, so per-process isolation keeps the pair runs from seeing each
//! other's mode. The parent distributes cells through
//! `simnet::sweep::map_indexed`, the same deterministic harness the
//! explorer sweep uses.
//!
//! ```text
//! cargo run -p bench --release --bin delta            # full pair grid
//! cargo run -p bench --release --bin delta -- --smoke # CI subset
//! ```

use std::cell::Cell as StdCell;
use std::process::Command;

use pahoehoe::client::Client;
use pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe::fs::Fs;
use pahoehoe::policy::Policy;
use pahoehoe::protocol::{set_delta_coding, ProtocolMode};
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use simnet::{NodeId, RunOutcome, SimDuration, SimTime};

// Wall-clock use is the entire point of a benchmark runner; virtual time
// cannot measure real throughput.
// lint:allow(wall-clock)
use std::time::Instant;

/// One cell: an overwrite stream shape plus the delta switch. Cells come
/// in `(delta: true, delta: false)` pairs that are identical otherwise.
#[derive(Clone, Debug)]
struct Cell {
    name: &'static str,
    /// The pair both cells of a measurement belong to.
    pair: &'static str,
    key_space: u64,
    puts: u64,
    value_len: usize,
    dist: KeyDistribution,
    /// 1/1000 of bytes rewritten at a fixed per-key offset per overwrite.
    overwrite_delta_permille: u16,
    delta: bool,
    seed: u64,
}

impl Cell {
    fn dist_label(&self) -> String {
        match self.dist {
            KeyDistribution::Sequential => "seq".to_string(),
            KeyDistribution::Uniform => "uniform".to_string(),
            KeyDistribution::Zipf { exponent } => format!("zipf:{exponent}"),
            KeyDistribution::HotKey {
                hot_keys,
                hot_permille,
            } => format!("hot:{hot_keys}:{hot_permille}"),
        }
    }

    /// Child-process argument encoding (inverse of [`parse_cell`]).
    fn to_args(&self) -> Vec<String> {
        vec![
            "--cell".into(),
            self.name.into(),
            "--pair".into(),
            self.pair.into(),
            "--keys".into(),
            self.key_space.to_string(),
            "--puts".into(),
            self.puts.to_string(),
            "--value-len".into(),
            self.value_len.to_string(),
            "--dist".into(),
            self.dist_label(),
            "--overwrite-permille".into(),
            self.overwrite_delta_permille.to_string(),
            "--delta".into(),
            if self.delta { "on" } else { "off" }.into(),
            "--seed".into(),
            self.seed.to_string(),
        ]
    }
}

/// Deterministic measurements of one cell run, reported by the child as a
/// single JSON line.
struct CellResult {
    outcome: RunOutcome,
    events: u64,
    sim_secs: f64,
    wall_secs: f64,
    puts_attempted: u64,
    puts_succeeded: u64,
    amr_versions: usize,
    non_durable: usize,
    /// `(label, count)` for every delta-engine event counter.
    counters: Vec<(&'static str, u64)>,
}

/// The delta-engine counters each cell records, in output order.
const COUNTERS: &[&str] = &[
    "deltas_encoded",
    "delta_fallbacks",
    "delta_bytes_saved",
    "stripe_cache_hits",
    "stripe_cache_misses",
    "delta_frag_bytes",
    "full_frag_bytes",
    "deltas_resolved",
    "delta_unresolvable",
];

/// Runs one cell in this process and measures it.
fn run_cell(cell: &Cell) -> CellResult {
    // Construction-time switch: the whole point of the child process.
    set_delta_coding(cell.delta);
    let mut cfg = ClusterConfig::paper_default();
    cfg.policy = Policy::paper_default();
    cfg.protocol = ProtocolMode {
        delta: cell.delta,
        ..ProtocolMode::delta()
    };
    cfg.workload_value_len = cell.value_len;
    cfg.streaming_workload = Some(StreamingWorkload {
        puts: cell.puts,
        key_space: cell.key_space,
        value_len: cell.value_len,
        policy: cfg.policy,
        seed: cell.seed,
        dist: cell.dist,
        overwrite_delta_permille: cell.overwrite_delta_permille,
    });
    cfg.max_sim_time = SimDuration::from_secs(14 * 24 * 3600);
    let max_sim_time = cfg.max_sim_time;
    let mut cluster = Cluster::build(cfg, cell.seed);

    let client = cluster.client_ids()[0];
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    let deadline = SimTime::ZERO + max_sim_time;
    let next_check = StdCell::new(0u64);
    let check_interval = SimDuration::from_millis(500).as_micros();
    // lint:allow(wall-clock)
    let t0 = Instant::now();
    let outcome = {
        let sim = cluster.sim_mut();
        sim.run_until(|sim| {
            if sim.now() >= deadline {
                return true;
            }
            if sim.now().as_micros() < next_check.get() {
                return false;
            }
            next_check.set(sim.now().as_micros() + check_interval);
            sim.actor::<Client>(client).is_done()
                && fss
                    .iter()
                    .all(|&fs| sim.actor::<Fs>(fs).pending_versions().next().is_none())
        })
    };
    let wall_secs = t0.elapsed().as_secs_f64();

    let metrics = cluster.sim().metrics().clone();
    let counters = COUNTERS
        .iter()
        .map(|&label| (label, metrics.event(label)))
        .collect();
    let c: &Client = cluster.sim().actor(client);
    let (puts_attempted, puts_succeeded) = (c.puts_attempted(), c.puts_succeeded());
    let events = cluster.sim().events_processed();
    let sim_secs = cluster.sim().now().as_secs_f64();
    let report = cluster.report(outcome);
    CellResult {
        outcome,
        events,
        sim_secs,
        wall_secs,
        puts_attempted,
        puts_succeeded,
        amr_versions: report.amr_versions,
        non_durable: report.non_durable,
        counters,
    }
}

fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// The child's single-line report, also the cell object embedded in
/// `BENCH_delta.json`.
fn cell_json(cell: &Cell, r: &CellResult) -> String {
    let counters = r
        .counters
        .iter()
        .map(|(label, n)| format!("\"{label}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{ \"name\": \"{}\", \"pair\": \"{}\", \"delta\": {}, \"key_space\": {}, \
         \"puts\": {}, \"value_len\": {}, \"dist\": \"{}\", \
         \"overwrite_permille\": {}, \"seed\": {}, \"outcome\": \"{:?}\", \
         \"events\": {}, \"sim_secs\": {}, \"wall_secs\": {}, \
         \"puts_attempted\": {}, \"puts_succeeded\": {}, \"amr_versions\": {}, \
         \"non_durable\": {}, \"counters\": {{ {} }} }}",
        cell.name,
        cell.pair,
        cell.delta,
        cell.key_space,
        cell.puts,
        cell.value_len,
        cell.dist_label(),
        cell.overwrite_delta_permille,
        cell.seed,
        r.outcome,
        r.events,
        jf(r.sim_secs),
        jf(r.wall_secs),
        r.puts_attempted,
        r.puts_succeeded,
        r.amr_versions,
        r.non_durable,
        counters,
    )
}

/// The pair grid. `hot-seq` is the headline cell behind the >= 3x claim:
/// a 16-key sequential overwrite stream keeps every stripe inside the
/// proxy's 32-entry cache, so only the chain-depth re-anchors ship full
/// stripes. `zipf` adds a skewed 1000-key stream where the cache only
/// covers the head — its ratio is recorded but not gated.
fn grid(smoke: bool) -> Vec<Cell> {
    let cell = |name, pair, key_space, puts, dist, delta| Cell {
        name,
        pair,
        key_space,
        puts,
        value_len: 4096,
        dist,
        // ~1% of bytes rewritten per overwrite, the paper-shaped hot-key
        // update pattern the delta codec targets.
        overwrite_delta_permille: 10,
        delta,
        seed: 42,
    };
    let mut cells = vec![
        cell(
            "hot-seq-on",
            "hot-seq",
            16,
            if smoke { 512 } else { 4_096 },
            KeyDistribution::Sequential,
            true,
        ),
        cell(
            "hot-seq-off",
            "hot-seq",
            16,
            if smoke { 512 } else { 4_096 },
            KeyDistribution::Sequential,
            false,
        ),
    ];
    if !smoke {
        cells.push(cell(
            "zipf-on",
            "zipf",
            1_000,
            8_000,
            KeyDistribution::Zipf { exponent: 1.1 },
            true,
        ));
        cells.push(cell(
            "zipf-off",
            "zipf",
            1_000,
            8_000,
            KeyDistribution::Zipf { exponent: 1.1 },
            false,
        ));
    }
    cells
}

/// Extracts `"field": value` from a cell's JSON line (the hand-rolled
/// format above is regular enough for this).
fn json_u64(line: &str, field: &str) -> Option<u64> {
    let at = line.find(&format!("\"{field}\": "))?;
    let rest = &line[at + field.len() + 4..];
    let digits: String = rest
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn parse_cell(args: &[String]) -> Cell {
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let num = |flag: &str, default: u64| -> u64 {
        get(flag).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let dist = match get("--dist").unwrap_or("seq") {
        "seq" => KeyDistribution::Sequential,
        "uniform" => KeyDistribution::Uniform,
        d if d.starts_with("hot:") => {
            let mut it = d.split(':').skip(1);
            KeyDistribution::HotKey {
                hot_keys: it.next().and_then(|v| v.parse().ok()).unwrap_or(100),
                hot_permille: it.next().and_then(|v| v.parse().ok()).unwrap_or(900),
            }
        }
        d => KeyDistribution::Zipf {
            exponent: d
                .strip_prefix("zipf:")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1.1),
        },
    };
    // Names only label output; leaking them is fine.
    let leak = |s: &str| -> &'static str { Box::leak(s.to_string().into_boxed_str()) };
    Cell {
        name: leak(get("--cell").unwrap_or("cell")),
        pair: leak(get("--pair").unwrap_or("pair")),
        key_space: num("--keys", 16),
        puts: num("--puts", 512),
        value_len: num("--value-len", 4096) as usize,
        dist,
        overwrite_delta_permille: num("--overwrite-permille", 10) as u16,
        delta: get("--delta") != Some("off"),
        seed: num("--seed", 42),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Child mode: run one cell, print its JSON line, exit.
    if args.iter().any(|a| a == "--cell") {
        let cell = parse_cell(&args);
        let r = run_cell(&cell);
        println!("{}", cell_json(&cell, &r));
        assert!(
            r.outcome == RunOutcome::PredicateSatisfied,
            "cell {} did not drain: {:?}",
            cell.name,
            r.outcome
        );
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let workers = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let cells = grid(smoke);
    let exe = std::env::current_exe().expect("own path");
    eprintln!(
        "delta sweep: {} cells ({} pairs), {} worker(s), child process per cell",
        cells.len(),
        cells.len() / 2,
        workers
    );

    let lines = simnet::sweep::map_indexed(cells.clone(), workers, move |_, cell| {
        // lint:allow(wall-clock)
        let t0 = Instant::now();
        let out = Command::new(&exe)
            .args(cell.to_args())
            .output()
            .expect("spawn cell child");
        let line = String::from_utf8_lossy(&out.stdout).trim().to_string();
        assert!(
            out.status.success() && line.starts_with('{'),
            "cell {} failed:\n{}\n{}",
            cell.name,
            line,
            String::from_utf8_lossy(&out.stderr)
        );
        eprintln!(
            "  {:<12} delta={:<5} {:>6} puts -> {:>8} delta B + {:>9} full B shipped, \
             {:>4} deltas, {:>3} fallbacks ({:.1}s)",
            cell.name,
            cell.delta,
            cell.puts,
            json_u64(&line, "delta_frag_bytes").unwrap_or(0),
            json_u64(&line, "full_frag_bytes").unwrap_or(0),
            json_u64(&line, "deltas_encoded").unwrap_or(0),
            json_u64(&line, "delta_fallbacks").unwrap_or(0),
            t0.elapsed().as_secs_f64(),
        );
        line
    });

    // Per-pair: the payload-reduction ratio, plus equivalence of the put
    // and AMR ledgers (delta coding must change the wire cost, never the
    // archive the pair converges to).
    let find = |name: &str| -> &str {
        cells
            .iter()
            .zip(&lines)
            .find(|(c, _)| c.name == name)
            .map(|(_, l)| l.as_str())
            .expect("cell line")
    };
    let payload = |line: &str| -> u64 {
        json_u64(line, "delta_frag_bytes").unwrap_or(0)
            + json_u64(line, "full_frag_bytes").unwrap_or(0)
    };
    let pairs: Vec<&'static str> = {
        let mut seen = Vec::new();
        for c in &cells {
            if !seen.contains(&c.pair) {
                seen.push(c.pair);
            }
        }
        seen
    };
    let mut pair_json = Vec::new();
    for pair in &pairs {
        let on = find(&format!("{pair}-on"));
        let off = find(&format!("{pair}-off"));
        for field in ["puts_succeeded", "amr_versions", "non_durable"] {
            assert_eq!(
                json_u64(on, field),
                json_u64(off, field),
                "pair {pair}: `{field}` diverged between delta on and off"
            );
        }
        assert_eq!(
            json_u64(on, "delta_unresolvable"),
            Some(0),
            "pair {pair}: unresolvable deltas on a clean network"
        );
        let ratio = payload(off) as f64 / payload(on) as f64;
        eprintln!(
            "pair {pair}: {} B full-stripe vs {} B delta -> {ratio:.2}x fewer put-path bytes",
            payload(off),
            payload(on)
        );
        // The headline gate: the hot pair must clear 3x.
        if *pair == "hot-seq" {
            assert!(
                ratio >= 3.0,
                "hot-seq pair: expected >= 3x payload reduction, got {ratio:.2}x"
            );
        }
        pair_json.push(format!(
            "{{ \"pair\": \"{pair}\", \"full_payload_bytes\": {}, \
             \"delta_payload_bytes\": {}, \"payload_reduction\": {} }}",
            payload(off),
            payload(on),
            jf(ratio)
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"delta\",\n  \"schema_version\": 1,\n  \"mode\": \"{}\",\n  {},\n  \
         \"cells\": [\n    {}\n  ],\n  \"pairs\": [\n    {}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        bench::host_json(workers),
        lines.join(",\n    "),
        pair_json.join(",\n    "),
    );
    bench::write_record("delta", smoke, &json);
}
