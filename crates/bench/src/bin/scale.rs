//! Scale-tier sweep: `cargo run -p bench --release --bin scale`.
//!
//! Runs a `nodes x keys x skew` grid of streaming-workload scenarios and
//! records events/s, put-latency quantiles (P² streaming estimators — no
//! per-put sample vector) and memory per cell into `BENCH_scale.json` at
//! the repo root (`--smoke` writes `target/BENCH_scale.smoke.json` and
//! leaves the committed record alone). The grid spans the paper-shaped cluster up to a
//! 100-node / million-key cell, and pairs update-heavy cells with
//! converged-version compaction on and off so the recorded steady-state
//! RSS demonstrates the sublinear memory claim (DESIGN.md §8.7).
//!
//! Every cell runs in its **own child process** (this binary re-execs
//! itself with `--cell`): Linux's `VmHWM` is monotone for the life of a
//! process, so a fresh child's high-water mark *is* the cell's peak RSS.
//! The parent distributes cells through `simnet::sweep::map_indexed`, the
//! same deterministic harness the explorer sweep uses.
//!
//! ```text
//! cargo run -p bench --release --bin scale            # full grid
//! cargo run -p bench --release --bin scale -- --smoke # CI subset
//! ```
//!
//! After the cells return the sweep is checked, not just recorded (see
//! [`gate_failures`]): each `update-*` pair must report equal `events`
//! with compaction on and off, and every compacting cell must have
//! compacted something; the smoke grid must report exactly the
//! `(events, compacted_entries)` of [`SMOKE_COUNTS`]; and on the full grid
//! steady RSS must grow more slowly with compaction on than off, and
//! `mid-hot` must settle under half of `mid-uniform`. Otherwise the binary
//! exits 1 and writes nothing.
//!
//! Cells terminate on a cheap predicate — every client drained its stream
//! AND every FS's pending (not-yet-settled-AMR) set is empty — instead of
//! `run_to_convergence`'s durable-set walk, which is O(versions) per
//! check and would dominate a million-key run.

use std::cell::{Cell as StdCell, RefCell};
use std::process::Command;
use std::rc::Rc;

use pahoehoe::client::Client;
use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::fs::Fs;
use pahoehoe::policy::Policy;
use pahoehoe::protocol::ProtocolMode;
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use simnet::{NodeId, RunOutcome, SimDuration, SimTime};
use stats::{current_rss_bytes, peak_rss_bytes, StreamingQuantile};

// Wall-clock use is the entire point of a benchmark runner; virtual time
// cannot measure real throughput.
// lint:allow(wall-clock)
use std::time::Instant;

/// One grid cell: cluster shape, workload shape and the compaction switch.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    name: &'static str,
    dcs: u8,
    kls_per_dc: usize,
    fs_per_dc: usize,
    key_space: u64,
    puts: u64,
    value_len: usize,
    dist: KeyDistribution,
    compact: bool,
    seed: u64,
}

impl Cell {
    fn nodes(&self) -> usize {
        usize::from(self.dcs) * (self.kls_per_dc + self.fs_per_dc)
    }

    /// The cell's durability policy: the paper's `(4, 12)` on the paper's
    /// two-DC shape, otherwise `(4, 4*dcs)` spreading `k` fragments into
    /// every data center (one per FS).
    fn policy(&self) -> Policy {
        if self.dcs == 2 {
            Policy::paper_default()
        } else {
            Policy::new(4, 4 * self.dcs, self.dcs, 1)
        }
    }

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
            "--dcs".into(),
            self.dcs.to_string(),
            "--kls".into(),
            self.kls_per_dc.to_string(),
            "--fs".into(),
            self.fs_per_dc.to_string(),
            "--keys".into(),
            self.key_space.to_string(),
            "--puts".into(),
            self.puts.to_string(),
            "--value-len".into(),
            self.value_len.to_string(),
            "--dist".into(),
            self.dist_label(),
            "--compact".into(),
            if self.compact { "on" } else { "off" }.into(),
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
    latency_ms: [f64; 3],
    /// FS-store entries collapsed to residual records (a superseded
    /// version compacts once per FS that held it).
    compacted_entries: u64,
    peak_rss_bytes: u64,
    steady_rss_bytes: u64,
}

/// Runs one cell in this process and measures it.
fn run_cell(cell: &Cell) -> CellResult {
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = ClusterLayout {
        dcs: usize::from(cell.dcs),
        kls_per_dc: cell.kls_per_dc,
        fs_per_dc: cell.fs_per_dc,
    };
    cfg.policy = cell.policy();
    // An on/off pair differs in compaction alone.
    cfg.protocol = ProtocolMode {
        compact_converged: cell.compact,
        ..ProtocolMode::scale()
    };
    cfg.workload_value_len = cell.value_len;
    cfg.streaming_workload = Some(StreamingWorkload {
        puts: cell.puts,
        key_space: cell.key_space,
        value_len: cell.value_len,
        policy: cfg.policy,
        seed: cell.seed,
        dist: cell.dist,
        overwrite_delta_permille: 0,
    });
    // A million-put stream takes tens of virtual hours; the default
    // one-day ceiling is too close for comfort.
    cfg.max_sim_time = SimDuration::from_secs(14 * 24 * 3600);
    let max_sim_time = cfg.max_sim_time;
    let mut cluster = Cluster::build(cfg, cell.seed);

    // Stream answered puts' latencies into three P² estimators: constant
    // memory regardless of put count.
    let client = cluster.client_ids()[0];
    let quantiles = Rc::new(RefCell::new((
        0u64,
        [
            StreamingQuantile::new(0.50),
            StreamingQuantile::new(0.95),
            StreamingQuantile::new(0.99),
        ],
    )));
    let hook = Rc::clone(&quantiles);
    cluster.sim_mut().set_inspector(move |sim| {
        let c: &Client = sim.actor(client);
        let mut q = hook.borrow_mut();
        if c.puts_answered() > q.0 {
            q.0 = c.puts_answered();
            let ms = c.last_put_latency().as_secs_f64() * 1e3;
            for est in &mut q.1 {
                est.observe(ms);
            }
        }
    });

    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    let deadline = SimTime::ZERO + max_sim_time;
    let next_check = StdCell::new(0u64);
    let check_interval = SimDuration::from_millis(500).as_micros();
    // lint:allow(wall-clock)
    let t0 = Instant::now();
    let fss_pred = fss.clone();
    let outcome = cluster.sim_mut().run_until(move |sim| {
        if sim.now() >= deadline {
            return true;
        }
        if sim.now().as_micros() < next_check.get() {
            return false;
        }
        next_check.set(sim.now().as_micros() + check_interval);
        sim.actor::<Client>(client).is_done()
            && fss_pred
                .iter()
                .all(|&fs| sim.actor::<Fs>(fs).pending_versions().next().is_none())
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let sim = cluster.sim();
    let compacted_entries = fss
        .iter()
        .map(|&fs| sim.actor::<Fs>(fs).compacted_count() as u64)
        .sum();
    let c: &Client = sim.actor(client);
    let q = quantiles.borrow();
    let latency_ms = [0, 1, 2].map(|i| q.1[i].estimate().unwrap_or(f64::NAN));
    CellResult {
        outcome,
        events: sim.events_processed(),
        sim_secs: sim.now().as_secs_f64(),
        wall_secs,
        puts_attempted: c.puts_attempted(),
        puts_succeeded: c.puts_succeeded(),
        latency_ms,
        compacted_entries,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        steady_rss_bytes: current_rss_bytes().unwrap_or(0),
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
/// `BENCH_scale.json`.
fn cell_json(cell: &Cell, r: &CellResult) -> String {
    format!(
        "{{ \"name\": \"{}\", \"nodes\": {}, \"dcs\": {}, \"kls_per_dc\": {}, \
         \"fs_per_dc\": {}, \"key_space\": {}, \"puts\": {}, \"value_len\": {}, \
         \"dist\": \"{}\", \"compact\": {}, \"seed\": {}, \"outcome\": \"{:?}\", \
         \"events\": {}, \"sim_secs\": {}, \"wall_secs\": {}, \
         \"events_per_wall_sec\": {}, \"puts_attempted\": {}, \"puts_succeeded\": {}, \
         \"put_latency_ms\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {} }}, \
         \"compacted_entries\": {}, \"peak_rss_bytes\": {}, \"steady_rss_bytes\": {} }}",
        cell.name,
        cell.nodes(),
        cell.dcs,
        cell.kls_per_dc,
        cell.fs_per_dc,
        cell.key_space,
        cell.puts,
        cell.value_len,
        cell.dist_label(),
        cell.compact,
        cell.seed,
        r.outcome,
        r.events,
        jf(r.sim_secs),
        jf(r.wall_secs),
        jf(r.events as f64 / r.wall_secs),
        r.puts_attempted,
        r.puts_succeeded,
        jf(r.latency_ms[0]),
        jf(r.latency_ms[1]),
        jf(r.latency_ms[2]),
        r.compacted_entries,
        r.peak_rss_bytes,
        r.steady_rss_bytes,
    )
}

/// The grid. Update-heavy cells (a small hot key space, so most versions
/// are superseded) come in compaction-on/off pairs at two put counts —
/// the four measurements behind the sublinear-RSS claim. The remaining
/// cells scale the node count, key space and skew axis up to the
/// 100-node / million-key corner.
fn grid(smoke: bool) -> Vec<Cell> {
    let update = |name, puts, compact| Cell {
        name,
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
        key_space: 1_000,
        puts,
        value_len: 4096,
        dist: KeyDistribution::Zipf { exponent: 1.1 },
        compact,
        seed: 42,
    };
    if smoke {
        return vec![
            update("update-small-on", 2_000, true),
            update("update-small-off", 2_000, false),
            update("update-large-on", 8_000, true),
            update("update-large-off", 8_000, false),
            Cell {
                name: "mid-uniform",
                dcs: 4,
                kls_per_dc: 2,
                fs_per_dc: 4,
                key_space: 50_000,
                puts: 20_000,
                value_len: 256,
                dist: KeyDistribution::Uniform,
                compact: true,
                seed: 42,
            },
        ];
    }
    let big_zipf = Cell {
        name: "big-zipf",
        dcs: 5,
        kls_per_dc: 2,
        fs_per_dc: 18,
        key_space: 1_000_000,
        puts: 1_000_000,
        value_len: 64,
        dist: KeyDistribution::Zipf { exponent: 1.1 },
        compact: true,
        seed: 42,
    };
    vec![
        update("update-small-on", 20_000, true),
        update("update-small-off", 20_000, false),
        update("update-large-on", 80_000, true),
        update("update-large-off", 80_000, false),
        Cell {
            name: "mid-uniform",
            dcs: 4,
            kls_per_dc: 2,
            fs_per_dc: 4,
            key_space: 100_000,
            puts: 100_000,
            value_len: 256,
            dist: KeyDistribution::Uniform,
            compact: true,
            seed: 42,
        },
        Cell {
            name: "mid-hot",
            dcs: 4,
            kls_per_dc: 2,
            fs_per_dc: 4,
            key_space: 100_000,
            puts: 100_000,
            value_len: 256,
            dist: KeyDistribution::HotKey {
                hot_keys: 100,
                hot_permille: 900,
            },
            compact: true,
            seed: 42,
        },
        big_zipf,
    ]
}

/// What each smoke cell reports as `(events, compacted_entries)`. Both are
/// deterministic, and compaction is local bookkeeping: a change to how an FS
/// keeps its versions that moves either number has changed what the cluster
/// does, whatever it meant to do. A protocol change re-pins them in the
/// commit that regenerates `results/digests/`.
const SMOKE_COUNTS: [(&str, (u64, u64)); 5] = [
    ("update-small-on", (126_023, 9_306)),
    ("update-small-off", (126_023, 0)),
    ("update-large-on", (504_087, 43_176)),
    ("update-large-off", (504_087, 0)),
    ("mid-uniform", (3_580_552, 56_176)),
];

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

/// `field` of the cell called `name`, from its JSON line.
fn cell_field(cells: &[Cell], lines: &[String], name: &str, field: &str) -> Option<u64> {
    let (_, line) = cells.iter().zip(lines).find(|(c, _)| c.name == name)?;
    json_u64(line, field)
}

/// What a sweep must show beyond parsing as JSON, one line per broken
/// expectation. Compaction is local bookkeeping, so an `update-*` pair
/// must process the same events with it on and off, and every cell that
/// runs with it on must have compacted something — both deterministic —
/// and each cell named in `pinned` (the smoke grid passes
/// [`SMOKE_COUNTS`]) must report exactly those counts.
/// `steady_growth` is the update-heavy quadrant's `(on, off)` steady-RSS
/// growth, passed only by the full grid, whose cells are large enough for
/// the memory claims to rise above allocator noise: compaction bends the
/// update-heavy curve, and `mid-hot` — the same cluster and put count as
/// `mid-uniform`, nine puts in ten overwriting a hundred keys — settles
/// under half of `mid-uniform`'s steady RSS, which it does only while a
/// compacted version costs its FS far less than a live one.
fn gate_failures(
    cells: &[Cell],
    lines: &[String],
    pinned: &[(&str, (u64, u64))],
    steady_growth: Option<(f64, f64)>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let field_of = |name: &str, field: &str| cell_field(cells, lines, name, field);
    let events_of = |name: &str| field_of(name, "events");
    for &(name, counts) in pinned {
        let got = (|| Some((events_of(name)?, field_of(name, "compacted_entries")?)))();
        if got != Some(counts) {
            failures.push(format!(
                "{name}: (events, compacted_entries) is {got:?}, pinned {counts:?}"
            ));
        }
    }
    for (cell, line) in cells.iter().zip(lines) {
        if cell.compact && json_u64(line, "compacted_entries").unwrap_or(0) == 0 {
            failures.push(format!(
                "{}: compaction is on but nothing compacted",
                cell.name
            ));
        }
        let pair = cell
            .name
            .strip_suffix("-on")
            .filter(|p| p.starts_with("update-"));
        if let Some(pair) = pair {
            let (on, off) = (json_u64(line, "events"), events_of(&format!("{pair}-off")));
            if on.is_none() || on != off {
                failures.push(format!(
                    "{pair}: {on:?} events with compaction on, {off:?} with it off"
                ));
            }
        }
    }
    if let Some((on, off)) = steady_growth {
        // NaN (a cell missing from the grid) fails too.
        if on.partial_cmp(&off) != Some(std::cmp::Ordering::Less) {
            failures.push(format!(
                "update-heavy steady RSS grew {on:.2}x compacted vs {off:.2}x full: \
                 compaction no longer bends the curve"
            ));
        }
        let steady_of = |name: &str| field_of(name, "steady_rss_bytes");
        let (hot, uniform) = (steady_of("mid-hot"), steady_of("mid-uniform"));
        // A missing cell fails too.
        if !matches!((hot, uniform), (Some(hot), Some(uniform)) if 2 * hot < uniform) {
            failures.push(format!(
                "mid-hot steady RSS {hot:?} B is not under half of mid-uniform's {uniform:?} B: \
                 a compacted version costs too much of a live one"
            ));
        }
    }
    failures
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
    let dist = match get("--dist").unwrap_or("zipf:1.1") {
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
    // The name only labels output; leaking it is fine.
    let name: &'static str =
        Box::leak(get("--cell").unwrap_or("cell").to_string().into_boxed_str());
    Cell {
        name,
        dcs: num("--dcs", 2) as u8,
        kls_per_dc: num("--kls", 2) as usize,
        fs_per_dc: num("--fs", 3) as usize,
        key_space: num("--keys", 1_000),
        puts: num("--puts", 1_000),
        value_len: num("--value-len", 4096) as usize,
        dist,
        compact: get("--compact") != Some("off"),
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
        "scale sweep: {} cells, {} worker(s), child process per cell",
        cells.len(),
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
            "  {:<18} {:>3} nodes {:>9} keys {:>9} puts compact={:<5} -> \
             {:>9} events/s, peak {:>5} MB, steady {:>5} MB ({:.1}s)",
            cell.name,
            cell.nodes(),
            cell.key_space,
            cell.puts,
            cell.compact,
            json_u64(&line, "events").unwrap_or(0) as f64 / t0.elapsed().as_secs_f64(),
            json_u64(&line, "peak_rss_bytes").unwrap_or(0) / (1 << 20),
            json_u64(&line, "steady_rss_bytes").unwrap_or(0) / (1 << 20),
            t0.elapsed().as_secs_f64(),
        );
        line
    });

    // The update-heavy quadrant: steady-state RSS growth from the small
    // to the large put count, with and without compaction. Sublinearity
    // claim: with compaction on, 4x the puts costs well under 4x the
    // memory, while the uncompacted store grows linearly.
    let steady = |name: &str| -> Option<f64> {
        cell_field(&cells, &lines, name, "steady_rss_bytes").map(|b| b as f64)
    };
    let growth = |on: bool| -> Option<f64> {
        let suffix = if on { "on" } else { "off" };
        Some(
            steady(&format!("update-large-{suffix}"))? / steady(&format!("update-small-{suffix}"))?,
        )
    };
    let saved = (|| Some(steady("update-large-off")? - steady("update-large-on")?))();
    let growth_on = growth(true).unwrap_or(f64::NAN);
    let growth_off = growth(false).unwrap_or(f64::NAN);
    eprintln!(
        "update-heavy steady RSS growth (4x puts): {growth_on:.2}x compacted vs \
         {growth_off:.2}x full (saved {} MB at the large count)",
        saved.unwrap_or(0.0) as u64 / (1 << 20)
    );

    // Gate before recording: a sweep that breaks what the record exists to
    // show must not replace a committed one.
    let pinned: &[_] = if smoke { &SMOKE_COUNTS } else { &[] };
    let full_growth = (!smoke).then_some((growth_on, growth_off));
    let failures = gate_failures(&cells, &lines, pinned, full_growth);
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("scale gate: {failure}");
        }
        std::process::exit(1);
    }

    // The host object records the physical CPU budget the cells shared.
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"schema_version\": 1,\n  \"mode\": \"{}\",\n  {},\n  \
         \"cells\": [\n    {}\n  ],\n  \"update_heavy\": {{ \
         \"steady_rss_growth_compact_on\": {}, \"steady_rss_growth_compact_off\": {}, \
         \"steady_rss_saved_bytes\": {} }}\n}}\n",
        if smoke { "smoke" } else { "full" },
        bench::host_json(workers),
        lines.join(",\n    "),
        jf(growth_on),
        jf(growth_off),
        jf(saved.unwrap_or(f64::NAN)),
    );
    bench::write_record("scale", smoke, &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every knob a cell carries — shape, workload, every distribution
    /// variant, the compaction-off switch and seed — must survive the
    /// `to_args` → `parse_cell` round trip, or a re-exec'd child would
    /// silently benchmark a different cell than the parent scheduled.
    #[test]
    fn cell_args_round_trip_distributions() {
        let dists = [
            KeyDistribution::Sequential,
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { exponent: 0.9 },
            KeyDistribution::HotKey {
                hot_keys: 100,
                hot_permille: 900,
            },
        ];
        for dist in dists {
            let cell = Cell {
                name: "rt-dist",
                dcs: 2,
                kls_per_dc: 2,
                fs_per_dc: 3,
                key_space: 10_000,
                puts: 2_000,
                value_len: 4096,
                dist,
                compact: false,
                seed: 7,
            };
            assert_eq!(parse_cell(&cell.to_args()), cell, "dist {dist:?}");
        }
    }

    /// The gate passes a healthy sweep and names each broken expectation:
    /// a pair whose event counts diverge, a compacting cell that compacted
    /// nothing, a count off its pin, and (full grid only) growth that
    /// compaction did not bend or a `mid-hot` over half of `mid-uniform`.
    #[test]
    fn gate_names_each_broken_expectation() {
        let names = [
            "update-small-on",
            "update-small-off",
            "mid-uniform",
            "mid-hot",
        ];
        let cells: Vec<Cell> = grid(false)
            .into_iter()
            .filter(|c| names.contains(&c.name))
            .collect();
        assert_eq!(cells.len(), names.len());
        let line = |events: u64, compacted: u64, steady: u64| {
            format!(
                "{{ \"events\": {events}, \"compacted_entries\": {compacted}, \
                 \"steady_rss_bytes\": {steady} }}"
            )
        };
        let update = [line(100, 7, 1), line(100, 0, 1)];
        let with_mid = |uniform: u64, hot: u64| {
            let mut lines = update.to_vec();
            lines.extend([line(900, 5, uniform), line(900, 8, hot)]);
            lines
        };
        let healthy = with_mid(440_000_000, 180_000_000);
        let pins = [("update-small-on", (100, 7)), ("mid-hot", (900, 8))];
        assert!(gate_failures(&cells, &healthy, &[], None).is_empty());
        assert!(gate_failures(&cells, &healthy, &pins, Some((2.0, 3.9))).is_empty());

        let mut broken = with_mid(440_000_000, 180_000_000);
        broken[..2].clone_from_slice(&[line(100, 0, 1), line(101, 0, 1)]);
        let failures = gate_failures(&cells, &broken, &pins, Some((4.0, 3.9)));
        assert_eq!(failures.len(), 4, "{failures:?}");
        assert_eq!(
            failures[0],
            "update-small-on: (events, compacted_entries) is Some((100, 0)), pinned (100, 7)"
        );
        assert!(failures[1].starts_with("update-small-on: compaction is on"));
        assert!(failures[2].starts_with("update-small: Some(100) events"));
        assert!(failures[3].starts_with("update-heavy steady RSS grew 4.00x"));
        assert_eq!(
            gate_failures(&cells, &healthy, &[], Some((f64::NAN, 3.9))).len(),
            1
        );

        // The record committed before residual chains (PR 19's
        // `BENCH_scale.json`): mid-hot at 0.70 of mid-uniform.
        let parent = with_mid(458_711_040, 319_983_616);
        let failures = gate_failures(&cells, &parent, &[], Some((2.845, 3.963)));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with(
            "mid-hot steady RSS Some(319983616) B is not under half of mid-uniform's Some(458711040) B"
        ));
        // A grid without the pair cannot pass a full-grid gate.
        let no_mid = gate_failures(&cells[..2], &update, &[], Some((2.0, 3.9)));
        assert_eq!(no_mid.len(), 1, "{no_mid:?}");
        assert!(no_mid[0].starts_with("mid-hot steady RSS None"));
    }

    /// The pins name the smoke grid's cells, each once and in grid order.
    #[test]
    fn smoke_counts_cover_the_smoke_grid() {
        let cells: Vec<&str> = grid(true).iter().map(|c| c.name).collect();
        let pinned: Vec<&str> = SMOKE_COUNTS.iter().map(|&(name, _)| name).collect();
        assert_eq!(pinned, cells);
    }

    /// The full and smoke grids only contain cells that re-exec
    /// faithfully — the property the child/parent protocol depends on.
    #[test]
    fn grid_cells_round_trip() {
        for smoke in [true, false] {
            for cell in grid(smoke) {
                assert_eq!(parse_cell(&cell.to_args()), cell, "cell {}", cell.name);
            }
        }
    }
}
