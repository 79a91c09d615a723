//! Repair-engine sweep: `cargo run -p bench --release --bin repair`.
//!
//! Measures the background repair engine's re-protection behavior after
//! a whole-server loss (both disks of one fragment server) and records
//! `BENCH_repair.json` at the repo root:
//!
//! * **time-to-re-protect** — sim seconds from the disk loss until every
//!   acked object is back at full redundancy;
//! * **repair bytes** — payload the repair jobs moved (donor fetches plus
//!   re-placed fragments);
//! * **degraded-read rate** — fraction of a flash-crowd read burst issued
//!   during the rebuild that had to decode from a below-full stripe.
//!
//! The grid crosses the two knobs the DESIGN.md repair section calls
//! out: **throttled vs unthrottled** draining (an 8 KiB/tick token
//! bucket vs no budget) and **rack-aware vs legacy** placement. All four
//! cells lose the same two disks and repair the same fragment volume;
//! throttling trades time-to-re-protect (and degraded reads) for a
//! bounded background byte rate, while the placement mode changes where
//! the rebuilt fragments land, not how much moves.
//!
//! ```text
//! cargo run -p bench --release --bin repair            # full grid
//! cargo run -p bench --release --bin repair -- --smoke # CI subset
//! ```

use std::path::{Path, PathBuf};

use pahoehoe::client::{Client, ClientOp};
use pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe::fs::Fs;
use pahoehoe::repair::RepairOptions;
use pahoehoe::types::{Key, ObjectVersion};
use simnet::{NodeId, RunOutcome, SimDuration};

// Wall-clock use is the entire point of a benchmark runner; virtual time
// cannot measure real throughput.
// lint:allow(wall-clock)
use std::time::Instant;

/// One cell: a placement mode crossed with a drain budget.
#[derive(Clone, Debug)]
struct Cell {
    name: &'static str,
    /// `Some(racks)` places rack-aware; `None` keeps the legacy layout.
    racks_per_dc: Option<usize>,
    /// Repair token-bucket refill per drain tick; 0 = unthrottled.
    bandwidth_per_tick: u64,
    puts: usize,
    value_len: usize,
    seed: u64,
}

/// Deterministic measurements of one cell run.
struct CellResult {
    reprotected: bool,
    time_to_reprotect_secs: f64,
    gets_issued: usize,
    degraded_read_rate: f64,
    wall_secs: f64,
    /// `(label, count)` for every repair-engine event counter.
    counters: Vec<(&'static str, u64)>,
}

/// The repair counters each cell records, in output order.
const COUNTERS: &[&str] = &[
    "repair_triggered",
    "repair_completed",
    "repair_abandoned",
    "repair_bytes",
    "repair_queue_depth",
    "repair_throttle_stalls",
    "degraded_reads",
];

/// Total live fragments for `ov` across every FS in the cluster.
fn cluster_live(cluster: &Cluster, fss: &[NodeId], ov: ObjectVersion) -> usize {
    fss.iter()
        .map(|&fs| cluster.fs(fs).entry(ov).map_or(0, |e| e.fragments.len()))
        .sum()
}

/// Runs one cell in this process and measures it.
fn run_cell(cell: &Cell) -> CellResult {
    let mut cfg = ClusterConfig::paper_default();
    cfg.racks_per_dc = cell.racks_per_dc;
    cfg.convergence.repair = Some(if cell.bandwidth_per_tick > 0 {
        RepairOptions::throttled(cell.bandwidth_per_tick)
    } else {
        RepairOptions::paper_default()
    });
    cfg.workload_puts = cell.puts;
    cfg.workload_value_len = cell.value_len;
    let full = usize::from(cfg.policy.n);
    let mut cluster = Cluster::build(cfg, cell.seed);

    // lint:allow(wall-clock)
    let t0 = Instant::now();
    let report = cluster.run_to_convergence();
    assert_eq!(
        report.outcome,
        RunOutcome::PredicateSatisfied,
        "cell {}: baseline workload did not converge",
        cell.name
    );
    let ovs: Vec<ObjectVersion> = cluster
        .client()
        .success_versions()
        .iter()
        .copied()
        .collect();
    assert_eq!(ovs.len(), cell.puts, "cell {}: puts lost", cell.name);
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();

    // The loss: both disks of one DC-0 server. Every object drops below
    // the 80% per-DC repair threshold, and no read path touches the
    // stripes, so the repair engine is the only way back.
    let victim = cluster.layout().fs(0, 0);
    let destroy_at = cluster.sim().now();
    {
        let fs = cluster.sim_mut().actor_mut::<Fs>(victim);
        fs.destroy_disk(0, destroy_at);
        fs.destroy_disk(1, destroy_at);
    }

    // Flash-crowd burst: read every key while the rebuild is running.
    // Reads that decode before their stripe is whole count as degraded.
    let client_id = cluster.layout().client();
    for i in 0..cell.puts as u64 {
        cluster
            .sim_mut()
            .actor_mut::<Client>(client_id)
            .enqueue(ClientOp::Get {
                key: Key::from_u64(i + 1),
            });
    }
    cluster
        .sim_mut()
        .schedule_timer(client_id, SimDuration::ZERO, 1);

    // Poll at a fixed sim cadence until every stripe is whole again.
    let deadline = destroy_at + SimDuration::from_secs(3600);
    let mut reprotect_at = None;
    while cluster.sim().now() < deadline {
        let step = cluster.sim().now() + SimDuration::from_millis(500);
        cluster.sim_mut().run_until_time(step);
        if ovs
            .iter()
            .all(|&ov| cluster_live(&cluster, &fss, ov) == full)
        {
            reprotect_at = Some(cluster.sim().now());
            break;
        }
    }
    // Let the read burst finish so the degraded-read rate is complete.
    let burst = cell.puts;
    cluster
        .sim_mut()
        .run_until(move |sim| sim.actor::<Client>(client_id).gets_done().len() >= burst);
    let wall_secs = t0.elapsed().as_secs_f64();

    let metrics = cluster.sim().metrics();
    let counters: Vec<(&'static str, u64)> = COUNTERS
        .iter()
        .map(|&label| (label, metrics.event(label)))
        .collect();
    let degraded = metrics.event("degraded_reads");
    for outcome in cluster.client().gets_done() {
        assert!(
            outcome.result.is_some(),
            "cell {}: a read failed during the rebuild",
            cell.name
        );
    }
    CellResult {
        reprotected: reprotect_at.is_some(),
        time_to_reprotect_secs: reprotect_at
            .map_or(f64::NAN, |t| t.as_secs_f64() - destroy_at.as_secs_f64()),
        gets_issued: burst,
        degraded_read_rate: degraded as f64 / burst as f64,
        wall_secs,
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

/// The cell object embedded in `BENCH_repair.json`.
fn cell_json(cell: &Cell, r: &CellResult) -> String {
    let counters = r
        .counters
        .iter()
        .map(|(label, n)| format!("\"{label}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{ \"name\": \"{}\", \"rack_aware\": {}, \"bandwidth_per_tick\": {}, \
         \"puts\": {}, \"value_len\": {}, \"seed\": {}, \"reprotected\": {}, \
         \"time_to_reprotect_secs\": {}, \"gets_issued\": {}, \
         \"degraded_read_rate\": {}, \"wall_secs\": {}, \"counters\": {{ {} }} }}",
        cell.name,
        cell.racks_per_dc.is_some(),
        cell.bandwidth_per_tick,
        cell.puts,
        cell.value_len,
        cell.seed,
        r.reprotected,
        jf(r.time_to_reprotect_secs),
        r.gets_issued,
        jf(r.degraded_read_rate),
        jf(r.wall_secs),
        counters,
    )
}

/// The grid: {rack-aware, legacy} x {unthrottled, throttled}.
fn grid(smoke: bool) -> Vec<Cell> {
    let puts = if smoke { 8 } else { 48 };
    let cell = |name, racks_per_dc, bandwidth_per_tick| Cell {
        name,
        racks_per_dc,
        bandwidth_per_tick,
        puts,
        value_len: 8 * 1024,
        seed: 42,
    };
    // An 8 KiB/tick budget is below one job's ~12 KiB cost (k = 4 donor
    // fetches + 2 re-placed 2 KiB fragments), so the throttled cells must
    // stall and accumulate tokens across drain ticks.
    vec![
        cell("rack-unthrottled", Some(3), 0),
        cell("rack-throttled", Some(3), 8 * 1024),
        cell("legacy-unthrottled", None, 0),
        cell("legacy-throttled", None, 8 * 1024),
    ]
}

/// The workspace root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn counter(r: &CellResult, label: &str) -> u64 {
    r.counters
        .iter()
        .find(|(l, _)| *l == label)
        .map_or(0, |(_, n)| *n)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cells = grid(smoke);
    eprintln!("repair sweep: {} cells, in-process", cells.len());

    let mut results = Vec::new();
    for cell in &cells {
        let r = run_cell(cell);
        eprintln!(
            "  {:<18} reprotect {:>8}s  {:>8} repair B  {:>3} stalls  degraded {:.2}  ({:.1}s)",
            cell.name,
            jf(r.time_to_reprotect_secs),
            counter(&r, "repair_bytes"),
            counter(&r, "repair_throttle_stalls"),
            r.degraded_read_rate,
            r.wall_secs,
        );
        assert!(r.reprotected, "cell {}: never re-protected", cell.name);
        assert_eq!(
            counter(&r, "repair_abandoned"),
            0,
            "cell {}: repair jobs abandoned on a clean network",
            cell.name
        );
        assert_eq!(
            counter(&r, "repair_triggered"),
            counter(&r, "repair_completed"),
            "cell {}: triggered jobs left incomplete",
            cell.name
        );
        if cell.bandwidth_per_tick > 0 {
            assert!(
                counter(&r, "repair_throttle_stalls") > 0,
                "cell {}: the token bucket never gated an admission",
                cell.name
            );
        }
        results.push(r);
    }

    // Per-placement throttled/unthrottled comparison: the budget must
    // cost time-to-re-protect, never repair volume.
    let find = |name: &str| -> &CellResult {
        cells
            .iter()
            .zip(&results)
            .find(|(c, _)| c.name == name)
            .map(|(_, r)| r)
            .expect("cell result")
    };
    let mut pair_json = Vec::new();
    for placement in ["rack", "legacy"] {
        let fast = find(&format!("{placement}-unthrottled"));
        let slow = find(&format!("{placement}-throttled"));
        assert!(
            slow.time_to_reprotect_secs >= fast.time_to_reprotect_secs,
            "{placement}: throttled repair finished before unthrottled"
        );
        assert_eq!(
            counter(fast, "repair_bytes"),
            counter(slow, "repair_bytes"),
            "{placement}: the throttle changed how many bytes moved"
        );
        pair_json.push(format!(
            "{{ \"placement\": \"{placement}\", \"unthrottled_secs\": {}, \
             \"throttled_secs\": {}, \"repair_bytes\": {} }}",
            jf(fast.time_to_reprotect_secs),
            jf(slow.time_to_reprotect_secs),
            counter(fast, "repair_bytes"),
        ));
    }

    let cell_lines: Vec<String> = cells
        .iter()
        .zip(&results)
        .map(|(c, r)| cell_json(c, r))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"repair\",\n  \"schema_version\": 1,\n  \"mode\": \"{}\",\n  {},\n  \
         \"cells\": [\n    {}\n  ],\n  \"pairs\": [\n    {}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        bench::host_json(1),
        cell_lines.join(",\n    "),
        pair_json.join(",\n    "),
    );
    let path = repo_root().join("BENCH_repair.json");
    std::fs::write(&path, json).expect("write BENCH_repair.json");
    eprintln!("wrote {}", path.display());
}
