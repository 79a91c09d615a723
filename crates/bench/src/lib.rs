//! Recorded benches for the Pahoehoe reproduction.
//!
//! One binary is left: `scale` (`cargo run -p bench --release --bin scale`),
//! the scale-tier sweep that writes `BENCH_scale.json` and gates what it
//! records. Host time per layer — codec, checksum, event queue, per-actor
//! dispatch — is the `erasure.*`, `simnet.*` and `pahoehoe.*` metrics of
//! the repo benchmark (`benchmark/`, `BENCHMARK.json`), on runs long enough
//! to rise above noise.
//!
//! This library is what a `BENCH_*.json` writer shares: [`host_json`], so
//! every recorded file carries the host context needed to read its numbers
//! honestly (a 4-worker sweep on a single-core runner cannot speed up, and
//! the record says so), and [`write_record`], which keeps smoke runs from
//! replacing a committed full-grid record.

use std::path::Path;

/// Logical CPUs available to this process (1 when undetectable).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The host-context object embedded in every recorded `BENCH_*.json`:
/// logical CPU count and the worker-thread count the run was launched
/// with.
pub fn host_json(workers: usize) -> String {
    format!(
        "\"host\": {{ \"nproc\": {}, \"workers\": {workers} }}",
        nproc()
    )
}

/// Writes a sweep's JSON record: a full run rewrites the committed
/// `BENCH_<name>.json` at the repo root, a smoke run (CI) writes
/// `target/BENCH_<name>.smoke.json` instead.
pub fn write_record(name: &str, smoke: bool, json: &str) {
    // The workspace root: two levels above this crate's manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke {
        root.join(format!("target/BENCH_{name}.smoke.json"))
    } else {
        root.join(format!("BENCH_{name}.json"))
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the record's directory");
    }
    std::fs::write(&path, json).expect("write the bench record");
    eprintln!("wrote {}", path.display());
}
