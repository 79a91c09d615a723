//! Benchmark crate for the Pahoehoe reproduction.
//!
//! All content lives in Criterion benches under `benches/`:
//!
//! * `erasure_codec` — encode/decode/recover throughput of the
//!   from-scratch Reed-Solomon codec;
//! * `fig5_failure_free`, `fig6_7_fs_failures`, `fig8_kls_failures`,
//!   `fig9_lossy` — end-to-end convergence runs matching each paper
//!   figure's scenario (the message/byte tables themselves come from the
//!   `experiments` binaries);
//! * `ablations` — sensitivity of convergence cost to the tunables
//!   DESIGN.md calls out (backoff base, round interval, sibling-recovery
//!   accumulation window, latency model).
//!
//! Run with `cargo bench --workspace` or a single target, e.g.
//! `cargo bench -p bench --bench erasure_codec`.
//!
//! The `BENCH_*.json` writer binaries (`baseline`, `scale`, `delta`)
//! share [`host_json`], so every recorded file carries the host context
//! needed to read its numbers honestly (a 4-worker sweep on a single-core
//! runner cannot speed up, and the record says so).

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
