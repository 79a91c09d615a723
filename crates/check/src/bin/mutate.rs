//! Mutation-testing driver: `cargo run -p check --release --bin mutate`.
//!
//! Modes:
//!
//! * `--list` — scan the workspace and print every mutation site with its
//!   stable id (`operator:stem:occurrence`; the stem is the file's, or the
//!   module directory's the file was scanned as part of).
//! * `--smoke` — run the 12 pinned protocol mutants
//!   ([`check::mutate::PINNED_SMOKE`]) against the explorer smoke sweep
//!   (run in `--overwrite` mode so every key is put twice, plus the
//!   `--scale` spot check, whose digest line pins the compacted-version
//!   count, plus `--repair`, whose scenario families exercise the
//!   background repair engine under the redundancy-floor invariant) — one
//!   build and one sweep per mutant — and gate on the kill-rate: **≥ 10 of
//!   12** must be killed (invariant violation, digest mismatch, crash or
//!   timeout). Surviving mutants print their source diff. Exit 1 when the
//!   gate fails.
//! * `--id ID` (repeatable) — run specific mutants by id.
//!
//! `--bench-out PATH` additionally records `BENCH_analysis.json`: the
//! semantic analyzer's wall-time over the workspace plus per-mutant
//! build/sweep cost, so the CI gate's price is tracked like every other
//! bench. `--timeout SECS` bounds each build/sweep phase (default 600).

use std::path::PathBuf;
use std::process::ExitCode;
// lint:allow(wall-clock) — bench recording measures real analyzer time
use std::time::{Duration, Instant};

use check::{analysis, mutate};

/// Minimum pinned mutants that must be killed for `--smoke` to pass.
const SMOKE_KILL_GATE: usize = 10;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list = false;
    let mut smoke = false;
    let mut ids: Vec<String> = Vec::new();
    let mut bench_out: Option<PathBuf> = None;
    let mut timeout = Duration::from_secs(600);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--smoke" => smoke = true,
            "--id" => match args.next() {
                Some(id) => ids.push(id),
                None => return usage("--id needs a value"),
            },
            "--bench-out" => match args.next() {
                Some(p) => bench_out = Some(PathBuf::from(p)),
                None => return usage("--bench-out needs a path"),
            },
            "--timeout" => match args.next().and_then(|s| s.parse().ok()) {
                Some(secs) => timeout = Duration::from_secs(secs),
                None => return usage("--timeout needs seconds"),
            },
            "--help" | "-h" => return usage(""),
            path => root = PathBuf::from(path),
        }
    }

    let sites = match mutate::scan_workspace(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mutate: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if list || (!smoke && ids.is_empty()) {
        println!("{} mutation site(s):", sites.len());
        for m in &sites {
            let pinned = if mutate::pinned_ids().any(|id| id == m.id) {
                " [pinned]"
            } else {
                ""
            };
            println!("{m}{pinned}");
        }
        return ExitCode::SUCCESS;
    }

    if smoke {
        ids = mutate::pinned_ids().map(str::to_string).collect();
    }
    let mut selected = Vec::new();
    for id in &ids {
        match sites.iter().find(|m| &m.id == id) {
            Some(m) => selected.push(m.clone()),
            None => {
                eprintln!("mutate: unknown mutant id `{id}` (see --list)");
                return ExitCode::from(2);
            }
        }
    }

    // Time the semantic analyzer over the same workspace while we are
    // here — it is the other half of BENCH_analysis.json.
    // lint:allow(wall-clock) — bench recording measures real analyzer time
    let t0 = Instant::now();
    let (analyzer_files, analyzer_findings) = match analysis::Workspace::load(&root) {
        Ok(ws) => (ws.files.len(), analysis::analyze(&ws).len()),
        Err(_) => (0, 0),
    };
    let analyzer_ms = t0.elapsed().as_secs_f64() * 1000.0;
    println!(
        "analyzer: {analyzer_files} files, {analyzer_findings} finding(s), {analyzer_ms:.1} ms"
    );

    println!("preparing scratch tree + unmutated baseline sweep...");
    // `--scale` appends the scale check's digest line, which pins the
    // compacted-version count — the only observable that can kill the
    // compaction-skip mutant. `--overwrite` runs the sweep's workload for
    // two rounds, so every mutant also meets overwrites under every
    // invariant.
    // `--repair` runs the churn scenario families with the repair engine
    // on, appending digest lines that fold the EV_REPAIR_* counters — the
    // observables that kill repair-threshold-skip.
    let sweep_args = [
        "--scale".to_string(),
        "--overwrite".to_string(),
        "--repair".to_string(),
    ];
    let harness = match mutate::Harness::prepare(&root, &sweep_args, timeout) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mutate: baseline preparation failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "baseline: build {:.1}s, {} digest line(s)",
        harness.baseline_build_secs,
        harness.baseline_digest.lines().count()
    );

    let mut reports = Vec::new();
    for (i, m) in selected.iter().enumerate() {
        println!("[{}/{}] {m}", i + 1, selected.len());
        match harness.run_mutant(m) {
            Ok(r) => {
                println!(
                    "        -> {} (build {:.1}s, sweep {:.1}s)",
                    r.outcome.label(),
                    r.build_secs,
                    r.sweep_secs
                );
                if let mutate::Outcome::KilledInvariant(line) = &r.outcome {
                    println!("        {line}");
                }
                reports.push(r);
            }
            Err(e) => {
                eprintln!("mutate: running {} failed: {e}", m.id);
                return ExitCode::from(2);
            }
        }
    }

    let killed = reports.iter().filter(|r| r.outcome.killed()).count();
    println!("\nkill-rate: {killed}/{} mutants killed", reports.len());
    let survivors: Vec<&mutate::MutantReport> = reports
        .iter()
        .filter(|r| r.outcome == mutate::Outcome::Survived)
        .collect();
    if !survivors.is_empty() {
        println!("surviving mutants (invariant gaps):");
        for r in &survivors {
            let src = std::fs::read_to_string(root.join(&r.mutation.file)).unwrap_or_default();
            println!(
                "  {} at {}:{}\n{}",
                r.mutation.id,
                r.mutation.file.display(),
                r.mutation.line,
                indent(&r.mutation.diff(&src))
            );
        }
    }

    if let Some(path) = bench_out {
        if let Err(e) = mutate::write_bench(
            &path,
            analyzer_ms,
            analyzer_files,
            &reports,
            harness.baseline_build_secs,
        ) {
            eprintln!("mutate: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("bench record written to {}", path.display());
    }

    if smoke && killed < SMOKE_KILL_GATE {
        eprintln!(
            "mutate: kill-rate gate FAILED ({killed}/{} < {SMOKE_KILL_GATE})",
            reports.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("mutate: {err}");
    }
    eprintln!(
        "usage: mutate [ROOT] [--list] [--smoke] [--id ID]... [--bench-out PATH] [--timeout SECS]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
