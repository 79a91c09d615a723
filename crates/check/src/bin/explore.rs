//! Invariant-sweep driver: `cargo run --release -p check --bin explore [SUITE…]`.
//!
//! Runs the named suites of [`explorer::suites`] (every suite when none is
//! named), in that list's order: `full`, `full-batch`, `smoke-overwrite`,
//! `scale` and `repair`. Each scenario is checked under its invariants
//! after every event, at the node it ran on, so the summary's "events
//! checked" counts every state checked. Exits 0 when every invariant held
//! everywhere; on a violation, prints the shrunk repro scenario, dumps the
//! violating run's message trace to a file and exits 1 without running the
//! suites after it. An unknown suite name or flag exits 2.
//!
//! Flags:
//!
//! * `--inject-corruption` — append a [`Step::CorruptFragment`] to every
//!   scenario, after its other steps: a stored fragment is corrupted at the
//!   end of the run, to prove the checker catches it;
//! * `--trace-out PATH` — where to write the violation trace (default
//!   `target/check-violation.trace`);
//! * `--workers N` — fan the scenarios out over `N` worker threads through
//!   `simnet::sweep` (default 1: the same harness, run inline; any `N`
//!   produces byte-identical digests — the CI determinism check);
//! * `--digest-dir DIR` — write `DIR/<suite>.txt` for each suite run: one
//!   replay-digest line per scenario, its compacted-version count included,
//!   for comparing with `results/digests/` byte for byte;
//! * `--quiet` — suppress per-scenario progress lines.

use std::path::PathBuf;
use std::process::ExitCode;

use check::explorer::{self, Scenario, Step};

fn usage(names: &[&str]) -> ExitCode {
    eprintln!(
        "usage: explore [SUITE...] [--inject-corruption] [--trace-out PATH] [--workers N] \
         [--digest-dir DIR] [--quiet]\nsuites: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut suites = explorer::suites();
    let names: Vec<&str> = suites.iter().map(|s| s.name).collect();
    let mut chosen: Vec<String> = Vec::new();
    let mut inject = false;
    let mut trace_out = PathBuf::from("target/check-violation.trace");
    let mut digest_dir: Option<PathBuf> = None;
    let mut workers = 1usize;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--inject-corruption" => inject = true,
            "--trace-out" => match args.next() {
                Some(path) => trace_out = PathBuf::from(path),
                None => return usage(&names),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => workers = n,
                None => return usage(&names),
            },
            "--digest-dir" => match args.next() {
                Some(dir) => digest_dir = Some(PathBuf::from(dir)),
                None => return usage(&names),
            },
            "--quiet" => quiet = true,
            name if names.contains(&name) => chosen.push(arg),
            name => {
                eprintln!("explore: unknown suite or flag `{name}`");
                return usage(&names);
            }
        }
    }
    if !chosen.is_empty() {
        suites.retain(|s| chosen.iter().any(|name| name == s.name));
    }
    if inject {
        for sc in suites.iter_mut().flat_map(|s| &mut s.scenarios) {
            sc.steps.push(Step::CorruptFragment);
        }
    }
    if let Some(dir) = &digest_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("explore: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }

    let (mut scenarios_run, mut events_checked) = (0, 0);
    for suite in &suites {
        let total = suite.scenarios.len();
        println!(
            "exploring suite {} ({total} scenarios), workers={workers}",
            suite.name
        );
        let mut n = 0usize;
        let mut digest = String::new();
        let on_scenario = |sc: &Scenario, outcome: &explorer::ScenarioOutcome| {
            digest.push_str(&explorer::digest_line(n, sc, outcome));
            digest.push('\n');
            n += 1;
            if !quiet {
                println!(
                    "[{n:>3}/{total}] {}seed={} preset={:<7} drop={}% dup={}% outages={} -> \
                     {:?}, {} events, {:.0}s virtual{}",
                    sc.name.map_or(String::new(), |name| format!("{name} ")),
                    sc.seed,
                    sc.preset.name(),
                    sc.faults.drop_centi,
                    sc.faults.dup_centi,
                    sc.faults.outages.len(),
                    outcome.outcome,
                    outcome.events,
                    outcome.sim_time.as_secs_f64(),
                    if outcome.violation.is_some() {
                        "  ** VIOLATION **"
                    } else {
                        ""
                    },
                );
            }
        };
        let result = explorer::sweep(&suite.scenarios, workers, on_scenario);
        scenarios_run += result.scenarios_run;
        events_checked += result.events_checked;

        if let Some(dir) = &digest_dir {
            let path = dir.join(format!("{}.txt", suite.name));
            if let Err(e) = std::fs::write(&path, &digest) {
                eprintln!("explore: failed to write digest {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!(
                "digest: {} lines written to {}",
                digest.lines().count(),
                path.display()
            );
        }

        if let Some(report) = result.violation {
            println!();
            println!(
                "INVARIANT VIOLATED in suite {}: {} — {}",
                suite.name, report.violation.invariant, report.violation.detail
            );
            println!(
                "  at event {} / {:.3}s virtual",
                report.violation.events_processed,
                report.violation.sim_time.as_secs_f64()
            );
            println!("  first seen:   {:?}", report.original);
            println!("  shrunk repro: {:?}", report.shrunk);
            if let Some(dir) = trace_out.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&trace_out, &report.trace) {
                Ok(()) => println!(
                    "  trace: {} events dumped to {}",
                    report.trace.lines().count(),
                    trace_out.display()
                ),
                Err(e) => println!("  trace: failed to write {}: {e}", trace_out.display()),
            }
            return ExitCode::FAILURE;
        }
    }
    println!("ok: {scenarios_run} scenarios, {events_checked} events checked");
    ExitCode::SUCCESS
}
