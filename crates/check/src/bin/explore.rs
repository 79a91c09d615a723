//! Invariant-sweep driver: `cargo run --release -p check --bin explore`.
//!
//! Runs the full protocol-invariant registry after every event of every
//! `(seed, fault plan, convergence preset)` scenario of the grid, then the
//! scenarios `--scale` and `--repair` add, each under its own invariants
//! and each checked after every event at the node it ran on, so the
//! summary's "events checked" counts every state checked.
//! Exits 0 when every invariant held everywhere; on a violation, prints the
//! shrunk repro scenario, dumps the violating run's message trace to a file
//! and exits 1.
//!
//! Flags:
//!
//! * `--smoke` — the 54-scenario smoke sweep (default is the 144-scenario
//!   full sweep);
//! * `--seeds N` — override the number of seeds swept;
//! * `--puts N`, `--value-len N` — the grid's workload shape;
//! * `--inject-corruption` — append a [`Step::CorruptFragment`] to every
//!   scenario (the grid's, `--scale`'s and `--repair`'s), after its other
//!   steps: a stored fragment is corrupted at the end of the run, to prove
//!   the checker catches it;
//! * `--trace-out PATH` — where to write the violation trace (default
//!   `target/check-violation.trace`);
//! * `--workers N` — fan the scenarios out over `N` worker threads through
//!   `simnet::sweep` (default 1: the same harness, run inline; any `N`
//!   produces byte-identical digests — the CI determinism check);
//! * `--digest-out PATH` — write one replay-digest line per scenario, its
//!   compacted-version count included, for comparing runs byte for byte;
//! * `--overwrite` — run the grid's workload for **two rounds**, so
//!   every second-round put overwrites a key that already holds a version,
//!   under every fault spec, preset and invariant. The extra puts move the
//!   digests, which must still not depend on `--workers`;
//! * `--batch` — run the grid with batched convergence rounds on: every
//!   fault plan and preset with an FS's round traffic sent, lost,
//!   duplicated and answered one multi-entry message per destination at a
//!   time. Fewer sends shift the RNG, so the digests are its own; the
//!   invariants are everyone's;
//! * `--scale` — after the grid, run the scale cell
//!   ([`Scenario::scale`](check::explorer::Scenario::scale)): a Zipf
//!   streamed workload under the scale protocol mode (batched rounds),
//!   update-heavy enough that most versions compact, under the registry;
//! * `--repair` — after the grid, run the five repair families
//!   ([`Scenario::repair_families`](check::explorer::Scenario::repair_families)):
//!   sustained disk churn, whole-rack outage, flash-crowd reads during
//!   rebuild, a throttled repair storm and the whole-rack outage on a
//!   channel that duplicates 5 % of messages, on rack-aware
//!   repair-enabled clusters, under the redundancy-floor invariant. Their
//!   digest lines fold the `EV_REPAIR_*` counters and the final redundancy
//!   floor;
//! * `--quiet` — suppress per-scenario progress lines.

use std::path::PathBuf;
use std::process::ExitCode;

use check::explorer::{self, Scenario, Step, SweepConfig};
use pahoehoe::workload::StreamingWorkload;

fn usage() -> ! {
    eprintln!(
        "usage: explore [--smoke] [--seeds N] [--puts N] [--value-len N] \
         [--inject-corruption] [--trace-out PATH] [--workers N] \
         [--digest-out PATH] [--overwrite] [--batch] [--scale] [--repair] [--quiet]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut seeds: Option<u64> = None;
    let workload = Scenario::default().workload;
    let (mut puts, mut value_len, mut rounds) = (workload.key_space, workload.value_len, 1);
    let mut batch = false;
    let mut inject = false;
    let mut trace_out = PathBuf::from("target/check-violation.trace");
    let mut digest_out: Option<PathBuf> = None;
    let mut workers = 1usize;
    let mut scale = false;
    let mut repair = false;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seeds" => seeds = Some(num(&mut args) as u64),
            "--puts" => puts = num(&mut args) as u64,
            "--value-len" => value_len = num(&mut args),
            "--inject-corruption" => inject = true,
            "--trace-out" => trace_out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--workers" => workers = num(&mut args),
            "--digest-out" => {
                digest_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            "--overwrite" => rounds = 2,
            "--batch" => batch = true,
            "--scale" => scale = true,
            "--repair" => repair = true,
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }

    // The grid is chosen once every flag is read, so `--seeds 1 --smoke`
    // and `--smoke --seeds 1` are the same 18 scenarios.
    let mut cfg = if smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::full()
    };
    cfg.workload = StreamingWorkload::numbered(puts, rounds, value_len, workload.policy);
    cfg.protocol.batch_rounds = batch;
    if let Some(n) = seeds {
        cfg.seeds = (0..n).collect();
    }
    let mut scenarios = cfg.scenarios();
    let grid = scenarios.len();
    if scale {
        scenarios.push(Scenario::scale());
    }
    if repair {
        scenarios.extend(Scenario::repair_families());
    }
    if inject {
        for sc in &mut scenarios {
            sc.steps.push(Step::CorruptFragment);
        }
    }

    let total = scenarios.len();
    if total == 0 {
        eprintln!(
            "explore: nothing to run: the sweep has 0 scenarios and neither --scale nor \
             --repair was given"
        );
        return ExitCode::from(2);
    }
    let named = match total - grid {
        0 => String::new(),
        n => format!(" + {n} named"),
    };
    println!(
        "exploring {total} scenarios ({} seeds x {} fault specs x {} presets{named}), \
         {} puts of {} B each, workers={}",
        cfg.seeds.len(),
        cfg.fault_specs.len(),
        cfg.presets.len(),
        cfg.workload.puts,
        cfg.workload.value_len,
        workers,
    );

    let mut n = 0usize;
    let mut digest = String::new();
    let mut on_scenario = |sc: &Scenario, outcome: &explorer::ScenarioOutcome| {
        if digest_out.is_some() {
            digest.push_str(&explorer::digest_line(n, sc, outcome));
            digest.push('\n');
        }
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
    let result = explorer::sweep(&scenarios, workers, &mut on_scenario);

    if let Some(path) = &digest_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &digest) {
            eprintln!("failed to write digest {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "digest: {} lines written to {}",
            digest.lines().count(),
            path.display()
        );
    }

    match result.violation {
        None => {
            println!(
                "ok: {} scenarios, {} events checked",
                result.scenarios_run, result.events_checked
            );
            ExitCode::SUCCESS
        }
        Some(report) => {
            println!();
            println!(
                "INVARIANT VIOLATED: {} — {}",
                report.violation.invariant, report.violation.detail
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
            ExitCode::FAILURE
        }
    }
}
