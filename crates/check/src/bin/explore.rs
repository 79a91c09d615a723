//! Invariant-sweep driver: `cargo run --release -p check --bin explore`.
//!
//! Runs the full protocol-invariant registry after every event of every
//! `(seed, fault plan, convergence preset)` scenario. Exits 0 when every
//! invariant held everywhere; on a violation, prints the shrunk minimal
//! repro triple, dumps the violating run's message trace to a file and
//! exits 1.
//!
//! Flags:
//!
//! * `--smoke` — the 54-scenario smoke sweep (default is the 144-scenario
//!   full sweep);
//! * `--seeds N` — override the number of seeds swept;
//! * `--puts N`, `--value-len N` — workload shape;
//! * `--inject-corruption` — deliberately corrupt a stored fragment after
//!   convergence in every scenario, to prove the checker catches it;
//! * `--trace-out PATH` — where to write the violation trace (default
//!   `target/check-violation.trace`);
//! * `--workers N` — fan the scenarios out over `N` worker threads through
//!   `simnet::sweep` (default 1: the same harness, run inline; any `N`
//!   produces byte-identical digests — the CI determinism check);
//! * `--digest-out PATH` — write one replay-digest line per scenario, for
//!   comparing runs byte for byte;
//! * `--overwrite` — run the standard workload for **two rounds**, so
//!   every second-round put overwrites a key that already holds a version,
//!   under every fault spec, preset and invariant. The extra puts move the
//!   digests, which must still not depend on `--workers`;
//! * `--batch` — run the sweep with batched convergence rounds on: every
//!   fault plan and preset with an FS's round traffic sent, lost,
//!   duplicated and answered one multi-entry message per destination at a
//!   time. Fewer sends shift the RNG, so the digests are its own; the
//!   invariants are everyone's. (The `--scale` cell below also batches,
//!   but it is failure-free: no round of it ever has a version to step);
//! * `--scale` — after the sweep, run the scale-tier spot check: one Zipf
//!   streaming-workload scenario under the scale protocol mode
//!   (converged-version compaction, batched rounds) with the invariant
//!   registry installed at a sampled rate. Its digest line — which pins
//!   the compacted-version count — is appended to `--digest-out`;
//! * `--repair` — after the sweep, run the repair-engine churn check:
//!   four scenario families (sustained disk churn, whole-rack outage,
//!   flash-crowd reads during rebuild, throttled repair storm) on
//!   rack-aware repair-enabled clusters, under the redundancy-floor
//!   invariant. One digest line per family — folding the `EV_REPAIR_*`
//!   counters and the final redundancy floor — is appended to
//!   `--digest-out`;
//! * `--quiet` — suppress per-scenario progress lines.

use std::path::PathBuf;
use std::process::ExitCode;

use check::explorer::{self, Injection, SweepConfig, WorkloadCfg};

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
    let mut workload = WorkloadCfg::default();
    let mut injection = Injection::None;
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
            "--puts" => workload.puts = num(&mut args),
            "--value-len" => workload.value_len = num(&mut args),
            "--inject-corruption" => injection = Injection::CorruptFragment,
            "--trace-out" => trace_out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--workers" => workers = num(&mut args),
            "--digest-out" => {
                digest_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            "--overwrite" => workload.rounds = 2,
            "--batch" => workload.protocol.batch_rounds = true,
            "--scale" => scale = true,
            "--repair" => repair = true,
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }

    // The sweep is chosen once every flag is read, so `--seeds 1 --smoke`
    // and `--smoke --seeds 1` are the same 18 scenarios.
    let mut cfg = if smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::full()
    };
    cfg.workload = workload;
    if let Some(n) = seeds {
        cfg.seeds = (0..n).collect();
    }

    let total = cfg.scenarios().len();
    if total == 0 && !scale && !repair {
        eprintln!(
            "explore: nothing to run: the sweep has 0 scenarios and neither --scale nor \
             --repair was given"
        );
        return ExitCode::from(2);
    }
    println!(
        "exploring {total} scenarios ({} seeds x {} fault specs x {} presets), \
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
    let mut on_scenario = |sc: &explorer::Scenario, outcome: &explorer::ScenarioOutcome| {
        if digest_out.is_some() {
            digest.push_str(&explorer::digest_line(n, sc, outcome));
            digest.push('\n');
        }
        n += 1;
        if !quiet {
            println!(
                "[{n:>3}/{total}] seed={} preset={:<7} drop={}% dup={}% outages={} -> \
                 {:?}, {} events, {:.0}s virtual{}",
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
    let result = explorer::sweep(&cfg, injection, workers, &mut on_scenario);

    let mut scale_violation = None;
    if scale {
        let scale_cfg = explorer::ScaleCheckCfg::smoke();
        let out = explorer::run_scale_check(&scale_cfg);
        if !quiet {
            println!(
                "[scale] seed={} keys={} puts={} -> {:?}, {} events, {} compacted{}",
                scale_cfg.seed,
                scale_cfg.key_space,
                scale_cfg.puts,
                out.outcome,
                out.events,
                out.compacted,
                if out.violation.is_some() {
                    "  ** VIOLATION **"
                } else {
                    ""
                },
            );
        }
        if digest_out.is_some() {
            digest.push_str(&explorer::scale_digest_line(&scale_cfg, &out));
            digest.push('\n');
        }
        scale_violation = out.violation;
    }

    let mut repair_violation = None;
    if repair {
        let repair_cfg = explorer::RepairCheckCfg::smoke();
        let out = explorer::run_repair_check(&repair_cfg);
        for family in &out.families {
            if !quiet {
                println!(
                    "[repair-{}] seed={} puts={} -> {} events, min_live={}{}",
                    family.name,
                    repair_cfg.seed,
                    repair_cfg.puts,
                    family.events,
                    family.min_live,
                    if family.violation.is_some() {
                        "  ** VIOLATION **"
                    } else {
                        ""
                    },
                );
            }
            if digest_out.is_some() {
                digest.push_str(&explorer::repair_digest_line(&repair_cfg, family));
                digest.push('\n');
            }
        }
        repair_violation = out.violation().cloned();
    }

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

    if let Some(v) = scale_violation {
        println!();
        println!(
            "INVARIANT VIOLATED in scale check: {} — {}",
            v.invariant, v.detail
        );
        println!(
            "  at event {} / {:.3}s virtual",
            v.events_processed,
            v.sim_time.as_secs_f64()
        );
        return ExitCode::FAILURE;
    }

    if let Some(v) = repair_violation {
        println!();
        println!(
            "INVARIANT VIOLATED in repair check: {} — {}",
            v.invariant, v.detail
        );
        println!(
            "  at event {} / {:.3}s virtual",
            v.events_processed,
            v.sim_time.as_secs_f64()
        );
        return ExitCode::FAILURE;
    }

    match result.violation {
        None => {
            println!(
                "ok: {} scenarios, {} events checked against all {} invariants",
                result.scenarios_run,
                result.events_checked,
                check::invariants::registry().len()
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
