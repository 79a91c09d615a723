//! The repo benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! prints every metric by name with its unit, checks the program's
//! outputs, prints one JSON object as its last line and exits non-zero on
//! a failed check. `trace` is `run --trace 1`; `selftest` shows the
//! benchmark measures the program; `aa` compares two sets of runs of the
//! same build against the bounds; `describe` prints `BENCHMARK.json`.
//! README.md has the definitions.

mod aa;
mod api;
mod child;
mod metrics;
mod run;
mod selftest;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::{Workload, NOMINAL_SECONDS};

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn get(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn num(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v}")),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        workloads::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })
    }
}

fn run(flags: &Flags, trace: bool) -> Result<bool, String> {
    let w = flags.workload()?;
    let seed = flags.num("--seed", 42)?;
    let seconds = flags.num("--seconds", NOMINAL_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1 to 60, got {seconds}"));
    }
    let ops = w.ops_for(seconds, flags.num("--ops-div", 1)?);
    let report = if trace {
        run::per_layer(w, seed, ops)?
    } else {
        run::end_to_end(w, seed, ops, &[])?
    };
    println!("# {} seed {seed} ops {ops}", w.name);
    print!("{}", report.table());
    println!("{}", report.json());
    Ok(report.correct)
}

fn child(flags: &Flags, process_start: Instant) -> Result<bool, String> {
    let args = child::ChildArgs {
        workload: flags.workload()?,
        seed: flags.num("--seed", 42)?,
        ops: flags.num("--ops", 0)?,
        traced: flags.has("--traced"),
        inject_setup_ms: flags.num("--inject-setup-ms", 0)?,
        inject_batch_us: flags.num("--inject-batch-us", 0)?,
        naive: flags.has("--naive"),
    };
    if args.ops == 0 {
        return Err("child needs --ops".into());
    }
    Ok(child::run(&args, process_start))
}

fn aa(flags: &Flags) -> Result<bool, String> {
    aa::run(
        flags.num("--sets", 2)?,
        flags.num("--runs", 5)?,
        flags.num("--seed", 42)?,
        flags.get("--workload"),
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let flags = Flags(argv.collect());
    let outcome = match command.as_str() {
        "run" => run(&flags, flags.get("--trace") == Some("1")),
        "trace" => run(&flags, true),
        "child" => child(&flags, process_start),
        "selftest" => selftest::run(),
        "aa" => aa(&flags),
        "describe" => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        other => Err(format!(
            "unknown command {other:?}; one of run, trace, selftest, aa, describe"
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
