//! The workspace checker: `cargo run -p check --release --bin analyze`.
//!
//! Runs the twelve rules of [`check::analysis`] — seven token rules
//! (hash-collections, wall-clock, ambient-rng, thread-spawn, float-key,
//! hot-path-alloc, shared-mutable) and five semantic ones
//! (exhaustive-dispatch, mode-parity, panic-path, unsafe-confinement,
//! registry-sync) — over `crates/*/{src,tests}` and the root package's
//! `src` under the workspace root (default: the current directory; pass a
//! path to override). `--rules` lists the rule set; `--format json` emits
//! one JSON array of findings, each naming its rule.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use check::analysis;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => {
                for (i, (name, what)) in analysis::RULES.iter().enumerate() {
                    println!("{i:>2} {name:<20} {what}");
                }
                return ExitCode::SUCCESS;
            }
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!("analyze: unknown format {other:?} (want json|text)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: analyze [WORKSPACE_ROOT] [--rules] [--format json|text]");
                return ExitCode::SUCCESS;
            }
            path => root = PathBuf::from(path),
        }
    }

    let findings = match analysis::analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("analyze: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        let objects: Vec<String> = findings.iter().map(|f| f.to_json()).collect();
        println!("[{}]", objects.join(","));
    } else if findings.is_empty() {
        println!("analyze: clean ({} rules)", analysis::RULES.len());
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("analyze: {} finding(s)", findings.len());
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
