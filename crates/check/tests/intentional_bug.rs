//! End-to-end proof that the checker machinery actually detects
//! violations: a deliberately injected bug (a silent fragment corruption)
//! must be flagged, shrunk to a minimal repro and traced — both through
//! the library API and through the `explore` binary's exit status. The
//! converse guard sits here too: a sweep of nothing is a usage error, not
//! a pass.

use check::explorer::{sweep, FaultSpec, Preset, Step, SweepConfig};
use pahoehoe::workload::StreamingWorkload;
use pahoehoe::Policy;

#[test]
fn injected_corruption_is_caught_and_shrunk() {
    let cfg = SweepConfig {
        seeds: vec![7],
        // Start from a *faulty* plan so the shrinker has work to do.
        fault_specs: vec![FaultSpec {
            drop_centi: 3,
            dup_centi: 2,
            outages: vec![],
        }],
        presets: vec![Preset::All],
        workload: StreamingWorkload::numbered(2, 1, 2048, Policy::paper_default()),
        ..SweepConfig::full()
    };
    let mut scenarios = cfg.scenarios();
    for sc in &mut scenarios {
        sc.steps.push(Step::CorruptFragment);
    }
    let result = sweep(&scenarios, 1, |_, _| {});
    let report = result.violation.expect("corruption must violate");
    assert!(
        matches!(
            report.violation.invariant,
            "checksum-integrity" | "acked-durability" | "durable-monotone"
        ),
        "unexpected invariant: {}",
        report.violation.invariant
    );
    assert!(
        report.shrunk.faults.is_clean(),
        "the bug fires without any network fault, so shrinking must strip them all: {:?}",
        report.shrunk.faults
    );
    assert_eq!(report.shrunk.seed, 7, "seed is preserved");
    assert_eq!(report.shrunk.preset, Preset::All, "preset is preserved");
    assert_eq!(
        report.shrunk.steps,
        [Step::CorruptFragment],
        "the injected step is preserved"
    );
    assert!(!report.trace.is_empty(), "violating run must carry a trace");
}

#[test]
fn explore_binary_exits_nonzero_with_repro_and_trace() {
    // The grid, the scale cell alone and the repair families alone: every
    // scenario goes through the one sweep, so each is shrunk and traced.
    for (name, mode) in [
        ("smoke", &["--smoke"][..]),
        ("scale", &["--seeds", "0", "--scale"]),
        ("repair", &["--seeds", "0", "--repair"]),
    ] {
        let trace_path = std::env::temp_dir().join(format!("check-intentional-bug-{name}.trace"));
        let _ = std::fs::remove_file(&trace_path);
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(mode)
            .args(["--quiet", "--inject-corruption", "--trace-out"])
            .arg(&trace_path)
            .output()
            .expect("explore binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{name}: violation must exit 1; stdout:\n{stdout}"
        );
        assert!(stdout.contains("INVARIANT VIOLATED"), "{name}: {stdout}");
        assert!(stdout.contains("shrunk repro"), "{name}: {stdout}");
        let trace = std::fs::read_to_string(&trace_path).expect("trace dumped");
        assert!(!trace.is_empty(), "{name}: empty trace");
        let _ = std::fs::remove_file(&trace_path);
    }
}

#[test]
fn explore_binary_rejects_an_empty_sweep() {
    let explore = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(args)
            .output()
            .expect("explore binary runs")
    };
    // Zero scenarios and nothing else to run: exit 2 and say why, rather
    // than print `ok: 0 scenarios` and exit 0.
    let empty = explore(&["--smoke", "--quiet", "--seeds", "0"]);
    assert_eq!(empty.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&empty.stderr);
    assert!(stderr.contains("0 scenarios"), "stderr: {stderr}");
    assert!(
        !String::from_utf8_lossy(&empty.stdout).contains("ok:"),
        "an empty sweep must not report success"
    );
    // `--repair` gives the run something to check, so it stays legal.
    let repair_only = explore(&["--smoke", "--quiet", "--seeds", "0", "--repair"]);
    assert_eq!(
        repair_only.status.code(),
        Some(0),
        "stdout:\n{}",
        String::from_utf8_lossy(&repair_only.stdout)
    );
}

#[test]
fn explore_binary_reads_smoke_and_seeds_in_either_order() {
    // `--smoke` used to replace the whole sweep configuration, so a
    // `--seeds` before it was silently dropped (54 scenarios, not 18).
    for args in [["--seeds", "1", "--smoke"], ["--smoke", "--seeds", "1"]] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(args)
            .args(["--quiet", "--puts", "1", "--value-len", "256"])
            .output()
            .expect("explore binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(
            stdout.contains("exploring 18 scenarios (1 seeds x 3 fault specs x 6 presets)"),
            "{args:?}: {stdout}"
        );
        assert!(stdout.contains("ok: 18 scenarios"), "{args:?}: {stdout}");
    }
}

#[test]
fn clean_mini_sweep_reports_no_violation() {
    let cfg = SweepConfig {
        seeds: vec![0, 1],
        fault_specs: SweepConfig::fault_pool().into_iter().take(2).collect(),
        presets: vec![Preset::Naive, Preset::All],
        workload: StreamingWorkload::numbered(2, 1, 2048, Policy::paper_default()),
        ..SweepConfig::full()
    };
    let mut seen = 0;
    let result = sweep(&cfg.scenarios(), 2, |_, outcome| {
        seen += 1;
        assert!(outcome.events > 0);
    });
    assert!(result.violation.is_none());
    assert_eq!(result.scenarios_run, 8);
    assert_eq!(seen, 8);
    assert!(result.events_checked > 0);
}
