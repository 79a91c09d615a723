//! End-to-end proof that the checker machinery actually detects
//! violations: a deliberately injected bug (a silent fragment corruption)
//! must be flagged, shrunk to a minimal repro and traced — both through
//! the library API and through the `explore` binary's exit status.

use check::explorer::{fault_pool, grid, sweep, FaultSpec, Preset, Scenario, Step};
use pahoehoe::workload::StreamingWorkload;
use pahoehoe::Policy;

/// A grid cell's scenario with two puts of 2 KiB.
fn two_small_puts() -> Scenario {
    Scenario {
        workload: StreamingWorkload::numbered(2, 1, 2048, Policy::paper_default()),
        ..Scenario::default()
    }
}

#[test]
fn injected_corruption_is_caught_and_shrunk() {
    // Start from a *faulty* plan so the shrinker has work to do.
    let faults = FaultSpec {
        drop_centi: 3,
        dup_centi: 2,
        outages: vec![],
    };
    let mut scenarios = grid(7..8, &[faults], &[Preset::All], &two_small_puts());
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
    // A grid suite and the repair families: every scenario goes through the
    // one sweep, so each is shrunk and traced.
    for suite in ["smoke-overwrite", "repair"] {
        let trace_path = std::env::temp_dir().join(format!("check-intentional-bug-{suite}.trace"));
        let _ = std::fs::remove_file(&trace_path);
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_explore"))
            .args([suite, "--quiet", "--inject-corruption", "--trace-out"])
            .arg(&trace_path)
            .output()
            .expect("explore binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{suite}: violation must exit 1; stdout:\n{stdout}"
        );
        assert!(stdout.contains("INVARIANT VIOLATED"), "{suite}: {stdout}");
        assert!(stdout.contains("shrunk repro"), "{suite}: {stdout}");
        let trace = std::fs::read_to_string(&trace_path).expect("trace dumped");
        assert!(!trace.is_empty(), "{suite}: empty trace");
        let _ = std::fs::remove_file(&trace_path);
    }
}

#[test]
fn injected_corruption_is_caught_in_a_scale_shaped_run() {
    // The scale cell's shape — a Zipf stream under batched rounds that
    // compacts — cut to a size a debug build checks quickly.
    let mut sc = Scenario::scale();
    sc.workload.puts = 60;
    sc.workload.key_space = 20;
    sc.steps.push(Step::CorruptFragment);
    assert!(sc.protocol.batch_rounds);
    let mut compacted = 0;
    let result = sweep(std::slice::from_ref(&sc), 1, |_, outcome| {
        compacted = outcome.compacted;
    });
    assert!(compacted > 0, "the run must compact");
    let report = result.violation.expect("corruption must violate");
    assert_eq!(report.shrunk.name, Some("scale"));
    assert_eq!(report.shrunk.steps, [Step::CorruptFragment]);
    assert!(!report.trace.is_empty(), "violating run must carry a trace");
}

#[test]
fn clean_mini_sweep_reports_no_violation() {
    let presets = [Preset::Naive, Preset::All];
    let scenarios = grid(0..2, &fault_pool()[..2], &presets, &two_small_puts());
    let mut seen = 0;
    let result = sweep(&scenarios, 2, |_, outcome| {
        seen += 1;
        assert!(outcome.events > 0);
    });
    assert!(result.violation.is_none());
    assert_eq!(result.scenarios_run, 8);
    assert_eq!(seen, 8);
    assert!(result.events_checked > 0);
}
