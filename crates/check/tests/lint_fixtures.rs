//! The determinism lint against known-bad fixture files: every hazard
//! class must be detected, allow markers must suppress, and the real
//! workspace must be clean.

use check::lint::{lint_file, lint_workspace, Finding};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rules_hit(findings: &[Finding]) -> Vec<&str> {
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn detects_hash_collections() {
    let findings = lint_file(&fixture("hash_collections.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["hash-collections"]);
    assert!(findings.len() >= 3, "use, two fields, return type + ctor");
}

#[test]
fn detects_wall_clock() {
    let findings = lint_file(&fixture("wall_clock.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["wall-clock"]);
    assert_eq!(
        findings.len(),
        4,
        "two imports + Instant::now + SystemTime::now"
    );
}

#[test]
fn detects_ambient_rng() {
    let findings = lint_file(&fixture("ambient_rng.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["ambient-rng"]);
    assert_eq!(findings.len(), 2, "thread_rng + rand::random");
}

#[test]
fn detects_thread_spawn() {
    let findings = lint_file(&fixture("thread_spawn.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["thread-spawn"]);
    assert_eq!(findings.len(), 2);
}

#[test]
fn detects_float_keys() {
    let findings = lint_file(&fixture("float_key.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["float-key"]);
    assert_eq!(findings.len(), 2, "f64 and f32 keys, qualified or not");
}

#[test]
fn detects_hot_path_alloc() {
    let findings = lint_file(&fixture("hot_path_alloc.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["hot-path-alloc"]);
    assert_eq!(findings.len(), 2, "Vec::new + to_vec in the marked fn");
    assert!(findings.iter().all(|f| f.line <= 9), "cold fn not flagged");
}

#[test]
fn detects_simulation_core_hot_path_regressions() {
    // The engine's real hot paths (the heap queue's push, peek and pop,
    // `record_send`) carry `// lint:hot` markers; this fixture mirrors
    // their shape and proves an allocating regression in either the queue
    // or the metrics trips the lint.
    let findings = lint_file(&fixture("hot_queue_regression.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["hot-path-alloc"]);
    assert_eq!(findings.len(), 2, "to_vec in pop + Vec::new in record_send");
    assert!(
        findings.iter().any(|f| f.excerpt.contains("to_vec")),
        "queue-pop regression flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.excerpt.contains("Vec::new")),
        "record_send regression flagged: {findings:?}"
    );
}

#[test]
fn detects_protocol_round_hot_path_regressions() {
    // The fragment server's convergence round and scrub walks carry
    // `// lint:hot` markers after the scratch-reuse fix; this fixture
    // mirrors their shape and proves the two historical allocation
    // patterns (copying the version list, a per-version Vec of corrupt
    // indices) trip the lint.
    let findings = lint_file(&fixture("hot_round_regression.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["hot-path-alloc"]);
    assert_eq!(findings.len(), 2, "to_vec in run_round + Vec::new in scrub");
    assert!(
        findings.iter().any(|f| f.excerpt.contains("to_vec")),
        "round-walk copy regression flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.excerpt.contains("Vec::new")),
        "scrub per-version Vec regression flagged: {findings:?}"
    );
}

#[test]
fn detects_stripe_cache_lookup_regressions() {
    // A keyed cache lookup and a column scan marked `// lint:hot`: the two
    // plausible allocation regressions — copying the cached value out,
    // staging the changed-column list in a fresh buffer — trip the lint.
    let findings = lint_file(&fixture("hot_cache_lookup_regression.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["hot-path-alloc"]);
    assert_eq!(findings.len(), 2, "to_vec in lookup + Vec::new in window");
    assert!(
        findings.iter().any(|f| f.excerpt.contains("to_vec")),
        "cached-value copy regression flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.excerpt.contains("Vec::new")),
        "dirty-window staging regression flagged: {findings:?}"
    );
}

#[test]
fn detects_shared_mutable_state() {
    let findings = lint_file(&fixture("shared_mutable.rs")).unwrap();
    assert_eq!(rules_hit(&findings), ["shared-mutable"]);
    assert_eq!(
        findings.len(),
        11,
        "imports, static mut, atomics, OnceLock, lazy_static, LazyLock: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.excerpt.contains("static mut")),
        "static mut flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.excerpt.contains("lazy_static")),
        "lazy_static flagged: {findings:?}"
    );
}

#[test]
fn allow_markers_and_noncode_text_suppress() {
    let findings = lint_file(&fixture("allowed.rs")).unwrap();
    assert!(findings.is_empty(), "expected clean, got: {findings:?}");
}

#[test]
fn findings_carry_usable_positions() {
    let findings = lint_file(&fixture("wall_clock.rs")).unwrap();
    let f = &findings[2];
    assert!(f.file.ends_with("wall_clock.rs"));
    assert_eq!(f.line, 5, "Instant::now() is on line 5");
    assert!(f.col >= 1);
    assert!(f.excerpt.contains("Instant"));
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).unwrap();
    assert!(
        findings.is_empty(),
        "determinism lint must pass on the real workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lint_binary_exits_clean_on_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg(&root)
        .output()
        .expect("lint binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}
