//! The checker's seven token rules against known-bad fixture files:
//! every hazard class must be detected, allow markers must suppress, the
//! token rules must check exactly the files under a package's `src/`, and
//! the real workspace must be clean.

use check::analysis::{analyze, analyze_workspace, Finding, Workspace};
use std::path::{Path, PathBuf};

/// Every finding on one fixture file, checked as a product file named
/// after it.
fn lint_file(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(path).expect("fixture reads");
    analyze(&Workspace::from_sources(vec![(PathBuf::from(name), src)]))
}

fn rules_hit(findings: &[Finding]) -> Vec<&str> {
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn detects_hash_collections() {
    let findings = lint_file("hash_collections.rs");
    assert_eq!(rules_hit(&findings), ["hash-collections"]);
    assert!(findings.len() >= 3, "use, two fields, return type + ctor");
}

#[test]
fn detects_wall_clock() {
    let findings = lint_file("wall_clock.rs");
    assert_eq!(rules_hit(&findings), ["wall-clock"]);
    assert_eq!(
        findings.len(),
        4,
        "two imports + Instant::now + SystemTime::now"
    );
}

#[test]
fn detects_ambient_rng() {
    let findings = lint_file("ambient_rng.rs");
    assert_eq!(rules_hit(&findings), ["ambient-rng"]);
    assert_eq!(findings.len(), 2, "thread_rng + rand::random");
}

#[test]
fn detects_thread_spawn() {
    let findings = lint_file("thread_spawn.rs");
    assert_eq!(rules_hit(&findings), ["thread-spawn"]);
    assert_eq!(findings.len(), 2);
}

#[test]
fn detects_float_keys() {
    let findings = lint_file("float_key.rs");
    assert_eq!(rules_hit(&findings), ["float-key"]);
    assert_eq!(findings.len(), 2, "f64 and f32 keys, qualified or not");
}

#[test]
fn detects_hot_path_alloc() {
    let findings = lint_file("hot_path_alloc.rs");
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
    let findings = lint_file("hot_queue_regression.rs");
    assert_eq!(rules_hit(&findings), ["hot-path-alloc"]);
    assert_eq!(findings.len(), 2, "to_vec in pop + Vec::new in record_send");
    assert!(
        findings.iter().any(|f| f.message.contains("to_vec")),
        "queue-pop regression flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("Vec::new")),
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
    let findings = lint_file("hot_round_regression.rs");
    assert_eq!(rules_hit(&findings), ["hot-path-alloc"]);
    assert_eq!(findings.len(), 2, "to_vec in run_round + Vec::new in scrub");
    assert!(
        findings.iter().any(|f| f.message.contains("to_vec")),
        "round-walk copy regression flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("Vec::new")),
        "scrub per-version Vec regression flagged: {findings:?}"
    );
}

#[test]
fn detects_stripe_cache_lookup_regressions() {
    // A keyed cache lookup and a column scan marked `// lint:hot`: the two
    // plausible allocation regressions — copying the cached value out,
    // staging the changed-column list in a fresh buffer — trip the lint.
    let findings = lint_file("hot_cache_lookup_regression.rs");
    assert_eq!(rules_hit(&findings), ["hot-path-alloc"]);
    assert_eq!(findings.len(), 2, "to_vec in lookup + Vec::new in window");
    assert!(
        findings.iter().any(|f| f.message.contains("to_vec")),
        "cached-value copy regression flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("Vec::new")),
        "dirty-window staging regression flagged: {findings:?}"
    );
}

#[test]
fn detects_shared_mutable_state() {
    let findings = lint_file("shared_mutable.rs");
    assert_eq!(rules_hit(&findings), ["shared-mutable"]);
    assert_eq!(
        findings.len(),
        11,
        "imports, static mut, atomics, OnceLock, lazy_static, LazyLock: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("static mut")),
        "static mut flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("lazy_static")),
        "lazy_static flagged: {findings:?}"
    );
}

#[test]
fn allow_markers_and_noncode_text_suppress() {
    let findings = lint_file("allowed.rs");
    assert!(findings.is_empty(), "expected clean, got: {findings:?}");
}

#[test]
fn findings_carry_usable_positions() {
    let findings = lint_file("wall_clock.rs");
    let f = &findings[2];
    assert!(f.file.ends_with("wall_clock.rs"));
    assert_eq!(f.line, 5, "Instant::now() is on line 5");
    assert!(f.col >= 1);
    assert!(f.message.contains("Instant"));
}

#[test]
fn token_rules_check_every_src_file_and_no_package_test() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("token-scope");
    let _ = std::fs::remove_dir_all(&root);
    let files = [
        "crates/x/src/a.rs",
        "crates/x/src/m/tests/b.rs",
        "crates/x/tests/c.rs",
        "crates/x/tests/fixtures/d.rs",
        "src/bin/e.rs",
    ];
    for file in files {
        let path = root.join(file);
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("scope root");
        std::fs::write(&path, "pub type T = std::collections::HashMap<u32, u32>;\n")
            .expect("scope file");
    }
    let findings = analyze_workspace(&root).expect("scope root loads");
    assert!(
        findings.iter().all(|f| f.rule == "hash-collections"),
        "{findings:?}"
    );
    let hit: Vec<&Path> = findings.iter().map(|f| f.file.as_path()).collect();
    assert_eq!(
        hit,
        [
            Path::new("crates/x/src/a.rs"),
            Path::new("crates/x/src/m/tests/b.rs"),
            Path::new("src/bin/e.rs"),
        ]
    );
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace loads");
    for root_package_file in ["src/lib.rs", "src/bin/pahoehoe-sim.rs"] {
        assert!(
            ws.files
                .iter()
                .any(|f| f.path == Path::new(root_package_file)),
            "{root_package_file} is checked"
        );
    }
    let findings = analyze(&ws);
    assert!(
        findings.is_empty(),
        "the checker must pass on the real workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
