//! The checker's semantic rules against known-bad fixture workspaces:
//! every rule must fire on its positive fixture and stay silent on the
//! negative twin, the real workspace must be clean, the `analyze` binary
//! must exit 0 clean and 1 on a finding, and the `rustlite`
//! front-end must survive arbitrary mutilations of the fixture sources
//! (a crashed analyzer is a skipped CI gate).

use std::path::{Path, PathBuf};

use check::analysis::{analyze_workspace, Finding};
use check::rustlite::FileModel;
use proptest::prelude::*;

fn fixture_root(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/analysis")
        .join(case)
}

fn run(case: &str) -> Vec<Finding> {
    analyze_workspace(&fixture_root(case)).expect("fixture workspace loads")
}

fn rules_hit(findings: &[Finding]) -> Vec<&str> {
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn dispatch_missing_variant_fires() {
    let fs = run("dispatch_missing");
    assert_eq!(rules_hit(&fs), ["exhaustive-dispatch"]);
    assert!(fs[0].message.contains("Message::Get"));
}

#[test]
fn dispatch_union_across_actors_is_clean() {
    assert_eq!(run("dispatch_ok"), []);
}

#[test]
fn dispatch_body_construction_does_not_count() {
    let fs = run("dispatch_body_construction");
    assert_eq!(rules_hit(&fs), ["exhaustive-dispatch"]);
    assert!(fs[0].message.contains("Message::Get"));
}

#[test]
fn mode_switch_without_test_fires() {
    let fs = run("mode_untested");
    assert_eq!(rules_hit(&fs), ["mode-parity"]);
    assert!(fs[0].message.contains("set_reference_fast_mode"));
}

#[test]
fn mode_type_in_tests_covers_switch() {
    assert_eq!(run("mode_ok"), []);
}

#[test]
fn panic_path_reachable_unwrap_fires() {
    let fs = run("panic_unjustified");
    assert_eq!(rules_hit(&fs), ["panic-path"]);
    assert!(fs[0].message.contains("via `step`"));
}

#[test]
fn panic_path_bare_marker_fires() {
    let fs = run("panic_bare_marker");
    assert_eq!(rules_hit(&fs), ["panic-path"]);
    assert!(fs[0].message.contains("justification"));
}

#[test]
fn panic_path_justified_marker_is_clean() {
    assert_eq!(run("panic_ok"), []);
}

#[test]
fn panic_path_follows_an_actor_into_its_module_directory() {
    // `src/actor.rs` holds `on_message`, `src/actor/helper.rs` the index it
    // reaches; `src/other/helper.rs` has the same site and no root.
    let fs = run("panic_module_dir");
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "panic-path");
    assert!(fs[0].file.ends_with("src/actor/helper.rs"), "{fs:?}");
    assert!(fs[0].message.contains("unchecked index"));
    assert!(fs[0].message.contains("via `lookup`"));
}

#[test]
fn panic_path_justified_marker_in_a_module_directory_is_clean() {
    assert_eq!(run("panic_module_dir_ok"), []);
}

#[test]
fn unsafe_outside_gf_simd_fires() {
    let fs = run("unsafe_leak");
    assert_eq!(rules_hit(&fs), ["unsafe-confinement"]);
    assert_eq!(fs.len(), 2, "codec.rs and gf.rs-outside-simd");
}

#[test]
fn unsafe_inside_gf_simd_is_clean() {
    assert_eq!(run("unsafe_ok"), []);
}

#[test]
fn registry_drift_fires() {
    let fs = run("registry_drift");
    assert_eq!(rules_hit(&fs), ["registry-sync"]);
    let msgs: Vec<&str> = fs.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs
        .iter()
        .any(|m| m.contains("Message::Del has no kind_id")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("`DelReq` is produced by no kind_id arm")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("sized by an integer literal")));
}

#[test]
fn registry_coherent_is_clean() {
    assert_eq!(run("registry_ok"), []);
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = analyze_workspace(&root).expect("workspace loads");
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

#[test]
fn analyze_binary_exits_clean_on_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg(&root)
        .output()
        .expect("analyze binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn analyze_binary_exits_one_and_names_the_rule_on_a_finding() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg(fixture_root("token_rule"))
        .args(["--format", "json"])
        .output()
        .expect("analyze binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "stdout:\n{stdout}");
    assert_eq!(stdout.matches(r#""rule":"#).count(), 1, "{stdout}");
    assert!(stdout.contains(r#""rule":"hash-collections""#), "{stdout}");
}

/// Every fixture source in the corpus, for the robustness property.
fn corpus() -> Vec<String> {
    let mut files = Vec::new();
    collect(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures"),
        &mut files,
    );
    assert!(files.len() >= 20, "fixture corpus present");
    files
}

fn collect(dir: &Path, out: &mut Vec<String>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(std::fs::read_to_string(&p).expect("fixture reads"));
        }
    }
}

/// One source mutilation: truncate, splice in noise, or overwrite bytes.
#[derive(Debug, Clone)]
enum Mutilation {
    Truncate(usize),
    Insert(usize, String),
    Overwrite(usize, u8),
}

fn mutilation() -> impl Strategy<Value = Mutilation> {
    (0u8..3, 0usize..4096, any::<u8>(), "[{}()\"'/*]{0,6}").prop_map(|(kind, at, byte, noise)| {
        match kind {
            0 => Mutilation::Truncate(at),
            1 => Mutilation::Insert(at, noise),
            _ => Mutilation::Overwrite(at, byte),
        }
    })
}

fn apply(src: &str, m: &Mutilation) -> String {
    let mut bytes = src.as_bytes().to_vec();
    match m {
        Mutilation::Truncate(at) => bytes.truncate(*at.min(&bytes.len())),
        Mutilation::Insert(at, s) => {
            let at = (*at).min(bytes.len());
            bytes.splice(at..at, s.bytes());
        }
        Mutilation::Overwrite(at, b) => {
            if let Some(slot) = bytes.get_mut(*at) {
                *slot = *b;
            }
        }
    }
    // Mutilations land on byte offsets; keep whatever is still UTF-8.
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The front-end (and the full rule set over the resulting model)
    /// must never panic on mutilated input — unbalanced delimiters,
    /// unterminated strings, bytes in the middle of tokens.
    #[test]
    fn mutilated_fixture_sources_never_crash_the_front_end(
        file_idx: usize,
        muts in proptest::collection::vec(mutilation(), 1..5),
    ) {
        let corpus = corpus();
        let mut src = corpus[file_idx % corpus.len()].clone();
        for m in &muts {
            src = apply(&src, m);
        }
        let model = FileModel::parse(&src);
        let _ = model.matches_in((0, model.toks.len()));
        let ws = check::analysis::Workspace::from_sources(vec![
            (PathBuf::from("mutilated.rs"), src),
        ]);
        let _ = check::analysis::analyze(&ws);
    }
}
