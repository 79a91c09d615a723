//! The `explore` binary's suite interface: it runs named suites, writes
//! one digest per suite, and refuses a name it does not know.

use std::process::Command;

#[test]
fn an_unknown_suite_is_a_usage_error_that_lists_the_suites() {
    let output = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["full", "no-such-suite", "--quiet"])
        .output()
        .expect("explore binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    for suite in check::explorer::suites() {
        assert!(stderr.contains(suite.name), "stderr: {stderr}");
    }
    assert!(
        !String::from_utf8_lossy(&output.stdout).contains("ok:"),
        "a refused run must not report success"
    );
}

#[test]
fn named_suites_write_their_committed_digests() {
    let dir = std::env::temp_dir().join(format!("check-explore-suites-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["scale", "repair", "--quiet", "--digest-dir"])
        .arg(&dir)
        .output()
        .expect("explore binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("digest dir written")
        .map(|e| {
            e.expect("a directory entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    written.sort();
    assert_eq!(written, ["repair.txt", "scale.txt"]);
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/digests");
    for file in &written {
        let fresh = std::fs::read(dir.join(file)).expect("fresh digest");
        let pinned = std::fs::read(committed.join(file)).expect("committed digest");
        assert!(
            fresh == pinned,
            "{file} differs from results/digests/{file}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
