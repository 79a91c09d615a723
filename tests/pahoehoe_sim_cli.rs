//! `pahoehoe-sim` turns a bad flag value into a usage error (exit 2 with a
//! message on stderr naming the flag), never a panic, and `--trace` prints
//! a bounded prefix of the run's sends.

use std::process::Command;

#[test]
fn bad_flag_values_are_usage_errors() {
    for (flag, args) in [
        // Not a pattern at all.
        ("--kls-down", &["--kls-down", "9"][..]),
        // A pattern that takes down a second KLS in a data center of one.
        ("--kls-down", &["--layout", "2,1,3", "--kls-down", "2P"]),
        // Not a probability.
        ("--drop-rate", &["--drop-rate", "1.5"]),
        ("--drop-rate", &["--drop-rate", "NaN"]),
        // A stream needs a key to draw from.
        ("--keys", &["--keys", "0"]),
        // Not a Zipf exponent, and a hot set without its share.
        ("--dist", &["--keys", "10", "--dist", "zipf:x"]),
        ("--dist", &["--keys", "10", "--dist", "hot:1"]),
        // A key distribution shapes a stream, and there is none.
        ("--dist", &["--dist", "uniform"]),
        // Not one of the paper's six presets.
        ("--opt", &["--opt", "bogus"]),
        // Compaction always runs, so no flag switches it.
        ("--compact", &["--compact"]),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pahoehoe-sim"))
            .args(args)
            .output()
            .expect("pahoehoe-sim runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// The run's stdout under `args`, which must succeed.
fn stdout_of(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_pahoehoe-sim"))
        .args(args)
        .output()
        .expect("pahoehoe-sim runs");
    assert!(output.status.success(), "{args:?}: {output:?}");
    String::from_utf8(output.stdout).expect("UTF-8 stdout")
}

#[test]
fn trace_prints_the_first_forty_sends_only() {
    let run = ["--puts", "2", "--value-bytes", "256"];
    let plain = stdout_of(&run);
    let traced = stdout_of(&[&run[..], &["--trace"]].concat());
    let (report, sends) = traced
        .split_once("\nfirst traced messages:\n")
        .expect("a trace block");
    assert_eq!(report, plain, "tracing moved the report");
    let total: u64 = report
        .lines()
        .find_map(|line| line.strip_prefix("TOTAL"))
        .and_then(|row| row.split_whitespace().next())
        .and_then(|count| count.parse().ok())
        .expect("a TOTAL row");
    assert!(total > 40, "the run sent only {total} messages");
    assert_eq!(sends.lines().count(), 40, "{sends}");
}
