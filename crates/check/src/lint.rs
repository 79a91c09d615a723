//! Determinism lint: a token-level scanner for simulation-hostile code.
//!
//! The whole point of `simnet` is that a run is a pure function of its
//! seed. A handful of std constructs silently break that property when
//! they leak into actor code, and none of them is caught by the compiler:
//!
//! * `HashMap`/`HashSet` — iteration order varies across runs (randomized
//!   SipHash keys), so any protocol decision derived from iterating one is
//!   nondeterministic. Actor state must use `BTreeMap`/`BTreeSet`.
//! * `SystemTime` / `Instant` — wall clocks. Actors must use the virtual
//!   clock ([`Context::now`](simnet::Context::now)).
//! * `thread_rng` / `rand::random` — ambient OS-seeded randomness. Actors
//!   must draw from the simulation's seeded RNG
//!   ([`Context::rng`](simnet::Context::rng)).
//! * `std::thread::spawn` — free-running concurrency whose interleaving
//!   the event queue cannot replay.
//! * `f32`/`f64` map or set keys — NaN breaks `Ord`, and float summation
//!   order then depends on map iteration order.
//!
//! One rule guards performance rather than determinism: functions preceded
//! by a standalone `// lint:hot` marker line are declared allocation-free
//! hot paths (codec inner loops), and `to_vec()` / `Vec::new` inside them
//! is flagged (`hot-path-alloc`) — per-call allocations are exactly what
//! the `_into` codec APIs exist to avoid.
//!
//! The scanner lexes each file just enough to be trustworthy — comments,
//! (raw) string literals and char literals are stripped before matching
//! (via the shared [`rustlite`](crate::rustlite) front-end), so prose and
//! test fixtures never trigger findings — and it walks `crates/*/src`
//! only, skipping `vendor/` and generated code. A finding on a line where
//! the hazard is deliberate and safe is suppressed with
//! `// lint:allow(<rule>)` on the same line, the preceding line, or —
//! when the finding sits on an item behind attributes — the line above
//! the attribute block.
//!
//! Deeper, semantic workspace rules (dispatch exhaustiveness, mode
//! parity, panic paths, unsafe confinement, registry sync) live in
//! [`analysis`](crate::analysis); this module stays the cheap token pass.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::rustlite::{self, allowed, allows_by_line, ident, punct, Spanned, Tok};

/// The rule set: `(name, what it flags and why)`.
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-collections",
        "HashMap/HashSet: iteration order is randomized per process; use BTreeMap/BTreeSet in \
         simulation-visible state",
    ),
    (
        "wall-clock",
        "SystemTime/Instant: wall clocks diverge between runs; use the simulation's virtual clock",
    ),
    (
        "ambient-rng",
        "thread_rng()/rand::random(): OS-seeded randomness is unreproducible; draw from the \
         simulation's seeded RNG",
    ),
    (
        "thread-spawn",
        "std::thread::spawn: free-running threads interleave nondeterministically with the \
         event queue",
    ),
    (
        "float-key",
        "f32/f64 map or set keys: NaN breaks ordering and float key order perturbs iteration",
    ),
    (
        "hot-path-alloc",
        "to_vec()/Vec::new inside a function marked hot: declared allocation-free hot paths \
         must write into caller-owned scratch",
    ),
    (
        "shared-mutable",
        "static mut / Atomic* / lazy_static / OnceLock / LazyLock / OnceCell: cross-actor \
         mutable globals leak state between runs and across sweep worker threads; keep mutable \
         state inside actors or the engine",
    ),
];

/// Index of `rule` in [`RULES`] — the bit it occupies in the CLI's
/// per-rule exit code (see `bin/lint.rs`).
pub fn rule_bit(rule: &str) -> Option<usize> {
    RULES.iter().position(|(name, _)| *name == rule)
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (of the offending token).
    pub col: usize,
    /// Rule name (a key of [`RULES`]).
    pub rule: &'static str,
    /// The offending source excerpt.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule,
            self.excerpt
        )
    }
}

impl Finding {
    /// This finding as one JSON object (hand-rolled; the workspace builds
    /// offline with no serde).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":"{}","line":{},"col":{},"rule":"{}","excerpt":"{}"}}"#,
            json_escape(&self.file.display().to_string()),
            self.line,
            self.col,
            self.rule,
            json_escape(&self.excerpt)
        )
    }
}

/// Escapes a string for embedding in a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// After a `Map<`/`Set<` at `open`, returns the first type ident of the key
/// parameter (skipping `&`, `mut` and lifetimes).
fn first_type_param(toks: &[Spanned], open: usize) -> Option<&str> {
    let mut j = open + 1;
    loop {
        match toks.get(j).map(|s| &s.tok) {
            Some(Tok::Punct('&')) => j += 1,
            Some(Tok::Punct('\'')) => j += 2, // lifetime: quote + name
            Some(Tok::Punct(',')) => j += 1,  // only reachable after lifetimes
            Some(Tok::Ident(id)) if id == "mut" => j += 1,
            Some(Tok::Ident(id)) => return Some(id),
            _ => return None,
        }
    }
}

/// Token ranges `[start, end)` of the bodies of functions marked hot: a
/// standalone `// lint:hot` line applies to the next `fn` below it. The
/// marker must begin the (trimmed) line, so mentions in strings, trailing
/// comments, or docs never open a span.
fn hot_fn_spans(toks: &[Spanned], src_lines: &[&str]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for marker_line in src_lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("// lint:hot"))
        .map(|(i, _)| i + 1)
    {
        let Some(fn_idx) = toks
            .iter()
            .position(|s| s.line > marker_line && matches!(&s.tok, Tok::Ident(id) if id == "fn"))
        else {
            continue;
        };
        let Some(open) = (fn_idx..toks.len()).find(|&j| punct(toks, j) == Some('{')) else {
            continue;
        };
        spans.push((open, rustlite::brace_range(toks, open)));
    }
    spans
}

fn scan_tokens(toks: &[Spanned], src_lines: &[&str], file: &Path) -> Vec<Finding> {
    let hot = hot_fn_spans(toks, src_lines);
    let in_hot = |i: usize| hot.iter().any(|&(s, e)| i >= s && i < e);
    let mut findings = Vec::new();
    let mut push = |i: usize, rule: &'static str| {
        let sp = &toks[i];
        findings.push(Finding {
            file: file.to_path_buf(),
            line: sp.line,
            col: sp.col,
            rule,
            excerpt: src_lines
                .get(sp.line - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    };
    for i in 0..toks.len() {
        let Some(id) = ident(toks, i) else { continue };
        match id {
            "HashMap" | "HashSet" => push(i, "hash-collections"),
            "SystemTime" | "Instant" => push(i, "wall-clock"),
            "thread_rng" => push(i, "ambient-rng"),
            "random" if rustlite::preceded_by(toks, i, "rand") => push(i, "ambient-rng"),
            "spawn" if rustlite::preceded_by(toks, i, "thread") => push(i, "thread-spawn"),
            "to_vec" if in_hot(i) && punct(toks, i + 1) == Some('(') => push(i, "hot-path-alloc"),
            "new" if in_hot(i) && rustlite::preceded_by(toks, i, "Vec") => {
                push(i, "hot-path-alloc")
            }
            "static" if ident(toks, i + 1) == Some("mut") => push(i, "shared-mutable"),
            "lazy_static" | "OnceLock" | "LazyLock" | "OnceCell" => push(i, "shared-mutable"),
            // Atomic types by prefix (AtomicBool, AtomicU8, ...); plain
            // `Ordering` never fires — it names a policy, not state.
            id if id.starts_with("Atomic") => push(i, "shared-mutable"),
            _ => {}
        }
        if (id.ends_with("Map") || id.ends_with("Set")) && punct(toks, i + 1) == Some('<') {
            if let Some(key) = first_type_param(toks, i + 1) {
                if key == "f32" || key == "f64" {
                    push(i, "float-key");
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lints one file's source text.
pub fn lint_source(file: &Path, src: &str) -> Vec<Finding> {
    let code = rustlite::strip_noncode(src);
    let toks = rustlite::tokenize(&code);
    let lines: Vec<&str> = src.lines().collect();
    let allows = allows_by_line(src);
    scan_tokens(&toks, &lines, file)
        .into_iter()
        .filter(|f| !allowed(&allows, &lines, f.line, f.rule))
        .collect()
}

/// Lints one file on disk.
pub fn lint_file(path: &Path) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    Ok(lint_source(path, &src))
}

/// Whether `path` lies under a directory named `tests`: test code, to the
/// analyzer and to the mutation scanner alike.
pub(crate) fn under_tests_dir(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "tests")
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// reports.
pub(crate) fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` under the workspace root.
/// `vendor/` (offline dependency stand-ins) and everything outside `src`
/// (tests may contain deliberate hazards as fixtures) are out of scope by
/// construction.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for file in files {
        findings.extend(lint_file(&file)?);
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src)
    }

    #[test]
    fn flags_each_hazard_class() {
        let rules = |src: &str| -> Vec<&'static str> {
            lint_str(src).into_iter().map(|f| f.rule).collect()
        };
        assert_eq!(
            rules("use std::collections::HashMap;"),
            vec!["hash-collections"]
        );
        assert_eq!(rules("let s: HashSet<u32> = x;"), vec!["hash-collections"]);
        assert_eq!(rules("let t = Instant::now();"), vec!["wall-clock"]);
        assert_eq!(rules("let t = SystemTime::now();"), vec!["wall-clock"]);
        assert_eq!(rules("let r = rand::thread_rng();"), vec!["ambient-rng"]);
        assert_eq!(rules("let x: u8 = rand::random();"), vec!["ambient-rng"]);
        assert_eq!(rules("std::thread::spawn(|| {});"), vec!["thread-spawn"]);
        assert_eq!(rules("let m: BTreeMap<f64, u32> = x;"), vec!["float-key"]);
        assert_eq!(rules("let m: BTreeSet<f32> = x;"), vec!["float-key"]);
    }

    #[test]
    fn clean_constructs_pass() {
        assert!(lint_str("use std::collections::BTreeMap;").is_empty());
        assert!(
            lint_str("let m: BTreeMap<u64, f64> = x;").is_empty(),
            "float value is fine"
        );
        assert!(
            lint_str("scope.spawn(|| {});").is_empty(),
            "scoped spawn method is fine"
        );
        assert!(
            lint_str("let v = rng.random::<f64>();").is_empty(),
            "seeded rng is fine"
        );
        assert!(lint_str("let t = ctx.now();").is_empty());
    }

    #[test]
    fn comments_strings_and_chars_are_ignored() {
        assert!(lint_str("// HashMap in a comment\n").is_empty());
        assert!(lint_str("/* nested /* HashMap */ still comment */\n").is_empty());
        assert!(lint_str("let s = \"HashMap and thread_rng\";").is_empty());
        assert!(lint_str("let s = r#\"Instant::now() \"quoted\"\"#;").is_empty());
        assert!(lint_str("let c = 'h'; let l: &'static str = x;").is_empty());
        assert!(lint_str("let b = b\"SystemTime\";").is_empty());
    }

    #[test]
    fn lifetimes_do_not_hide_float_keys() {
        assert_eq!(
            lint_str("fn f(m: &RateMap<'a, f64>) {}")[0].rule,
            "float-key"
        );
    }

    #[test]
    fn hot_marker_flags_allocations_in_next_fn_only() {
        // The markers here sit mid-line inside string literals, so no line
        // of THIS file starts with one (the workspace lint scans lint.rs
        // itself and must stay clean).
        let src = "// lint:hot\nfn f(d: &[u8]) -> Vec<u8> { d.to_vec() }\n";
        let findings = lint_str(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "hot-path-alloc");

        let src = "// lint:hot\nfn f() { let v: Vec<u8> = Vec::new(); }\n";
        assert_eq!(lint_str(src)[0].rule, "hot-path-alloc");

        // The span ends at the function's closing brace.
        let src = "// lint:hot\nfn f(d: &mut [u8]) { d[0] ^= 1; }\nfn g(d: &[u8]) -> Vec<u8> { d.to_vec() }\n";
        assert!(lint_str(src).is_empty(), "only the marked fn is scanned");

        // Unmarked allocations pass; `to_vec` without a call does not fire.
        assert!(lint_str("fn f(d: &[u8]) -> Vec<u8> { d.to_vec() }").is_empty());
        let src = "// lint:hot\nfn f() { let to_vec = 1; let _ = to_vec; }\n";
        assert!(lint_str(src).is_empty());

        // A doc mention of the marker mid-line opens no span.
        let src = "//! functions marked `// lint:hot` are scanned\nfn f(d: &[u8]) -> Vec<u8> { d.to_vec() }\n";
        assert!(lint_str(src).is_empty());

        // lint:allow suppresses like any other rule.
        let src =
            "// lint:hot\nfn f(d: &[u8]) -> Vec<u8> {\n    // lint:allow(hot-path-alloc)\n    d.to_vec()\n}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn allow_suppresses_on_same_and_previous_line() {
        assert!(
            lint_str("let m: HashMap<u32, u32> = x; // lint:allow(hash-collections)").is_empty()
        );
        assert!(
            lint_str("// lint:allow(hash-collections)\nlet m: HashMap<u32, u32> = x;").is_empty()
        );
        // The wrong rule does not suppress.
        assert_eq!(
            lint_str("let m: HashMap<u32, u32> = x; // lint:allow(wall-clock)").len(),
            1
        );
        // An allow two lines up does not suppress (no attributes between).
        assert_eq!(
            lint_str("// lint:allow(hash-collections)\n\nlet m: HashMap<u32, u32> = x;").len(),
            1
        );
    }

    #[test]
    fn allow_reaches_through_attribute_lines() {
        // The satellite fix: a marker above `#[derive(...)]` suppresses a
        // finding on the item line below the attributes.
        let src = "// lint:allow(hash-collections)\n#[derive(Debug, Default)]\n#[allow(dead_code)]\nstruct S { m: HashMap<u32, u32> }\n";
        assert!(lint_str(src).is_empty());
        // But an intervening code line still breaks the chain.
        let src = "// lint:allow(hash-collections)\nstruct T;\nstruct S { m: HashMap<u32, u32> }\n";
        assert_eq!(lint_str(src).len(), 1);
    }

    #[test]
    fn findings_carry_position_and_excerpt() {
        let f = &lint_str("let a = 1;\nlet t = Instant::now();\n")[0];
        assert_eq!(f.line, 2);
        assert_eq!(f.col, 9);
        assert_eq!(f.excerpt, "let t = Instant::now();");
        assert_eq!(
            f.to_json(),
            r#"{"file":"test.rs","line":2,"col":9,"rule":"wall-clock","excerpt":"let t = Instant::now();"}"#
        );
    }

    #[test]
    fn rule_bits_are_stable() {
        assert_eq!(rule_bit("hash-collections"), Some(0));
        assert_eq!(rule_bit("hot-path-alloc"), Some(5));
        assert_eq!(rule_bit("shared-mutable"), Some(6));
        assert_eq!(rule_bit("nonexistent"), None);
    }

    #[test]
    fn flags_shared_mutable_state() {
        let rules = |src: &str| -> Vec<&'static str> {
            lint_str(src).into_iter().map(|f| f.rule).collect()
        };
        assert_eq!(
            rules("static mut COUNTER: u32 = 0;"),
            vec!["shared-mutable"]
        );
        assert_eq!(
            rules("static FLAG: AtomicBool = AtomicBool::new(false);"),
            vec!["shared-mutable", "shared-mutable"]
        );
        assert_eq!(
            rules("let n = AtomicUsize::new(0);"),
            vec!["shared-mutable"]
        );
        assert_eq!(
            rules("static CELL: OnceLock<u32> = OnceLock::new();"),
            vec!["shared-mutable", "shared-mutable"]
        );
        assert_eq!(rules("use std::sync::LazyLock;"), vec!["shared-mutable"]);
        assert_eq!(
            rules("use once_cell::sync::OnceCell;"),
            vec!["shared-mutable"]
        );
        assert_eq!(rules("lazy_static! { }"), vec!["shared-mutable"]);
    }

    #[test]
    fn shared_mutable_ignores_benign_lookalikes() {
        // `Ordering` names a memory-order policy, not shared state.
        assert!(lint_str("use std::sync::atomic::Ordering;").is_empty());
        assert!(lint_str("x.load(Ordering::Relaxed);").is_empty());
        // Immutable statics and interior-mutability-free types are fine.
        assert!(lint_str("static NAME: &str = \"pahoehoe\";").is_empty());
        assert!(lint_str("let c = std::cell::Cell::new(0);").is_empty());
        // Mentions in comments and strings never fire.
        assert!(lint_str("// static mut is forbidden\n").is_empty());
        assert!(lint_str("let s = \"AtomicBool\";").is_empty());
    }

    #[test]
    fn shared_mutable_has_no_path_exemption() {
        // No file may hold a process global: runs execute on
        // `simnet::sweep` worker threads, and nothing outside a run's own
        // actors and engine may carry state into it. The file that used to
        // hold the protocol-mode statics is a finding like any other.
        let src = "static M: AtomicBool = AtomicBool::new(false);";
        for file in [
            "/work/crates/pahoehoe/src/protocol.rs",
            "/work/crates/simnet/src/sweep.rs",
        ] {
            let findings = lint_source(Path::new(file), src);
            assert_eq!(findings.len(), 2, "{file}");
            assert!(findings.iter().all(|f| f.rule == "shared-mutable"));
        }
        // lint:allow still works, there as anywhere.
        let allowed_src = "static M: AtomicBool = AtomicBool::new(false); \
                           // lint:allow(shared-mutable)";
        assert!(lint_source(
            Path::new("/work/crates/pahoehoe/src/protocol.rs"),
            allowed_src
        )
        .is_empty());
    }
}
