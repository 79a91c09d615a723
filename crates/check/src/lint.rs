//! The seven token rules of [`analysis::analyze`](crate::analysis::analyze):
//! single-token matches over one file's stripped token stream (comments,
//! strings and char literals blanked by the shared
//! [`rustlite`](crate::rustlite) front-end, so prose and string fixtures
//! never fire). [`analysis::RULES`](crate::analysis::RULES) says what each
//! rule flags and why; `analysis` decides which files they check and
//! applies `lint:allow` suppression.
//!
//! `hot-path-alloc` fires only inside a function whose body follows a
//! standalone `// lint:hot` marker line: declared allocation-free hot
//! paths (codec inner loops, the event queue) where `to_vec()` and
//! `Vec::new` are exactly what the `_into` APIs exist to avoid.

use std::path::Path;

use crate::analysis::Finding;
use crate::rustlite::{self, ident, punct, Spanned, Tok};

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

/// Every token-rule finding in one file, before suppression.
pub(crate) fn scan_tokens(toks: &[Spanned], src_lines: &[&str], file: &Path) -> Vec<Finding> {
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
            message: src_lines
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

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use crate::analysis::{analyze, Finding, Workspace, RULES};

    /// Every finding of the one checker on one product file.
    fn lint_source(file: &str, src: &str) -> Vec<Finding> {
        analyze(&Workspace::from_sources(vec![(
            PathBuf::from(file),
            src.to_string(),
        )]))
    }

    fn lint_str(src: &str) -> Vec<Finding> {
        lint_source("test.rs", src)
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
        // of THIS file starts with one (the checker scans lint.rs
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
        assert_eq!(f.message, "let t = Instant::now();");
        assert_eq!(
            f.to_json(),
            r#"{"file":"test.rs","line":2,"col":9,"rule":"wall-clock","message":"let t = Instant::now();"}"#
        );
    }

    #[test]
    fn token_rules_lead_the_one_rule_table() {
        let names: Vec<&str> = RULES.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "hash-collections",
                "wall-clock",
                "ambient-rng",
                "thread-spawn",
                "float-key",
                "hot-path-alloc",
                "shared-mutable",
                "exhaustive-dispatch",
                "mode-parity",
                "panic-path",
                "unsafe-confinement",
                "registry-sync",
            ]
        );
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
            let findings = lint_source(file, src);
            assert_eq!(findings.len(), 2, "{file}");
            assert!(findings.iter().all(|f| f.rule == "shared-mutable"));
        }
        // lint:allow still works, there as anywhere.
        let allowed_src = "static M: AtomicBool = AtomicBool::new(false); \
                           // lint:allow(shared-mutable)";
        assert!(lint_source("/work/crates/pahoehoe/src/protocol.rs", allowed_src).is_empty());
    }
}
