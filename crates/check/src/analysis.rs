//! The workspace checker: twelve rules over the [`rustlite`]
//! front-end, one walk, one finding type, one suppression loop.
//!
//! Seven **token rules** guard seeded-simulation determinism (a run is a
//! pure function of its seed, and the compiler catches none of these) and
//! one hot-path budget. They match single tokens of each file's stripped
//! token stream (see `lint.rs`):
//!
//! * **hash-collections** — `HashMap`/`HashSet`: iteration order varies
//!   across runs (randomized SipHash keys). Use `BTreeMap`/`BTreeSet`.
//! * **wall-clock** — `SystemTime`/`Instant`: actors use the virtual clock
//!   ([`Context::now`](simnet::Context::now)).
//! * **ambient-rng** — `thread_rng`/`rand::random`: actors draw from the
//!   simulation's seeded RNG ([`Context::rng`](simnet::Context::rng)).
//! * **thread-spawn** — `std::thread::spawn`: free-running concurrency the
//!   event queue cannot replay.
//! * **float-key** — `f32`/`f64` map or set keys: NaN breaks `Ord`.
//! * **hot-path-alloc** — `to_vec()`/`Vec::new` inside a function preceded
//!   by a standalone `// lint:hot` line: declared allocation-free hot paths
//!   write into caller-owned scratch.
//! * **shared-mutable** — `static mut`, `Atomic*`, `lazy_static`,
//!   `OnceLock`, `LazyLock`, `OnceCell`: process globals leak state between
//!   runs and across sweep worker threads.
//!
//! The token rules check every file under a package's `src/` (the root
//! package's included, and `src/**/tests/` and `#[cfg(test)]` modules
//! too), never a package's `tests/` directory: integration tests may hold
//! the very hazards the rules flag.
//!
//! Five **semantic rules** pin couplings that span files:
//!
//! * **exhaustive-dispatch** — every variant of the `Message` enum is
//!   handled by *some* actor's `on_message` dispatch. Each actor handles
//!   its own subset behind a `debug_assert!` catch-all, so per-actor
//!   match exhaustiveness proves nothing; the union across actors is the
//!   property that catches a new message kind nobody routes.
//! * **mode-parity** — every protocol mode type (`*Mode`/`*Impl`, today
//!   `ProtocolMode`) and every switch function (`set_reference_*`,
//!   `set_batched_*`, `use_reference_*`; none is left, and
//!   `shared-mutable` forbids the statics one would need) is exercised by
//!   at least one test. Matching is against test *token streams*
//!   (integration-test files and `#[cfg(test)]` modules), not raw text, so
//!   doc prose never satisfies the obligation. A switch function is also
//!   satisfied by a test driving a `*Mode`/`*Impl` type defined in the
//!   same file.
//! * **panic-path** — `.unwrap()`, `.expect()` and non-literal indexing
//!   reachable from an actor dispatch root (`on_message` / `on_timer` /
//!   `on_start`, plus the engine's `run_impl` event loop) via the by-name
//!   call graph of the root's *module* — `src/<m>.rs` or `src/<m>/mod.rs`
//!   together with every non-test file under `src/<m>/`, so splitting an
//!   actor into a directory takes nothing out of checking — must carry
//!   `// lint:allow(panic-path): <why>` with a **non-empty** justification,
//!   or be refactored into a checked accessor. A bare marker without a
//!   justification is itself a finding.
//! * **unsafe-confinement** — `unsafe` appears only inside `mod simd` of
//!   `gf.rs` (the `erasure::gf::simd` PSHUFB kernels). Everywhere else the
//!   crates `forbid(unsafe_code)`, but that attribute is one edit away
//!   from being weakened; this rule notices the edit.
//! * **registry-sync** — the dense kind registry stays coherent:
//!   `KINDS` labels are unique, `kind_id` maps every enum variant exactly
//!   once onto ids that exactly cover `0..KINDS.len()`, and per-kind
//!   dense arrays — in any file that references the registry, whatever
//!   their element type — are sized from `registry.len()`, never a
//!   hand-written integer.
//!
//! A finding where the hazard is deliberate and safe is suppressed with
//! `// lint:allow(<rule>)` on the same line, the preceding line, or — when
//! the finding sits on an item behind attributes — the line above the
//! attribute block; `panic-path` also wants a justification after it.
//!
//! All rules degrade safely on code the model cannot parse: no finding is
//! ever produced from a construct rustlite does not understand, and the
//! lexer never panics (see the robustness proptest in
//! `tests/analysis_fixtures.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::rustlite::{
    self, allows_by_line, bracket_range, find_allow, ident, punct, FileModel, Spanned, Tok,
};

/// The rule set: `(name, what it enforces)`, the seven token rules first.
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
    (
        "exhaustive-dispatch",
        "every Message enum variant is handled by some actor's on_message dispatch match \
         (union across actors; per-actor catch-alls hide silently dropped kinds)",
    ),
    (
        "mode-parity",
        "every protocol mode type (*Mode/*Impl, e.g. ProtocolMode) and switch fn \
         (set_reference_*/set_batched_*/use_reference_*) is exercised by at least one test's \
         token stream",
    ),
    (
        "panic-path",
        "unwrap/expect/non-literal indexing reachable from actor dispatch roots must carry \
         lint:allow(panic-path) with a justification, or be refactored",
    ),
    (
        "unsafe-confinement",
        "unsafe code appears only inside mod simd of gf.rs (erasure::gf::simd)",
    ),
    (
        "registry-sync",
        "KINDS labels unique, kind_id total and onto 0..KINDS.len(), dense per-kind arrays \
         in registry-referencing files sized from the registry length",
    ),
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Rule name (a key of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the violation; for a token rule,
    /// the offending source line, trimmed.
    pub message: String,
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
            self.message
        )
    }
}

impl Finding {
    /// This finding as one JSON object (hand-rolled; the workspace builds
    /// offline with no serde).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":"{}","line":{},"col":{},"rule":"{}","message":"{}"}}"#,
            json_escape(&self.file.display().to_string()),
            self.line,
            self.col,
            self.rule,
            json_escape(&self.message)
        )
    }
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
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
// Workspace model
// ---------------------------------------------------------------------------

/// Whether `path` lies under a directory named `tests`: test code, to the
/// semantic rules and to the mutation scanner alike.
pub(crate) fn under_tests_dir(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "tests")
}

/// Whether `path` is a package's integration test: under a `tests`
/// directory that is not inside `src/`. The token rules skip these
/// files; `src/**/tests/` they check like any other.
fn is_package_test(path: &Path) -> bool {
    path.components()
        .map(|c| c.as_os_str())
        .take_while(|c| *c != "src")
        .any(|c| c == "tests")
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

/// One source file: raw text plus the parsed [`FileModel`].
pub struct SrcFile {
    /// Path, as loaded (workspace-relative when loaded via [`Workspace::load`]).
    pub path: PathBuf,
    /// Raw source text.
    pub src: String,
    /// The parsed model.
    pub model: FileModel,
    /// Whether the file is an integration-test file (under a `tests/`
    /// directory) — its whole token stream counts as test code.
    pub is_test_file: bool,
}

impl SrcFile {
    fn new(path: PathBuf, src: String) -> SrcFile {
        let is_test_file = under_tests_dir(&path);
        let model = FileModel::parse(&src);
        SrcFile {
            path,
            src,
            model,
            is_test_file,
        }
    }

    /// Whether token `i` is test code (an integration-test file, or inside
    /// a `#[cfg(test)]` module).
    fn tok_in_test(&self, i: usize) -> bool {
        self.is_test_file || self.model.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }
}

/// A set of parsed source files the rules run over.
pub struct Workspace {
    /// The files, in deterministic (path-sorted) order.
    pub files: Vec<SrcFile>,
}

impl Workspace {
    /// Loads the real workspace layout: `crates/*/src/**/*.rs`,
    /// `crates/*/tests/**/*.rs` and the root package's `src/**/*.rs` under
    /// `root`, skipping `vendor/` and any `fixtures/` directory. When
    /// `root` has no `crates/` directory (rule fixtures), every `.rs`
    /// under `root` is loaded instead, with files under any `tests/`
    /// component treated as test files.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let crates = root.join("crates");
        let mut files = Vec::new();
        if crates.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                for sub in ["src", "tests"] {
                    let d = dir.join(sub);
                    if d.is_dir() {
                        rs_files(&d, &mut files)?;
                    }
                }
            }
            if root.join("src").is_dir() {
                rs_files(&root.join("src"), &mut files)?;
            }
            // Fixture corpora are deliberately-bad *data*, not workspace
            // code (the analyzer's own tests feed them back through
            // `Workspace::load` on their private roots).
            files.retain(|p| {
                p.strip_prefix(root)
                    .unwrap_or(p)
                    .components()
                    .all(|c| c.as_os_str() != "fixtures")
            });
        } else {
            rs_files(root, &mut files)?;
        }
        let mut out = Vec::new();
        for path in files {
            let src = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(SrcFile::new(rel, src));
        }
        Ok(Workspace { files: out })
    }

    /// Builds a workspace from in-memory sources (tests).
    pub fn from_sources(sources: Vec<(PathBuf, String)>) -> Workspace {
        Workspace {
            files: sources
                .into_iter()
                .map(|(p, s)| SrcFile::new(p, s))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

/// Whether an identifier looks like a numeric literal (starts with a
/// digit; covers `0`, `42usize`, `0xff`).
fn is_numeric(id: &str) -> bool {
    id.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Variant names of the first `enum <name>` in the file, with the line of
/// each variant. Variants are identifiers at brace-depth 0 inside the
/// enum body that start an item (first token, or right after a depth-0
/// `,` or an attribute's closing `]`).
fn enum_variants(f: &SrcFile, name: &str) -> Vec<(String, usize)> {
    let toks = &f.model.toks;
    let Some(kw) = (0..toks.len()).find(|&i| {
        ident(toks, i) == Some("enum") && ident(toks, i + 1) == Some(name) && !f.tok_in_test(i)
    }) else {
        return Vec::new();
    };
    let Some(open) = (kw..toks.len()).find(|&j| punct(toks, j) == Some('{')) else {
        return Vec::new();
    };
    let end = rustlite::brace_range(toks, open);
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut at_item_start = true;
    let mut j = open + 1;
    while j + 1 < end {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                depth += 1;
                j += 1;
            }
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                // An attribute's `]` at depth 0 still precedes the variant.
                at_item_start = depth == 0 && toks[j].tok == Tok::Punct(']') && at_item_start;
                j += 1;
            }
            Tok::Punct(',') if depth == 0 => {
                at_item_start = true;
                j += 1;
            }
            Tok::Punct('#') if depth == 0 => j += 1, // attribute start
            Tok::Ident(id) if depth == 0 && at_item_start => {
                out.push((id.clone(), toks[j].line));
                at_item_start = false;
                j += 1;
            }
            _ => j += 1,
        }
    }
    out
}

/// `Enum::Variant` references in a token range: every ident directly
/// preceded by `<enum_name> ::`.
fn qualified_refs(toks: &[Spanned], range: (usize, usize), enum_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        if let Some(v) = ident(toks, i) {
            if rustlite::preceded_by(toks, i, enum_name) {
                out.push(v.to_string());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The token rules
// ---------------------------------------------------------------------------

fn rule_tokens(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in ws.files.iter().filter(|f| !is_package_test(&f.path)) {
        let lines: Vec<&str> = f.src.lines().collect();
        out.extend(crate::lint::scan_tokens(&f.model.toks, &lines, &f.path));
    }
}

// ---------------------------------------------------------------------------
// Rule 1: exhaustive-dispatch
// ---------------------------------------------------------------------------

fn rule_exhaustive_dispatch(ws: &Workspace, out: &mut Vec<Finding>) {
    // The dispatched enum and where it lives.
    let Some((enum_file, variants)) = ws.files.iter().find_map(|f| {
        let v = enum_variants(f, "Message");
        (!v.is_empty()).then_some((f, v))
    }) else {
        return;
    };
    // Union of `Message::X` patterns across every actor's on_message.
    let mut handled: BTreeSet<String> = BTreeSet::new();
    let mut saw_dispatch = false;
    for f in &ws.files {
        for func in f.model.fns.iter().filter(|f| !f.in_test) {
            if func.name != "on_message" {
                continue;
            }
            let Some(body) = func.body else { continue };
            for m in f.model.matches_in(body) {
                for arm in &m.arms {
                    let refs = qualified_refs(&f.model.toks, arm.pat, "Message");
                    saw_dispatch |= !refs.is_empty();
                    handled.extend(refs);
                }
            }
        }
    }
    if !saw_dispatch {
        // No actor dispatch in this workspace at all — nothing to check
        // (the fixture-less degenerate case, not a violation).
        return;
    }
    for (variant, line) in variants {
        if !handled.contains(&variant) {
            out.push(Finding {
                file: enum_file.path.clone(),
                line,
                col: 1,
                rule: "exhaustive-dispatch",
                message: format!(
                    "Message::{variant} is not handled by any actor's on_message dispatch; \
                     a send of this kind would hit a catch-all and be silently dropped"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: mode-parity
// ---------------------------------------------------------------------------

fn is_switch_fn(name: &str) -> bool {
    name.starts_with("set_reference_")
        || name.starts_with("set_batched_")
        || name.starts_with("use_reference_")
}

fn is_mode_type(name: &str) -> bool {
    (name.ends_with("Mode") || name.ends_with("Impl")) && name.len() > 4
}

fn rule_mode_parity(ws: &Workspace, out: &mut Vec<Finding>) {
    // Every identifier that appears anywhere in test code.
    let mut test_idents: BTreeSet<&str> = BTreeSet::new();
    for f in &ws.files {
        for (i, sp) in f.model.toks.iter().enumerate() {
            if let Tok::Ident(id) = &sp.tok {
                if f.tok_in_test(i) {
                    test_idents.insert(id.as_str());
                }
            }
        }
    }
    for f in &ws.files {
        if f.is_test_file {
            continue;
        }
        // Mode types defined in this file (enum or struct).
        let toks = &f.model.toks;
        let mut local_types: Vec<(String, usize)> = Vec::new();
        for i in 0..toks.len() {
            if matches!(ident(toks, i), Some("enum") | Some("struct")) && !f.tok_in_test(i) {
                if let Some(name) = ident(toks, i + 1) {
                    if is_mode_type(name) {
                        local_types.push((name.to_string(), toks[i].line));
                    }
                }
            }
        }
        let type_covered = local_types
            .iter()
            .any(|(name, _)| test_idents.contains(name.as_str()));
        // Each mode type is itself an obligation.
        for (name, line) in &local_types {
            if !test_idents.contains(name.as_str()) {
                out.push(Finding {
                    file: f.path.clone(),
                    line: *line,
                    col: 1,
                    rule: "mode-parity",
                    message: format!(
                        "mode type `{name}` is not exercised by any test; add a differential \
                         test driving it against the default implementation"
                    ),
                });
            }
        }
        // Each switch function: direct test reference, or a tested mode
        // type from the same file.
        for func in f.model.fns.iter().filter(|f| !f.in_test) {
            if is_switch_fn(&func.name)
                && !test_idents.contains(func.name.as_str())
                && !type_covered
            {
                out.push(Finding {
                    file: f.path.clone(),
                    line: func.line,
                    col: 1,
                    rule: "mode-parity",
                    message: format!(
                        "mode switch `{}` is not exercised by any test (no test references it \
                         or a *Mode/*Impl type from its file); the reference path it gates is \
                         untested",
                        func.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: panic-path
// ---------------------------------------------------------------------------

/// Dispatch roots: the actor handler trait methods plus the engine's
/// event loop, which is the same always-on hot path.
const DISPATCH_ROOTS: &[&str] = &["on_message", "on_timer", "on_start", "run_impl"];

/// Keywords that can directly precede `[` without forming an index
/// expression (`for x in [..]`, `return [..]`, `= [1, 2]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "in", "if", "else", "return", "match", "let", "mut", "move", "break", "continue", "loop",
    "while", "do", "yield", "as",
];

/// The module unit a product file belongs to: `src/<m>.rs` or
/// `src/<m>/mod.rs` plus every file under `src/<m>/` are one unit, named
/// `src/<m>`, however deep the file sits. A file under no such directory
/// is a unit of its own.
fn unit_of(path: &Path, product: &BTreeSet<&Path>) -> PathBuf {
    let is_module = |dir: &&Path| {
        product.contains(dir.with_extension("rs").as_path())
            || product.contains(dir.join("mod.rs").as_path())
    };
    // Ancestors come innermost first; the outermost module directory wins
    // (`fs/store/x.rs` belongs to `fs`).
    let outermost = path.ancestors().skip(1).filter(is_module).last();
    outermost.map_or_else(|| path.with_extension(""), Path::to_path_buf)
}

fn rule_panic_path(ws: &Workspace, out: &mut Vec<Finding>) {
    let product: Vec<&SrcFile> = ws.files.iter().filter(|f| !f.is_test_file).collect();
    let paths: BTreeSet<&Path> = product.iter().map(|f| f.path.as_path()).collect();
    let mut units: BTreeMap<PathBuf, Vec<&SrcFile>> = BTreeMap::new();
    for f in product {
        units.entry(unit_of(&f.path, &paths)).or_default().push(f);
    }
    // One by-name call graph per unit; a unit without a dispatch root
    // reaches nothing.
    for files in units.values() {
        let models: Vec<&FileModel> = files.iter().map(|f| &f.model).collect();
        let mut seen: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
        for (file, idx) in rustlite::reachable_from(&models, DISPATCH_ROOTS) {
            let f = files[file];
            let toks = &f.model.toks;
            let func = &f.model.fns[idx];
            let Some((start, end)) = func.body else {
                continue;
            };
            for i in start..end.min(toks.len()) {
                let sp = &toks[i];
                if !seen.insert((file, sp.line, sp.col)) {
                    continue;
                }
                match &sp.tok {
                    Tok::Ident(id)
                        if (id == "unwrap" || id == "expect")
                            && punct(toks, i + 1) == Some('(')
                            && punct(toks, i.wrapping_sub(1)) == Some('.') =>
                    {
                        out.push(Finding {
                            file: f.path.clone(),
                            line: sp.line,
                            col: sp.col,
                            rule: "panic-path",
                            message: format!(
                                "`.{id}()` reachable from actor dispatch (via `{}`); justify \
                                 with `// lint:allow(panic-path): <why>` or refactor to a \
                                 checked accessor",
                                func.name
                            ),
                        });
                    }
                    Tok::Punct('[') => {
                        // Index expression: `expr[...]` — previous token is a
                        // non-keyword ident, `)` or `]`.
                        let is_index = match toks.get(i.wrapping_sub(1)).map(|s| &s.tok) {
                            Some(Tok::Ident(prev)) => {
                                !NON_INDEX_KEYWORDS.contains(&prev.as_str()) && !is_numeric(prev)
                            }
                            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
                            _ => false,
                        };
                        if !is_index {
                            continue;
                        }
                        let close = bracket_range(toks, i);
                        let content = &toks[i + 1..close.saturating_sub(1).min(toks.len())];
                        let idents: Vec<&str> = content
                            .iter()
                            .filter_map(|s| match &s.tok {
                                Tok::Ident(id) => Some(id.as_str()),
                                _ => None,
                            })
                            .collect();
                        // Literal-only indexes (`bits[0]`) cannot be wrong at
                        // runtime in a way tests would not catch immediately;
                        // empty/whole-range slices (`x[..]`) cannot panic.
                        if idents.is_empty() || idents.iter().all(|id| is_numeric(id)) {
                            continue;
                        }
                        out.push(Finding {
                            file: f.path.clone(),
                            line: sp.line,
                            col: sp.col,
                            rule: "panic-path",
                            message: format!(
                                "unchecked index reachable from actor dispatch (via `{}`); \
                                 justify with `// lint:allow(panic-path): <why>` or use a \
                                 checked accessor",
                                func.name
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: unsafe-confinement
// ---------------------------------------------------------------------------

fn rule_unsafe_confinement(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        let toks = &f.model.toks;
        let is_gf = f.path.file_name().is_some_and(|n| n == "gf.rs");
        // `mod simd { … }` ranges, only meaningful in gf.rs.
        let simd_ranges: Vec<(usize, usize)> = (0..toks.len())
            .filter(|&i| {
                ident(toks, i) == Some("mod")
                    && ident(toks, i + 1) == Some("simd")
                    && punct(toks, i + 2) == Some('{')
            })
            .map(|i| (i + 2, rustlite::brace_range(toks, i + 2)))
            .collect();
        for i in 0..toks.len() {
            if ident(toks, i) != Some("unsafe") {
                continue;
            }
            let confined = is_gf && simd_ranges.iter().any(|&(s, e)| i >= s && i < e);
            if !confined {
                out.push(Finding {
                    file: f.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "unsafe-confinement",
                    message: "`unsafe` outside erasure::gf::simd; all other crates must stay \
                              forbid(unsafe_code)"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: registry-sync
// ---------------------------------------------------------------------------

/// String literals inside the `&[ … ]` initializer following the first
/// `KINDS` occurrence in the *raw* source (the stripped token stream
/// blanks strings, so labels must be read from the original text).
fn kinds_labels(src: &str) -> Option<(Vec<String>, usize)> {
    let at = src.find("KINDS")?;
    // Skip the type annotation (`: &'static [&'static str]`) — the
    // initializer's bracket is the first one after the `=`.
    let eq = at + src[at..].find('=')?;
    let open = eq + src[eq..].find('[')?;
    let line = src[..open].matches('\n').count() + 1;
    let mut labels = Vec::new();
    let mut chars = src[open + 1..].chars();
    while let Some(c) = chars.next() {
        match c {
            ']' => return Some((labels, line)),
            '"' => {
                let mut label = String::new();
                for c in chars.by_ref() {
                    if c == '"' {
                        break;
                    }
                    label.push(c);
                }
                labels.push(label);
            }
            _ => {}
        }
    }
    Some((labels, line))
}

fn rule_registry_sync(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        let toks = &f.model.toks;
        let has_kinds = (0..toks.len())
            .any(|i| ident(toks, i) == Some("KINDS") && punct(toks, i + 1) == Some(':'));
        if has_kinds {
            registry_file_checks(f, out);
        }
        // Dense per-kind arrays: any file that touches the kind registry
        // (reads `KINDS` or a `registry` binding) must size every
        // repeat-form vec! from the registry length, not a hand-written
        // integer. Gating on the registry reference rather than one
        // blessed element type keeps the rule covering whatever per-kind
        // arrays the metrics layer grows next.
        let references_registry = toks
            .iter()
            .any(|s| matches!(&s.tok, Tok::Ident(id) if id == "KINDS" || id == "registry"));
        if !references_registry {
            continue;
        }
        for i in 0..toks.len() {
            if ident(toks, i) != Some("vec")
                || punct(toks, i + 1) != Some('!')
                || punct(toks, i + 2) != Some('[')
                || f.tok_in_test(i)
            {
                continue;
            }
            let close = bracket_range(toks, i + 2);
            // Repeat form: `vec![elem; size]` — the `;` at bracket depth 1.
            let mut depth = 0isize;
            let mut semi = None;
            for j in i + 2..close {
                match punct(toks, j) {
                    Some('[') | Some('(') | Some('{') => depth += 1,
                    Some(']') | Some(')') | Some('}') => depth -= 1,
                    Some(';') if depth == 1 => {
                        semi = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(semi) = semi else { continue };
            let size_idents: Vec<&str> = toks[semi + 1..close.saturating_sub(1)]
                .iter()
                .filter_map(|s| match &s.tok {
                    Tok::Ident(id) => Some(id.as_str()),
                    _ => None,
                })
                .collect();
            if !size_idents.is_empty() && size_idents.iter().all(|id| is_numeric(id)) {
                out.push(Finding {
                    file: f.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "registry-sync",
                    message: "dense per-kind array sized by an integer literal; size it from \
                              the kind registry (`registry.len()`) so a new message kind cannot \
                              desynchronize it"
                        .to_string(),
                });
            }
        }
    }
}

/// Checks internal coherence of the file defining `KINDS`: unique labels,
/// and a `kind_id` that maps every `Message` variant exactly once onto
/// ids exactly covering `0..KINDS.len()`.
fn registry_file_checks(f: &SrcFile, out: &mut Vec<Finding>) {
    let Some((labels, kinds_line)) = kinds_labels(&f.src) else {
        return;
    };
    if labels.is_empty() {
        return;
    }
    let mut seen = BTreeSet::new();
    for label in &labels {
        if !seen.insert(label) {
            out.push(Finding {
                file: f.path.clone(),
                line: kinds_line,
                col: 1,
                rule: "registry-sync",
                message: format!("duplicate KINDS label `{label}`"),
            });
        }
    }
    let n = labels.len();
    let variants = enum_variants(f, "Message");
    let Some(kind_id) = f.model.fn_named("kind_id") else {
        return;
    };
    let Some(body) = kind_id.body else { return };
    let Some(m) = f.model.matches_in(body).into_iter().next() else {
        return;
    };
    // variant -> arms that map it (a `|` pattern maps several variants to
    // one id; an arm that names no id but calls `kind_id` delegates — a
    // `Batch` reports as what it carries — and maps its variants onto ids
    // the other arms answer for).
    let mut mapped: BTreeMap<String, usize> = BTreeMap::new();
    let mut ids_used: BTreeSet<usize> = BTreeSet::new();
    for arm in &m.arms {
        let mut vs = qualified_refs(&f.model.toks, arm.pat, "Message");
        vs.extend(qualified_refs(&f.model.toks, arm.pat, "Self"));
        let body = arm.body.0..arm.body.1.min(f.model.toks.len());
        let id = body
            .clone()
            .find_map(|j| ident(&f.model.toks, j).and_then(|t| t.parse::<usize>().ok()));
        let delegates = || {
            body.clone()
                .any(|j| ident(&f.model.toks, j) == Some("kind_id"))
        };
        if id.is_none() && !delegates() {
            continue;
        }
        for v in vs {
            *mapped.entry(v).or_default() += 1;
        }
        let Some(id) = id else { continue };
        ids_used.insert(id);
        if id >= n {
            out.push(Finding {
                file: f.path.clone(),
                line: f.model.toks[arm.pat.0].line,
                col: f.model.toks[arm.pat.0].col,
                rule: "registry-sync",
                message: format!("kind_id {id} is out of range for KINDS (len {n})"),
            });
        }
    }
    if mapped.is_empty() {
        return; // kind_id not written as a literal match; nothing checkable
    }
    for (variant, line) in &variants {
        match mapped.get(variant).copied().unwrap_or(0) {
            0 => out.push(Finding {
                file: f.path.clone(),
                line: *line,
                col: 1,
                rule: "registry-sync",
                message: format!("Message::{variant} has no kind_id mapping"),
            }),
            1 => {}
            _ => out.push(Finding {
                file: f.path.clone(),
                line: *line,
                col: 1,
                rule: "registry-sync",
                message: format!("Message::{variant} is mapped by more than one kind_id arm"),
            }),
        }
    }
    if !variants.is_empty() {
        for (i, label) in labels.iter().enumerate() {
            if !ids_used.contains(&i) {
                out.push(Finding {
                    file: f.path.clone(),
                    line: kinds_line,
                    col: 1,
                    rule: "registry-sync",
                    message: format!(
                        "KINDS[{i}] = `{label}` is produced by no kind_id arm; the label is \
                         dead and the dense arrays misattribute everything after it"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs every rule over the workspace, applies `lint:allow` suppression
/// and returns the surviving findings, path/line sorted.
///
/// `panic-path` findings require a marker **with a justification**: a
/// bare `// lint:allow(panic-path)` converts the finding into a
/// missing-justification finding rather than suppressing it.
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    let mut raw = Vec::new();
    rule_tokens(ws, &mut raw);
    rule_exhaustive_dispatch(ws, &mut raw);
    rule_mode_parity(ws, &mut raw);
    rule_panic_path(ws, &mut raw);
    rule_unsafe_confinement(ws, &mut raw);
    rule_registry_sync(ws, &mut raw);

    let mut out = Vec::new();
    for f in &ws.files {
        let allows = allows_by_line(&f.src);
        let lines: Vec<&str> = f.src.lines().collect();
        for finding in raw.iter().filter(|x| x.file == f.path) {
            match find_allow(&allows, &lines, finding.line, finding.rule) {
                None => out.push(finding.clone()),
                Some(a) if finding.rule == "panic-path" && a.justification.is_empty() => {
                    out.push(Finding {
                        message: "lint:allow(panic-path) requires a one-line justification \
                                  after the marker, e.g. `// lint:allow(panic-path): entry \
                                  inserted by the put path above`"
                            .to_string(),
                        ..finding.clone()
                    });
                }
                Some(_) => {}
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// Loads the workspace at `root` and runs [`analyze`].
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(analyze(&Workspace::load(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| (PathBuf::from(p), s.to_string()))
                .collect(),
        )
    }

    fn rules_hit(ws: &Workspace) -> Vec<&'static str> {
        analyze(ws).into_iter().map(|f| f.rule).collect()
    }

    const ENUM: &str = "pub enum Message { Put { x: u8 }, Get(u8), Ack }\n";

    #[test]
    fn dispatch_union_across_actors() {
        // Two actors, each partial, union complete: clean.
        let complete = ws(&[
            ("messages.rs", ENUM),
            (
                "a.rs",
                "fn on_message(&mut self, msg: Message) { match msg { Message::Put { x } => go(x), Message::Ack => ack(), _ => {} } }",
            ),
            (
                "b.rs",
                "fn on_message(&mut self, msg: Message) { match msg { Message::Get(g) => go(g), _ => {} } }",
            ),
        ]);
        assert!(rules_hit(&complete).is_empty());

        // Nobody handles Get: finding names the variant.
        let partial = ws(&[
            ("messages.rs", ENUM),
            (
                "a.rs",
                "fn on_message(&mut self, msg: Message) { match msg { Message::Put { x } => go(x), Message::Ack => ack(), _ => {} } }",
            ),
        ]);
        let fs = analyze(&partial);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "exhaustive-dispatch");
        assert!(fs[0].message.contains("Message::Get"));
    }

    #[test]
    fn constructions_in_arm_bodies_do_not_count_as_handled() {
        // The arm body *sends* Message::Get but never matches it.
        let w = ws(&[
            ("messages.rs", "pub enum Message { Put, Get }\n"),
            (
                "a.rs",
                "fn on_message(&mut self, msg: Message) { match msg { Message::Put => send(Message::Get), _ => {} } }",
            ),
        ]);
        // Pattern-only scanning would be fooled by body constructions if we
        // scanned the whole arm; prove we only read patterns.
        let fs = analyze(&w);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("Message::Get"));
    }

    #[test]
    fn mode_parity_needs_a_test_reference() {
        let sw = "pub fn set_reference_fast_mode(on: bool) { FLAG.store(on); }\n";
        // Untested: finding.
        let w = ws(&[("m.rs", sw)]);
        assert_eq!(rules_hit(&w), vec!["mode-parity"]);
        // Referenced from an integration-test file: clean.
        let w = ws(&[
            ("m.rs", sw),
            (
                "tests/diff.rs",
                "fn t() { set_reference_fast_mode(true); }\n",
            ),
        ]);
        assert!(rules_hit(&w).is_empty());
        // Referenced only from a doc comment: still a finding.
        let w = ws(&[
            ("m.rs", sw),
            (
                "tests/diff.rs",
                "// set_reference_fast_mode is great\nfn t() {}\n",
            ),
        ]);
        assert_eq!(rules_hit(&w), vec!["mode-parity"]);
        // A cfg(test) module in the same crate also counts.
        let w = ws(&[(
            "m.rs",
            "pub fn set_reference_fast_mode(on: bool) {}\n#[cfg(test)]\nmod tests { fn t() { set_reference_fast_mode(true); } }\n",
        )]);
        assert!(rules_hit(&w).is_empty());
    }

    #[test]
    fn mode_type_in_tests_covers_same_file_switches() {
        let w = ws(&[
            (
                "m.rs",
                "pub fn set_reference_fast_mode(on: bool) {}\npub struct FastMode { pub on: bool }\n",
            ),
            ("tests/diff.rs", "fn t() { let m = FastMode { on: true }; }\n"),
        ]);
        assert!(rules_hit(&w).is_empty());
        // An untested mode type is its own finding.
        let w = ws(&[("m.rs", "pub enum CodecGenImpl { A, B }\n")]);
        assert_eq!(rules_hit(&w), vec!["mode-parity"]);
    }

    #[test]
    fn panic_path_flags_reachable_sites_only() {
        // unwrap inside a helper reachable from on_message: finding.
        let w = ws(&[(
            "actor.rs",
            "fn on_message(&mut self) { self.step(); }\nfn step(&mut self) { self.map.get(&k).unwrap(); }\n",
        )]);
        let fs = analyze(&w);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "panic-path");
        assert!(fs[0].message.contains("via `step`"));

        // Same helper, not reachable from any root: clean.
        let w = ws(&[(
            "util.rs",
            "fn helper(&mut self) { self.map.get(&k).unwrap(); }\n",
        )]);
        assert!(rules_hit(&w).is_empty());

        // Justified marker suppresses; bare marker does not.
        let w = ws(&[(
            "actor.rs",
            "fn on_message(&mut self) {\n    // lint:allow(panic-path): entry inserted above\n    self.m.get(&k).expect(\"x\");\n}\n",
        )]);
        assert!(rules_hit(&w).is_empty());
        let w = ws(&[(
            "actor.rs",
            "fn on_message(&mut self) {\n    // lint:allow(panic-path)\n    self.m.get(&k).expect(\"x\");\n}\n",
        )]);
        let fs = analyze(&w);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("justification"));
    }

    #[test]
    fn panic_path_walks_a_module_directory_as_one_unit() {
        let root = "fn on_message(&mut self) { self.lookup(); }\n";
        let helper = "fn lookup(&self) -> u8 { self.slots[self.at] }\n";
        // `actor.rs` + `actor/`, and `actor/mod.rs` + the rest of `actor/`,
        // however deep: the finding is in the file that holds the site.
        for (root_file, helper_file) in [
            ("src/actor.rs", "src/actor/helper.rs"),
            ("src/actor/mod.rs", "src/actor/helper.rs"),
            ("src/actor/mod.rs", "src/actor/store/helper.rs"),
        ] {
            let fs = analyze(&ws(&[(root_file, root), (helper_file, helper)]));
            assert_eq!(fs.len(), 1, "{root_file} + {helper_file}: {fs:?}");
            assert_eq!(fs[0].file, Path::new(helper_file));
            assert!(fs[0].message.contains("via `lookup`"));
        }
        // A directory is a unit only through its module file: a sibling
        // directory, a same-named helper elsewhere and a file beside the
        // root are each on their own, and have no root.
        for stray in [
            "src/other/helper.rs",
            "src/helper.rs",
            "lib/actor/helper.rs",
        ] {
            assert!(rules_hit(&ws(&[("src/actor.rs", root), (stray, helper)])).is_empty());
        }
        // A `tests/` directory inside the unit is test code: neither its
        // sites nor its roots count.
        let driver = "fn on_message(&mut self) { self.inbox[self.n].unwrap(); self.lookup(); }\n";
        let w = ws(&[
            ("src/actor/tests/mod.rs", driver),
            ("src/actor/helper.rs", helper),
        ]);
        assert!(rules_hit(&w).is_empty());
    }

    #[test]
    fn panic_path_indexing() {
        // Map index with a non-literal key: finding.
        let w = ws(&[(
            "actor.rs",
            "fn on_timer(&mut self) { let v = self.puts[&ov]; }\n",
        )]);
        assert_eq!(rules_hit(&w), vec!["panic-path"]);
        // Literal index and array literals: clean.
        let w = ws(&[(
            "actor.rs",
            "fn on_timer(&mut self) { let v = self.bits[0]; let a = [1, 2]; for x in [3, 4] {} }\n",
        )]);
        assert!(rules_hit(&w).is_empty());
    }

    #[test]
    fn unsafe_confined_to_gf_simd() {
        let confined =
            "mod simd {\n    pub fn f() { unsafe { core::arch::x86_64::_mm_pause() } }\n}\n";
        assert!(rules_hit(&ws(&[("gf.rs", confined)])).is_empty());
        // Same code in another file: finding.
        assert_eq!(
            rules_hit(&ws(&[("codec.rs", confined)])),
            vec!["unsafe-confinement"]
        );
        // unsafe in gf.rs but outside mod simd: finding.
        let outside = "pub fn f() { unsafe { core::arch::x86_64::_mm_pause() } }\n";
        assert_eq!(
            rules_hit(&ws(&[("gf.rs", outside)])),
            vec!["unsafe-confinement"]
        );
    }

    const REGISTRY_OK: &str = r#"
pub enum Message { Put, PutBatch, Get }
impl Payload for Message {
    const KINDS: &'static [&'static str] = &["PutReq", "GetReq"];
    fn kind_id(&self) -> usize {
        match self {
            Message::Put { .. } | Message::PutBatch { .. } => 0,
            Message::Get { .. } => 1,
        }
    }
}
"#;

    #[test]
    fn registry_sync_accepts_shared_batch_ids() {
        assert!(rules_hit(&ws(&[("messages.rs", REGISTRY_OK)])).is_empty());
    }

    #[test]
    fn registry_sync_accepts_an_arm_that_delegates_to_its_entries() {
        let arm = |body: &str| {
            let src = REGISTRY_OK
                .replace("Get }", "Get, Batch(Vec<Message>) }")
                .replace(
                    "            Message::Get { .. } => 1,\n",
                    &format!("            Message::Get {{ .. }} => 1,\n            Message::Batch(entries) => {body},\n"),
                );
            analyze(&ws(&[("messages.rs", &src)]))
        };
        assert!(arm("entries.first().expect(\"never empty\").kind_id()").is_empty());
        // An arm that neither names an id nor asks its entries maps nothing.
        let fs = arm("entries.len()");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("Message::Batch has no kind_id"));
    }

    #[test]
    fn registry_sync_catches_unmapped_variant_and_dead_label() {
        let src = r#"
pub enum Message { Put, Get, Del }
impl Payload for Message {
    const KINDS: &'static [&'static str] = &["PutReq", "GetReq", "DelReq"];
    fn kind_id(&self) -> usize {
        match self {
            Message::Put { .. } => 0,
            Message::Get { .. } => 1,
        }
    }
}
"#;
        let fs = analyze(&ws(&[("messages.rs", src)]));
        let msgs: Vec<&str> = fs.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs
            .iter()
            .any(|m| m.contains("Message::Del has no kind_id")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("`DelReq` is produced by no kind_id arm")));
    }

    #[test]
    fn registry_sync_catches_duplicate_label_and_out_of_range_id() {
        let src = r#"
pub enum Message { Put, Get }
impl Payload for Message {
    const KINDS: &'static [&'static str] = &["PutReq", "PutReq"];
    fn kind_id(&self) -> usize {
        match self {
            Message::Put { .. } => 0,
            Message::Get { .. } => 7,
        }
    }
}
"#;
        let fs = analyze(&ws(&[("messages.rs", src)]));
        let msgs: Vec<&str> = fs.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("duplicate KINDS label")));
        assert!(msgs.iter().any(|m| m.contains("out of range")));
    }

    #[test]
    fn registry_sync_dense_array_sizing() {
        // Element type is irrelevant: any literal-sized repeat vec! in a
        // registry-referencing file drifts.
        let bad = "fn new(registry: &[&str]) -> Vec<u64> { let s = vec![0u64; registry.len()]; let d = vec![DropStats::default(); 22]; d }\n";
        assert_eq!(
            rules_hit(&ws(&[("metrics.rs", bad)])),
            vec!["registry-sync"]
        );
        let good = "struct M { s: Vec<KindStats> }\nfn new(registry: &[&str]) -> M { M { s: vec![KindStats::default(); registry.len()] } }\n";
        assert!(rules_hit(&ws(&[("metrics.rs", good)])).is_empty());
        // Non-repeat vec!, and literal vec! in a file that never touches
        // the registry: out of scope.
        let unrelated = "fn f() { let v = vec![1, 2, 3]; let w = vec![0; 4]; }\n";
        assert!(rules_hit(&ws(&[("other.rs", unrelated)])).is_empty());
    }
}
