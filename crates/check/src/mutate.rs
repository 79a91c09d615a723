//! Mutation-testing harness: measure whether the `check` invariants
//! would actually kill a protocol bug.
//!
//! The explorer's invariant registry is a *claim* until something
//! adversarial tests it. This module makes the claim a number: it
//! applies systematic, protocol-targeted source mutations in a scratch
//! copy of the workspace, reruns the explorer's [`SWEEP_SUITES`] against
//! each mutant, and classifies the result:
//!
//! * **killed (invariant)** — the sweep aborts with `INVARIANT VIOLATED`:
//!   the mutation produced a run one of the invariants caught.
//! * **killed (digest)** — the sweep stays green but its per-scenario
//!   digests differ from the unmutated baseline: the differential check
//!   caught a behavior change the invariants alone would miss.
//! * **killed (crash)** — the mutant panicked mid-sweep; still detected.
//! * **survived** — sweep green, digests identical: a real gap in the
//!   invariant net, to be documented in DESIGN.md §6.
//!
//! # Mutation operators
//!
//! Seven operators, each aimed at a protocol decision the paper's
//! correctness argument leans on (sites are discovered by scanning the
//! *current* source, so they track refactors; the pinned CI set selects
//! stable `(operator, file, occurrence)` ids):
//!
//! | operator | what it does |
//! |---|---|
//! | `quorum-off-by-one` | `distinct >= threshold` → `distinct + 1 >= threshold`: acks one fragment early |
//! | `cmp-flip` | flips a quorum/verification comparison (`==`→`!=`, `<`→`<=`, `>`→`>=`, `>=`→`>`) |
//! | `ack-drop` | deletes a `ctx.send(.. Reply ..)` / `self.outbox.post(.. Reply ..)` statement: an acknowledgment is never sent |
//! | `fragmask-flip` | `bits[w] \|= 1 << b` → `2 << b`: fragment-presence bitmask records the wrong bit |
//! | `timer-gen-skip` | `TimerSlab` retire stops bumping the generation: cancelled timers still fire |
//! | `compaction-skip` | the converged-version compactor never fires |
//! | `repair-threshold-skip` | the repair actor ignores `THRESHOLD_PCT` and only triggers once local parity is exhausted |
//!
//! Every mutant is one build and one explorer run of the
//! [`SWEEP_SUITES`], compared against the unmutated tree's digest.
//!
//! The build tree is copied once to `target/mutate/tree` and rebuilt
//! incrementally per mutant (shared `CARGO_TARGET_DIR`), so the dominant
//! cost is one release rebuild of the mutated crate per mutant.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
// lint:allow(wall-clock) — harness timing: measures real build/sweep cost
use std::time::{Duration, Instant};

/// The operator set: `(name, what it mutates)`.
pub const OPERATORS: &[(&str, &str)] = &[
    (
        "quorum-off-by-one",
        "threshold comparison acks one distinct fragment early (`x >= t` -> `x + 1 >= t`)",
    ),
    (
        "cmp-flip",
        "flips a protocol comparison: `.len() ==`->`!=`, `.len() <`->`<=`, `.len() >`->`>=`, \
         `>= usize::from(`->`>`, checksum `== self`->`!=`",
    ),
    (
        "ack-drop",
        "deletes a `ctx.send(.. *Reply ..)` (or `self.outbox.post(..)`) statement so an \
         acknowledgment is never sent",
    ),
    (
        "fragmask-flip",
        "FragMask::insert records the wrong bit (`1 << b` -> `2 << b`)",
    ),
    (
        "timer-gen-skip",
        "TimerSlab retire keeps the old generation, so cancelled timers still fire",
    ),
    (
        "compaction-skip",
        "converged-version compaction never fires (its `compact_superseded` call deleted)",
    ),
    (
        "repair-threshold-skip",
        "the repair actor ignores `THRESHOLD_PCT` and only triggers once local parity \
         is exhausted (`live * 100 < pct * target` -> `live < k`)",
    ),
];

/// What the operators scan, workspace-relative: a file, or a module
/// directory scanned as the one module it is (see [`scan_dir`]). Only
/// protocol-decision code: the actors, the protocol helpers, the timer slab
/// and the checksum — not tests, not the harness itself.
pub const TARGET_FILES: &[&str] = &[
    "crates/pahoehoe/src/proxy.rs",
    "crates/pahoehoe/src/fs",
    "crates/pahoehoe/src/kls.rs",
    "crates/pahoehoe/src/protocol.rs",
    "crates/simnet/src/queue.rs",
    "crates/erasure/src/checksum.rs",
    "crates/pahoehoe/src/repair.rs",
];

/// The explorer suites every mutant is swept with, in order:
/// `smoke-overwrite` puts every key twice, so every mutant meets
/// overwrites under every invariant (`compaction-progress` kills
/// `compaction-skip` there) and every digest line pins a non-zero
/// compacted-version count; `scale` is a
/// Zipf stream under batched rounds; `repair`'s digest lines fold the
/// `EV_REPAIR_*` counters and its redundancy-floor invariant kills
/// `repair-threshold-skip`.
pub const SWEEP_SUITES: [&str; 3] = ["smoke-overwrite", "scale", "repair"];

/// One concrete mutation: a byte-span replacement in one file.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Stable id: `operator:stem:occurrence` — the stem of the file, or
    /// of the module directory the file was scanned as part of.
    pub id: String,
    /// Operator name (a key of [`OPERATORS`]).
    pub operator: &'static str,
    /// Workspace-relative file.
    pub file: PathBuf,
    /// 1-based line of the mutation site.
    pub line: usize,
    /// Byte span `[start, end)` in the file to replace.
    pub span: (usize, usize),
    /// The original text at the span.
    pub original: String,
    /// The replacement text.
    pub replacement: String,
}

impl Mutation {
    /// A one-line unified-style diff of the mutated line, for reports.
    pub fn diff(&self, src: &str) -> String {
        let line = src.lines().nth(self.line - 1).unwrap_or("").trim();
        let mutated = self.apply(src);
        let after = mutated.lines().nth(self.line - 1).unwrap_or("").trim();
        if self.replacement.is_empty() && line == after {
            // Statement deletion spanning whole lines.
            return format!("-{}", self.original.trim().replace('\n', " "));
        }
        format!("-{line}\n+{after}")
    }

    /// Applies this mutation to `src`, returning the mutated text.
    pub fn apply(&self, src: &str) -> String {
        let mut out = String::with_capacity(src.len());
        out.push_str(&src[..self.span.0]);
        out.push_str(&self.replacement);
        out.push_str(&src[self.span.1..]);
        out
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {}:{} `{}` -> `{}`",
            self.id,
            self.file.display(),
            self.line,
            self.original.replace('\n', " "),
            if self.replacement.is_empty() {
                "(deleted)"
            } else {
                &self.replacement
            }
        )
    }
}

// ---------------------------------------------------------------------------
// Site scanning
// ---------------------------------------------------------------------------

fn line_of(src: &str, byte: usize) -> usize {
    src[..byte].matches('\n').count() + 1
}

/// Byte offsets of every occurrence of `needle` in `src`.
fn occurrences(src: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = src[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// Sites found so far per operator: the next site's ordinal.
type SiteCounts = std::collections::BTreeMap<&'static str, usize>;

/// The id stem of a target: its file name without the `.rs`, or the name
/// of a module directory.
fn stem_of(rel: &Path) -> String {
    rel.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// All mutation sites of every operator in one file.
pub fn scan_file(rel: &Path, src: &str) -> Vec<Mutation> {
    scan_source(&stem_of(rel), rel, src, &mut SiteCounts::new())
}

/// All mutation sites in the module directory `rel` under `root`: its
/// non-test `.rs` files (nothing under a `tests/` directory) in path order,
/// as if they were one file named after the directory — every id carries
/// the directory's stem and ordinals run on from file to file.
pub fn scan_dir(root: &Path, rel: &Path) -> io::Result<Vec<Mutation>> {
    let mut files = Vec::new();
    crate::analysis::rs_files(&root.join(rel), &mut files)?;
    let stem = stem_of(rel);
    let mut counts = SiteCounts::new();
    let mut out = Vec::new();
    for path in files {
        let file = path.strip_prefix(root).unwrap_or(&path);
        if crate::analysis::under_tests_dir(file) {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        out.extend(scan_source(&stem, file, &src, &mut counts));
    }
    Ok(out)
}

/// The sites of `src`, the text of `rel`, numbered on from `counts` under
/// the id stem `stem`.
fn scan_source(stem: &str, rel: &Path, src: &str, counts: &mut SiteCounts) -> Vec<Mutation> {
    let mut out = Vec::new();
    let mut push = |op: &'static str, start: usize, end: usize, replacement: String| {
        let n = counts.entry(op).or_insert(0);
        out.push(Mutation {
            id: format!("{op}:{stem}:{n}"),
            operator: op,
            file: rel.to_path_buf(),
            line: line_of(src, start),
            span: (start, end),
            original: src[start..end].to_string(),
            replacement,
        });
        *n += 1;
    };

    // quorum-off-by-one: a `>=` against a threshold expression.
    for pos in occurrences(src, ">= usize::from(") {
        let line_start = src[..pos].rfind('\n').map_or(0, |p| p + 1);
        let line_end = src[pos..].find('\n').map_or(src.len(), |p| pos + p);
        if src[line_start..line_end].contains("threshold") {
            push("quorum-off-by-one", pos, pos + 2, "+ 1 >=".to_string());
        }
    }

    // cmp-flip: fixed table of comparison shapes worth flipping.
    const FLIPS: &[(&str, usize, usize, &str)] = &[
        // (needle, offset of cmp within needle, cmp len, replacement)
        (".len() == ", 7, 2, "!="),
        (".len() < ", 7, 1, "<="),
        (".len() > ", 7, 1, ">="),
        (">= usize::from(", 0, 2, ">"),
        ("== self", 0, 2, "!="),
    ];
    // Needles can overlap (`.len() == self` matches both `.len() == ` and
    // `== self`); one comparison must yield one site, so dedupe on the
    // operator's byte offset.
    let mut cmp_seen = std::collections::BTreeSet::new();
    for &(needle, off, len, to) in FLIPS {
        for pos in occurrences(src, needle) {
            if cmp_seen.insert(pos + off) {
                push("cmp-flip", pos + off, pos + off + len, to.to_string());
            }
        }
    }

    // ack-drop: delete a whole `ctx.send(.. Reply ..);` statement — or
    // `self.outbox.post(..);`, the FS's send of round traffic — in source
    // order, whichever call the reply leaves through.
    let mut sends: Vec<usize> = ["ctx.send(", "self.outbox.post("]
        .iter()
        .flat_map(|call| occurrences(src, call))
        .collect();
    sends.sort_unstable();
    for pos in sends {
        // Both needles end in the call's opening parenthesis.
        let open = pos + src[pos..].find('(').unwrap_or(0);
        let bytes = src.as_bytes();
        let mut depth = 0usize;
        let mut j = open;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= bytes.len() || !src[open..j].contains("Reply") {
            continue;
        }
        // Must be a plain statement: `);` follows.
        if src[j..].starts_with(");") {
            push("ack-drop", pos, j + 2, String::new());
        }
    }

    // fragmask-flip: wrong presence bit.
    for pos in occurrences(src, "|= 1 << b") {
        push("fragmask-flip", pos + 3, pos + 4, "2".to_string());
    }

    // compaction-skip: the converged-version compactor never runs. Killed
    // by `compaction-progress` at the end of the first overwrite run, and
    // by the digest lines, each of which pins the compacted count
    // (DESIGN.md §8.7).
    const COMPACT_CALL: &str = "self.store.compact_superseded(s);";
    for pos in occurrences(src, COMPACT_CALL) {
        push(
            "compaction-skip",
            pos,
            pos + COMPACT_CALL.len(),
            String::new(),
        );
    }

    // timer-gen-skip: only meaningful in the timer slab.
    if stem == "queue" {
        for pos in occurrences(src, "wrapping_add(1)") {
            push(
                "timer-gen-skip",
                pos,
                pos + "wrapping_add(1)".len(),
                "wrapping_add(0)".to_string(),
            );
        }
    }

    // repair-threshold-skip: only meaningful in the repair actor. The
    // mutant triggers only once local parity is exhausted (`live < k`)
    // instead of at the configured percentage — with the paper policy
    // (six local fragments, k = 4) a whole-server loss leaves the stripe
    // at live = 4, which the threshold repairs but the mutant ignores.
    // Killed by the `redundancy-floor` invariant (the stripe sits below
    // threshold past the grace period) and, belt-and-braces, by the
    // repair digest lines, which fold the EV_REPAIR_* counters
    // (`repair_triggered` drops to zero in the rack family).
    if stem == "repair" {
        const THRESHOLD: &str =
            "let below_threshold = live * 100 < u64::from(THRESHOLD_PCT) * target;";
        for pos in occurrences(src, THRESHOLD) {
            push(
                "repair-threshold-skip",
                pos,
                pos + THRESHOLD.len(),
                "let below_threshold = live < k;".to_string(),
            );
        }
    }

    out.sort_by_key(|m| (m.span.0, m.id.clone()));
    out
}

/// All mutation sites across [`TARGET_FILES`] under `root`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Mutation>> {
    let mut out = Vec::new();
    for rel in TARGET_FILES.iter().map(Path::new) {
        let path = root.join(rel);
        if path.is_dir() {
            out.extend(scan_dir(root, rel)?);
        } else if path.is_file() {
            out.extend(scan_file(rel, &std::fs::read_to_string(&path)?));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Pinned smoke set
// ---------------------------------------------------------------------------

/// The 12 pinned protocol mutants CI runs (`mutate --smoke`), chosen to
/// cover all seven operators across proxy, FS, KLS, protocol helpers,
/// timer slab, checksum and repair actor. The kill-rate gate and the
/// per-mutant expectations are documented in DESIGN.md §6.
///
/// Each entry is `(id, anchor)`. Ids are ordinals — the n-th site of an
/// operator in a target — so a comparison inserted above a pinned one
/// silently retargets the pin; the anchor is text the mutated statement
/// must contain, and a unit test checks it against the real sources.
pub const PINNED_SMOKE: &[(&str, &str)] = &[
    // put success needs one extra fragment ack
    ("quorum-off-by-one:proxy:0", "put_success_threshold"),
    // `>= usize::from(` -> `>`: late/never client ack
    ("cmp-flip:proxy:1", "put_success_threshold"),
    // kls_complete.len() == klss.len() -> != (AMR misdetect)
    ("cmp-flip:proxy:0", "kls_complete.len() == "),
    // recovery plan `planned.len() < k` -> <=
    ("cmp-flip:fs:0", "planned.len() < k"),
    // per-DC location count == frags_per_dc -> !=
    ("cmp-flip:kls:0", "locs.len() == want"),
    // Checksum::verify == -> != (integrity inverted)
    ("cmp-flip:checksum:0", "Checksum::of(data) == self"),
    // ConvergeFsReply never sent (verification stalls)
    ("ack-drop:fs:3", "Message::ConvergeFsReply"),
    // DecideLocsReply never sent (put cannot place)
    ("ack-drop:kls:0", "Message::DecideLocsReply"),
    // FragMask::insert sets the wrong bit
    ("fragmask-flip:protocol:0", "self.bits[w] |= 1 << b"),
    // timer slab reuses live generations
    ("timer-gen-skip:queue:0", "self.generations[id.slot()]"),
    // compactor off: superseded settled versions keep live slots
    ("compaction-skip:fs:0", "self.store.compact_superseded(s)"),
    // repair waits for parity exhaustion: floor invariant fires
    ("repair-threshold-skip:repair:0", "THRESHOLD_PCT"),
];

/// The ids of [`PINNED_SMOKE`].
pub fn pinned_ids() -> impl Iterator<Item = &'static str> {
    PINNED_SMOKE.iter().map(|&(id, _)| id)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// How one mutant run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The sweep aborted with an invariant violation (line attached).
    KilledInvariant(String),
    /// The sweep stayed green but per-scenario digests changed.
    KilledDigest,
    /// The mutant crashed (panic / abort) mid-sweep.
    KilledCrash,
    /// The mutant did not build (borrowck/typecheck rejected it).
    BuildError,
    /// The sweep exceeded its time budget.
    Timeout,
    /// Sweep green, digests identical to baseline: an invariant gap.
    Survived,
}

impl Outcome {
    /// Whether this outcome counts as *killed* for the CI gate. Build
    /// errors are excluded: a mutant the compiler rejects tests the type
    /// system, not the invariants. Timeouts count — a livelocked protocol
    /// is detected, just expensively.
    pub fn killed(&self) -> bool {
        !matches!(self, Outcome::Survived | Outcome::BuildError)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::KilledInvariant(_) => "killed (invariant)",
            Outcome::KilledDigest => "killed (digest)",
            Outcome::KilledCrash => "killed (crash)",
            Outcome::BuildError => "build error",
            Outcome::Timeout => "timeout",
            Outcome::Survived => "SURVIVED",
        }
    }
}

/// One mutant's full report.
#[derive(Debug)]
pub struct MutantReport {
    /// The mutation that ran.
    pub mutation: Mutation,
    /// How it ended.
    pub outcome: Outcome,
    /// Release-rebuild time for the mutated tree, seconds.
    pub build_secs: f64,
    /// Explorer sweep time, seconds.
    pub sweep_secs: f64,
}

/// The scratch build tree plus the unmutated baseline digest.
pub struct Harness {
    tree: PathBuf,
    target_dir: PathBuf,
    /// Per-scenario digest of the unmutated sweep.
    pub baseline_digest: String,
    /// Time to build the unmutated tree from scratch, seconds.
    pub baseline_build_secs: f64,
    /// Per-phase time budget.
    timeout: Duration,
}

/// Copies `src` into `dst` recursively.
fn copy_tree(src: &Path, dst: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_tree(&from, &to)?;
        } else {
            std::fs::copy(&from, &to)?;
        }
    }
    Ok(())
}

/// Runs `cmd` with stdout+stderr captured to files, killing it after
/// `timeout`. Returns `(exit_code, combined_output)`, or `None` on
/// timeout. File-backed capture (not pipes) so a chatty child can never
/// deadlock the poll loop.
fn run_with_timeout(
    cmd: &mut Command,
    log: &Path,
    timeout: Duration,
) -> io::Result<Option<(i32, String)>> {
    let out_file = std::fs::File::create(log)?;
    let err_file = out_file.try_clone()?;
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::from(out_file))
        .stderr(Stdio::from(err_file))
        .spawn()?;
    // lint:allow(wall-clock) — subprocess timeout needs real elapsed time
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if start.elapsed() > timeout {
            child.kill().ok();
            child.wait().ok();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    let mut output = String::new();
    std::fs::File::open(log)?.read_to_string(&mut output)?;
    Ok(Some((status.code().unwrap_or(-1), output)))
}

impl Harness {
    /// Copies the workspace at `root` into `target/mutate/tree`, builds
    /// the explorer there and records the unmutated baseline digest of the
    /// [`SWEEP_SUITES`].
    pub fn prepare(root: &Path, timeout: Duration) -> io::Result<Harness> {
        // The sweep child runs with the *tree* as its working directory, so
        // every path shared with it must be absolute — a relative root would
        // make `--digest-dir` land inside the tree while the harness reads
        // a sibling path that never exists (and an empty baseline digest
        // turns the whole digest check into a no-op).
        let root = root.canonicalize()?;
        let scratch = root.join("target").join("mutate");
        let tree = scratch.join("tree");
        if tree.exists() {
            std::fs::remove_dir_all(&tree)?;
        }
        std::fs::create_dir_all(&tree)?;
        for entry in [
            "Cargo.toml",
            "Cargo.lock",
            "crates",
            "vendor",
            "src",
            "tests",
            "examples",
        ] {
            let from = root.join(entry);
            if from.is_dir() {
                copy_tree(&from, &tree.join(entry))?;
            } else if from.is_file() {
                std::fs::copy(&from, tree.join(entry))?;
            }
        }
        let mut h = Harness {
            tree,
            target_dir: scratch.join("cargo"),
            baseline_digest: String::new(),
            baseline_build_secs: 0.0,
            timeout,
        };
        // lint:allow(wall-clock) — recorded bench numbers are real time
        let t0 = Instant::now();
        let (code, out) = h
            .build()?
            .ok_or_else(|| io::Error::other("baseline build timed out"))?;
        h.baseline_build_secs = t0.elapsed().as_secs_f64();
        if code != 0 {
            return Err(io::Error::other(format!("baseline build failed:\n{out}")));
        }
        let (code, out, digest) = h
            .sweep()?
            .ok_or_else(|| io::Error::other("baseline sweep timed out"))?;
        if code != 0 {
            return Err(io::Error::other(format!(
                "baseline sweep not green (exit {code}):\n{out}"
            )));
        }
        if digest.lines().count() == 0 {
            return Err(io::Error::other(
                "baseline sweep wrote no digest lines: digest-based kills would be blind",
            ));
        }
        h.baseline_digest = digest;
        Ok(h)
    }

    fn build(&self) -> io::Result<Option<(i32, String)>> {
        run_with_timeout(
            Command::new("cargo")
                .args(["build", "--release", "-p", "check", "--bin", "explore"])
                .current_dir(&self.tree)
                .env("CARGO_TARGET_DIR", &self.target_dir),
            &self.tree.join("build.log"),
            self.timeout,
        )
    }

    /// Runs the explorer on the [`SWEEP_SUITES`] in the tree; returns
    /// `(exit_code, output, digest_text)`, the digest being the suites'
    /// digest files in order.
    fn sweep(&self) -> io::Result<Option<(i32, String, String)>> {
        let digest_dir = self.tree.join("digests");
        std::fs::remove_dir_all(&digest_dir).ok();
        let explore = self.target_dir.join("release").join("explore");
        let mut cmd = Command::new(explore);
        cmd.args(SWEEP_SUITES)
            .args(["--quiet", "--digest-dir"])
            .arg(&digest_dir)
            .current_dir(&self.tree);
        let Some((code, out)) =
            run_with_timeout(&mut cmd, &self.tree.join("sweep.log"), self.timeout)?
        else {
            return Ok(None);
        };
        let digest = SWEEP_SUITES
            .iter()
            .map(|suite| std::fs::read_to_string(digest_dir.join(format!("{suite}.txt"))))
            .map(Result::unwrap_or_default)
            .collect();
        Ok(Some((code, out, digest)))
    }

    /// Applies `m` in the tree, rebuilds, sweeps, restores the file and
    /// classifies the outcome.
    pub fn run_mutant(&self, m: &Mutation) -> io::Result<MutantReport> {
        let path = self.tree.join(&m.file);
        let pristine = std::fs::read_to_string(&path)?;
        debug_assert_eq!(
            &pristine[m.span.0..m.span.1],
            m.original,
            "mutation span drifted from the scanned source"
        );
        let result = (|| {
            std::fs::write(&path, m.apply(&pristine))?;
            // lint:allow(wall-clock) — recorded bench numbers are real time
            let t0 = Instant::now();
            let build = self.build()?;
            let build_secs = t0.elapsed().as_secs_f64();
            let outcome = match build {
                None => Outcome::Timeout,
                Some((code, _)) if code != 0 => Outcome::BuildError,
                Some(_) => {
                    // lint:allow(wall-clock) — recorded bench numbers are real time
                    let t1 = Instant::now();
                    let swept = self.sweep()?;
                    let sweep_secs = t1.elapsed().as_secs_f64();
                    return Ok(MutantReport {
                        mutation: m.clone(),
                        outcome: match swept {
                            None => Outcome::Timeout,
                            Some((0, _, digest)) if digest == self.baseline_digest => {
                                Outcome::Survived
                            }
                            Some((0, _, _)) => Outcome::KilledDigest,
                            Some((1, out, _)) => {
                                let line = out
                                    .lines()
                                    .find(|l| l.contains("INVARIANT VIOLATED"))
                                    .unwrap_or("violation (see sweep log)")
                                    .to_string();
                                Outcome::KilledInvariant(line)
                            }
                            Some((_, _, _)) => Outcome::KilledCrash,
                        },
                        build_secs,
                        sweep_secs,
                    });
                }
            };
            Ok(MutantReport {
                mutation: m.clone(),
                outcome,
                build_secs,
                sweep_secs: 0.0,
            })
        })();
        // Always restore the pristine source, even on error paths.
        std::fs::write(&path, &pristine)?;
        result
    }
}

/// Writes `BENCH_analysis.json`-style output: analyzer wall time plus
/// mutation build/sweep cost.
pub fn write_bench(
    path: &Path,
    analyzer_ms: f64,
    analyzer_files: usize,
    reports: &[MutantReport],
    baseline_build_secs: f64,
) -> io::Result<()> {
    let killed = reports.iter().filter(|r| r.outcome.killed()).count();
    let mean = |f: fn(&MutantReport) -> f64| -> f64 {
        if reports.is_empty() {
            0.0
        } else {
            reports.iter().map(f).sum::<f64>() / reports.len() as f64
        }
    };
    // Host context: logical CPUs and worker threads, so a reader can tell
    // what the wall-clock numbers ran on. Mutants run one at a time, each
    // a single-threaded sweep.
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"analysis\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"host\": {{ \"nproc\": {nproc}, \"workers\": 1 }},\n"
    ));
    out.push_str(&format!(
        "  \"analyzer\": {{ \"files\": {analyzer_files}, \"wall_ms\": {analyzer_ms:.2} }},\n"
    ));
    out.push_str(&format!(
        "  \"mutation\": {{ \"mutants\": {}, \"killed\": {}, \"baseline_build_s\": {:.2}, \"mean_mutant_build_s\": {:.2}, \"mean_sweep_s\": {:.2} }},\n",
        reports.len(),
        killed,
        baseline_build_secs,
        mean(|r| r.build_secs),
        mean(|r| r.sweep_secs),
    ));
    out.push_str("  \"outcomes\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"outcome\": \"{}\", \"build_s\": {:.2}, \"sweep_s\": {:.2} }}{}\n",
            r.mutation.id,
            r.outcome.label(),
            r.build_secs,
            r.sweep_secs,
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_and_cmp_sites_are_found() {
        let src = "if !op.replied && distinct >= usize::from(op.meta.policy().put_success_threshold) {\n    reply();\n}\nif a.len() == b { x(); }\n";
        let ms = scan_file(Path::new("proxy.rs"), src);
        let ops: Vec<&str> = ms.iter().map(|m| m.operator).collect();
        assert!(ops.contains(&"quorum-off-by-one"));
        assert!(ops.contains(&"cmp-flip"));
        let q = ms
            .iter()
            .find(|m| m.operator == "quorum-off-by-one")
            .unwrap();
        let mutated = q.apply(src);
        assert!(mutated.contains("distinct + 1 >= usize::from"));
        assert_eq!(q.line, 1);
    }

    #[test]
    fn ack_drop_deletes_whole_reply_statement_only() {
        let src = "fn f() {\n    ctx.send(from, Message::StoreFragmentReply { ov, fragment: idx });\n    ctx.send(from, Message::StoreFragment { ov });\n}\n";
        let ms = scan_file(Path::new("fs.rs"), src);
        let drops: Vec<&Mutation> = ms.iter().filter(|m| m.operator == "ack-drop").collect();
        assert_eq!(drops.len(), 1, "non-Reply send is not a site");
        let mutated = drops[0].apply(src);
        assert!(!mutated.contains("StoreFragmentReply"));
        assert!(mutated.contains("StoreFragment {"), "other send intact");

        // A reply posted to the FS outbox is a site too, numbered with the
        // plain sends in source order.
        let src = "fn f() {\n    self.outbox.post(ctx, from, Message::ConvergeFsReply { ov });\n    ctx.send(from, Message::StoreFragmentReply { ov });\n    self.outbox.post(ctx, to, Message::ConvergeFs { ov });\n}\n";
        let ms = scan_file(Path::new("fs.rs"), src);
        let drops: Vec<&Mutation> = ms.iter().filter(|m| m.operator == "ack-drop").collect();
        assert_eq!(drops.len(), 2, "the probe is not a site");
        assert_eq!(drops[0].id, "ack-drop:fs:0");
        assert_eq!(
            drops[0].apply(src),
            src.replace(
                "    self.outbox.post(ctx, from, Message::ConvergeFsReply { ov });",
                "    "
            )
        );
        assert!(drops[1].original.contains("StoreFragmentReply"));
    }

    #[test]
    fn fragmask_and_timer_sites() {
        let frag = "self.bits[w] |= 1 << b;\n";
        let ms = scan_file(Path::new("protocol.rs"), frag);
        assert_eq!(ms[0].operator, "fragmask-flip");
        assert_eq!(ms[0].apply(frag), "self.bits[w] |= 2 << b;\n");

        let queue = "self.generations[id.slot()] = self.generations[id.slot()].wrapping_add(1);\n";
        let ms = scan_file(Path::new("queue.rs"), queue);
        assert!(ms.iter().any(|m| m.operator == "timer-gen-skip"));
        // The same pattern outside queue.rs is not a timer site.
        let ms = scan_file(Path::new("metadata.rs"), queue);
        assert!(ms.iter().all(|m| m.operator != "timer-gen-skip"));
    }

    #[test]
    fn ids_are_stable_per_operator_and_file() {
        let src = "if a.len() == b {} if c.len() == d {}\n";
        let ms = scan_file(Path::new("proxy.rs"), src);
        let ids: Vec<&str> = ms.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(ids, ["cmp-flip:proxy:0", "cmp-flip:proxy:1"]);
    }

    #[test]
    fn a_module_directory_is_scanned_as_one_file_named_after_it() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mutate");
        let ms = scan_dir(&root, Path::new("src/fs")).expect("fixture reads");
        let sites: Vec<(&str, &Path, usize)> = ms
            .iter()
            .map(|m| (m.id.as_str(), m.file.as_path(), m.line))
            .collect();
        let (module, store) = (Path::new("src/fs/mod.rs"), Path::new("src/fs/store.rs"));
        // Path order, ordinals running across the files, every id stemmed
        // `fs`, and nothing from `src/fs/tests/`.
        assert_eq!(
            sites,
            [
                ("cmp-flip:fs:0", module, 8),
                ("ack-drop:fs:0", module, 11),
                ("cmp-flip:fs:1", store, 2),
                ("ack-drop:fs:1", store, 3),
            ]
        );
        // Each site is applied to the file it was found in.
        let src = std::fs::read_to_string(root.join(store)).expect("fixture reads");
        assert!(ms[2].apply(&src).contains("self.pool.len() <= self.k"));
    }

    #[test]
    fn outcome_classification() {
        assert!(Outcome::KilledInvariant("x".into()).killed());
        assert!(Outcome::KilledDigest.killed());
        assert!(Outcome::Timeout.killed());
        assert!(!Outcome::Survived.killed());
        assert!(!Outcome::BuildError.killed());
    }

    #[test]
    fn pinned_ids_are_distinct() {
        let set: std::collections::BTreeSet<&str> = pinned_ids().collect();
        assert_eq!(set.len(), PINNED_SMOKE.len());
    }

    /// Every pinned id still names the statement its comment describes:
    /// the source lines the mutation touches contain the pin's anchor.
    /// Inserting, say, a `.len() ==` above a pinned comparison shifts the
    /// ordinals and fails here instead of quietly gating on another site.
    #[test]
    fn pinned_ids_hit_their_anchored_statements() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let sites = scan_workspace(&root).expect("workspace sources are readable");
        for &(id, anchor) in PINNED_SMOKE {
            let m = sites
                .iter()
                .find(|m| m.id == id)
                .unwrap_or_else(|| panic!("pinned {id} is not a mutation site any more"));
            let src = std::fs::read_to_string(root.join(&m.file)).expect("scanned file");
            let from = src[..m.span.0].rfind('\n').map_or(0, |p| p + 1);
            let to = src[m.span.1..]
                .find('\n')
                .map_or(src.len(), |p| m.span.1 + p);
            let statement = &src[from..to];
            assert!(
                statement.contains(anchor),
                "{id} now mutates {}:{} `{}`, which lacks `{anchor}`: re-pin it",
                m.file.display(),
                m.line,
                statement.trim()
            );
        }
    }

    /// The committed `BENCH_analysis.json` must record a run of the pinned
    /// set as it is now: a stale file (regenerated before a mutant was
    /// added or cut) fails here rather than drifting silently. And every
    /// pinned mutant dies by a check: a digest diff says that behaviour
    /// moved, not that it is wrong, so no pin may be recorded
    /// `killed (digest)`.
    #[test]
    fn committed_bench_records_the_pinned_set() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_analysis.json");
        let json = std::fs::read_to_string(&path).expect("BENCH_analysis.json at the repo root");
        let field = "\"mutation\": { \"mutants\": ";
        let at = json.find(field).expect("mutation.mutants field") + field.len();
        let recorded: usize = json[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|n| n.parse().ok())
            .expect("mutation.mutants is a number");
        assert_eq!(
            recorded,
            PINNED_SMOKE.len(),
            "BENCH_analysis.json is stale: rerun `mutate --smoke --bench-out BENCH_analysis.json`"
        );
        for id in pinned_ids() {
            let entry = format!("\"id\": \"{id}\"");
            let line = json.lines().find(|line| line.contains(&entry));
            let line = line.unwrap_or_else(|| panic!("{id} missing"));
            assert!(
                !line.contains(Outcome::KilledDigest.label()),
                "{id} is only killed by a digest diff: {line}"
            );
        }
    }

    #[test]
    fn compaction_skip_site_is_found() {
        let src =
            "fn f(&mut self) { if newly_settled {\n    self.store.compact_superseded(s);\n} }\n";
        let ms = scan_file(Path::new("fs.rs"), src);
        let m = ms
            .iter()
            .find(|m| m.operator == "compaction-skip")
            .expect("site found");
        assert_eq!(m.id, "compaction-skip:fs:0");
        assert!(!m.apply(src).contains("compact_superseded"));
    }

    #[test]
    fn repair_threshold_skip_site_is_repair_only() {
        let src = "let k = u64::from(t.meta.policy().k);\nlet below_threshold = live * 100 < u64::from(THRESHOLD_PCT) * target;\n";
        let ms = scan_file(Path::new("repair.rs"), src);
        let m = ms
            .iter()
            .find(|m| m.operator == "repair-threshold-skip")
            .expect("site found");
        assert_eq!(m.id, "repair-threshold-skip:repair:0");
        assert!(m.apply(src).contains("let below_threshold = live < k;"));
        // The same pattern outside repair.rs is not a site.
        let ms = scan_file(Path::new("fs.rs"), src);
        assert!(ms.iter().all(|m| m.operator != "repair-threshold-skip"));
    }
}
