//! A from-scratch, dependency-free Rust source front-end for the token and
//! semantic rules of [`analysis`](crate::analysis).
//!
//! Three layers, each just deep enough to be trustworthy:
//!
//! 1. **Lexing** — [`strip_noncode`] blanks comments, (raw) string
//!    literals and char literals (newlines preserved, so positions stay
//!    valid in the original source); [`tokenize`] then yields
//!    line/column-spanned identifier and punctuation tokens.
//! 2. **Item model** — [`FileModel::parse`] walks the token stream into a
//!    flat list of `fn` items with brace-matched body ranges, records
//!    `#[cfg(test)] mod` regions (so rules can skip deliberate test-only
//!    hazards), and parses `match` expressions into scrutinee + arm
//!    pattern ranges.
//! 3. **Call graph** — [`reachable_from`] computes the transitive closure
//!    of `name(`-style calls from a set of root functions over the files
//!    it is given. Resolution is by bare name within those files, which is
//!    exactly the one-level precision the workspace rules need: each actor
//!    lives in its own module — one file, or a directory of them — and its
//!    protocol helpers are local to it.
//!
//! The model is deliberately *not* a full parser: generics, lifetimes and
//! attributes flow through as plain tokens, and everything downstream is
//! written to degrade safely (a construct the model cannot see produces
//! no finding, never a panic — the robustness proptest in
//! `tests/analysis_fixtures.rs` feeds it mutilated sources).

use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Lexing
// ---------------------------------------------------------------------------

/// Replaces comments, string literals and char literals with spaces
/// (newlines preserved), so token scans only ever see code. Handles
/// nested block comments, raw strings with arbitrary `#` counts, byte
/// strings, escapes, and the char-literal/lifetime ambiguity.
pub fn strip_noncode(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let n = chars.len();

    // Appends `c` as-is if it's a newline (line structure must survive),
    // else a space.
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }

    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                blank(&mut out, chars[i]);
                i += 1;
            }
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    blank(&mut out, chars[i]);
                    blank(&mut out, chars[i + 1]);
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    blank(&mut out, chars[i]);
                    blank(&mut out, chars[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"…", r#"…"#, br##"…"##, …
        let raw_start = if c == 'r' && i + 1 < n && (chars[i + 1] == '"' || chars[i + 1] == '#') {
            Some(i + 1)
        } else if c == 'b'
            && i + 2 < n
            && chars[i + 1] == 'r'
            && (chars[i + 2] == '"' || chars[i + 2] == '#')
        {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            let mut hashes = 0usize;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && chars[j] == '"' {
                // Blank from `i` through the closing quote+hashes.
                j += 1; // past the opening quote
                loop {
                    if j >= n {
                        break;
                    }
                    if chars[j] == '"'
                        && chars[j + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == '#')
                            .count()
                            == hashes
                    {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                for &ch in &chars[i..j.min(n)] {
                    blank(&mut out, ch);
                }
                i = j;
                continue;
            }
            // `r` not followed by a string: fall through as a normal ident.
        }
        // Plain (byte) string.
        if c == '"' || (c == 'b' && i + 1 < n && chars[i + 1] == '"') {
            if c == 'b' {
                blank(&mut out, c);
                i += 1;
            }
            blank(&mut out, chars[i]); // opening quote
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    blank(&mut out, chars[i]);
                    blank(&mut out, chars[i + 1]);
                    i += 2;
                    continue;
                }
                let done = chars[i] == '"';
                blank(&mut out, chars[i]);
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime: a char literal closes with `'` within a
        // couple of chars; a lifetime never does.
        if c == '\'' {
            let is_char_lit = if i + 1 < n && chars[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && chars[i + 2] == '\''
            };
            if is_char_lit {
                blank(&mut out, chars[i]); // opening quote
                i += 1;
                while i < n {
                    if chars[i] == '\\' && i + 1 < n {
                        blank(&mut out, chars[i]);
                        blank(&mut out, chars[i + 1]);
                        i += 2;
                        continue;
                    }
                    let done = chars[i] == '\'';
                    blank(&mut out, chars[i]);
                    i += 1;
                    if done {
                        break;
                    }
                }
                continue;
            }
            // Lifetime: keep the quote as code (token scans use it to skip
            // lifetime parameters).
        }
        out.push(c);
        i += 1;
    }
    out
}

/// One lexed token: an identifier-ish word or a single punctuation char.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier, keyword or number (alphanumeric + `_` run).
    Ident(String),
    /// Any other non-whitespace character.
    Punct(char),
}

/// A token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Lexes stripped code (see [`strip_noncode`]) into spanned tokens.
pub fn tokenize(code: &str) -> Vec<Spanned> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = code.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c == '\n' {
            chars.next();
            line += 1;
            col = 1;
            continue;
        }
        if c.is_whitespace() {
            chars.next();
            col += 1;
            continue;
        }
        if c.is_alphanumeric() || c == '_' {
            let (start_line, start_col) = (line, col);
            let mut ident = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() || c == '_' {
                    ident.push(c);
                    chars.next();
                    col += 1;
                } else {
                    break;
                }
            }
            out.push(Spanned {
                tok: Tok::Ident(ident),
                line: start_line,
                col: start_col,
            });
            continue;
        }
        out.push(Spanned {
            tok: Tok::Punct(c),
            line,
            col,
        });
        chars.next();
        col += 1;
    }
    out
}

/// The identifier text of token `i`, if it is one.
pub fn ident(toks: &[Spanned], i: usize) -> Option<&str> {
    match toks.get(i).map(|s| &s.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

/// The punctuation char of token `i`, if it is one.
pub fn punct(toks: &[Spanned], i: usize) -> Option<char> {
    match toks.get(i).map(|s| &s.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Whether token `i` is directly preceded by `prefix ::`.
pub fn preceded_by(toks: &[Spanned], i: usize, prefix: &str) -> bool {
    i >= 3
        && punct(toks, i - 1) == Some(':')
        && punct(toks, i - 2) == Some(':')
        && ident(toks, i - 3) == Some(prefix)
}

/// Given the index of an opening `{`, returns the exclusive end index one
/// past its matching `}` (or `toks.len()` if unbalanced).
pub fn brace_range(toks: &[Spanned], open: usize) -> usize {
    delim_range(toks, open, '{', '}')
}

/// Given the index of an opening `[`, returns the exclusive end index one
/// past its matching `]` (or `toks.len()` if unbalanced).
pub fn bracket_range(toks: &[Spanned], open: usize) -> usize {
    delim_range(toks, open, '[', ']')
}

fn delim_range(toks: &[Spanned], open: usize, lo: char, hi: char) -> usize {
    let mut depth = 0usize;
    for j in open..toks.len() {
        match punct(toks, j) {
            Some(c) if c == lo => depth += 1,
            Some(c) if c == hi => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// Token range `[open, end)` of the body including braces; `None` for
    /// bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the item sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// One arm of a parsed `match`.
#[derive(Debug, Clone)]
pub struct ArmModel {
    /// Token range `[start, end)` of the pattern (before any `if` guard).
    pub pat: (usize, usize),
    /// Token range `[start, end)` of the arm body.
    pub body: (usize, usize),
}

/// One parsed `match` expression.
#[derive(Debug, Clone)]
pub struct MatchModel {
    /// Token index of the `match` keyword.
    pub kw: usize,
    /// Token range `[start, end)` of the scrutinee expression.
    pub scrutinee: (usize, usize),
    /// The arms, in source order.
    pub arms: Vec<ArmModel>,
}

/// A parsed source file: tokens plus the item model layered over them.
#[derive(Debug)]
pub struct FileModel {
    /// The spanned tokens of the stripped source.
    pub toks: Vec<Spanned>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnModel>,
    /// Token ranges of `#[cfg(test)] mod … { }` bodies.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileModel {
    /// Parses `src` (raw file text) into the model.
    pub fn parse(src: &str) -> FileModel {
        let code = strip_noncode(src);
        let toks = tokenize(&code);
        let test_ranges = find_test_ranges(&toks);
        let in_test = |i: usize| test_ranges.iter().any(|&(s, e)| i >= s && i < e);
        let mut fns = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if ident(&toks, i) == Some("fn") {
                if let Some(name) = ident(&toks, i + 1) {
                    let body = fn_body_range(&toks, i);
                    fns.push(FnModel {
                        name: name.to_string(),
                        kw: i,
                        body,
                        line: toks[i].line,
                        in_test: in_test(i),
                    });
                }
            }
            i += 1;
        }
        FileModel {
            toks,
            fns,
            test_ranges,
        }
    }

    /// The first non-test `fn` with this name, if any.
    pub fn fn_named(&self, name: &str) -> Option<&FnModel> {
        self.fns.iter().find(|f| f.name == name && !f.in_test)
    }

    /// Names called as `name(` within the token range (methods and free
    /// functions alike; `Type::assoc(` yields `assoc`).
    pub fn calls_in(&self, range: (usize, usize)) -> Vec<String> {
        let mut out = Vec::new();
        for i in range.0..range.1.min(self.toks.len()) {
            if let Some(name) = ident(&self.toks, i) {
                if punct(&self.toks, i + 1) == Some('(')
                    && ident(&self.toks, i.wrapping_sub(1)) != Some("fn")
                {
                    out.push(name.to_string());
                }
            }
        }
        out
    }

    /// Every `match` expression within the token range.
    pub fn matches_in(&self, range: (usize, usize)) -> Vec<MatchModel> {
        let mut out = Vec::new();
        for i in range.0..range.1.min(self.toks.len()) {
            if ident(&self.toks, i) == Some("match") {
                if let Some(m) = parse_match(&self.toks, i) {
                    out.push(m);
                }
            }
        }
        out
    }
}

/// `(file, fn)` indices — into `files` and that file's
/// [`fns`](FileModel::fns) — of every non-test function reachable from the
/// named roots via the by-name call graph over all of `files` (transitive
/// closure; roots included when they exist). The caller decides which files
/// form one graph: one file, or the files of a module directory.
pub fn reachable_from(files: &[&FileModel], roots: &[&str]) -> Vec<(usize, usize)> {
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (file, model) in files.iter().enumerate() {
        for (idx, f) in model.fns.iter().enumerate() {
            if !f.in_test {
                by_name
                    .entry(f.name.as_str())
                    .or_default()
                    .push((file, idx));
            }
        }
    }
    let mut work: Vec<(usize, usize)> = roots
        .iter()
        .filter_map(|r| by_name.get(*r))
        .flatten()
        .copied()
        .collect();
    let mut out = BTreeSet::new();
    while let Some((file, idx)) = work.pop() {
        if !out.insert((file, idx)) {
            continue;
        }
        let model = files[file];
        if let Some(body) = model.fns[idx].body {
            for callee in model.calls_in(body) {
                if let Some(targets) = by_name.get(callee.as_str()) {
                    work.extend(targets.iter().copied());
                }
            }
        }
    }
    out.into_iter().collect()
}

/// Body range of the `fn` whose keyword is at `kw`: the first `{` at
/// paren-depth 0 after the signature, brace-matched. A `;` first means a
/// bodyless declaration.
fn fn_body_range(toks: &[Spanned], kw: usize) -> Option<(usize, usize)> {
    let mut depth = 0isize;
    for j in kw + 1..toks.len() {
        match punct(toks, j) {
            Some('(') => depth += 1,
            Some(')') => depth -= 1,
            Some(';') if depth == 0 => return None,
            Some('{') if depth == 0 => return Some((j, brace_range(toks, j))),
            _ => {}
        }
    }
    None
}

/// Token ranges of `mod` bodies directly preceded by a `#[cfg(test)]`
/// attribute.
fn find_test_ranges(toks: &[Spanned]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ident(toks, i) != Some("mod") {
            continue;
        }
        // Walk back over `#[cfg(test)]`-ish attribute tokens.
        let has_cfg_test = i >= 6
            && punct(toks, i - 1) == Some(']')
            && ident(toks, i - 3) == Some("test")
            && ident(toks, i - 5) == Some("cfg")
            && punct(toks, i - 6) == Some('[');
        if !has_cfg_test {
            continue;
        }
        // mod NAME {
        if let Some('{') = punct(toks, i + 2) {
            out.push((i + 2, brace_range(toks, i + 2)));
        }
    }
    out
}

/// Parses the `match` whose keyword is at `kw` into scrutinee and arms.
fn parse_match(toks: &[Spanned], kw: usize) -> Option<MatchModel> {
    // Scrutinee: tokens until the `{` at depth 0 (parens/brackets tracked;
    // a struct literal in a scrutinee needs parens in Rust, so the first
    // depth-0 `{` is the match body).
    let mut depth = 0isize;
    let mut open = None;
    for j in kw + 1..toks.len() {
        match punct(toks, j) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') if depth == 0 => {
                open = Some(j);
                break;
            }
            _ => {}
        }
    }
    let open = open?;
    let end = brace_range(toks, open);
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < end - 1 {
        // Pattern: until `=>` at depth 0 relative to the arm.
        let pat_start = i;
        let mut depth = 0isize;
        let mut guard_kw: Option<usize> = None;
        let mut arrow = None;
        let mut j = i;
        while j < end - 1 {
            match &toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct('=') if depth == 0 && punct(toks, j + 1) == Some('>') => {
                    arrow = Some(j);
                    break;
                }
                Tok::Ident(id) if depth == 0 && id == "if" && guard_kw.is_none() => {
                    guard_kw = Some(j);
                }
                _ => {}
            }
            j += 1;
        }
        let arrow = arrow?;
        let pat_end = guard_kw.unwrap_or(arrow);
        // Body: a brace block, or an expression until `,` at depth 0.
        let body_start = arrow + 2;
        let body_end = if punct(toks, body_start) == Some('{') {
            brace_range(toks, body_start)
        } else {
            let mut depth = 0isize;
            let mut k = body_start;
            while k < end - 1 {
                match punct(toks, k) {
                    Some('(') | Some('[') | Some('{') => depth += 1,
                    Some(')') | Some(']') | Some('}') => depth -= 1,
                    Some(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            k
        };
        arms.push(ArmModel {
            pat: (pat_start, pat_end),
            body: (body_start, body_end),
        });
        // Skip the optional separating comma.
        i = if punct(toks, body_end) == Some(',') {
            body_end + 1
        } else {
            body_end
        };
        if i <= pat_start {
            break; // no progress on mutilated input; bail out safely
        }
    }
    Some(MatchModel {
        kw,
        scrutinee: (kw + 1, open),
        arms,
    })
}

// ---------------------------------------------------------------------------
// `lint:allow` suppression
// ---------------------------------------------------------------------------

/// One `lint:allow(rule)` marker occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule name inside the parens.
    pub rule: String,
    /// Trailing text after the closing paren, trimmed of `: - —`
    /// separators — the justification, when the site carries one.
    pub justification: String,
}

/// Markers per line: `line -> allows` parsed from `lint:allow(rule,
/// rule): why` markers anywhere on the line (they live in comments, so
/// the *raw* source is searched).
pub fn allows_by_line(src: &str) -> BTreeMap<usize, Vec<Allow>> {
    let mut out: BTreeMap<usize, Vec<Allow>> = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let justification = rest[close + 1..]
                .trim_start_matches([':', '-', '—', ' '])
                .trim()
                .to_string();
            let allows = out.entry(idx + 1).or_default();
            for rule in rest[..close].split(',') {
                allows.push(Allow {
                    rule: rule.trim().to_string(),
                    justification: justification.clone(),
                });
            }
            rest = &rest[close + 1..];
        }
    }
    out
}

/// The marker that suppresses a finding of `rule` on 1-based `line`, if
/// any: one on the same line, on the preceding line, or on the line above
/// any run of attribute lines (`#[…]` / `#![…]`) directly preceding the
/// finding — so an allow can sit above `#[derive(...)]` and still cover
/// the item. Returned so callers can inspect its justification (the
/// `panic-path` rule requires one).
pub fn find_allow<'a>(
    allows: &'a BTreeMap<usize, Vec<Allow>>,
    lines: &[&str],
    line: usize,
    rule: &str,
) -> Option<&'a Allow> {
    let hit = |l: usize| {
        allows
            .get(&l)
            .and_then(|v| v.iter().find(|a| a.rule == rule))
    };
    if let Some(a) = hit(line) {
        return Some(a);
    }
    // Walk upward over attribute-only lines; the first non-attribute line
    // above the finding is the only other place a marker counts.
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        if let Some(a) = hit(l) {
            return Some(a);
        }
        let text = lines.get(l - 1).map(|s| s.trim()).unwrap_or("");
        let is_attr = text.starts_with("#[") || text.starts_with("#![");
        if !is_attr {
            return None;
        }
        l -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_model_finds_bodies_and_names() {
        let m = FileModel::parse(
            "fn a() { b(); }\nfn b() -> Vec<u8> { Vec::new() }\ntrait T { fn c(&self); }\n",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(m.fns[0].body.is_some());
        assert!(m.fns[1].body.is_some());
        assert!(m.fns[2].body.is_none(), "trait decl has no body");
    }

    #[test]
    fn test_modules_are_marked() {
        let m = FileModel::parse("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n");
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }

    #[test]
    fn reachability_is_transitive_and_in_file() {
        let src = "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n";
        let m = FileModel::parse(src);
        let names: Vec<&str> = reachable_from(&[&m], &["root"])
            .into_iter()
            .map(|(_, i)| m.fns[i].name.as_str())
            .collect();
        assert_eq!(names, ["root", "mid", "leaf"]);
    }

    #[test]
    fn reachability_crosses_the_files_it_is_given() {
        let a = FileModel::parse("fn root() { mid(); }\nfn island() {}\n");
        let b = FileModel::parse("fn mid() { leaf(); }\nfn leaf() {}\nfn other() {}\n");
        assert_eq!(
            reachable_from(&[&a, &b], &["root"]),
            [(0, 0), (1, 0), (1, 1)]
        );
        // Alone, the second file has no root and the first no callee.
        assert_eq!(reachable_from(&[&b], &["root"]), []);
        assert_eq!(reachable_from(&[&a], &["root"]), [(0, 0)]);
    }

    #[test]
    fn match_arms_parse_patterns_guards_and_bodies() {
        let src = "fn f(m: M) { match m {\n    M::A { x } if x >= 3 => go(x),\n    M::B(_) => { stop(); }\n    other => fallback(),\n} }\n";
        let m = FileModel::parse(src);
        let matches = m.matches_in(m.fns[0].body.unwrap());
        assert_eq!(matches.len(), 1);
        let arms = &matches[0].arms;
        assert_eq!(arms.len(), 3);
        let pat_text = |a: &ArmModel| -> String {
            m.toks[a.pat.0..a.pat.1]
                .iter()
                .map(|s| match &s.tok {
                    Tok::Ident(i) => i.clone(),
                    Tok::Punct(p) => p.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(pat_text(&arms[0]), "M : : A { x }", "guard excluded");
        assert_eq!(pat_text(&arms[1]), "M : : B ( _ )");
        assert_eq!(pat_text(&arms[2]), "other");
    }

    #[test]
    fn allow_markers_parse_rules_and_justification() {
        let allows = allows_by_line("// lint:allow(panic-path): map entry inserted above\n");
        let a = &allows[&1][0];
        assert_eq!(a.rule, "panic-path");
        assert_eq!(a.justification, "map entry inserted above");
    }

    #[test]
    fn allow_skips_attribute_lines() {
        let src = "// lint:allow(some-rule)\n#[derive(Debug)]\n#[allow(dead_code)]\nstruct S;\n";
        let allows = allows_by_line(src);
        let lines: Vec<&str> = src.lines().collect();
        assert!(find_allow(&allows, &lines, 4, "some-rule").is_some());
        assert!(find_allow(&allows, &lines, 4, "other-rule").is_none());
        // A non-attribute line in between breaks the chain.
        let src2 = "// lint:allow(some-rule)\nlet x = 1;\nstruct S;\n";
        let allows2 = allows_by_line(src2);
        let lines2: Vec<&str> = src2.lines().collect();
        assert!(find_allow(&allows2, &lines2, 3, "some-rule").is_none());
    }
}
