//! `nsg-lint` — the project-invariant static-analysis gate.
//!
//! PRs 2–5 of this reproduction established contracts that keep the system
//! faithful to the paper and fast — a zero-allocation warm search path,
//! a single effort→[`SearchParams`] conversion site, checked narrowing in
//! every decode path, SIMD kernels only behind the detection table. This
//! crate makes those contracts *mechanically* true on every `cargo test`: a
//! hand-rolled lexer ([`lexer`]) feeds a token-level rule engine ([`rules`])
//! that walks every `.rs` file in the workspace and reports `file:line`
//! diagnostics.
//!
//! Three comment-driven directives steer the engine:
//!
//! * `// lint:hot-path` — marks the next block (or the rest of the line's
//!   item) as a hot region where rule R2 forbids allocating calls;
//! * `// lint:allow(<rule>[, <rule>…]): <reason>` — suppresses findings of
//!   the named rules on the directive's target line. The reason is
//!   mandatory; a bare allow is itself reported (as `bad-allow`) and cannot
//!   be suppressed;
//! * `// SAFETY:` — the justification rule R4 requires adjacent to every
//!   `unsafe` (also accepted: a `/// # Safety` doc section on an
//!   `unsafe fn`).
//!
//! Entry points: [`lint_workspace`] for the gate test and the CLI, and
//! [`lint_source`] for rule unit tests over in-memory snippets.

pub mod lexer;
pub mod rules;

use lexer::{lex, Token, TokenKind};
use std::path::{Path, PathBuf};

/// Coarse classification of a source file by its path. Several rules only
/// apply to `Library` code: test, bench and binary code legitimately
/// unwraps, spawns threads and constructs params directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Shipped library code — the default, and the strictest class.
    Library,
    /// Integration tests (`tests/`) and anything under a `tests/` dir.
    Test,
    /// Criterion-style benches (`benches/`).
    Bench,
    /// Binaries and examples (`src/bin/`, `src/main.rs`, `examples/`),
    /// plus build scripts.
    BinOrExample,
}

/// Classifies a workspace-relative path (`/`-separated).
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.contains(&"tests") {
        FileClass::Test
    } else if parts.contains(&"benches") {
        FileClass::Bench
    } else if parts.contains(&"examples")
        || rel_path.contains("/src/bin/")
        || rel_path.starts_with("src/bin/")
        || rel_path.ends_with("src/main.rs")
        || rel_path.ends_with("build.rs")
    {
        FileClass::BinOrExample
    } else {
        FileClass::Library
    }
}

/// A parsed `// lint:allow(<rules>): <reason>` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule names the directive suppresses.
    pub rules: Vec<String>,
    /// Mandatory human justification.
    pub reason: String,
    /// Line the suppression applies to (the directive's own line for a
    /// trailing comment, the next code line for a standalone comment).
    pub target_line: u32,
    /// Line the directive itself sits on (for `--list-allows`).
    pub comment_line: u32,
}

/// A single diagnostic: rule name + location + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub rel_path: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.rel_path, self.line, self.rule, self.message)
    }
}

/// One analyzed source file: token stream plus the derived region maps the
/// rules consume.
pub struct SourceFile<'a> {
    pub rel_path: String,
    pub class: FileClass,
    /// Full token stream, comments included.
    pub tokens: Vec<Token<'a>>,
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Per-token: inside a `#[test]`/`#[cfg(test)]`-attributed item body.
    in_test: Vec<bool>,
    /// Per-token: inside a `// lint:hot-path` region.
    in_hot: Vec<bool>,
    /// Parsed allow directives.
    pub allows: Vec<Allow>,
    /// Findings produced during analysis itself (malformed directives).
    directive_findings: Vec<Finding>,
}

impl<'a> SourceFile<'a> {
    /// Kind of the `i`-th *code* token; `Punct('\0')`-like sentinel (an
    /// empty-text Punct) past the end so rules can look ahead freely.
    pub fn code_kind(&self, ci: usize) -> TokenKind {
        self.code.get(ci).map_or(TokenKind::Punct, |&ti| self.tokens[ti].kind)
    }

    /// Text of the `i`-th code token ("" past the end).
    pub fn code_text(&self, ci: usize) -> &'a str {
        self.code.get(ci).map_or("", |&ti| self.tokens[ti].text)
    }

    /// Start line of the `i`-th code token (0 past the end).
    pub fn code_line(&self, ci: usize) -> u32 {
        self.code.get(ci).map_or(0, |&ti| self.tokens[ti].line)
    }

    /// Whether the `i`-th code token is inside a test-attributed body.
    pub fn code_in_test(&self, ci: usize) -> bool {
        self.code.get(ci).is_some_and(|&ti| self.in_test[ti])
    }

    /// Whether the `i`-th code token is inside a hot-path region.
    pub fn code_in_hot(&self, ci: usize) -> bool {
        self.code.get(ci).is_some_and(|&ti| self.in_hot[ti])
    }

    /// True if the code token is the punctuation `p`.
    pub fn code_is(&self, ci: usize, p: &str) -> bool {
        self.code_kind(ci) == TokenKind::Punct && self.code_text(ci) == p
    }

    /// True if code tokens `ci, ci+1` spell `::`.
    pub fn code_is_pathsep(&self, ci: usize) -> bool {
        self.code_is(ci, ":") && self.code_is(ci + 1, ":")
    }
}

/// Analyzes one source file: lexes, derives test/hot regions, parses allow
/// directives. `Err` carries a lex failure as a `parse` finding.
pub fn analyze<'a>(rel_path: &str, src: &'a str, class: FileClass) -> Result<SourceFile<'a>, Finding> {
    let tokens = lex(src).map_err(|e| Finding {
        rule: "parse",
        rel_path: rel_path.to_string(),
        line: e.line,
        message: format!("failed to lex: {}", e.message),
    })?;
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let mut sf = SourceFile {
        rel_path: rel_path.to_string(),
        class,
        in_test: vec![false; tokens.len()],
        in_hot: vec![false; tokens.len()],
        tokens,
        code,
        allows: Vec::new(),
        directive_findings: Vec::new(),
    };
    mark_test_regions(&mut sf);
    mark_hot_regions(&mut sf);
    parse_allows(&mut sf);
    Ok(sf)
}

/// Extracts directive text from a comment token: directives are plain `//`
/// comments (not `///` / `//!` docs — prose there may *mention* a directive)
/// whose text begins with `lint:` after the marker. Returns the trimmed
/// remainder.
fn directive_text(comment: &str) -> Option<&str> {
    let rest = comment.strip_prefix("//")?;
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    let rest = rest.trim_start();
    rest.starts_with("lint:").then_some(rest)
}

/// Starting from code index `ci`, finds the body of the item that follows:
/// the first `{` at bracket depth 0 (skipping over `(…)`/`[…]` groups, e.g.
/// argument lists and further attributes). Returns the code-index range of
/// the body *including* both braces, or `None` if a depth-0 `;` ends the
/// item first (e.g. a declaration).
fn item_body(sf: &SourceFile<'_>, mut ci: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    while ci < sf.code.len() {
        let t = sf.code_text(ci);
        if sf.code_kind(ci) == TokenKind::Punct {
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => return matching_brace(sf, ci).map(|close| (ci, close)),
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        ci += 1;
    }
    None
}

/// Given the code index of a `{`, returns the code index of its matching
/// `}` (or `None` on imbalance — the rules then treat the region as running
/// to end-of-file, the conservative choice).
fn matching_brace(sf: &SourceFile<'_>, open_ci: usize) -> Option<usize> {
    let mut depth = 0usize;
    for ci in open_ci..sf.code.len() {
        match sf.code_text(ci) {
            "{" if sf.code_kind(ci) == TokenKind::Punct => depth += 1,
            "}" if sf.code_kind(ci) == TokenKind::Punct => {
                depth -= 1;
                if depth == 0 {
                    return Some(ci);
                }
            }
            _ => {}
        }
    }
    None
}

fn mark_range(flags: &mut [bool], sf_code: &[usize], from_ci: usize, to_ci: usize) {
    for &ti in &sf_code[from_ci..=to_ci.min(sf_code.len() - 1)] {
        flags[ti] = true;
    }
}

/// Marks token spans covered by `#[test]`- / `#[cfg(test)]`- / `#[bench]`-
/// attributed items (functions or whole `mod tests { … }` bodies).
fn mark_test_regions(sf: &mut SourceFile<'_>) {
    let mut ci = 0usize;
    while ci < sf.code.len() {
        if sf.code_is(ci, "#") && sf.code_is(ci + 1, "[") {
            // Scan the attribute to its closing `]`, collecting idents.
            let mut depth = 0usize;
            let mut j = ci + 1;
            let mut is_test_attr = false;
            while j < sf.code.len() {
                match sf.code_text(j) {
                    "[" | "(" => depth += 1,
                    "]" | ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" | "bench" if sf.code_kind(j) == TokenKind::Ident => {
                        is_test_attr = true;
                    }
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr {
                if let Some((open, close)) = item_body(sf, j + 1) {
                    let code = std::mem::take(&mut sf.code);
                    mark_range(&mut sf.in_test, &code, open, close);
                    sf.code = code;
                }
            }
            ci = j + 1;
        } else {
            ci += 1;
        }
    }
}

/// Marks the region introduced by each `// lint:hot-path` comment: the next
/// `{…}` body at depth 0.
fn mark_hot_regions(sf: &mut SourceFile<'_>) {
    let directive_tis: Vec<usize> = sf
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.kind == TokenKind::LineComment
                && directive_text(t.text).is_some_and(|d| d.starts_with("lint:hot-path"))
        })
        .map(|(ti, _)| ti)
        .collect();
    for ti in directive_tis {
        // First code token after the directive.
        let start_ci = match sf.code.iter().position(|&cti| cti > ti) {
            Some(ci) => ci,
            None => {
                sf.directive_findings.push(Finding {
                    rule: "bad-allow",
                    rel_path: sf.rel_path.clone(),
                    line: sf.tokens[ti].line,
                    message: "lint:hot-path directive with no following item".to_string(),
                });
                continue;
            }
        };
        match item_body(sf, start_ci) {
            Some((open, close)) => {
                let code = std::mem::take(&mut sf.code);
                mark_range(&mut sf.in_hot, &code, open, close);
                sf.code = code;
            }
            None => sf.directive_findings.push(Finding {
                rule: "bad-allow",
                rel_path: sf.rel_path.clone(),
                line: sf.tokens[ti].line,
                message: "lint:hot-path directive not followed by a braced body".to_string(),
            }),
        }
    }
}

/// Parses `// lint:allow(<rules>): <reason>` directives; malformed ones
/// become non-suppressible `bad-allow` findings.
fn parse_allows(sf: &mut SourceFile<'_>) {
    for ti in 0..sf.tokens.len() {
        let t = sf.tokens[ti];
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let Some(directive) = directive_text(t.text) else { continue };
        if !directive.starts_with("lint:allow") {
            continue;
        }
        let bad = |sf: &mut SourceFile<'_>, msg: String| {
            sf.directive_findings.push(Finding {
                rule: "bad-allow",
                rel_path: sf.rel_path.clone(),
                line: t.line,
                message: msg,
            });
        };
        let Some(rest) = directive.strip_prefix("lint:allow(") else {
            bad(sf, "malformed lint:allow (expected `lint:allow(<rule>): <reason>`)".to_string());
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad(sf, "lint:allow missing closing `)`".to_string());
            continue;
        };
        let rule_list = &rest[..close];
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else {
            bad(sf, "lint:allow without a `:` reason — a bare allow is itself a violation".to_string());
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            bad(sf, "lint:allow with an empty reason — a bare allow is itself a violation".to_string());
            continue;
        }
        let rules: Vec<String> =
            rule_list.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
        if rules.is_empty() {
            bad(sf, "lint:allow names no rules".to_string());
            continue;
        }
        let mut ok = true;
        for r in &rules {
            if !rules::KNOWN_RULES.contains(&r.as_str()) {
                bad(sf, format!("lint:allow names unknown rule `{r}`"));
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        // Trailing comment (code earlier on the same line) suppresses its
        // own line; a standalone comment suppresses the next code line.
        let trailing = ti > 0
            && !matches!(sf.tokens[ti - 1].kind, TokenKind::LineComment)
            && sf.tokens[ti - 1].end_line == t.line;
        let target_line = if trailing {
            t.line
        } else {
            sf.code
                .iter()
                .find(|&&cti| cti > ti)
                .map_or(t.line + 1, |&cti| sf.tokens[cti].line)
        };
        sf.allows.push(Allow {
            rules,
            reason: reason.to_string(),
            target_line,
            comment_line: t.line,
        });
    }
}

/// Result of linting a tree: every finding (after suppression), every allow
/// in force, and the file count for reporting.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// `(rel_path, allow)` for each directive, for `--list-allows`.
    pub allows: Vec<(String, Allow)>,
    pub files_scanned: usize,
}

/// Lints a single in-memory source. Used by the CLI per file and by rule
/// unit tests. Returns findings after allow suppression, plus the allows.
pub fn lint_source(rel_path: &str, src: &str, class: FileClass) -> (Vec<Finding>, Vec<Allow>) {
    let sf = match analyze(rel_path, src, class) {
        Ok(sf) => sf,
        Err(finding) => return (vec![finding], Vec::new()),
    };
    let mut findings = rules::check_file(&sf);
    findings.extend(sf.directive_findings.iter().cloned());
    // Suppress: an allow kills findings of its rules on its target line.
    // `bad-allow` and `parse` are never suppressible.
    findings.retain(|f| {
        if f.rule == "bad-allow" || f.rule == "parse" {
            return true;
        }
        !sf.allows
            .iter()
            .any(|a| a.target_line == f.line && a.rules.iter().any(|r| r == f.rule))
    });
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (findings, sf.allows)
}

/// Recursively collects workspace `.rs` files under `root`, skipping
/// `target/`, VCS metadata and hidden directories. Sorted for determinism.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under `root` (the workspace checkout). I/O or lex
/// failures surface as findings so the gate can't silently skip a file.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in collect_rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let class = classify(&rel);
        let (findings, allows) = lint_source(&rel, &src, class);
        report.findings.extend(findings);
        report.allows.extend(allows.into_iter().map(|a| (rel.clone(), a)));
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));
    Ok(report)
}
