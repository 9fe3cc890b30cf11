//! `vread-lint` — workspace-native determinism & simulation-safety
//! static analyzer.
//!
//! The repo's core claim is bit-identical replay of the vRead
//! cycle-accounting simulation (`repro --jobs N` output is byte-equal
//! for every N). That property dies silently: one unordered `HashMap`
//! iteration that leaks into event order, one `Instant::now()` feeding
//! a metric, one truncating `as u32` in the byte accounting, and every
//! replay-based test breaks with no compiler diagnostic. This crate is
//! the compiler-adjacent guard: a lossless lexer ([`lexer`]), a rule
//! catalog ([`rules`]), and an engine (this module) that walks the
//! workspace's own sources, applies the rules, and honors
//! `// vread-lint: allow(rule, "reason")` suppressions.
//!
//! Self-contained by design — no external crates — matching the
//! workspace's offline-build constraint.
//!
//! # Suppressions
//!
//! ```text
//! let t0 = Instant::now(); // vread-lint: allow(wall-clock, "reporting only")
//!
//! // vread-lint: allow(unordered-iter, "sorted before use")
//! fn drain_sorted(&mut self) { … }   // covers the whole item
//! ```
//!
//! A trailing annotation suppresses its own line; a standalone comment
//! suppresses the statement or item that starts on the next code line
//! (through the matching `}` or terminating `;`/`,`). Every allow must
//! name a known rule and carry a reason string, and must actually
//! suppress something — otherwise the run fails with `bad-allow` /
//! `unused-allow`.
//!
//! # Exit codes (stable)
//!
//! * `0` — clean
//! * `1` — at least one catalog-rule violation
//! * `2` — usage or I/O error
//! * `3` — only annotation problems (`bad-allow` / `unused-allow`)
//! * `4` — clean, but a per-rule count grew past `lint-baseline.json`
//!   (the suppression ratchet; see [`baseline`])

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod syntax;
pub mod syntax_rules;
pub mod test_only_pub;
pub mod token_rules;

use baseline::RuleCounts;
use lexer::{lex, Tok};
use rules::{check_all, is_known_rule};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One confirmed violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (catalog rule or `bad-allow`/`unused-allow`).
    pub rule: String,
    /// Path relative to the scanned root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All violations, sorted by (file, line, col, rule).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Used `allow(…)` annotations per rule — the suppression
    /// ratchet's raw material (see [`baseline`]).
    pub allow_counts: BTreeMap<String, u64>,
}

/// How a lint run classifies, in decreasing severity. The binaries map
/// this (plus the ratchet result) onto distinct exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// At least one catalog-rule violation.
    Violations,
    /// Only annotation problems (`bad-allow` / `unused-allow`).
    BadAllow,
    /// No violations of any kind.
    Clean,
}

impl LintReport {
    /// Whether the run found nothing.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Severity class of this run (ratchet regressions are judged
    /// separately, against a [`baseline::Baseline`]).
    pub fn gate(&self) -> Gate {
        if self
            .violations
            .iter()
            .any(|v| !rules::META_RULES.contains(&v.rule.as_str()))
        {
            Gate::Violations
        } else if !self.violations.is_empty() {
            Gate::BadAllow
        } else {
            Gate::Clean
        }
    }

    /// Per-rule `(violations, allows)` counters for the ratchet. Every
    /// catalog and meta rule appears, so a baseline diff lists rules
    /// whose counts are zero too.
    pub fn rule_counts(&self) -> BTreeMap<String, RuleCounts> {
        let mut out: BTreeMap<String, RuleCounts> = rules::RULES
            .iter()
            .map(|r| r.id.to_owned())
            .chain(rules::META_RULES.iter().map(|r| (*r).to_owned()))
            .map(|id| (id, RuleCounts::default()))
            .collect();
        for v in &self.violations {
            out.entry(v.rule.clone()).or_default().violations += 1;
        }
        for (rule, n) in &self.allow_counts {
            out.entry(rule.clone()).or_default().allows += n;
        }
        out
    }

    /// Renders the human-readable report (one line per violation plus a
    /// summary).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                v.file, v.line, v.col, v.rule, v.message
            );
        }
        let files: std::collections::BTreeSet<&str> =
            self.violations.iter().map(|v| v.file.as_str()).collect();
        let _ = writeln!(
            out,
            "vread-lint: {} violation(s) in {} file(s); {} file(s) scanned",
            self.violations.len(),
            files.len(),
            self.files_scanned
        );
        out
    }

    /// Renders the machine-readable report (stable field order, sorted
    /// violations — byte-identical across runs).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"tool\": \"vread-lint\",\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
                json_escape(&v.rule),
                json_escape(&v.file),
                v.line,
                v.col,
                json_escape(&v.message)
            );
            out.push_str(if i + 1 < self.violations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Allow {
    rule: String,
    /// Inclusive line range the allow covers.
    from: u32,
    to: u32,
    /// Line of the annotation itself (for unused-allow reporting).
    at: u32,
    used: bool,
}

/// Parses every `vread-lint:` annotation out of the comment tokens.
/// Returns the allows plus any `bad-allow` violations.
fn parse_allows(toks: &[Tok<'_>]) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (ix, t) in toks.iter().enumerate() {
        // Only the tool-name-plus-colon marker makes a comment an
        // annotation attempt; prose merely naming the tool is left
        // alone. The marker is spliced so this comment stays prose.
        if !t.is_comment() || !t.text.contains(concat!("vread-lint", ":")) {
            continue;
        }
        // Doc comments (`///`, `//!`, `/**`, `/*!`) are documentation,
        // not annotations — they may *describe* the allow syntax.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let trailing = ix
            .checked_sub(1)
            .and_then(|p| toks.get(p))
            .is_some_and(|p| !p.is_comment() && p.line == t.line);
        let mut found_any = false;
        let mut rest = t.text;
        while let Some(pos) = rest.find("allow(") {
            rest = &rest[pos + "allow(".len()..];
            found_any = true;
            // Rule id runs to the first `,` or `)`; the reason is a
            // quoted string that may itself contain parentheses.
            let id_end = rest.find([',', ')']).unwrap_or(rest.len());
            let rule = rest[..id_end].trim().to_owned();
            let mut reason = String::new();
            if rest[id_end..].starts_with(',') {
                let after = &rest[id_end + 1..];
                if let Some(q0) = after.find('"') {
                    if let Some(q1) = after[q0 + 1..].find('"') {
                        reason = after[q0..=q0 + 1 + q1].to_owned();
                        rest = &after[q0 + q1 + 2..];
                    } else {
                        rest = "";
                    }
                } else {
                    rest = after;
                }
            } else {
                // No reason clause: skip past the rule id (and the `)`
                // if present) before scanning for the next allow.
                rest = &rest[(id_end + 1).min(rest.len())..];
            }
            let (rule, reason) = (rule.as_str(), reason.as_str());
            if !is_known_rule(rule) {
                bad.push(Violation {
                    rule: "bad-allow".to_owned(),
                    file: String::new(),
                    line: t.line,
                    col: t.col,
                    message: format!("allow names unknown rule `{rule}`"),
                });
                continue;
            }
            if reason.len() < 2 || !reason.starts_with('"') || !reason.ends_with('"') {
                bad.push(Violation {
                    rule: "bad-allow".to_owned(),
                    file: String::new(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "allow({rule}) must carry a quoted reason: \
                         allow({rule}, \"why this is safe\")"
                    ),
                });
                continue;
            }
            if reason.trim_matches('"').trim().is_empty() {
                bad.push(Violation {
                    rule: "bad-allow".to_owned(),
                    file: String::new(),
                    line: t.line,
                    col: t.col,
                    message: format!("allow({rule}) has an empty reason"),
                });
                continue;
            }
            let (from, to) = if trailing {
                (t.line, t.line)
            } else {
                standalone_span(toks, ix)
            };
            allows.push(Allow {
                rule: rule.to_owned(),
                from,
                to,
                at: t.line,
                used: false,
            });
        }
        if !found_any {
            bad.push(Violation {
                rule: "bad-allow".to_owned(),
                file: String::new(),
                line: t.line,
                col: t.col,
                message: "`vread-lint:` marker with no parsable \
                          allow(rule, \"reason\") clause"
                    .to_owned(),
            });
        }
    }
    (allows, bad)
}

/// Line span covered by a standalone allow at token index `ix`: the
/// statement or item starting at the next code token, through its
/// matching close brace or terminating `;`/`,` at depth zero.
fn standalone_span(toks: &[Tok<'_>], ix: usize) -> (u32, u32) {
    let mut start = None;
    for t in toks.iter().skip(ix + 1) {
        if !t.is_comment() {
            start = Some(t);
            break;
        }
    }
    let Some(start) = start else {
        // Annotation at end of file covers nothing beyond its own line.
        return (toks[ix].line, toks[ix].line);
    };
    let from = start.line;
    let mut depth = 0i32;
    let mut last = from;
    for t in toks.iter().skip(ix + 1) {
        if t.is_comment() {
            continue;
        }
        last = t.line;
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            // A `}` closing back to depth 0 ends an item body; any
            // closer going negative closes an *enclosing* scope (e.g.
            // the annotated statement was the last in its block).
            if (depth == 0 && t.is_punct('}')) || depth < 0 {
                return (from, t.line);
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_punct(',')) {
            return (from, t.line);
        }
    }
    (from, last)
}

// ---------------------------------------------------------------------------
// Per-file and workspace entry points
// ---------------------------------------------------------------------------

/// Lints one source text. `virtual_path` determines path-scoped rules
/// and appears in the violations; it needs `/` separators. Returns the
/// violations and the rule ids of every *used* allow annotation (one
/// entry per annotation — the ratchet's unit of growth). The whole-tree
/// rule ([`test_only_pub`]) needs every file, so this partial view
/// neither runs it nor judges its allows.
pub fn lint_source_counted(virtual_path: &str, src: &str) -> (Vec<Violation>, Vec<String>) {
    lint_tokens(virtual_path, &lex(src), None)
}

/// The per-file engine. `tree` holds the whole-tree rule's candidates
/// for this file when the whole tree was scanned, `None` otherwise.
fn lint_tokens(
    virtual_path: &str,
    toks: &[Tok<'_>],
    tree: Option<Vec<rules::Candidate>>,
) -> (Vec<Violation>, Vec<String>) {
    let code: Vec<Tok<'_>> = toks.iter().filter(|t| !t.is_comment()).copied().collect();
    let (mut allows, mut out) = parse_allows(toks);
    for v in &mut out {
        v.file = virtual_path.to_owned();
    }
    if tree.is_none() {
        allows.retain(|a| a.rule != test_only_pub::RULE);
    }
    let mut cands = check_all(virtual_path, &code);
    cands.extend(tree.into_iter().flatten());
    for c in cands {
        let suppressed = allows
            .iter_mut()
            .find(|a| a.rule == c.rule && (a.from..=a.to).contains(&c.line));
        match suppressed {
            Some(a) => a.used = true,
            None => out.push(Violation {
                rule: c.rule.to_owned(),
                file: virtual_path.to_owned(),
                line: c.line,
                col: c.col,
                message: c.message,
            }),
        }
    }
    let mut used = Vec::new();
    for a in &allows {
        if a.used {
            used.push(a.rule.clone());
        } else {
            out.push(Violation {
                rule: "unused-allow".to_owned(),
                file: virtual_path.to_owned(),
                line: a.at,
                col: 1,
                message: format!(
                    "allow({}) suppresses nothing (lines {}..={}); remove it or \
                     move it next to the violation",
                    a.rule, a.from, a.to
                ),
            });
        }
    }
    (out, used)
}

/// Directory names the workspace walk never descends into anywhere in
/// the tree: build output, VCS state, vendored JS.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Whether `path` is the lint crate's own fixtures directory (which
/// contains deliberate violations and must not fail the self-check).
/// The skip is scoped to `crates/lint/…/fixtures` on purpose: a future
/// `fixtures/` directory of *real* code anywhere else in the workspace
/// must be scanned, not silently skipped by its bare name.
fn is_lint_fixture_dir(name: &str, path: &Path) -> bool {
    name == "fixtures"
        && path
            .to_string_lossy()
            .replace('\\', "/")
            .contains("crates/lint/")
}

/// Recursively collects the workspace's `.rs` files under `root`,
/// sorted for deterministic report order.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !is_lint_fixture_dir(&name, &path) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under `root` (skipping `target/`, `.git/`,
/// and `fixtures/`), the whole-tree rule ([`test_only_pub`]) included.
pub fn run_workspace(root: &Path) -> std::io::Result<LintReport> {
    lint_paths(root, &collect_rs_files(root)?, true)
}

/// Lints an explicit file list, reporting paths relative to `root`. A
/// partial scan skips the whole-tree rule.
pub fn run_files(root: &Path, files: &[PathBuf]) -> std::io::Result<LintReport> {
    lint_paths(root, files, false)
}

fn lint_paths(root: &Path, files: &[PathBuf], whole_tree: bool) -> std::io::Result<LintReport> {
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(path)?));
    }
    let results: Vec<(Vec<Violation>, Vec<String>)> = if whole_tree {
        let toks: Vec<Vec<Tok<'_>>> = sources.iter().map(|(_, src)| lex(src)).collect();
        let code: Vec<(&str, Vec<Tok<'_>>)> = sources
            .iter()
            .zip(&toks)
            .map(|((rel, _), t)| {
                let code = t.iter().filter(|t| !t.is_comment()).copied().collect();
                (rel.as_str(), code)
            })
            .collect();
        let tree = test_only_pub::check(&code);
        code.iter()
            .zip(&toks)
            .zip(tree)
            .map(|(((rel, _), toks), cands)| lint_tokens(rel, toks, Some(cands)))
            .collect()
    } else {
        sources
            .iter()
            .map(|(rel, src)| lint_source_counted(rel, src))
            .collect()
    };
    let mut report = LintReport::default();
    for (violations, used) in results {
        report.violations.extend(violations);
        for rule in used {
            *report.allow_counts.entry(rule).or_insert(0) += 1;
        }
        report.files_scanned += 1;
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok(report)
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src =
            "fn f() { let t = Instant::now(); // vread-lint: allow(wall-clock, \"test\")\n}\n";
        let v = lint_source_counted("x.rs", src).0;
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn standalone_allow_covers_item() {
        let src = "// vread-lint: allow(wall-clock, \"timing harness\")\n\
                   fn measure() {\n    let a = Instant::now();\n    let b = Instant::now();\n}\n";
        let v = lint_source_counted("x.rs", src).0;
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unused_allow_fails() {
        let src = "// vread-lint: allow(wall-clock, \"nothing here\")\nfn f() {}\n";
        let v = lint_source_counted("x.rs", src).0;
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unused-allow");
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let src = "fn f() { let t = Instant::now(); } // vread-lint: allow(wall-clock)\n";
        let v = lint_source_counted("x.rs", src).0;
        assert!(v.iter().any(|v| v.rule == "bad-allow"), "{v:?}");
        // The wall-clock violation itself still fires (no valid allow).
        assert!(v.iter().any(|v| v.rule == "wall-clock"), "{v:?}");
    }

    #[test]
    fn unknown_rule_is_bad() {
        let src = "// vread-lint: allow(no-such-rule, \"x\")\nfn f() {}\n";
        let v = lint_source_counted("x.rs", src).0;
        assert!(v.iter().any(|v| v.rule == "bad-allow"), "{v:?}");
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let report = LintReport {
            violations: vec![Violation {
                rule: "wall-clock".into(),
                file: "a\"b.rs".into(),
                line: 1,
                col: 2,
                message: "x".into(),
            }],
            files_scanned: 1,
            ..Default::default()
        };
        let j = report.render_json();
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\"files_scanned\": 1,"));
    }
}
