//! `test-only-pub` — the one cross-file rule.
//!
//! rustc's `dead_code` lint ignores `pub` items of a library crate, so
//! a `pub fn` whose only callers are its own tests compiles silently.
//! This rule closes that gap by name: a `pub fn` in the non-test part
//! of `crates/*/src` is flagged unless its name is called or
//! path-referenced (`.name(`, `::name`, `name(`) from the non-test part
//! of shipped code — the crates' `src/`, the facade's `src/`,
//! `examples/` and `benchmark/`. Comments and strings never count (the
//! engine strips them), and neither does a `#[cfg(test)]` item.
//!
//! The rule judges the whole tree at once, so only
//! [`crate::run_workspace`] runs it; a partial scan
//! ([`crate::run_files`]) cannot tell a missing caller from an unscanned
//! one and leaves it alone. Matching is by name, not by resolved path:
//! any caller of *a* function with the same name keeps every `pub fn`
//! of that name, which errs towards silence.

use crate::lexer::{Tok, TokKind};
use crate::rules::{cand, Candidate};
use std::collections::BTreeSet;

/// The rule id.
pub const RULE: &str = "test-only-pub";

/// The dev-dependency shim exempt from the rule: it mirrors an external
/// crate's API for the tests that use it.
const EXEMPT: &str = "crates/proptest/";

/// Whether `path` is a crate's library or binary source.
fn is_crate_src(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// Whether calls in `path` count as shipped callers.
fn is_caller(path: &str) -> bool {
    is_crate_src(path)
        || ["src/", "examples/", "benchmark/"]
            .iter()
            .any(|p| path.starts_with(p))
}

/// Token ranges of the `#[cfg(test)]` items in `code`: from the
/// attribute through the item's closing `}` or terminating `;`.
fn test_items(code: &[Tok<'_>]) -> Vec<std::ops::Range<usize>> {
    let attr = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut out = Vec::new();
    let mut i = 0;
    while i + attr.len() <= code.len() {
        if !attr.iter().zip(&code[i..]).all(|(a, t)| t.text == *a) {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut end = code.len();
        for (j, t) in code.iter().enumerate().skip(i + attr.len()) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            } else if depth == 0 && t.is_punct(';') {
                end = j + 1;
                break;
            }
        }
        out.push(i..end);
        i = end;
    }
    out
}

/// Runs the rule over every file of the tree; `files` pairs each
/// relative, `/`-separated path with its code tokens (comments
/// stripped). Returns the candidates per file, in `files` order.
pub fn check(files: &[(&str, Vec<Tok<'_>>)]) -> Vec<Vec<Candidate>> {
    let non_test = |code: &[Tok<'_>]| {
        let tests = test_items(code);
        (0..code.len()).filter(move |i| !tests.iter().any(|r| r.contains(i)))
    };
    let mut called = BTreeSet::new();
    for (_, code) in files.iter().filter(|(p, _)| is_caller(p)) {
        let punct = |k: usize, c: char| code.get(k).is_some_and(|t| t.is_punct(c));
        let turbofish = |k: usize| punct(k, ':') && punct(k + 1, ':') && punct(k + 2, '<');
        for i in non_test(code) {
            // `name(` / `.name(` / `name::<T>(`, but not the `fn name(`
            // that defines it.
            let call =
                (punct(i + 1, '(') || turbofish(i + 1)) && !(i > 0 && code[i - 1].is_ident("fn"));
            // `::name` as a path's last segment (`.map(Type::name)`); in
            // `crate::name::Item` it is a module.
            let leaf = i >= 2
                && punct(i - 1, ':')
                && punct(i - 2, ':')
                && (!punct(i + 1, ':') || turbofish(i + 1));
            if code[i].kind == TokKind::Ident && (call || leaf) {
                called.insert(code[i].text);
            }
        }
    }
    files
        .iter()
        .map(|(path, code)| {
            let mut out = Vec::new();
            if !is_crate_src(path) || path.starts_with(EXEMPT) {
                return out;
            }
            for i in non_test(code) {
                // `pub fn name` or `pub const fn name`; `pub(crate)` is
                // rustc's to judge.
                let kw = if code.get(i + 1).is_some_and(|t| t.is_ident("const")) {
                    i + 2
                } else {
                    i + 1
                };
                let is_pub_fn =
                    code[i].is_ident("pub") && code.get(kw).is_some_and(|t| t.is_ident("fn"));
                let Some(name) = code
                    .get(kw + 1)
                    .filter(|t| is_pub_fn && t.kind == TokKind::Ident)
                else {
                    continue;
                };
                if !called.contains(name.text) {
                    out.push(cand(
                        RULE,
                        name,
                        format!(
                            "`pub fn {}` has no caller in shipped code (crates' src/, \
                             examples/, benchmark/) — only tests reach it; delete it, \
                             or keep it with an allow that says why",
                            name.text
                        ),
                    ));
                }
            }
            out
        })
        .collect()
}
