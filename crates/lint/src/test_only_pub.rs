//! `test-only-pub` — the one cross-file rule.
//!
//! rustc's `dead_code` lint ignores `pub` items of a library crate, so
//! a `pub fn` whose only callers are its own tests compiles silently.
//! This rule closes that gap: a `pub fn` in the non-test part of
//! `crates/*/src`, or a method declared in a `pub trait` there, is
//! flagged unless shipped code reaches it — the non-test part of the
//! crates' `src/`, the facade's `src/`, `examples/` and `benchmark/`.
//! Comments and strings never count (the engine strips them), and
//! neither does a `#[cfg(test)]` item.
//!
//! What counts as reaching it depends on the function:
//!
//! * an *associated function* — no `self` receiver, in an inherent
//!   `impl Type` block — is reached only by a `Type::name` path, or by
//!   `Self::name` inside any `impl` of `Type`;
//! * any other `pub fn` (a free function or a method) and every `pub
//!   trait` method is reached by name: a call or path reference
//!   (`.name(`, `::name`, `name(`) of that name anywhere in shipped
//!   code.
//!
//! The rule judges the whole tree at once, so only
//! [`crate::run_workspace`] runs it; a partial scan
//! ([`crate::run_files`]) cannot tell a missing caller from an unscanned
//! one and leaves it alone. Matching is by name, not by resolved path:
//! any caller of *a* method with the same name keeps every method of
//! that name, and a `Type::name` path keeps the associated function
//! `name` of every type called `Type`, which errs towards silence. So
//! does an `impl` whose type is a macro variable (`impl $t {`): its
//! functions are judged by name.

use crate::lexer::{Tok, TokKind};
use crate::rules::{cand, Candidate};
use crate::syntax::{parse_items, Item, ItemKind};
use std::collections::BTreeSet;
use std::ops::Range;

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

/// One `impl` block: its body, its self type (`None` when a macro
/// variable names it) and whether it is inherent (no `Trait for`).
struct ImplBlock {
    body: Range<usize>,
    ty: Option<String>,
    inherent: bool,
}

/// The `impl` blocks among `items`. An `impl` after `->`, `:`, `(`, `,`,
/// `<`, `&`, `=` or `+` is an `impl Trait` type, not a block.
fn impl_blocks(code: &[Tok<'_>], items: &[Item]) -> Vec<ImplBlock> {
    items
        .iter()
        .filter(|it| it.kind == ItemKind::Impl)
        .filter(|it| {
            it.kw_ix == 0 || {
                let prev = &code[it.kw_ix - 1];
                prev.is_ident("unsafe") || ['}', ';', '{', ']'].iter().any(|&c| prev.is_punct(c))
            }
        })
        .map(|it| {
            let header = &code[it.kw_ix + 1..it.body.start.saturating_sub(1).max(it.kw_ix + 1)];
            let header = header
                .iter()
                .position(|t| t.is_ident("where"))
                .map_or(header, |w| &header[..w]);
            ImplBlock {
                body: it.body.clone(),
                ty: (!header.iter().any(|t| t.is_punct('$'))).then(|| it.name.clone()),
                inherent: !header.iter().any(|t| t.is_ident("for")),
            }
        })
        .collect()
}

/// The innermost block of `blocks` whose body holds token `ix`.
fn enclosing(blocks: &[ImplBlock], ix: usize) -> Option<&ImplBlock> {
    blocks
        .iter()
        .filter(|b| b.body.contains(&ix))
        .min_by_key(|b| b.body.len())
}

/// Whether the function whose name is token `name_ix` takes a `self`
/// receiver (`self`, `mut self`, `&self`, `&'a mut self`, `self: T`).
fn has_receiver(code: &[Tok<'_>], name_ix: usize) -> bool {
    // The parameter list is the first `(` outside the generics.
    let mut angle = 0i32;
    let mut j = name_ix + 1;
    while let Some(t) = code.get(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !code[j - 1].is_punct('-') {
            angle -= 1;
        } else if angle == 0 && t.is_punct('(') {
            break;
        }
        j += 1;
    }
    j += 1;
    while code
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut"))
    {
        j += 1;
    }
    code.get(j).is_some_and(|t| t.is_ident("self"))
}

/// Token indices of the names of the methods declared directly in the
/// `pub trait` blocks among `items`.
fn pub_trait_methods(code: &[Tok<'_>], items: &[Item]) -> Vec<usize> {
    let traits: Vec<&Item> = items
        .iter()
        .filter(|it| it.kind == ItemKind::Trait && it.kw_ix > 0)
        .filter(|it| code[it.kw_ix - 1].is_ident("pub"))
        .collect();
    let fns: Vec<&Item> = items.iter().filter(|it| it.kind == ItemKind::Fn).collect();
    fns.iter()
        .filter(|f| traits.iter().any(|t| t.body.contains(&f.kw_ix)))
        .filter(|f| !fns.iter().any(|g| g.body.contains(&f.kw_ix)))
        .map(|f| f.kw_ix + 1)
        .collect()
}

/// Runs the rule over every file of the tree; `files` pairs each
/// relative, `/`-separated path with its code tokens (comments
/// stripped). Returns the candidates per file, in `files` order.
pub fn check(files: &[(&str, Vec<Tok<'_>>)]) -> Vec<Vec<Candidate>> {
    let non_test = |code: &[Tok<'_>]| {
        let tests = test_items(code);
        (0..code.len()).filter(move |i| !tests.iter().any(|r| r.contains(i)))
    };
    // Names called or path-referenced, and the `Type::name` paths (with
    // `Self` resolved to its impl's type) among them.
    let mut called = BTreeSet::new();
    let mut paths: BTreeSet<(String, &str)> = BTreeSet::new();
    for (_, code) in files.iter().filter(|(p, _)| is_caller(p)) {
        let impls = impl_blocks(code, &parse_items(code));
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
                let ty = match code.get(i.wrapping_sub(3)) {
                    Some(_) if !(punct(i - 1, ':') && punct(i - 2, ':')) => None,
                    Some(t) if t.is_ident("Self") => {
                        enclosing(&impls, i).and_then(|b| b.ty.clone())
                    }
                    Some(t) if t.kind == TokKind::Ident => Some(t.text.to_owned()),
                    _ => None,
                };
                if let Some(ty) = ty {
                    paths.insert((ty, code[i].text));
                }
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
            let items = parse_items(code);
            let impls = impl_blocks(code, &items);
            let tests = test_items(code);
            let flag = |name: &Tok<'_>, what: &str| {
                cand(
                    RULE,
                    name,
                    format!(
                        "`{what}` has no caller in shipped code (crates' src/, \
                         examples/, benchmark/) — only tests reach it; delete it, \
                         or keep it with an allow that says why",
                    ),
                )
            };
            for ix in pub_trait_methods(code, &items) {
                let name = &code[ix];
                if !tests.iter().any(|r| r.contains(&ix)) && !called.contains(name.text) {
                    out.push(flag(name, &format!("pub trait method {}", name.text)));
                }
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
                let reached = match enclosing(&impls, i) {
                    // An associated function: only its own type's path.
                    Some(ImplBlock {
                        ty: Some(ty),
                        inherent: true,
                        ..
                    }) if !has_receiver(code, kw + 1) => paths.contains(&(ty.clone(), name.text)),
                    _ => called.contains(name.text),
                };
                if !reached {
                    out.push(flag(name, &format!("pub fn {}", name.text)));
                }
            }
            out
        })
        .collect()
}
