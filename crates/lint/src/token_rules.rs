//! The token-window rules (lint v1).
//!
//! These rules pattern-match short windows of the code token stream
//! and need no structure beyond it: a `Instant::now` path, a narrowing
//! `as` cast, an iteration method on a hash-typed name. Structural
//! rules — confinement at call-path granularity, match-arm analysis —
//! live in [`crate::syntax_rules`] on top of [`crate::syntax`].

use crate::lexer::{Tok, TokKind};
use crate::rules::{cand, Candidate};
use std::collections::BTreeSet;

/// Runs every token rule over `code` (comment- and whitespace-free
/// tokens of one file). `path` uses `/` separators and is only
/// consulted for path-scoped rules (checked-cast).
pub fn check_token_rules(path: &str, code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    wall_clock(code, out);
    unordered_iter(code, out);
    ambient_entropy(code, out);
    if checked_cast_in_scope(path) {
        checked_cast(code, out);
    }
    float_accum(code, out);
    threading(code, out);
}

/// checked-cast guards the cycle/byte accounting of the simulator and
/// the virtualization substrate; other crates stay unscoped to avoid
/// drowning the signal in index arithmetic.
pub fn checked_cast_in_scope(path: &str) -> bool {
    path.contains("crates/sim/src") || path.contains("crates/host/src")
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

fn wall_clock(code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    for (i, t) in code.iter().enumerate() {
        if t.is_ident("Instant")
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 3), Some(n) if n.is_ident("now"))
        {
            out.push(cand(
                "wall-clock",
                t,
                "Instant::now() reads host wall-clock time; sim-visible code must \
                 derive time from World::now()"
                    .to_owned(),
            ));
        }
        if t.is_ident("SystemTime") {
            out.push(cand(
                "wall-clock",
                t,
                "SystemTime is host wall-clock state; sim-visible code must derive \
                 time from World::now()"
                    .to_owned(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Whether `t` names a hash-ordered collection type: `HashMap`/`HashSet`
/// themselves or any alias spelled `…HashMap`/`…HashSet`, such as the
/// seedless-hasher maps `vread_sim::hash::IdHashMap`/`IdHashSet`. A
/// seedless hasher repeats its order from run to run, but that order
/// still follows the hash function and the table's growth history, not
/// the program's logic, so anything derived from it shifts when either
/// changes.
fn is_hash_type(t: &Tok<'_>) -> bool {
    t.kind == TokKind::Ident && (t.text.ends_with("HashMap") || t.text.ends_with("HashSet"))
}

/// Collects identifiers that this file declares (or ascribes) with a
/// hash-ordered collection type (see [`is_hash_type`]): struct fields,
/// `let` bindings with type ascriptions, and `let x = HashMap::new()`-
/// style initializers.
fn hash_named(code: &[Tok<'_>]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name: …HashMap<…>…` — a field or an ascription. Skip `a::b`
        // paths on either side of the colon.
        if matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && !matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && !matches!(i.checked_sub(1).and_then(|p| code.get(p)), Some(p) if p.is_punct(':'))
        {
            let mut depth = 0i32;
            for u in code.iter().take(code.len().min(i + 64)).skip(i + 2) {
                if depth == 0
                    && (u.is_punct(',')
                        || u.is_punct(';')
                        || u.is_punct('=')
                        || u.is_punct(')')
                        || u.is_punct('{')
                        || u.is_punct('}'))
                {
                    break;
                }
                if u.is_punct('<') || u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct('>') || u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if is_hash_type(u) {
                    names.insert(t.text.to_owned());
                    break;
                }
            }
        }
        // `let [mut] name … = … HashMap::… ;`
        if t.is_ident("let") {
            let mut j = i + 1;
            if matches!(code.get(j), Some(n) if n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = code.get(j).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            for u in code.iter().skip(j + 1).take(64) {
                if u.is_punct(';') {
                    break;
                }
                if is_hash_type(u) {
                    names.insert(name.text.to_owned());
                    break;
                }
            }
        }
    }
    names
}

fn unordered_iter(code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    let names = hash_named(code);
    if names.is_empty() {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        // `name.iter()` / `reg.name.values()` — the receiver's last path
        // segment is a known hash-typed name.
        if t.kind == TokKind::Ident
            && names.contains(t.text)
            && matches!(code.get(i + 1), Some(n) if n.is_punct('.'))
        {
            if let Some(m) = code.get(i + 2) {
                if m.kind == TokKind::Ident
                    && ITER_METHODS.contains(&m.text)
                    && matches!(code.get(i + 3), Some(n) if n.is_punct('('))
                {
                    out.push(cand(
                        "unordered-iter",
                        t,
                        format!(
                            "`{}.{}()` iterates a HashMap/HashSet in hash order; \
                             use BTreeMap/BTreeSet or drain through a sorted buffer",
                            t.text, m.text
                        ),
                    ));
                }
            }
        }
        // `for pat in [&][mut] [recv.]name { …` — direct for-loop over
        // the collection.
        if t.is_ident("for") {
            // Find the `in` at paren-depth 0 (patterns may contain `(`).
            let mut depth = 0i32;
            let mut in_ix = None;
            for (j, u) in code
                .iter()
                .enumerate()
                .take(code.len().min(i + 24))
                .skip(i + 1)
            {
                if u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && u.is_ident("in") {
                    in_ix = Some(j);
                    break;
                }
            }
            let Some(in_ix) = in_ix else { continue };
            // Tokens between `in` and the loop body `{`.
            let mut expr: Vec<&Tok<'_>> = Vec::new();
            for u in code.iter().skip(in_ix + 1).take(12) {
                if u.is_punct('{') {
                    break;
                }
                expr.push(u);
            }
            let mut e = expr.as_slice();
            while let Some(first) = e.first() {
                if first.is_punct('&') || first.is_ident("mut") {
                    e = &e[1..];
                } else {
                    break;
                }
            }
            let target = match e {
                [x] => Some(x),
                [_, dot, x] if dot.is_punct('.') => Some(x),
                _ => None,
            };
            if let Some(x) = target {
                if x.kind == TokKind::Ident && names.contains(x.text) {
                    out.push(cand(
                        "unordered-iter",
                        x,
                        format!(
                            "`for … in {}` iterates a HashMap/HashSet in hash order; \
                             use BTreeMap/BTreeSet or drain through a sorted buffer",
                            x.text
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ambient-entropy
// ---------------------------------------------------------------------------

const ENTROPY_IDENTS: &[&str] = &[
    "RandomState",
    "DefaultHasher",
    "OsRng",
    "ThreadRng",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

fn ambient_entropy(code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&t.text) {
            out.push(cand(
                "ambient-entropy",
                t,
                format!(
                    "`{}` draws ambient entropy, which breaks bit-identical replay; \
                     seed explicitly via vread_sim::rng",
                    t.text
                ),
            ));
        }
        // `rand::random` / `rand::thread_rng` path heads.
        if t.is_ident("rand")
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
        {
            out.push(cand(
                "ambient-entropy",
                t,
                "the `rand` crate's ambient generators break bit-identical replay; \
                 seed explicitly via vread_sim::rng"
                    .to_owned(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// checked-cast
// ---------------------------------------------------------------------------

/// Target types for which an `as` cast can silently truncate a 64-bit
/// cycle or byte count. `usize`/`u64`/`i64`/`f64` are excluded: on the
/// supported 64-bit targets those are lossless widenings for the id and
/// counter types the accounting paths use.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

fn checked_cast(code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    for (i, t) in code.iter().enumerate() {
        if t.is_ident("as") {
            if let Some(ty) = code.get(i + 1) {
                if ty.kind == TokKind::Ident && NARROW_TYPES.contains(&ty.text) {
                    out.push(cand(
                        "checked-cast",
                        t,
                        format!(
                            "narrowing `as {}` can silently truncate accounting values; \
                             use try_into() or justify the cast",
                            ty.text
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// threading
// ---------------------------------------------------------------------------

/// Shared-state type and module names whose bare mention marks ad-hoc
/// concurrency. The bare ident `thread` is *not* in this list: the sim's
/// own vocabulary (ThreadId fields, `thread_host`, …) uses it heavily,
/// and `use std::thread;` alone does nothing — only the spawning tails
/// below actually create OS threads.
const THREADING_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "mpsc",
    "rayon",
    "crossbeam",
];

/// `thread::…` path tails that create OS threads. Benign tails like
/// `thread::available_parallelism` stay unflagged.
const THREAD_SPAWN_TAILS: &[&str] = &["spawn", "scope", "Builder"];

fn threading(code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    for (i, t) in code.iter().enumerate() {
        // `thread::spawn` / `thread::scope` / `thread::Builder` paths.
        if t.is_ident("thread")
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 3),
                Some(n) if n.kind == TokKind::Ident && THREAD_SPAWN_TAILS.contains(&n.text))
        {
            out.push(cand(
                "threading",
                t,
                format!(
                    "`thread::{}` starts OS threads outside the sanctioned worker \
                     pool; route parallelism through vread_sim::par",
                    code[i + 3].text
                ),
            ));
        }
        // `.spawn(` method calls — scoped-thread and builder handles.
        if t.is_ident("spawn")
            && matches!(i.checked_sub(1).and_then(|p| code.get(p)), Some(p) if p.is_punct('.'))
            && matches!(code.get(i + 1), Some(n) if n.is_punct('('))
        {
            out.push(cand(
                "threading",
                t,
                "`.spawn(…)` starts an OS thread outside the sanctioned worker \
                 pool; route parallelism through vread_sim::par"
                    .to_owned(),
            ));
        }
        // Shared-state primitives and concurrency crates by name.
        if t.kind == TokKind::Ident
            && (THREADING_IDENTS.contains(&t.text)
                || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len()))
        {
            out.push(cand(
                "threading",
                t,
                format!(
                    "`{}` is cross-thread shared state; sim results must flow \
                     through vread_sim::par message passing instead",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// float-accum
// ---------------------------------------------------------------------------

fn float_accum(code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    for (i, t) in code.iter().enumerate() {
        // `.sum::<f64>()` / `.product::<f32>()` turbofish reductions.
        if (t.is_ident("sum") || t.is_ident("product"))
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 3), Some(n) if n.is_punct('<'))
            && matches!(code.get(i + 4), Some(n) if n.is_ident("f64") || n.is_ident("f32"))
        {
            out.push(cand(
                "float-accum",
                t,
                format!(
                    "`{}::<{}>()` accumulates floats in iteration order; assert the \
                     source order is fixed, or accumulate integers",
                    t.text,
                    code[i + 4].text
                ),
            ));
        }
        // `.fold(0.0, …)` — float seed reduction.
        if t.is_ident("fold") && matches!(code.get(i + 1), Some(n) if n.is_punct('(')) {
            if let Some(seed) = code.get(i + 2) {
                if seed.kind == TokKind::Number && seed.text.contains('.') {
                    out.push(cand(
                        "float-accum",
                        t,
                        "`fold` with a float seed accumulates in iteration order; \
                         assert the source order is fixed, or accumulate integers"
                            .to_owned(),
                    ));
                }
            }
        }
    }
}
