//! The rule catalog and dispatch.
//!
//! Every rule guards an invariant the deterministic replay actually
//! depends on (DESIGN.md §11, §16). Rules come in two families:
//!
//! * **token rules** ([`crate::token_rules`]) pattern-match short
//!   windows of the code token stream (comments and string literals
//!   are already stripped by the engine), so rule text inside strings
//!   or comments never fires;
//! * **syntax rules** ([`crate::syntax_rules`]) run over the
//!   brace-matched [`crate::syntax`] layer — item boundaries, `match`
//!   arms, dotted call paths — and enforce *confinement*: an operation
//!   is legal only inside its sanctioned wrapper file.
//!
//! Rules are deliberately approximate: they over-approximate, and the
//! `// vread-lint: allow(rule, "reason")` annotation is the pressure
//! valve. An allow without a reason, or one that suppresses nothing, is
//! itself a violation — annotations stay honest — and the suppression
//! ratchet (`lint-baseline.json`, DESIGN.md §16) fails the build when
//! the per-rule allow count grows.

use crate::lexer::Tok;

pub use crate::token_rules::checked_cast_in_scope;

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable rule id, as used in `allow(...)`.
    pub id: &'static str,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
}

/// All suppressible rules, in catalog order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        summary: "Instant::now()/SystemTime read host wall-clock time; sim-visible \
                  code must use World::now(). Annotate legitimate host-timing sites.",
    },
    RuleInfo {
        id: "unordered-iter",
        summary: "iteration over HashMap/HashSet-typed state (std or a seedless \
                  IdHashMap/IdHashSet) observes hash order; use BTreeMap/BTreeSet \
                  or a sorted drain, or justify why order cannot escape.",
    },
    RuleInfo {
        id: "ambient-entropy",
        summary: "RandomState/DefaultHasher/OsRng-style ambient entropy sources \
                  break replay; seed explicitly via vread_sim::rng.",
    },
    RuleInfo {
        id: "checked-cast",
        summary: "narrowing `as` cast in sim/host accounting paths can silently \
                  truncate cycle/byte counts; use try_into or justify the cast.",
    },
    RuleInfo {
        id: "float-accum",
        summary: "f64 reduction idioms (sum::<f64>, fold(0.0, ..)) are \
                  order-sensitive; the iteration source must have a fixed order.",
    },
    RuleInfo {
        id: "threading",
        summary: "ad-hoc OS threading and shared state (thread::spawn/scope, \
                  channels, locks, atomics) fragments the determinism story; \
                  route parallelism through the vread_sim::par worker pool.",
    },
    RuleInfo {
        id: "charge-confine",
        summary: "direct cycle accounting (acct.add / CpuAccounting::add) outside \
                  the sched.rs charge wrapper bypasses span attribution and the \
                  cycle-conservation proptest; charge through the scheduler.",
    },
    RuleInfo {
        id: "sealed-match",
        summary: "wildcard `_` arm in a match over a load-bearing enum (Stage, \
                  Admission, FaultKind, ReadPath, HostCacheMode); list the \
                  variants so adding one forces every consumer to handle it.",
    },
    RuleInfo {
        id: "timeline-confine",
        summary: "raw series pushes (timeline.push / Timeline::push) outside \
                  crates/sim/src/timeline.rs bypass the deterministic sampler; \
                  register gauges via register_provider.",
    },
    RuleInfo {
        id: "test-only-pub",
        summary: "pub fn in crates/*/src that no shipped code (crates' src/, \
                  examples/, benchmark/) calls or names; delete it or state why \
                  it stays. Whole-tree runs only.",
    },
];

/// Ids of the non-suppressible meta rules (violations about the
/// annotations themselves).
pub const META_RULES: &[&str] = &["bad-allow", "unused-allow"];

/// Whether `id` names a suppressible rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// A raw rule hit, before suppression filtering.
pub struct Candidate {
    /// Rule id.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
}

pub(crate) fn cand(rule: &'static str, t: &Tok<'_>, message: String) -> Candidate {
    Candidate {
        rule,
        line: t.line,
        col: t.col,
        message,
    }
}

/// Runs every rule — token family then syntax family — over `code`
/// (comment- and whitespace-free tokens of one file). `path` uses `/`
/// separators and is consulted by the path-scoped rules (checked-cast,
/// charge-confine, timeline-confine).
pub fn check_all(path: &str, code: &[Tok<'_>]) -> Vec<Candidate> {
    let mut out = Vec::new();
    crate::token_rules::check_token_rules(path, code, &mut out);
    crate::syntax_rules::check_syntax_rules(path, code, &mut out);
    out
}
