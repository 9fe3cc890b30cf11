//! The syntax-aware invariant rules (lint v2).
//!
//! Each rule here statically enforces an invariant that was previously
//! guarded only at runtime or by reviewer discipline:
//!
//! * `charge-confine` — the span+unattributed == engine-total cycle
//!   conservation proptest (DESIGN.md §12) holds because *every* cycle
//!   charge flows through the scheduler's charge wrapper in
//!   `crates/sim/src/sched.rs`. A new `acct.add(…)` call site anywhere
//!   else would bypass span attribution silently.
//! * `sealed-match` — the workspace's load-bearing enums may not be
//!   matched with a wildcard `_` arm: adding a variant (PR 7's
//!   `Stage::Map`) must force every consumer — ledger, report rollups,
//!   Perfetto export — to handle it instead of silently falling
//!   through.
//! * `timeline-confine` — timeline reports are byte-identical on every
//!   run because every series point flows through `vread_sim::timeline`'s
//!   deterministic sink (`Timeline::push` via the sim-tick sampler). A
//!   raw push anywhere else would inject points outside the sampler's
//!   tick discipline. (Read latencies need no rule: the timeline hands
//!   its latency sets out only as `&Samples`, so `observe_read` is the
//!   one way in.)
//!
//! All of these are path-scoped over-approximations in the house style:
//! the `allow(rule, "reason")` annotation is the pressure valve, and
//! the suppression ratchet (`lint-baseline.json`) keeps the valve from
//! creeping open.

use crate::lexer::Tok;
use crate::rules::{cand, Candidate};
use crate::syntax::{self, CallVia};

/// Runs every syntax rule over one file's code tokens.
pub fn check_syntax_rules(path: &str, code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    let items = syntax::parse_items(code);
    let calls = syntax::call_paths(code);
    charge_confine(path, code, &items, &calls, out);
    sealed_match(code, out);
    timeline_confine(path, code, &items, &calls, out);
}

/// Appends `in fn \`name\`` context when the call is inside a function.
fn fn_context(items: &[syntax::Item], ix: usize) -> String {
    match syntax::enclosing_fn(items, ix) {
        Some(f) => format!(" (in fn `{}`)", f.name),
        None => String::new(),
    }
}

// ---------------------------------------------------------------------------
// charge-confine
// ---------------------------------------------------------------------------

/// Files allowed to call the raw accounting sink: the scheduler's
/// charge wrapper (the only sanctioned caller) and the accounting
/// structure's own module.
const CHARGE_FILES: &[&str] = &["crates/sim/src/sched.rs", "crates/sim/src/cpu.rs"];

fn charge_confine(
    path: &str,
    code: &[Tok<'_>],
    items: &[syntax::Item],
    calls: &[syntax::CallPath],
    out: &mut Vec<Candidate>,
) {
    if CHARGE_FILES.iter().any(|f| path.ends_with(f)) {
        return;
    }
    for c in calls {
        let direct_sink = (c.via == CallVia::Method && c.ends_with(&["acct", "add"]))
            || (c.via == CallVia::Path
                && (c.ends_with(&["CpuAccounting", "add"]) || c.ends_with(&["Accounting", "add"])));
        if direct_sink {
            let t = &code[c.callee_ix];
            out.push(cand(
                "charge-confine",
                t,
                format!(
                    "`{}` charges cycles directly, bypassing the sched.rs charge \
                     wrapper that attributes them to spans; route the charge through \
                     the scheduler so span + unattributed == engine total holds{}",
                    c.segments.join("."),
                    fn_context(items, c.callee_ix)
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// timeline-confine
// ---------------------------------------------------------------------------

/// The one file allowed to feed the timeline's raw series sink: the
/// timeline module itself (the sampler calls `push`). Everyone else goes
/// through gauges or `register_provider`, which the sampler polls
/// deterministically.
const TIMELINE_FILES: &[&str] = &["crates/sim/src/timeline.rs"];

fn timeline_confine(
    path: &str,
    code: &[Tok<'_>],
    items: &[syntax::Item],
    calls: &[syntax::CallPath],
    out: &mut Vec<Candidate>,
) {
    if TIMELINE_FILES.iter().any(|f| path.ends_with(f)) {
        return;
    }
    for c in calls {
        let raw_push = (c.via == CallVia::Method && c.ends_with(&["timeline", "push"]))
            || (c.via == CallVia::Path && c.ends_with(&["Timeline", "push"]));
        if raw_push {
            let t = &code[c.callee_ix];
            out.push(cand(
                "timeline-confine",
                t,
                format!(
                    "`{}` appends a series point outside the sim-tick sampler; \
                     register a gauge via `timeline.register_provider(…)` so every \
                     point lands at a deterministic tick time{}",
                    c.segments.join("."),
                    fn_context(items, c.callee_ix)
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// sealed-match
// ---------------------------------------------------------------------------

/// The workspace's load-bearing enums: adding a variant to any of these
/// must be a compile-time (here: lint-time) event at every consumer.
/// `Stage` gained `Map` in PR 7 — a wildcard arm in the ledger or the
/// Perfetto export would have silently dropped mapped bytes.
pub const SEALED_ENUMS: &[&str] = &["Stage", "FaultKind", "ReadPath", "HostCacheMode"];

fn sealed_match(code: &[Tok<'_>], out: &mut Vec<Candidate>) {
    for m in syntax::parse_matches(code) {
        // Which sealed enum (if any) do the arm *patterns* mention?
        // Scrutinee and arm bodies are deliberately ignored: `match n {
        // 3 => FaultKind::DiskSlow { … } }` constructs, not destructures.
        let sealed = SEALED_ENUMS.iter().find(|e| {
            m.arms
                .iter()
                .any(|a| syntax::range_mentions_path_head(code, a.pat.clone(), e))
        });
        let Some(sealed) = sealed else { continue };
        for a in &m.arms {
            if m.arm_is_wildcard(code, a) {
                let t = &code[a.pat.start];
                out.push(cand(
                    "sealed-match",
                    t,
                    format!(
                        "wildcard `_` arm in a match over sealed enum `{sealed}`; \
                         list the remaining variants so adding one forces every \
                         consumer to handle it"
                    ),
                ));
            }
        }
    }
}
