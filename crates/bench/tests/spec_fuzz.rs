//! Scenario-parser robustness: mutated copies of every shipped
//! `scenarios/*.json` must come back from `ScenarioSpec::from_json` as
//! `Ok` or `Err`, never as a panic.
//!
//! Each case takes one shipped file, optionally truncates it at a random
//! byte, and overwrites a few random bytes with JSON punctuation, digits
//! or `0xff` (invalid UTF-8, decoded lossily the way a reader of a
//! corrupted file would see it). A pure truncation that cuts anything
//! but trailing whitespace leaves an unterminated document, so it must
//! also be rejected.
//!
//! A second case rewrites one millisecond field (`at_ms`,
//! `duration_ms`, `start_ms` or `sample_ms`) of a shipped file to a
//! value near or past the largest whole-ms count whose nanoseconds fit
//! simulated time: past it the spec must be rejected, well inside it
//! the spec must still parse.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use vread_bench::ScenarioSpec;

/// Bytes substituted into the documents.
const ALPHABET: &[u8] = b"{}[]:,\"-.e0123456789\xff";

/// Every shipped scenario file's bytes, in name order.
fn shipped() -> Vec<(PathBuf, Vec<u8>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no shipped scenarios found");
    files
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("scenario is readable");
            (p, bytes)
        })
        .collect()
}

/// Millisecond fields the engine turns into nanoseconds.
const MS_FIELDS: [&str; 4] = [
    "\"at_ms\": ",
    "\"duration_ms\": ",
    "\"start_ms\": ",
    "\"sample_ms\": ",
];

/// Largest whole-ms count whose nanoseconds fit a `u64`.
const MAX_MS: u64 = u64::MAX / 1_000_000;

/// Byte ranges of every millisecond field's digits across the shipped
/// files: `(file index, start, end)`.
fn ms_fields(files: &[(PathBuf, Vec<u8>)]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (i, (_, bytes)) in files.iter().enumerate() {
        let text = std::str::from_utf8(bytes).expect("shipped scenario is UTF-8");
        for key in MS_FIELDS {
            for (at, _) in text.match_indices(key) {
                let start = at + key.len();
                let len = text[start..].bytes().take_while(u8::is_ascii_digit).count();
                out.push((i, start, start + len));
            }
        }
    }
    out
}

/// Parses `bytes` and reports whether the parser panicked or accepted.
fn parse(bytes: &[u8]) -> Result<bool, String> {
    let text = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| ScenarioSpec::from_json(&text).is_ok()))
        .map_err(|_| format!("from_json panicked on {text:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_scenarios_never_panic(
        file in 0usize..1 << 16,
        cut in 0usize..1 << 16,
        truncate in 0u8..2,
        subs in proptest::collection::vec((0usize..1 << 16, 0usize..ALPHABET.len()), 0..8),
    ) {
        let files = shipped();
        let (path, original) = &files[file % files.len()];
        let mut bytes = original.clone();
        let truncated = truncate == 1;
        if truncated {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        // Substitutions could re-close a truncated document, so only a
        // pure truncation is required to fail.
        let must_reject =
            truncated && subs.is_empty() && !original[bytes.len()..].trim_ascii().is_empty();
        for &(pos, ix) in &subs {
            if !bytes.is_empty() {
                let at = pos % bytes.len();
                bytes[at] = ALPHABET[ix];
            }
        }
        let accepted = parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        prop_assert!(
            !(must_reject && accepted),
            "{}: truncated document was accepted",
            path.display()
        );
    }

    #[test]
    fn ms_fields_past_the_nanosecond_range_are_rejected(
        field in 0usize..1 << 16,
        near in 0u8..2,
        offset in 0u64..1 << 14,
        wide in 1u64..1 << 50,
    ) {
        let files = shipped();
        let fields = ms_fields(&files);
        prop_assert!(!fields.is_empty(), "no millisecond fields in the shipped scenarios");
        let (file, start, end) = fields[field % fields.len()];
        let (path, original) = &files[file];
        // Half the cases straddle the boundary, half spread far below
        // and past it.
        let ms = if near == 1 { MAX_MS - (1 << 13) + offset } else { wide };
        let mut bytes = original[..start].to_vec();
        bytes.extend_from_slice(ms.to_string().as_bytes());
        bytes.extend_from_slice(&original[end..]);
        let accepted = parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        // Every other time in the shipped files is under 10 s, so a value
        // this far inside the range keeps every window end inside it too.
        if ms > MAX_MS {
            prop_assert!(!accepted, "{}: {ms} ms was accepted", path.display());
        } else if ms <= MAX_MS - 10_000 {
            prop_assert!(accepted, "{}: {ms} ms was rejected", path.display());
        }
    }
}
