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
}
