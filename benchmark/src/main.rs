//! The benchmark's command line.
//!
//! ```text
//! # every workload, interleaved rounds, tables on stdout, results file:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed=1 --out=base.json
//! # one workload for about N seconds; the last stdout line is the result:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload cluster-scale --seed 1 --seconds 20 --trace 0
//! # judge a new result file against a baseline with BENCHMARK.json's bounds:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare base.json new.json
//! ```
//!
//! Options take `--key=value` or `--key value`. Rounds and the traced run
//! execute as child processes of this executable (`--child=round`,
//! `--child=layers`), whose arguments are all `--key=value` so the
//! criterion shim, which treats bare arguments as bench-name filters,
//! sees none.

use std::collections::BTreeMap;

use vread_benchmark::orchestrate::{self, ALL_ROUNDS};
use vread_benchmark::round;
use vread_benchmark::workloads::{DEFAULT_SEED, WORKLOADS};
use vread_benchmark::{compare, layers};

const USAGE: &str = "usage: vread-benchmark [--seed=N] [--out=FILE]\n\
       vread-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
       vread-benchmark compare BASE.json NEW.json [--spec=BENCHMARK.json]";

/// Parsed command line: options and bare arguments.
struct Args {
    opts: BTreeMap<String, String>,
    bare: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut opts = BTreeMap::new();
        let mut bare = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(kv) = a.strip_prefix("--") {
                let (k, v) = match kv.split_once('=') {
                    Some((k, v)) => (k.to_owned(), v.to_owned()),
                    None => (
                        kv.to_owned(),
                        it.next().ok_or(format!("--{kv} needs a value"))?.clone(),
                    ),
                };
                if opts.insert(k.clone(), v).is_some() {
                    return Err(format!("--{k} given twice"));
                }
            } else {
                bare.push(a.clone());
            }
        }
        Ok(Args { opts, bare })
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.opts.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: {v:?} is not a valid number")),
        }
    }

    fn workload(&self) -> Result<String, String> {
        let w = self.opts.get("workload").ok_or("--workload is required")?;
        if WORKLOADS.contains(&w.as_str()) {
            Ok(w.clone())
        } else {
            Err(format!(
                "unknown workload {w:?} (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match Args::parse(&raw).and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vread-benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run(a: &Args) -> Result<i32, String> {
    if a.bare.first().map(String::as_str) == Some("compare") {
        return run_compare(a);
    }
    if let Some(first) = a.bare.first() {
        return Err(format!("unexpected argument {first:?}"));
    }
    match a.opts.get("child").map(String::as_str) {
        Some("round") => {
            a.only(&["child", "workload", "seed", "sim"])?;
            let sim = a.num("sim", 0u8)? == 1;
            let j = round::run(&a.workload()?, a.num("seed", DEFAULT_SEED)?, sim)?;
            println!("{}", j.compact());
            Ok(0)
        }
        Some("layers") => {
            a.only(&["child", "workload", "seed"])?;
            let j = layers::run(&a.workload()?, a.num("seed", DEFAULT_SEED)?)?;
            println!("{}", j.compact());
            Ok(0)
        }
        Some(other) => Err(format!("unknown child kind {other:?}")),
        None if a.opts.contains_key("workload") => run_one(a),
        None => run_all(a),
    }
}

/// One workload for about `--seconds`, printing its table and then the
/// one-line result.
fn run_one(a: &Args) -> Result<i32, String> {
    a.only(&["workload", "seed", "seconds", "trace"])?;
    let workload = a.workload()?;
    let seed = a.num("seed", DEFAULT_SEED)?;
    let seconds: f64 = a.num("seconds", 10.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let per_layer = match a.num("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let r = if per_layer {
        orchestrate::per_layer(&workload, seed, seconds)
    } else {
        orchestrate::end_to_end(&workload, seed, seconds)
    };
    print!("{}", orchestrate::render(&r));
    println!("{}", orchestrate::contract_line(&r, per_layer));
    Ok(if r.correct() { 0 } else { 1 })
}

/// Every workload in interleaved rounds, then the traced run of each.
fn run_all(a: &Args) -> Result<i32, String> {
    a.only(&["seed", "out"])?;
    let seed = a.num("seed", DEFAULT_SEED)?;
    let results = orchestrate::all(&WORKLOADS, seed);
    println!("seed {seed}, {ALL_ROUNDS} interleaved rounds per workload\n");
    for r in &results {
        println!("{}", orchestrate::render(r));
    }
    if let Some(path) = a.opts.get("out") {
        let text = orchestrate::results_json(seed, &results).pretty();
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(if results.iter().all(|r| r.correct()) {
        0
    } else {
        1
    })
}

fn run_compare(a: &Args) -> Result<i32, String> {
    a.only(&["spec"])?;
    let [_, base, new] = a.bare.as_slice() else {
        return Err("compare takes two result files".to_owned());
    };
    let spec_path = a.opts.get("spec").map_or("BENCHMARK.json", String::as_str);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let rows = compare::compare(&read(spec_path)?, &read(base)?, &read(new)?)?;
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed);
    Ok(if regressed { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn both_option_forms_parse() {
        let a = args(&["--workload", "remote-vread", "--seed=7", "--trace", "1"]).unwrap();
        assert_eq!(a.workload().unwrap(), "remote-vread");
        assert_eq!(a.num("seed", 0u64).unwrap(), 7);
        assert_eq!(a.num("trace", 0u8).unwrap(), 1);
        assert!(a.bare.is_empty());
    }

    #[test]
    fn bad_input_is_an_error() {
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed=1", "--seed=2"]).is_err());
        let a = args(&["--workload=nope"]).unwrap();
        assert!(a.workload().is_err());
        let a = args(&["--seconds=abc"]).unwrap();
        assert!(a.num("seconds", 1.0f64).is_err());
        let a = args(&["--bogus=1"]).unwrap();
        assert!(a.only(&["seed"]).is_err());
    }
}
