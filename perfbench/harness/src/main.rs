//! Benchmark harness for the zfgan workspace.
//!
//! Each subcommand is one measured process. `perfbench/run.py` starts them,
//! one at a time, and turns what they print into the benchmark's metrics.
//! The last stdout line of every subcommand is one JSON object.
//!
//! ```text
//! zfgan-perfbench train-ref --seed N
//! zfgan-perfbench train --reference-digest D --seed N --seconds S [--trace 0|1] [options]
//! zfgan-perfbench exec --seed N --seconds S [--trace 0|1] [options]
//! zfgan-perfbench dse-ref --out DIR
//! zfgan-perfbench dse-compute --sweep NAME
//! zfgan-perfbench dse-layers --cache DIR --scratch DIR
//! ```
//!
//! Options of the timed subcommands: `--max-ops N` caps the timed
//! operations, and `--corrupt-reference` flips one bit of the reference the
//! outputs are checked against, so every checked operation must fail (the
//! smoke test's negative control). A traced run's spans are part of its
//! report.

mod dse;
mod exec;
mod report;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Arguments shared by the timed subcommands.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub max_ops: usize,
    pub corrupt_reference: bool,
    /// Instant the process started, for `setup_s`.
    pub started: Instant,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    value(args, flag).ok_or_else(|| format!("missing {flag}"))
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let raw = required(args, flag)?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

fn run_args(args: &[String], started: Instant) -> Result<RunArgs, String> {
    let seconds: f64 = parse(args, "--seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let max_ops = match value(args, "--max-ops") {
        Some(_) => parse(args, "--max-ops")?,
        None => usize::MAX,
    };
    Ok(RunArgs {
        seed: parse(args, "--seed")?,
        seconds,
        trace,
        max_ops,
        corrupt_reference: args.iter().any(|a| a == "--corrupt-reference"),
        started,
    })
}

fn run(args: &[String], started: Instant) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("train-ref") => train::reference(parse(args, "--seed")?),
        Some("train") => train::run(
            &run_args(args, started)?,
            parse(args, "--reference-digest")?,
        ),
        Some("exec") => exec::run(&run_args(args, started)?),
        Some("dse-ref") => dse::reference(&PathBuf::from(required(args, "--out")?), started),
        Some("dse-compute") => dse::compute(required(args, "--sweep")?),
        Some("dse-layers") => dse::layers(
            &PathBuf::from(required(args, "--cache")?),
            &PathBuf::from(required(args, "--scratch")?),
        ),
        _ => Err(
            "usage: zfgan-perfbench <train-ref|train|exec|dse-ref|dse-compute|dse-layers> ..."
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, started) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("zfgan-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
