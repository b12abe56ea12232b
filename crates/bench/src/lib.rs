//! Shared plumbing for the evaluation harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index). They print an aligned text table to
//! stdout — the same rows/series the paper reports — and drop a
//! machine-readable JSON copy under `results/` so `EXPERIMENTS.md` can be
//! regenerated and diffed.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// A simple aligned-column text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let sep = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ");
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Where sidecars land: `results/` unless `ZFGAN_RESULTS_DIR` redirects
/// it (CI smoke runs point it at a temp dir so short measurement windows
/// never clobber the tracked numbers).
fn results_dir() -> PathBuf {
    std::env::var_os("ZFGAN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// The append-only perf ledger next to the snapshot sidecars: one JSON
/// object per line, one line per measured row, accumulated across runs
/// (`zfgan perf` renders and gates the trajectory).
pub fn history_path() -> PathBuf {
    results_dir().join("bench_history.jsonl")
}

/// One measured benchmark row in the shared snapshot/ledger schema:
/// the criterion statistics plus the run metadata that makes trajectories
/// comparable across machines and commits. `results/BENCH_*.json` holds
/// the latest run's rows; `results/bench_history.jsonl` accumulates every
/// run's.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRow {
    /// Harness this row came from (`gemm`, `trainstep`, `exec`).
    pub bench: String,
    /// Benchmark id, e.g. `matmul/blocked`.
    pub id: String,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds (the stable signal on a noisy host).
    pub min_ns: f64,
    /// Sample standard deviation, nanoseconds.
    pub stddev_ns: f64,
    /// Iterations measured.
    pub iters: u64,
    /// Worker threads the variant runs on.
    pub threads: usize,
    /// Active SIMD kernel: `"avx2"` or `"scalar"` (`ZFGAN_NO_SIMD=1`).
    pub simd: String,
    /// Speedup over the harness's baseline for this row (1.0 = baseline).
    pub speedup: f64,
    /// Commit the run measured (`ZFGAN_GIT_SHA`, else `git rev-parse`).
    pub git_sha: String,
    /// Host fingerprint: `hostname/arch-os`.
    pub host: String,
    /// Monotonically increasing per-ledger run number (one per append).
    pub run_id: u64,
}

/// The commit under measurement: `ZFGAN_GIT_SHA` when the caller pins it
/// (CI), else `git rev-parse HEAD`, else `"unknown"`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("ZFGAN_GIT_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host fingerprint for ledger rows: `hostname/arch-os`.
pub fn host_fingerprint() -> String {
    let hostname = fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown-host".to_string());
    format!(
        "{hostname}/{}-{}",
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

/// The next run id: one past the largest `run_id` already in the ledger
/// (1 for a fresh ledger). Malformed lines are skipped, so a truncated
/// append never wedges future runs.
pub fn next_run_id() -> u64 {
    let Ok(text) = fs::read_to_string(history_path()) else {
        return 1;
    };
    text.lines()
        .filter_map(|line| serde_json::from_str::<serde_json::Value>(line).ok())
        .filter_map(|v| {
            v.as_object()
                .and_then(|o| o.get("run_id"))
                .and_then(serde_json::Value::as_u64)
        })
        .max()
        .map_or(1, |max| max + 1)
}

/// [`emit`] plus the perf ledger: stamps every row with the commit sha,
/// host fingerprint and the next run id, writes the `results/<name>.json`
/// snapshot, and **appends** the rows to `results/bench_history.jsonl`
/// (one JSON object per line) so the trajectory accumulates across runs.
/// Ledger I/O is best effort, like the snapshot.
pub fn emit_bench(name: &str, title: &str, table: &TextTable, rows: &mut [BenchRow]) {
    let sha = git_sha();
    let host = host_fingerprint();
    let run_id = next_run_id();
    for row in rows.iter_mut() {
        row.git_sha = sha.clone();
        row.host = host.clone();
        row.run_id = run_id;
    }
    emit(name, title, table, &rows.to_vec());
    let mut lines = String::new();
    for row in rows.iter() {
        match serde_json::to_string(row) {
            Ok(json) => {
                lines.push_str(&json);
                lines.push('\n');
            }
            Err(err) => eprintln!("warning: could not serialise ledger row {}: {err}", row.id),
        }
    }
    let path = history_path();
    let append = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, lines.as_bytes()));
    match append {
        Ok(()) => println!("[appended {} rows to {}]", rows.len(), path.display()),
        Err(err) => eprintln!("warning: could not append to {}: {err}", path.display()),
    }
}

/// Prints a figure/table banner, the rendered table, and writes the JSON
/// sidecar under `results/<name>.json` (best effort — the harness still
/// succeeds if the directory is read-only).
pub fn emit<T: Serialize>(name: &str, title: &str, table: &TextTable, data: &T) {
    println!("== {title} ==");
    println!("{}", table.render());
    let dir = results_dir();
    let _ = fs::create_dir_all(&dir);
    match serde_json::to_string_pretty(data) {
        Ok(json) => {
            let path = dir.join(format!("{name}.json"));
            if fs::write(&path, json).is_ok() {
                println!("[wrote {}]", path.display());
            }
        }
        Err(err) => eprintln!("warning: could not serialise {name}: {err}"),
    }
    println!();
}

/// Turns the process-global telemetry registry on and returns a closure
/// that dumps it as `results/telemetry_<name>.json` (best effort, like
/// [`emit`]). Bench binaries call this first thing in `main` and invoke
/// the closure last, so every figure run leaves a metrics sidecar:
///
/// ```no_run
/// let telemetry = zfgan_bench::telemetry_sidecar("fig15");
/// // ... the sweep ...
/// telemetry();
/// ```
///
/// The global registry (not a thread-local scope) is the right sink here
/// because the figure sweeps fan their cells out to `zfgan-pool` worker
/// threads (through [`zfgan_dse::run_batch`]).
pub fn telemetry_sidecar(name: &str) -> impl FnOnce() {
    zfgan_telemetry::set_enabled(true);
    let dir = results_dir();
    let path = dir.join(format!("telemetry_{name}.json"));
    move || {
        let _ = fs::create_dir_all(&dir);
        let json = zfgan_telemetry::export::telemetry_json(zfgan_telemetry::global());
        if fs::write(&path, json).is_ok() {
            println!("[wrote {}]", path.display());
        }
    }
}

/// Formats a ratio with two decimals and an `x` suffix.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a byte count with an SI suffix.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = b as f64;
    let mut i = 0;
    while v >= 1000.0 && i < UNITS.len() - 1 {
        v /= 1000.0;
        i += 1;
    }
    if i == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["alpha", "1"]).row(["b", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(125_829_120), "125.8 MB");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_x(4.3), "4.30x");
    }
}
