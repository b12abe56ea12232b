//! The JSON line a timed subcommand prints, plus the helpers every
//! workload shares: bit digests and run metadata.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::trace::Span;

/// What one measured process reports back to `run.py`.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds from process start to the first timed operation.
    pub setup_s: f64,
    /// Wall time of each timed operation, in order.
    pub ops_ms: Vec<f64>,
    /// Wall time of the timed window (first operation start to last end).
    pub window_s: f64,
    /// Indices into `ops_ms` of operations that failed an output check.
    pub failed: BTreeSet<usize>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Extra numbers for the human-readable summary.
    pub info: BTreeMap<String, f64>,
    /// The traced run's spans, in the order they were opened.
    pub spans: Vec<Span>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object(map: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Report {
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self.ops_ms.iter().map(|v| num(*v)).collect();
        let failed: Vec<String> = self.failed.iter().map(usize::to_string).collect();
        // `[name, op, parent index or -1, start ns, end ns]` per span.
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or(-1, |p| p as i64);
                let name = json_str(&s.name);
                format!("[{name},{},{parent},{},{}]", s.op, s.start_ns, s.end_ns)
            })
            .collect();
        format!(
            "{{\"setup_s\":{},\"ops_ms\":[{}],\"window_s\":{},\"failed\":[{}],\"layers\":{},\"info\":{},\"spans\":[{}],\"meta\":{}}}",
            num(self.setup_s),
            ops.join(","),
            num(self.window_s),
            failed.join(","),
            object(&self.layers),
            object(&self.info),
            spans.join(","),
            meta_json(),
        )
    }
}

/// Run metadata stamped on every result: thread and SIMD configuration
/// plus the environment overrides that change what is measured.
pub fn meta_json() -> String {
    let env = |k: &str| json_str(&std::env::var(k).unwrap_or_default());
    format!(
        "{{\"pool_threads\":{},\"simd\":{},\"ZFGAN_THREADS\":{},\"ZFGAN_NO_SIMD\":{},\"ZFGAN_FORCE_KERNEL\":{}}}",
        zfgan_pool::pool_threads(),
        json_str(zfgan_tensor::microkernel::simd_label()),
        env("ZFGAN_THREADS"),
        env("ZFGAN_NO_SIMD"),
        env("ZFGAN_FORCE_KERNEL"),
    )
}

/// FNV-1a over the bit patterns of `values`, continuing from `h`.
pub fn digest_f32(mut h: u64, values: &[f32]) -> u64 {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a offset basis.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs `op` as a closed loop — one operation at a time, at least once, at
/// most `max_ops` times, until `seconds` have passed — appending each
/// operation's time to `rep.ops_ms` and marking the ones whose output check
/// failed. `op` gets the operation's index within this loop and returns
/// `(milliseconds, passed)`. Returns the loop's wall time in seconds.
pub fn closed_loop(
    rep: &mut Report,
    seconds: f64,
    max_ops: usize,
    mut op: impl FnMut(usize) -> Result<(f64, bool), String>,
) -> Result<f64, String> {
    let first = rep.ops_ms.len();
    let window = std::time::Instant::now();
    while rep.ops_ms.len() - first < max_ops
        && (rep.ops_ms.len() == first || window.elapsed().as_secs_f64() < seconds)
    {
        let (t, passed) = op(rep.ops_ms.len() - first)?;
        rep.ops_ms.push(t);
        if !passed {
            rep.failed.insert(rep.ops_ms.len() - 1);
        }
    }
    Ok(window.elapsed().as_secs_f64())
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
