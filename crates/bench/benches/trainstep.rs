//! Full GAN training-step latency on the MNIST-GAN spec: scalar vs packed
//! SIMD GEMM, allocating vs workspace-reusing conv scratch, shape-aware
//! dispatch vs the packed path alone.
//!
//! The scalar reference (`ws_scalar`, [`ConvBackend::ScalarRef`]) is the
//! *reference engine* end to end: the specification fill/reshape loops
//! (see `MatmulKind::is_reference`) over the retained blocked-scalar GEMM,
//! with workspace reuse. That keeps its cost model pinned to the
//! pre-microkernel engine, so its ratio to `ws_seq` measures what this
//! engine — cache-aware fills plus the packed SIMD microkernel — buys the
//! full train step. The packed variants compute bit-identical updates to
//! each other (`tests/determinism.rs`); `ws_scalar` agrees within the
//! fused-accumulation bound. Emits
//! `results/BENCH_trainstep.json` via [`zfgan_bench::emit`] with
//! min/mean/stddev per row (the host is a noisy shared core — `min_ns`
//! carries the stable signal) plus SIMD-level metadata.

use std::time::Duration;

use criterion::Criterion;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_bench::{emit_bench, fmt_x, BenchRow, TextTable};
use zfgan_nn::{GanTrainer, TrainerConfig};
use zfgan_tensor::microkernel::{set_forced_path, simd_label, GemmPath};
use zfgan_tensor::ConvBackend;
use zfgan_workloads::GanSpec;

/// Per-benchmark measurement window: `ZFGAN_BENCH_MS` overrides the
/// 400 ms default (CI smoke runs use a small value; the full train step
/// is slow enough that a bigger default window buys real sample counts).
fn measurement_ms() -> u64 {
    std::env::var("ZFGAN_BENCH_MS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(400)
}

fn main() {
    // Anchor at the workspace root so `emit` writes the tracked top-level
    // `results/` sidecar.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let _ = std::env::set_current_dir(root);

    let spec = GanSpec::mnist_gan();
    let config = TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    };
    let mut c = Criterion::default().measurement_time(Duration::from_millis(measurement_ms()));
    let mut group = c.benchmark_group("trainstep");
    for (name, backend, reuse) in [
        ("alloc_seq", ConvBackend::LoweredZeroFree, false),
        ("ws_scalar", ConvBackend::ScalarRef, true),
        ("ws_seq", ConvBackend::LoweredZeroFree, true),
        // The pre-dispatch engine: every GEMM forced through the packed
        // panel path, so ws_seq / packedonly_seq isolates what the
        // shape-aware dispatcher (ikj pack bypass, small-m streaming)
        // buys the full train step on identical code otherwise.
        ("packedonly_seq", ConvBackend::LoweredZeroFree, true),
    ] {
        let mut rng = SmallRng::seed_from_u64(29);
        let mut pair = spec
            .build_pair(0.05, &mut rng)
            .expect("built-in spec is consistent");
        pair.set_backend(backend);
        let mut trainer = GanTrainer::new(pair, config);
        trainer.set_workspace_reuse(reuse);
        if name == "packedonly_seq" {
            set_forced_path(Some(GemmPath::Packed));
        }
        group.bench_function(name, |bch| {
            bch.iter(|| trainer.train_iteration(2, &mut rng))
        });
        set_forced_path(None);
    }
    group.finish();

    let measurements = c.take_results();
    let base = measurements
        .iter()
        .find(|m| m.id == "trainstep/alloc_seq")
        .expect("baseline bench runs first")
        .mean_ns;
    let mut rows: Vec<BenchRow> = measurements
        .iter()
        .map(|m| BenchRow {
            bench: "trainstep".to_string(),
            id: m.id.clone(),
            mean_ns: m.mean_ns,
            min_ns: m.min_ns,
            stddev_ns: m.stddev_ns,
            iters: m.iters,
            threads: 1,
            simd: simd_label().to_string(),
            speedup: base / m.mean_ns,
            git_sha: String::new(),
            host: String::new(),
            run_id: 0,
        })
        .collect();

    let mut table = TextTable::new(["Benchmark", "ns/iter", "Speedup vs alloc_seq"]);
    for r in &rows {
        table.row([r.id.clone(), format!("{:.0}", r.mean_ns), fmt_x(r.speedup)]);
    }
    emit_bench(
        "BENCH_trainstep",
        "GAN training step: scalar vs packed SIMD, allocating vs workspace scratch, dispatch vs packed-only",
        &table,
        &mut rows,
    );

    let headline = |id: &str| rows.iter().find(|r| r.id == id).map_or(0.0, |r| r.speedup);
    println!(
        "Training-step speedup over allocating sequential: scalar-ref {} | ws {} | packed-only {}",
        fmt_x(headline("trainstep/ws_scalar")),
        fmt_x(headline("trainstep/ws_seq")),
        fmt_x(headline("trainstep/packedonly_seq")),
    );

    let min_of = |id: &str| {
        rows.iter()
            .find(|r| r.id == id)
            .map_or(f64::INFINITY, |r| r.min_ns)
    };

    // Regression gate: workspace reuse must beat allocating scratch on
    // otherwise identical code. Fastest-sample ratio for the usual
    // noisy-host reason.
    let s = min_of("trainstep/alloc_seq") / min_of("trainstep/ws_seq");
    assert!(
        s > 1.0,
        "workspace training step lost to its allocating twin: {}",
        fmt_x(s)
    );

    // Tentpole gate: the packed engine (cache-aware fills + SIMD
    // microkernel) must buy the *full train step* >=2x over the reference
    // engine (specification fills + blocked-scalar GEMM, same workspace
    // reuse). Fastest-sample ratio for the same noisy-host reason as the
    // gemm bench gates; exempt under ZFGAN_NO_SIMD=1.
    let s = min_of("trainstep/ws_scalar") / min_of("trainstep/ws_seq");
    println!(
        "Packed train-step gate ws_seq vs ws_scalar: {} vs >=2x (simd: {})",
        fmt_x(s),
        simd_label()
    );
    assert!(
        simd_label() != "avx2" || s >= 2.0,
        "packed train step speedup {} over the scalar reference fell below the 2x gate",
        fmt_x(s)
    );

    // Dispatch gate: the shape-aware dispatcher (ikj pack bypass +
    // small-m streamed lowering) must buy the full train step >=1.15x
    // over the same engine with every GEMM forced through the packed
    // panel path. Fastest-sample ratio, avx2-only, as above.
    let s = min_of("trainstep/packedonly_seq") / min_of("trainstep/ws_seq");
    println!(
        "Dispatch train-step gate ws_seq vs packedonly_seq: {} vs >=1.15x (simd: {})",
        fmt_x(s),
        simd_label()
    );
    assert!(
        simd_label() != "avx2" || s >= 1.15,
        "shape-dispatch train step speedup {} over the packed-only engine fell below the 1.15x gate",
        fmt_x(s)
    );
}
