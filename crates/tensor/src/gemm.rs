//! GEMM kernels for the lowered convolution fast path.
//!
//! Three tiers share one dispatch enum:
//!
//! * [`MatmulKind::Naive`] — the plain triple loop ([`Matrix::matmul`]),
//!   the golden oracle.
//! * [`MatmulKind::BlockedScalar`] — the retained cache-blocked scalar
//!   kernel. **Bit-identical** to the naive loop: blocking tiles only the
//!   `i`/`j` (output) dimensions while each element's `k` reduction stays
//!   sequential in ascending order with the same `a.is_zero()` operand
//!   skip. This is the scalar oracle the packed kernels are measured
//!   against, and the honest baseline for the microkernel speedup gates.
//! * [`MatmulKind::Blocked`] — the **packed SIMD microkernel**
//!   ([`crate::microkernel`]) for `f32` and [`Fx`]
//!   operands; other element types (the `f64` validation paths) fall back
//!   to the scalar blocked kernel and keep its naive bit-identity.
//!
//! Every kind has one entry, [`MatmulKind::run_ws`], which draws the
//! product and the packing scratch from a [`ConvWorkspace`];
//! [`MatmulKind::run`] is the same call on a fresh workspace.
//!
//! # Packed-kernel semantics
//!
//! The packed f32 kernel defines its *own* fixed accumulation order — per
//! output element a single fused-multiply-add chain over `k` ascending —
//! rather than reproducing the naive two-rounding sum. That order is
//! deterministic and invariant across thread counts, `ZFGAN_NO_SIMD`, and
//! AVX2-vs-scalar dispatch (the scalar fallback uses the correctly-rounded
//! [`f32::mul_add`], the same operation as one `vfmadd` lane), and it
//! matches the naive oracle within the standard accumulation-error bound.
//! The packed Q8.8 kernel is **bit-identical** to the naive [`Fx`] chain:
//! saturating multiply and add are reproduced exactly, lane for lane.
//!
//! Zero-operand skipping is bit-neutral at *any* granularity under both
//! packed kernels — `fma(0, b, acc) = acc` exactly for finite operands,
//! and the Q8.8 term of a zero operand is exactly zero — so the per-panel
//! structural-zero masks (the paper's zero-free scheduling composed with
//! SIMD) are pure performance freedom, never a semantics choice.
//!
//! Caveat: the "skipping a zero operand is bit-neutral" argument assumes
//! finite values. A zero activation times an infinite/NaN weight would
//! produce NaN where the skipping path produces 0 — GAN training here
//! never manufactures non-finite weights (WGAN weight clipping bounds
//! them), and the golden nests skip zeros the same way.
//!
//! [`Fx`]: crate::Fx

use crate::error::{ShapeError, TensorResult};
use crate::fault::{FaultLog, FaultPlan, FaultSite};
use crate::im2col::Matrix;
use crate::microkernel::{self, simd_level, GemmPath, PackScratch};
use crate::num::Num;
use crate::workspace::ConvWorkspace;

/// Row-block height of the scalar blocked kernel: output rows processed
/// per cache tile.
const ROW_BLOCK: usize = 16;
/// Column-block width of the scalar blocked kernel: output columns
/// accumulated in registers per tile. Sized to cover the widest
/// lowered-GAN output-feature count (128) in a single tile: every extra
/// tile re-walks the sparse `a` row, and on the ~50%-zero activations the
/// repeated `is_zero` branches cost more than the tile buys.
const COL_BLOCK: usize = 128;

/// How a lowered convolution multiplies its patch and weight matrices.
///
/// `Naive` and `BlockedScalar` are bit-identical to each other for every
/// element type; `Blocked` runs the packed microkernel for `f32`/`Fx`
/// (bit-identical for every thread count and SIMD level, bit-identical to
/// the scalar pair for `Fx`, and within the accumulation-error bound of
/// it for `f32`) — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKind {
    /// The plain triple loop ([`Matrix::matmul`]).
    Naive,
    /// Cache-blocked, register-tiled single-threaded scalar kernel,
    /// bit-identical to [`MatmulKind::Naive`] — the retained scalar
    /// oracle.
    BlockedScalar,
    /// The packed SIMD microkernel, single-threaded (scalar blocked
    /// fallback for element types without a packed kernel).
    Blocked,
}

impl MatmulKind {
    /// Whether this kind belongs to the reference family (`Naive`,
    /// `BlockedScalar`). The lowering drivers route reference kinds
    /// through the specification fill/reshape loops instead of the
    /// cache-tuned ones, so a reference-backend run keeps the cost model
    /// of the pre-microkernel engine end to end — the baseline the
    /// packed engine's train-step gate measures from. Both fill families
    /// produce bit-identical matrices (pinned by tests); only their
    /// memory-access patterns differ.
    pub fn is_reference(&self) -> bool {
        matches!(self, MatmulKind::Naive | MatmulKind::BlockedScalar)
    }

    /// Runs the selected kernel on `a × b`: [`MatmulKind::run_ws`] on a
    /// fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns an error if the inner dimensions disagree.
    pub fn run<T: Num>(&self, a: &Matrix<T>, b: &Matrix<T>) -> TensorResult<Matrix<T>> {
        self.run_ws(a, b, &mut ConvWorkspace::new())
    }

    /// Runs the selected kernel on `a × b` with the product drawn from the
    /// workspace — and, for the packed kernels, the packing scratch reused
    /// from the workspace too. The one implementation behind every kind;
    /// return the product via [`ConvWorkspace::give_matrix`] when done.
    ///
    /// # Errors
    ///
    /// Returns an error if the inner dimensions disagree (the product
    /// buffer goes back to the workspace).
    pub fn run_ws<T: Num>(
        &self,
        a: &Matrix<T>,
        b: &Matrix<T>,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Matrix<T>> {
        let mut out = ws.take_matrix(a.rows(), b.cols());
        let result = match *self {
            MatmulKind::Naive => {
                zfgan_telemetry::count("gemm_calls", &[("backend", "naive")], 1);
                a.matmul_into(b, &mut out)
            }
            MatmulKind::BlockedScalar => matmul_blocked_scalar_into(a, b, &mut out),
            MatmulKind::Blocked => matmul_blocked_into_scratch(a, b, &mut out, ws.pack_scratch()),
        };
        match result {
            Ok(()) => Ok(out),
            Err(e) => {
                ws.give_matrix(out);
                Err(e)
            }
        }
    }
}

/// Publish one kernel invocation's deterministic telemetry: call/tile
/// counts plus the operand-word traffic and how much of it zero skipping
/// elided. For the packed kernels both counts are pure functions of the
/// `a` operand and the shape (panel-mask words), so they are identical
/// for every thread count and SIMD level — and so is `path`, the
/// shape-dispatch decision recorded as the `gemm_dispatch{path}` series
/// (`None` for kernels the dispatch layer doesn't route).
fn record_gemm(
    backend: &'static str,
    m: usize,
    n: usize,
    skipped: u64,
    visited: u64,
    path: Option<GemmPath>,
) {
    if !zfgan_telemetry::enabled() {
        return;
    }
    let labels: &[(&str, &str)] = &[("backend", backend)];
    let blocks = (m.div_ceil(ROW_BLOCK) * n.div_ceil(COL_BLOCK)) as u64;
    zfgan_telemetry::count("gemm_calls", labels, 1);
    zfgan_telemetry::count("gemm_blocks", labels, blocks);
    zfgan_telemetry::count("gemm_operand_words", labels, visited);
    zfgan_telemetry::count("gemm_zero_skipped_words", labels, skipped);
    if let Some(p) = path {
        zfgan_telemetry::count("gemm_dispatch", &[("path", p.label())], 1);
    }
}

/// The scalar blocked kernel over a row range of the output.
///
/// `a` holds `m_local` rows of length `kk`; `out` holds the matching
/// `m_local × n` output rows. Per element the reduction is `k`-ascending
/// with the naive path's `a.is_zero()` skip — bit-identical to
/// [`Matrix::matmul`].
///
/// Returns `(skipped, visited)` operand-word counts: how many `a` words the
/// zero skip elided versus how many were walked in total, feeding the
/// `gemm_zero_skipped_words` / `gemm_operand_words` telemetry counters.
fn gemm_rows<T: Num>(a: &[T], b: &[T], out: &mut [T], kk: usize, n: usize) -> (u64, u64) {
    let m = out.len() / n;
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(out.len(), m * n);
    let mut acc = [T::zero(); COL_BLOCK];
    let mut skipped = 0u64;
    let mut visited = 0u64;
    for ib in (0..m).step_by(ROW_BLOCK) {
        let ie = (ib + ROW_BLOCK).min(m);
        let mut jb = 0;
        while jb < n {
            let je = (jb + COL_BLOCK).min(n);
            let width = je - jb;
            for i in ib..ie {
                let a_row = &a[i * kk..(i + 1) * kk];
                let tile = &mut acc[..width];
                tile.fill(T::zero());
                visited += kk as u64;
                for (k, &aik) in a_row.iter().enumerate() {
                    if aik.is_zero() {
                        skipped += 1;
                        continue;
                    }
                    let b_row = &b[k * n + jb..k * n + je];
                    for (t, &bv) in tile.iter_mut().zip(b_row) {
                        *t += aik * bv;
                    }
                }
                out[i * n + jb..i * n + je].copy_from_slice(tile);
            }
            jb = je;
        }
    }
    (skipped, visited)
}

/// Validates `a × b = out` shapes for the `_into` kernels.
fn check_matmul_shapes<T: Num>(a: &Matrix<T>, b: &Matrix<T>, out: &Matrix<T>) -> TensorResult<()> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(format!(
            "matmul inner dimensions disagree: {}×{} vs {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    if out.rows() != a.rows() || out.cols() != b.cols() {
        return Err(ShapeError::new(format!(
            "matmul output shape {}×{} does not match {}×{}",
            out.rows(),
            out.cols(),
            a.rows(),
            b.cols()
        )));
    }
    Ok(())
}

/// The retained cache-blocked scalar GEMM: `a × b` into a caller-provided
/// output matrix (every element is overwritten; no pre-zeroing required),
/// bit-identical to [`Matrix::matmul`]. The scalar oracle the packed
/// microkernel is gated against.
///
/// # Errors
///
/// Returns an error if the inner dimensions disagree or `out` has the wrong
/// shape.
fn matmul_blocked_scalar_into<T: Num>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    out: &mut Matrix<T>,
) -> TensorResult<()> {
    check_matmul_shapes(a, b, out)?;
    let (kk, n) = (a.cols(), b.cols());
    let (skipped, visited) = gemm_rows(a.as_slice(), b.as_slice(), out.as_mut_slice(), kk, n);
    record_gemm("blocked_scalar", a.rows(), n, skipped, visited, None);
    Ok(())
}

/// Packed SIMD microkernel GEMM: `a × b` through [`crate::microkernel`]
/// for `f32`/[`Fx`](crate::Fx) operands (scalar blocked fallback for
/// other element types), into a caller-provided output matrix (every
/// element is overwritten) with caller-owned packing scratch — zero
/// allocations once the scratch is warm. Deterministic for every SIMD
/// level; see the module docs for how it relates to the naive oracle.
fn matmul_blocked_into_scratch<T: Num>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    out: &mut Matrix<T>,
    scratch: &mut PackScratch,
) -> TensorResult<()> {
    check_matmul_shapes(a, b, out)?;
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    match microkernel::packed_kind::<T>() {
        Some(_) => {
            let plan = microkernel::scan_gemm(a.as_slice(), m, kk, n, scratch);
            microkernel::run_gemm(
                simd_level(),
                plan,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                kk,
                n,
                scratch,
            );
            record_gemm("blocked", m, n, plan.skipped, plan.visited, Some(plan.path));
        }
        None => {
            let (skipped, visited) =
                gemm_rows(a.as_slice(), b.as_slice(), out.as_mut_slice(), kk, n);
            record_gemm("blocked", m, n, skipped, visited, None);
        }
    }
    Ok(())
}

/// GEMM with `B` produced on demand — the streamed-lowering entry for the
/// workspace conv drivers. `fill_row(k, row)` must write every element of
/// row `k` of the virtual `kk × n` operand `B` (the buffer it receives is
/// reused across rows, so a partial write would leak a previous row).
///
/// The `A` scan runs **before** `B` exists: when the dispatch layer picks
/// a broadcast path (small-`m` or ikj), `B` is never materialized — rows
/// stream through a one-`k`-tile workspace buffer, `k` ascending, each
/// live `(i, k)` pair applying one axpy update of the shared `ikj` tile
/// engine, and `B` rows whose `A` column is entirely zero are never even
/// generated. That is the same per-element operation chain as every other
/// engine (the f32 fused chain / the saturating Q8.8 chain, zero terms
/// skipped), so the result is bit-identical to materializing `B` and
/// calling [`MatmulKind::run_ws`] — which is exactly what the remaining
/// paths (packed, non-packed element types) do here.
///
/// Reference kinds keep their specification fills at the call sites and
/// never reach this entry.
///
/// # Errors
///
/// Returns an error if `a.cols() != kk`.
pub(crate) fn matmul_streamed_ws<T: Num>(
    kind: MatmulKind,
    a: &Matrix<T>,
    kk: usize,
    n: usize,
    fill_row: &mut dyn FnMut(usize, &mut [T]),
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Matrix<T>> {
    let m = a.rows();
    if a.cols() != kk {
        return Err(ShapeError::new(format!(
            "streamed matmul inner dimensions disagree: {}×{} vs {}×{}",
            m,
            a.cols(),
            kk,
            n
        )));
    }
    if microkernel::packed_kind::<T>().is_some() && !kind.is_reference() {
        let plan = microkernel::scan_gemm(a.as_slice(), m, kk, n, ws.pack_scratch());
        if matches!(plan.path, GemmPath::SmallM | GemmPath::Ikj) {
            let mut out = ws.take_matrix(m, n);
            // One k-tile of `B` rows — or fewer when the whole operand
            // is shorter than a tile (`kk = 1` input-grad reshapes).
            let mut rowbuf = ws.take(microkernel::IKJ_KB.min(kk) * n);
            broadcast_streamed(
                a.as_slice(),
                ws.scanned_pack_scratch().masks(),
                m,
                kk,
                n,
                out.as_mut_slice(),
                &mut rowbuf,
                fill_row,
            );
            ws.give(rowbuf);
            record_gemm("blocked", m, n, plan.skipped, plan.visited, Some(plan.path));
            return Ok(out);
        }
    }
    // The packed path wants `B` whole (it packs it into column panels):
    // materialize it row by row into workspace scratch — the same bytes
    // the cache-tuned fills produce — and run the normal kernel. Non-
    // packed element types and reference kinds land here too.
    let mut b = ws.take_matrix(kk, n);
    for k in 0..kk {
        fill_row(k, b.row_mut(k));
    }
    let result = kind.run_ws(a, &b, ws);
    ws.give_matrix(b);
    result
}

/// The streamed broadcast engine behind both non-packed dispatch paths:
/// the same [`microkernel::IKJ_KB`]-tiled `kb`/`i`/`k` nest as the ikj
/// kernels, but over `B` rows generated on demand into a one-tile row
/// buffer instead of a materialized operand. Per tile it scans column
/// liveness through the panel masks (masked `A` panels are never read),
/// fills only the live `B` rows — dead columns skip row generation
/// entirely — then runs the *shared* fused tile kernel
/// ([`microkernel::ikj_tile_packed`]) against the L1-hot buffer. Each
/// output element's term chain still runs `k` ascending (tiles ascend,
/// `k` ascends within a tile), so the result is bit-identical to the
/// in-memory ikj kernels (exact round trips — see the microkernel module
/// docs).
#[allow(clippy::too_many_arguments)]
fn broadcast_streamed<T: Num>(
    a: &[T],
    masks: &[u64],
    m: usize,
    kk: usize,
    n: usize,
    out: &mut [T],
    rowbuf: &mut [T],
    fill_row: &mut dyn FnMut(usize, &mut [T]),
) {
    const KP: usize = microkernel::KP;
    const KB: usize = microkernel::IKJ_KB;
    let wpr = microkernel::mask_geometry(kk).1;
    debug_assert_eq!(masks.len(), m * wpr);
    out.fill(T::zero());
    for kb in (0..kk).step_by(KB) {
        let kend = (kb + KB).min(kk);
        // Column-liveness scan for this tile: walk each row's tile words
        // panel-wise so masked panels cost one bit test, not `KP` loads.
        let mut live = [false; KB];
        for i in 0..m {
            let mrow = &masks[i * wpr..(i + 1) * wpr];
            let mut k = kb;
            while k < kend {
                let p = k / KP;
                let pend = (p * KP + KP).min(kend);
                if microkernel::mask_hit(mrow, p) {
                    k = pend;
                    continue;
                }
                while k < pend {
                    if !a[i * kk + k].is_zero() {
                        live[k - kb] = true;
                    }
                    k += 1;
                }
            }
        }
        for (t, &is_live) in live[..kend - kb].iter().enumerate() {
            if is_live {
                fill_row(kb + t, &mut rowbuf[t * n..(t + 1) * n]);
            }
        }
        microkernel::ikj_tile_packed(
            simd_level(),
            a,
            masks,
            &rowbuf[..(kend - kb) * n],
            out,
            kk,
            n,
            kb,
            kend,
        );
    }
}

/// GEMM against an in-memory `B` borrowed as a raw row-major slice — the
/// entry for lowering fast paths whose `B` operand already exists inside
/// another tensor (the `1×1`-input T-CONV reads the kernel tensor itself
/// as its weight matrix, zero-copy). The dispatch layer decides exactly
/// as the materialized entries would; when it picks the packed engine
/// (forced or by shape), or the element type has no packed kernels, or
/// `kind` is a reference kind, the call returns `Ok(None)` untouched and
/// the caller falls back to its classic lowering — so a forced-packed
/// run keeps the classic route's cost model, the baseline the dispatch
/// gate measures against.
///
/// # Errors
///
/// Returns an error if `b` is not a `a.cols() × n` operand.
pub(crate) fn matmul_inline_b_ws<T: Num>(
    kind: MatmulKind,
    a: &Matrix<T>,
    b: &[T],
    n: usize,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Option<Matrix<T>>> {
    let (m, kk) = (a.rows(), a.cols());
    if b.len() != kk * n {
        return Err(ShapeError::new(format!(
            "inline-B matmul operand holds {} words, expected {kk}×{n}",
            b.len()
        )));
    }
    if microkernel::packed_kind::<T>().is_none() || kind.is_reference() {
        return Ok(None);
    }
    let plan = microkernel::scan_gemm(a.as_slice(), m, kk, n, ws.pack_scratch());
    if plan.path == GemmPath::Packed {
        return Ok(None);
    }
    let mut out = ws.take_matrix(m, n);
    microkernel::run_gemm(
        simd_level(),
        plan,
        a.as_slice(),
        b,
        out.as_mut_slice(),
        kk,
        n,
        ws.scanned_pack_scratch(),
    );
    record_gemm("blocked", m, n, plan.skipped, plan.visited, Some(plan.path));
    Ok(Some(out))
}

/// GEMM with deterministic accumulator-fault injection: runs the selected
/// kernel, then corrupts each output element the plan fires on — modelling
/// a transient upset of the PE's partial-sum register at writeback.
///
/// Output element `(i, j)` is word `base + i·n + j` of the
/// [`FaultSite::GemmAccumulator`] index space, so injection is positional:
/// the same plan fires on the same elements for every [`MatmulKind`],
/// keeping campaigns bit-reproducible within a kernel family.
///
/// # Errors
///
/// Returns an error if the inner dimensions disagree.
pub fn matmul_with_faults(
    kind: MatmulKind,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    plan: &FaultPlan,
    base: u64,
    log: &mut FaultLog,
) -> TensorResult<Matrix<f32>> {
    let mut out = kind.run(a, b)?;
    plan.corrupt_slice(FaultSite::GemmAccumulator, base, out.as_mut_slice(), log);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::fixed::Fx;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, zero_frac: f64, rng: &mut SmallRng) -> Matrix<f32> {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < zero_frac {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Standard accumulation-error bound between the fused `k`-chain and
    /// the naive two-rounding chain: `2·γ_kk·Σ|a·b| ≤ 2·kk²·ε` for the
    /// unit-magnitude test operands.
    fn assert_within_accumulation_bound(naive: &Matrix<f32>, packed: &Matrix<f32>, kk: usize) {
        let bound = (2.0 * (kk as f32) * (kk as f32) * f32::EPSILON).max(1e-6);
        for (i, (x, y)) in naive.as_slice().iter().zip(packed.as_slice()).enumerate() {
            assert!(
                (x - y).abs() <= bound,
                "element {i}: naive {x} vs packed {y} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn blocked_scalar_is_bit_identical_to_naive() {
        let mut rng = SmallRng::seed_from_u64(10);
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (17, 33, 65), (40, 100, 130)] {
            let a = random_matrix(m, k, 0.4, &mut rng);
            let b = random_matrix(k, n, 0.1, &mut rng);
            let naive = a.matmul(&b).unwrap();
            let blocked = MatmulKind::BlockedScalar.run(&a, &b).unwrap();
            assert_eq!(naive, blocked, "{m}×{k}×{n}");
        }
    }

    #[test]
    fn packed_f32_matches_naive_within_the_accumulation_bound() {
        let mut rng = SmallRng::seed_from_u64(10);
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (17, 33, 65), (40, 100, 130)] {
            let a = random_matrix(m, k, 0.4, &mut rng);
            let b = random_matrix(k, n, 0.1, &mut rng);
            let naive = a.matmul(&b).unwrap();
            let packed = MatmulKind::Blocked.run(&a, &b).unwrap();
            assert_within_accumulation_bound(&naive, &packed, k);
        }
    }

    #[test]
    fn packed_fx_is_bit_identical_to_naive_fx() {
        let mut rng = SmallRng::seed_from_u64(14);
        for (m, k, n) in [(1, 1, 1), (5, 9, 7), (19, 40, 33)] {
            let draw = |rows: usize, cols: usize, rng: &mut SmallRng| {
                let data = (0..rows * cols)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < 0.4 {
                            Fx::ZERO
                        } else {
                            Fx::from_f32(rng.gen_range(-4.0f32..4.0))
                        }
                    })
                    .collect();
                Matrix::from_vec(rows, cols, data)
            };
            let a = draw(m, k, &mut rng);
            let b = draw(k, n, &mut rng);
            let naive = a.matmul(&b).unwrap();
            assert_eq!(
                naive,
                MatmulKind::Blocked.run(&a, &b).unwrap(),
                "{m}×{k}×{n}"
            );
            assert_eq!(
                naive,
                MatmulKind::BlockedScalar.run(&a, &b).unwrap(),
                "{m}×{k}×{n}"
            );
        }
    }

    #[test]
    fn f64_keeps_the_naive_bit_identity_on_every_kind() {
        let mut rng = SmallRng::seed_from_u64(15);
        let data = |len: usize, rng: &mut SmallRng| -> Vec<f64> {
            (0..len).map(|_| rng.gen_range(-1.0f64..1.0)).collect()
        };
        let a = Matrix::from_vec(13, 21, data(13 * 21, &mut rng));
        let b = Matrix::from_vec(21, 9, data(21 * 9, &mut rng));
        let naive = a.matmul(&b).unwrap();
        for kind in [MatmulKind::BlockedScalar, MatmulKind::Blocked] {
            assert_eq!(naive, kind.run(&a, &b).unwrap(), "{kind:?}");
        }
    }

    #[test]
    fn kernels_reject_dimension_mismatch() {
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(2, 3);
        assert!(MatmulKind::Blocked.run(&a, &b).is_err());
        assert!(MatmulKind::BlockedScalar.run(&a, &b).is_err());
    }

    #[test]
    fn fault_injection_is_positional_across_kernels() {
        let mut rng = SmallRng::seed_from_u64(13);
        let a = random_matrix(19, 30, 0.3, &mut rng);
        let b = random_matrix(30, 21, 0.0, &mut rng);
        let plan = FaultPlan::new(
            77,
            0.02,
            FaultSite::GemmAccumulator,
            FaultKind::BitFlip { bit: 30 },
        )
        .unwrap();
        let mut reference_log = FaultLog::default();
        matmul_with_faults(MatmulKind::Blocked, &a, &b, &plan, 100, &mut reference_log).unwrap();
        assert!(reference_log.fired > 0, "plan should fire in 399 elements");
        // Across kernel families the fault *sites* (positions) agree.
        for kind in [MatmulKind::Naive, MatmulKind::BlockedScalar] {
            let mut log = FaultLog::default();
            matmul_with_faults(kind, &a, &b, &plan, 100, &mut log).unwrap();
            assert_eq!(log.attempts, reference_log.attempts, "{kind:?}");
            assert_eq!(log.fired, reference_log.fired, "{kind:?}");
            assert_eq!(
                log.records.iter().map(|r| r.index).collect::<Vec<_>>(),
                reference_log
                    .records
                    .iter()
                    .map(|r| r.index)
                    .collect::<Vec<_>>(),
                "{kind:?}"
            );
        }
        // A different base shifts the fault pattern: same plan, new words.
        let mut other_log = FaultLog::default();
        let other = matmul_with_faults(MatmulKind::Blocked, &a, &b, &plan, 100_000, &mut other_log)
            .unwrap();
        assert_ne!(
            reference_log
                .records
                .iter()
                .map(|r| r.index)
                .collect::<Vec<_>>(),
            other_log
                .records
                .iter()
                .map(|r| r.index)
                .collect::<Vec<_>>(),
            "base offset must move the fault sites"
        );
        let _ = other;
    }

    #[test]
    fn recycled_workspace_scratch_matches_fresh_scratch() {
        let mut rng = SmallRng::seed_from_u64(16);
        let a = random_matrix(12, 40, 0.5, &mut rng);
        let b = random_matrix(40, 17, 0.0, &mut rng);
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let plain = MatmulKind::Blocked.run(&a, &b).unwrap();
        // Twice: the second call runs on warm (dirty) scratch.
        for round in 0..2 {
            let ws_out = MatmulKind::Blocked.run_ws(&a, &b, &mut ws).unwrap();
            assert_eq!(plain, ws_out, "round {round}");
            ws.give_matrix(ws_out);
        }
    }
}
