//! Zero-free convolution lowerings — the software mirror of the paper's
//! ZFOST/ZFWST dataflows.
//!
//! The Caffe-style lowering in [`crate::im2col`] materialises every zero
//! the zero-inserting transformations create: `T-CONV` patches are ~3/4
//! inserted zeros at stride 2, and the `W-CONV` of a T-CONV layer
//! correlates a zero-inserted input. The hardware answer in the paper is
//! to *reorganise the computation* so those zeros are never fetched; this
//! module is the same idea in software.
//!
//! For `T-CONV`, the output pixels are split into `stride²` phases by
//! their coordinates mod the stride. Within one phase every output pixel
//! uses the *same* subset of (flipped) kernel taps — exactly the
//! observation behind ZFOST's zero-free output-stationary schedule — so
//! the phase lowers to a compact patch matrix whose columns enumerate
//! only the kept taps. Inserted zeros are never materialised; only
//! boundary (padding) zeros remain, and they are skipped by the GEMM's
//! zero-operand test. [`im2col_t_zero_free`] exposes the compact patch
//! matrices so the residual zero share is measurable through
//! [`Lowered::zero_fraction`], next to the dense lowering's.
//!
//! For `W-CONV` of a T-CONV layer, the gradient is a GEMM between the
//! *compact* input (as a channels × pixels matrix) and a patch matrix of
//! the output error — the zero-inserted input of the textbook formulation
//! ([`w_conv_t_via_zero_insert_gemm`]) never exists, mirroring ZFWST's
//! "zero-inserting in input" elimination. For `W-CONV` of an S-CONV layer
//! the dilated-error operand is likewise never built.
//!
//! The *lowering* itself never changes results: per output element the
//! compact operands carry the same terms in the same order as the golden
//! loop nests, with only exact-zero terms (which cannot change a finite
//! accumulation) skipped. Run with a scalar GEMM
//! ([`MatmulKind::Naive`]/[`MatmulKind::BlockedScalar`]), every function
//! here is therefore **bit-identical** to its golden nest in
//! [`crate::conv`]. Run with the packed microkernel
//! ([`MatmulKind::Blocked`]), the f32 results
//! follow the kernel's own fused accumulation order instead (still
//! deterministic; see [`crate::microkernel`]), while `Fx` and `f64` stay
//! bit-identical to golden. `tests/fast_conv.rs` pins both contracts over
//! random geometries.
//!
//! Each pass has exactly one lowering, and it draws every transient from a
//! [`ConvWorkspace`] (the `_ws` functions). The allocating entry points
//! live one level up: [`crate::ConvBackend`]'s plain methods run these on
//! a fresh workspace. The only other lowerings here are accounting and
//! baseline views — [`im2col_t_zero_free`] and
//! [`t_zero_free_gemm_operands`] expose the phase matrices, and
//! [`w_conv_t_via_zero_insert_gemm`] is the dense W-CONV baseline.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{ShapeError, TensorResult};
use crate::fmaps::Fmaps;
use crate::gemm::MatmulKind;
use crate::im2col::{fill_im2col_s_row, im2col_s_ws, Lowered, Matrix};
use crate::kernels::Kernels;
use crate::num::Num;
use crate::shape::ConvGeom;
use crate::workspace::ConvWorkspace;
use crate::zeros::insert_zeros;

/// One stride-phase of a zero-free `T-CONV`: the output pixels with
/// `oy ≡ ry`, `ox ≡ rx (mod stride)` and the kernel taps that can reach
/// them.
#[derive(Debug)]
struct TPhase {
    /// Output rows of this phase, ascending.
    oys: Vec<usize>,
    /// Output columns of this phase, ascending.
    oxs: Vec<usize>,
    /// Kept flipped-kernel row indices `ky′`, ascending — ascending `ky′`
    /// is ascending source row `iy`, the golden scatter's order.
    kys: Vec<usize>,
    /// Kept flipped-kernel column indices `kx′`, ascending.
    kxs: Vec<usize>,
}

/// Enumerates the `stride²` phases of a `T-CONV` output of size `oh × ow`.
fn t_phases(geom: &ConvGeom, oh: usize, ow: usize) -> Vec<TPhase> {
    let s = geom.stride();
    let (pt, _, pl, _) = geom.t_conv_pads();
    let keep = |r: usize, pad: usize, kdim: usize| -> Vec<usize> {
        (0..kdim)
            .filter(|&k| (r as isize + k as isize - pad as isize).rem_euclid(s as isize) == 0)
            .collect()
    };
    let mut phases = Vec::with_capacity(s * s);
    for ry in 0..s {
        for rx in 0..s {
            let oys: Vec<usize> = (ry..oh).step_by(s).collect();
            let oxs: Vec<usize> = (rx..ow).step_by(s).collect();
            if oys.is_empty() || oxs.is_empty() {
                continue;
            }
            phases.push(TPhase {
                oys,
                oxs,
                kys: keep(ry, pt, geom.kh()),
                kxs: keep(rx, pl, geom.kw()),
            });
        }
    }
    phases
}

/// Shape-keyed memo of [`t_phases`] decompositions, embedded in
/// [`ConvWorkspace`]. A GAN's layer geometries repeat every step, and
/// `t_phases` allocates a handful of index vectors per call — caching them
/// behind `Arc`s removes the last per-call allocation from the zero-free
/// T-CONV hot path (`Arc` rather than `Rc` keeps the workspace `Send`).
#[derive(Debug, Default)]
pub(crate) struct PhaseCache {
    #[allow(clippy::type_complexity)]
    map: HashMap<(usize, usize, usize, usize, usize, usize, usize), Arc<Vec<TPhase>>>,
}

impl PhaseCache {
    /// The phase decomposition for `(geom, oh, ow)`, computed at most once
    /// per distinct shape. The key covers every input `t_phases` reads.
    fn get(&mut self, geom: &ConvGeom, oh: usize, ow: usize) -> Arc<Vec<TPhase>> {
        let (pt, _, pl, _) = geom.t_conv_pads();
        let key = (geom.stride(), pt, pl, geom.kh(), geom.kw(), oh, ow);
        Arc::clone(
            self.map
                .entry(key)
                .or_insert_with(|| Arc::new(t_phases(geom, oh, ow))),
        )
    }
}

/// The phases for one zero-free T-CONV call: memoized through the
/// workspace when reuse is on, computed fresh (like the pre-workspace
/// code) when it is off.
fn phases_for<T>(
    ws: &mut ConvWorkspace<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
) -> Arc<Vec<TPhase>> {
    if ws.reuse() {
        ws.phases.get(geom, oh, ow)
    } else {
        Arc::new(t_phases(geom, oh, ow))
    }
}

/// The patch fill loop of [`t_phase_patches`], shared by the allocating
/// and workspace lowerings. Writes only in-bounds entries, so `patches`
/// **must** start zero-filled.
fn fill_t_phase_patches<T: Num>(
    patches: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    phase: &TPhase,
) {
    let s = geom.stride() as isize;
    let su = geom.stride();
    let (pt, _, pl, _) = geom.t_conv_pads();
    let (ih, iw) = (input.height() as isize, input.width() as isize);
    let iw_s = iw * s;
    let (nky, nkx) = (phase.kys.len(), phase.kxs.len());
    let data = input.as_slice();
    let ch_stride = (ih * iw) as usize;
    // zy/zx ≡ 0 (mod s) by construction of the kept taps; a tap is a real
    // source pixel iff it lands inside the map. Row-major traversal with
    // flat-slice writes: each output row is written contiguously, the
    // y-axis division is hoisted out of the inner tap loop, and the
    // strided reads stay inside one `sf` channel block per row group —
    // small enough to sit in cache. No scratch is allocated (the conv hot
    // path is zero-allocation in steady state, `tests/zero_alloc.rs`).
    for (ri, &oy) in phase.oys.iter().enumerate() {
        for (rj, &ox) in phase.oxs.iter().enumerate() {
            let row = ri * phase.oxs.len() + rj;
            let dst = patches.row_mut(row);
            for (sf, dchunk) in dst.chunks_exact_mut(nky * nkx).enumerate() {
                let cbase = sf * ch_stride;
                for (kyi, &ky) in phase.kys.iter().enumerate() {
                    let zy = oy as isize + ky as isize - pt as isize;
                    if zy < 0 || zy / s >= ih {
                        continue;
                    }
                    let src = cbase + (zy / s) as usize * iw as usize;
                    let db = kyi * nkx;
                    for (kxi, &kx) in phase.kxs.iter().enumerate() {
                        let zx = ox as isize + kx as isize - pl as isize;
                        if zx >= 0 && zx < iw_s {
                            dchunk[db + kxi] = data[src + zx as usize / su];
                        }
                    }
                }
            }
        }
    }
}

/// Specification form of [`fill_t_phase_patches`]: one bounds check and
/// stride division per matrix entry, written exactly as the lowering is
/// defined. The reference engines ([`MatmulKind::is_reference`]) run this
/// loop so their cost model stays that of the pre-microkernel engine;
/// tests pin it bit-identical to the table-driven fill.
fn fill_t_phase_patches_ref<T: Num>(
    patches: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    phase: &TPhase,
) {
    let s = geom.stride() as isize;
    let (pt, _, pl, _) = geom.t_conv_pads();
    let (ih, iw) = (input.height() as isize, input.width() as isize);
    for (ri, &oy) in phase.oys.iter().enumerate() {
        for (rj, &ox) in phase.oxs.iter().enumerate() {
            let row = ri * phase.oxs.len() + rj;
            let mut col = 0;
            for sf in 0..input.channels() {
                for &ky in &phase.kys {
                    // zy ≡ 0 (mod s) by construction of the kept taps; it
                    // is a real source pixel iff it lands inside the map.
                    let zy = oy as isize + ky as isize - pt as isize;
                    for &kx in &phase.kxs {
                        let zx = ox as isize + kx as isize - pl as isize;
                        if zy >= 0 && zx >= 0 && zy / s < ih && zx / s < iw {
                            *patches.at_mut(row, col) =
                                *input.at(sf, (zy / s) as usize, (zx / s) as usize);
                        }
                        col += 1;
                    }
                }
            }
        }
    }
}

/// Picks the specification or table-driven patch fill by GEMM family.
fn fill_t_phase_patches_for<T: Num>(
    m: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    phase: &TPhase,
    mm: MatmulKind,
) {
    if mm.is_reference() {
        fill_t_phase_patches_ref(m, input, geom, phase);
    } else {
        fill_t_phase_patches(m, input, geom, phase);
    }
}

/// Builds one phase's compact patch matrix. Rows enumerate the phase's
/// output pixels (row-major); columns enumerate `(sf, ky′, kx′)` over the
/// kept taps. Entries outside the real input (boundary, not inserted) are
/// zero.
fn t_phase_patches<T: Num>(input: &Fmaps<T>, geom: &ConvGeom, phase: &TPhase) -> Matrix<T> {
    let cols = input.channels() * phase.kys.len() * phase.kxs.len();
    let mut patches = Matrix::zeros(phase.oys.len() * phase.oxs.len(), cols);
    fill_t_phase_patches(&mut patches, input, geom, phase);
    patches
}

/// The weight fill loop of [`t_phase_weights`], shared by the allocating
/// and workspace reshapes. Writes every cell of `m`.
fn fill_t_phase_weights<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>, phase: &TPhase) {
    // Row-major traversal: each output row is written contiguously, and
    // the strided kernel reads stay inside one `sf` block (`n_if·kh·kw`
    // elements) that is revisited for every kept tap — small enough to
    // sit in cache. The column-major variant (outer `lf`) walks the whole
    // matrix once per column and is memory-bound on the writes.
    for row in 0..m.rows() {
        fill_t_phase_weights_row(m.row_mut(row), k, phase, row);
    }
}

/// One row of [`fill_t_phase_weights`]: row `(sf, ky′, kx′)` of the phase
/// weight matrix, written contiguously across the `lf` columns. The
/// streamed-lowering fill for the phase GEMM — live rows are generated
/// straight into the driver's hot row buffer, so phases the dispatch
/// layer routes off the packed path never materialize the weight matrix.
fn fill_t_phase_weights_row<T: Num>(dst: &mut [T], k: &Kernels<T>, phase: &TPhase, row: usize) {
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let kdata = k.as_slice();
    let kxi = row % phase.kxs.len();
    let rest = row / phase.kxs.len();
    let kyi = rest % phase.kys.len();
    let sf = rest / phase.kys.len();
    let tap = (kh - 1 - phase.kys[kyi]) * kw + (kw - 1 - phase.kxs[kxi]);
    let base = sf * n_if * kh * kw + tap;
    for (lf, d) in dst.iter_mut().enumerate() {
        *d = kdata[base + lf * kh * kw];
    }
}

/// Specification form of [`fill_t_phase_weights`]: column-major traversal
/// through the kernel accessor, written exactly as the reshape is defined.
/// The reference engines run this loop (see [`MatmulKind::is_reference`]);
/// tests pin it bit-identical to the row-major fill.
fn fill_t_phase_weights_ref<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>, phase: &TPhase) {
    let (kh, kw) = (k.kh(), k.kw());
    for lf in 0..k.n_if() {
        let mut row = 0;
        for sf in 0..k.n_of() {
            for &ky in &phase.kys {
                for &kx in &phase.kxs {
                    *m.at_mut(row, lf) = *k.at(sf, lf, kh - 1 - ky, kw - 1 - kx);
                    row += 1;
                }
            }
        }
    }
}

/// The row subset of [`crate::im2col::weights_as_matrix_t`] matching one
/// phase's kept taps: rows are `(sf, ky′, kx′)`, columns the large-side
/// output channels.
fn t_phase_weights<T: Num>(k: &Kernels<T>, phase: &TPhase) -> Matrix<T> {
    let rows = k.n_of() * phase.kys.len() * phase.kxs.len();
    let mut m = Matrix::zeros(rows, k.n_if());
    fill_t_phase_weights(&mut m, k, phase);
    m
}

/// The compact per-phase patch matrices of a zero-free `T-CONV` lowering,
/// for ineffectual-operand accounting: compare these matrices'
/// [`Lowered::zero_fraction`] (only boundary zeros remain) with
/// [`crate::im2col::im2col_t`]'s (inserted zeros dominate). Each entry's
/// `out_hw` is the phase's output grid. Phases with no reachable kernel
/// taps produce no patches.
pub fn im2col_t_zero_free<T: Num>(input: &Fmaps<T>, geom: &ConvGeom) -> Vec<Lowered<T>> {
    let (oh, ow) = geom.up_out(input.height(), input.width());
    t_phases(geom, oh, ow)
        .iter()
        .filter(|p| !p.kys.is_empty() && !p.kxs.is_empty())
        .map(|p| Lowered {
            patches: t_phase_patches(input, geom, p),
            out_hw: (p.oys.len(), p.oxs.len()),
        })
        .collect()
}

/// The per-phase GEMM operand pairs `(patches, weights)` of a zero-free
/// `T-CONV` — the exact matrices [`t_conv_zero_free_ws`] multiplies, exposed
/// so fault-injection campaigns can drive each phase's GEMM through
/// instrumented kernels (ABFT checks, accumulator corruption) without
/// re-deriving the dataflow. Phases with no reachable kernel taps are
/// omitted, matching [`im2col_t_zero_free`].
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_zero_free_gemm_operands<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
) -> TensorResult<Vec<(Matrix<T>, Matrix<T>)>> {
    if k.n_of() != input.channels() {
        return Err(ShapeError::new(format!(
            "kernel's down-direction output side is {} maps, t_conv input has {}",
            k.n_of(),
            input.channels()
        )));
    }
    let (oh, ow) = geom.up_out(input.height(), input.width());
    Ok(t_phases(geom, oh, ow)
        .iter()
        .filter(|p| !p.kys.is_empty() && !p.kxs.is_empty())
        .map(|p| (t_phase_patches(input, geom, p), t_phase_weights(k, p)))
        .collect())
}

/// Zero-free `T-CONV`: compact per-phase lowering + GEMM, bit-identical
/// to [`crate::t_conv`] under a scalar GEMM. Every transient comes from
/// the workspace; the returned maps belong to the caller.
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_conv_zero_free_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    let (oh, ow) = geom.up_out(input.height(), input.width());
    t_conv_zero_free_sized_ws(input, k, geom, oh, ow, mm, ws)
}

/// [`t_conv_zero_free_ws`] with an explicit output size (the backward
/// error pass of an S-CONV layer needs the original input size back).
/// Every transient (phase patch and weight matrices, GEMM products,
/// output maps) comes from the workspace, and the phase decomposition is
/// memoized through its [`PhaseCache`].
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_conv_zero_free_sized_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    if k.n_of() != input.channels() {
        return Err(ShapeError::new(format!(
            "kernel's down-direction output side is {} maps, t_conv input has {}",
            k.n_of(),
            input.channels()
        )));
    }
    if input.height() == 1 && input.width() == 1 {
        if let Some(out) = t_conv_one_by_one_ws(input, k, geom, oh, ow, mm, ws)? {
            return Ok(out);
        }
    }
    let phases = phases_for(ws, geom, oh, ow);
    // take_fmaps zero-fills: phases without reachable taps leave their
    // outputs zero, exactly as the golden scatter does.
    let mut out = ws.take_fmaps(k.n_if(), oh, ow);
    for phase in phases.iter() {
        if phase.kys.is_empty() || phase.kxs.is_empty() {
            continue;
        }
        let cols = input.channels() * phase.kys.len() * phase.kxs.len();
        // take_matrix zero-fills — required: the patch fill writes only
        // in-bounds entries.
        let mut patches = ws.take_matrix(phase.oys.len() * phase.oxs.len(), cols);
        fill_t_phase_patches_for(&mut patches, input, geom, phase, mm);
        let wrows = k.n_of() * phase.kys.len() * phase.kxs.len();
        let product = if mm.is_reference() {
            // Reference kinds keep the specification reshape loop and the
            // materialized operand.
            let mut weights = ws.take_matrix(wrows, k.n_if());
            fill_t_phase_weights_ref(&mut weights, k, phase);
            let product = mm.run_ws(&patches, &weights, ws)?;
            ws.give_matrix(weights);
            product
        } else {
            // Streamed lowering: the highly sparse phases (the generator
            // projection in particular) dispatch off the packed path, and
            // there the weight matrix is never materialized — rows are
            // generated on demand into the driver's hot tile buffer.
            crate::gemm::matmul_streamed_ws(
                mm,
                &patches,
                wrows,
                k.n_if(),
                &mut |row, dst| fill_t_phase_weights_row(dst, k, phase, row),
                ws,
            )?
        };
        ws.give_matrix(patches);
        for lf in 0..k.n_if() {
            for (ri, &oy) in phase.oys.iter().enumerate() {
                for (rj, &ox) in phase.oxs.iter().enumerate() {
                    *out.at_mut(lf, oy, ox) = *product.at(ri * phase.oxs.len() + rj, lf);
                }
            }
        }
        ws.give_matrix(product);
    }
    Ok(out)
}

/// Collapsed lowering for a `1×1` input map (the generator's latent
/// projection): every live patch entry is just `z[sf]` — the single input
/// pixel — so the whole phase decomposition collapses to **one**
/// `1 × n_of` GEMM against the kernel tensor itself, read zero-copy as
/// the `n_of × (n_if·kh·kw)` row-major matrix it already is. No patch
/// matrix, no `m·kk`-word `A` scan, no weight reshape: the only remaining
/// traffic is one streamed pass over the weights.
///
/// Bit-identity: in the classic phase GEMM each channel `sf` contributes
/// exactly one live tap per output pixel, so the per-element chain is
/// `Σ_sf z[sf]·k[sf][lf][ky][kx]` with `sf` ascending — precisely element
/// `(lf, ky, kx)` of the collapsed GEMM, the same fused (f32) /
/// saturating (Q8.8) chain in the same order. Output pixels no tap
/// reaches stay zero under every engine.
///
/// Returns `None` when the dispatch layer routes the collapsed GEMM to
/// the packed engine (forced-packed runs), the kind is a reference kind,
/// or the element type has no packed kernels: the caller then takes the
/// classic phase route, so a forced-packed baseline keeps the PR-8 cost
/// model unchanged.
fn t_conv_one_by_one_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Option<Fmaps<T>>> {
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let mut z = ws.take_matrix(1, k.n_of());
    z.as_mut_slice().copy_from_slice(input.as_slice());
    let product = crate::gemm::matmul_inline_b_ws(mm, &z, k.as_slice(), n_if * kh * kw, ws)?;
    ws.give_matrix(z);
    let Some(product) = product else {
        return Ok(None);
    };
    // Scatter: kernel tap `(ky, kx)` — flipped index `(kh−1−ky, kw−1−kx)`
    // — reaches exactly the output pixel whose source lands on the single
    // input pixel: `oy = pt − (kh−1−ky)`, `ox = pl − (kw−1−kx)`. Taps
    // mapping outside the output grid are boundary-cropped; pixels no tap
    // reaches stay zero (take_fmaps zero-fills).
    let (pt, _, pl, _) = geom.t_conv_pads();
    let mut out = ws.take_fmaps(n_if, oh, ow);
    let p = product.as_slice();
    for lf in 0..n_if {
        for ky in 0..kh {
            let oy = pt as isize - (kh - 1 - ky) as isize;
            if oy < 0 || oy as usize >= oh {
                continue;
            }
            for kx in 0..kw {
                let ox = pl as isize - (kw - 1 - kx) as isize;
                if ox < 0 || ox as usize >= ow {
                    continue;
                }
                *out.at_mut(lf, oy as usize, ox as usize) = p[(lf * kh + ky) * kw + kx];
            }
        }
    }
    ws.give_matrix(product);
    Ok(Some(out))
}

/// Fills a `(n_if·kh·kw) × n_of` matrix with the channel-swapped weight
/// layout the backward error pass of a T-CONV layer multiplies: rows are
/// `(lf, ky, kx)`, columns the small-side channels. Column-major traversal
/// through the kernel accessor, as the reshape is defined — the
/// specification fill the reference engines run (see
/// [`MatmulKind::is_reference`]); tests pin it bit-identical to the
/// streamed row fill.
fn fill_weights_as_matrix_s_swapped_ref<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>) {
    for sf in 0..k.n_of() {
        let mut row = 0;
        for lf in 0..k.n_if() {
            for ky in 0..k.kh() {
                for kx in 0..k.kw() {
                    *m.at_mut(row, sf) = *k.at(sf, lf, ky, kx);
                    row += 1;
                }
            }
        }
    }
}

/// Fills one row `r` of the [`fill_weights_as_matrix_s_swapped_ref`] reshape —
/// the per-row form the streamed GEMM lowering pulls through
/// [`crate::gemm`]'s row callback. Row `r` is the linear `(lf, ky, kx)`
/// index, which is exactly the kernel tensor's within-block offset. Writes
/// every element of `row`.
fn fill_weights_as_matrix_s_swapped_row<T: Num>(k: &Kernels<T>, r: usize, row: &mut [T]) {
    let block = k.n_if() * k.kh() * k.kw();
    let kdata = k.as_slice();
    for (sf, d) in row.iter_mut().enumerate() {
        *d = kdata[sf * block + r];
    }
}

/// Backward error pass of a T-CONV layer by lowering: a plain strided
/// `im2col` of the error GEMMed against the channel-swapped weights.
/// Bit-identical to [`crate::t_conv_input_grad`] under a scalar GEMM. No
/// zero-inserting is involved in either formulation, so this is also the
/// zero-free form. Every transient comes from the workspace; the returned
/// maps belong to the caller.
///
/// # Errors
///
/// Returns an error if `delta_out.channels() != k.n_if()`.
pub fn t_conv_input_grad_via_gemm_ws<T: Num>(
    delta_out: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    if k.n_if() != delta_out.channels() {
        return Err(ShapeError::new(format!(
            "kernel's up-direction side is {} maps, error has {}",
            k.n_if(),
            delta_out.channels()
        )));
    }
    let lowered = im2col_s_ws(delta_out, geom, ws);
    let product = if mm.is_reference() {
        let mut swapped = ws.take_matrix(k.n_if() * k.kh() * k.kw(), k.n_of());
        fill_weights_as_matrix_s_swapped_ref(&mut swapped, k);
        let product = mm.run_ws(&lowered.patches, &swapped, ws)?;
        ws.give_matrix(swapped);
        product
    } else {
        // Streamed lowering: swapped-weight rows are produced on demand, so
        // the `m = 1` projection-layer input grad never materialises the
        // weight matrix — dead patch columns skip their row fill entirely.
        crate::gemm::matmul_streamed_ws(
            mm,
            &lowered.patches,
            k.n_if() * k.kh() * k.kw(),
            k.n_of(),
            &mut |r, row| fill_weights_as_matrix_s_swapped_row(k, r, row),
            ws,
        )?
    };
    let (oh, ow) = lowered.out_hw;
    ws.give_matrix(lowered.patches);
    let mut out = ws.take_fmaps(k.n_of(), oh, ow);
    for sf in 0..k.n_of() {
        for oy in 0..oh {
            for ox in 0..ow {
                *out.at_mut(sf, oy, ox) = *product.at(oy * ow + ox, sf);
            }
        }
    }
    ws.give_matrix(product);
    Ok(out)
}

/// `W-CONV` of an S-CONV layer by lowering: the error (as a channels ×
/// pixels matrix) GEMMed against the forward pass's `im2col` patches.
/// Bit-identical to [`crate::w_conv_for_s_layer`] under a scalar GEMM.
///
/// This is the form Caffe actually executes — the "zero-inserting in
/// kernel" dilation of the textbook description never materialises, so
/// the same routine serves both the dense-lowered and zero-free backends.
/// Every transient comes from the workspace; the returned gradient
/// belongs to the caller.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size does not match this
/// geometry's forward output.
pub fn w_conv_s_via_gemm_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Kernels<T>> {
    let expected = geom.down_out(input.height(), input.width());
    if (delta_out.height(), delta_out.width()) != expected {
        return Err(ShapeError::new(format!(
            "error map is {}×{}, expected {}×{} for this geometry",
            delta_out.height(),
            delta_out.width(),
            expected.0,
            expected.1
        )));
    }
    let (oh, ow) = (delta_out.height(), delta_out.width());
    let mut delta_buf = ws.take(delta_out.len());
    delta_buf.copy_from_slice(delta_out.as_slice());
    let delta_mat = Matrix::from_vec(delta_out.channels(), oh * ow, delta_buf);
    let product = if mm.is_reference() {
        let lowered = im2col_s_ws(input, geom, ws);
        let product = mm.run_ws(&delta_mat, &lowered.patches, ws)?;
        ws.give_matrix(lowered.patches);
        product
    } else {
        // Streamed lowering: patch rows of the forward input are produced
        // on demand, so for few-channel error maps (the critic head) the
        // small-m streamed engine skips the whole `im2col` fill for every
        // patch position whose error column is zero.
        crate::gemm::matmul_streamed_ws(
            mm,
            &delta_mat,
            oh * ow,
            input.channels() * geom.kh() * geom.kw(),
            &mut |r, row| fill_im2col_s_row(input, geom, ow, r, row),
            ws,
        )?
    };
    ws.give_matrix(delta_mat);
    let mut grad = ws.take_kernels(delta_out.channels(), input.channels(), geom.kh(), geom.kw());
    // The product's `of × (if·ky·kx)` row-major layout is exactly the
    // kernel tensor's flat layout — reshape by bulk copy.
    grad.as_mut_slice().copy_from_slice(product.as_slice());
    ws.give_matrix(product);
    Ok(grad)
}

/// Patch matrix for the zero-free `W-CONV` of a T-CONV layer: fills an
/// `(ih·iw) × (lf·kh·kw)` matrix whose rows are the layer's *compact*
/// input pixels `(iy, ix)`, columns `(lf, ky, kx)`, each entry the output
/// error the pixel meets under that tap. Writes every cell (taps outside
/// the error map write an explicit zero).
fn fill_im2col_wgrad_t<T: Num>(
    m: &mut Matrix<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    ih: usize,
    iw: usize,
) {
    let s = geom.stride() as isize;
    let (pt, pl) = (geom.pad_top() as isize, geom.pad_left() as isize);
    for iy in 0..ih {
        for ix in 0..iw {
            let row = iy * iw + ix;
            let mut col = 0;
            for lf in 0..delta_out.channels() {
                for ky in 0..geom.kh() {
                    for kx in 0..geom.kw() {
                        let ty = s * iy as isize + ky as isize - pt;
                        let tx = s * ix as isize + kx as isize - pl;
                        *m.at_mut(row, col) = delta_out.at_padded(lf, ty, tx);
                        col += 1;
                    }
                }
            }
        }
    }
}

/// Zero-free `W-CONV` of a T-CONV layer: the compact input (channels ×
/// pixels) GEMMed against `fill_im2col_wgrad_t` patches of the error.
/// The zero-inserted input of the textbook formulation is never built —
/// ZFWST's elimination, in software. Bit-identical to
/// [`crate::w_conv_for_t_layer`] under a scalar GEMM. Every transient
/// comes from the workspace; the returned gradient belongs to the caller.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry.
pub fn w_conv_t_zero_free_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Kernels<T>> {
    let expected = geom.up_out(input.height(), input.width());
    if (delta_out.height(), delta_out.width()) != expected {
        return Err(ShapeError::new(format!(
            "error map is {}×{}, expected {}×{} for this geometry",
            delta_out.height(),
            delta_out.width(),
            expected.0,
            expected.1
        )));
    }
    let (ih, iw) = (input.height(), input.width());
    let mut input_buf = ws.take(input.len());
    input_buf.copy_from_slice(input.as_slice());
    let input_mat = Matrix::from_vec(input.channels(), ih * iw, input_buf);
    let cols = delta_out.channels() * geom.kh() * geom.kw();
    let mut patches = ws.take_matrix(ih * iw, cols);
    fill_im2col_wgrad_t(&mut patches, delta_out, geom, ih, iw);
    let product = mm.run_ws(&input_mat, &patches, ws)?;
    ws.give_matrix(input_mat);
    ws.give_matrix(patches);
    let mut grad = ws.take_kernels(input.channels(), delta_out.channels(), geom.kh(), geom.kw());
    // The product's `sf × (lf·ky·kx)` row-major layout is exactly the
    // kernel tensor's flat layout — reshape by bulk copy.
    grad.as_mut_slice().copy_from_slice(product.as_slice());
    ws.give_matrix(product);
    Ok(grad)
}

/// `W-CONV` of a T-CONV layer the textbook way: materialise the
/// zero-inserted input, then GEMM it against unit-stride error patches.
/// Bit-identical to [`crate::w_conv_for_t_layer`] (the GEMM's zero skip
/// drops exactly the inserted rows), but pays for every inserted zero in
/// memory and operand traffic — the dense-lowered backend's cost model,
/// and the baseline the zero-free path is measured against.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry.
pub fn w_conv_t_via_zero_insert_gemm<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
) -> TensorResult<Kernels<T>> {
    let expected = geom.up_out(input.height(), input.width());
    if (delta_out.height(), delta_out.width()) != expected {
        return Err(ShapeError::new(format!(
            "error map is {}×{}, expected {}×{} for this geometry",
            delta_out.height(),
            delta_out.width(),
            expected.0,
            expected.1
        )));
    }
    let zi = insert_zeros(input, geom.stride());
    let (zh, zw) = (zi.height(), zi.width());
    let zi_mat = Matrix::from_vec(zi.channels(), zh * zw, zi.as_slice().to_vec());
    // Unit-stride patches of the error over the zero-inserted grid: the
    // original pixel (iy, ix) sits at (s·iy, s·ix), so the taps match the
    // golden nest's `s·iy + ky − pt` exactly.
    let (pt, pl) = (geom.pad_top() as isize, geom.pad_left() as isize);
    let cols = delta_out.channels() * geom.kh() * geom.kw();
    let mut patches = Matrix::zeros(zh * zw, cols);
    for zy in 0..zh {
        for zx in 0..zw {
            let row = zy * zw + zx;
            let mut col = 0;
            for lf in 0..delta_out.channels() {
                for ky in 0..geom.kh() {
                    for kx in 0..geom.kw() {
                        let ty = zy as isize + ky as isize - pt;
                        let tx = zx as isize + kx as isize - pl;
                        *patches.at_mut(row, col) = delta_out.at_padded(lf, ty, tx);
                        col += 1;
                    }
                }
            }
        }
    }
    let product = mm.run(&zi_mat, &patches)?;
    let mut grad = Kernels::zeros(input.channels(), delta_out.channels(), geom.kh(), geom.kw());
    for sf in 0..input.channels() {
        let mut col = 0;
        for lf in 0..delta_out.channels() {
            for ky in 0..geom.kh() {
                for kx in 0..geom.kw() {
                    *grad.at_mut(sf, lf, ky, kx) = *product.at(sf, col);
                    col += 1;
                }
            }
        }
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{t_conv, t_conv_input_grad, w_conv_for_s_layer, w_conv_for_t_layer};
    use crate::im2col::im2col_t;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn geom() -> ConvGeom {
        ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap()
    }

    #[test]
    fn zero_free_t_conv_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(20);
        let x: Fmaps<f32> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let golden = t_conv(&x, &k, &geom()).unwrap();
        for mm in [MatmulKind::Naive, MatmulKind::BlockedScalar] {
            let fast = t_conv_zero_free_ws(&x, &k, &geom(), mm, &mut ConvWorkspace::new()).unwrap();
            assert_eq!(golden, fast, "{mm:?}");
        }
    }

    #[test]
    fn zero_free_patches_drop_the_inserted_zeros() {
        let mut rng = SmallRng::seed_from_u64(21);
        let x: Fmaps<f64> = Fmaps::random(2, 6, 6, 1.0, &mut rng);
        let dense = im2col_t(&x, &geom());
        let compact = im2col_t_zero_free(&x, &geom());
        let frac = |zeros: f64, total: f64| zeros / total;
        let compact_zeros: f64 = compact
            .iter()
            .map(|l| l.zero_fraction() * (l.patches.rows() * l.patches.cols()) as f64)
            .sum();
        let compact_total: f64 = compact
            .iter()
            .map(|l| (l.patches.rows() * l.patches.cols()) as f64)
            .sum();
        assert!(dense.zero_fraction() > 0.65);
        assert!(
            frac(compact_zeros, compact_total) < 0.35,
            "compact fraction {}",
            frac(compact_zeros, compact_total)
        );
        // The compact lowering covers every output pixel exactly once.
        let (oh, ow) = geom().up_out(6, 6);
        let covered: usize = compact.iter().map(|l| l.out_hw.0 * l.out_hw.1).sum();
        assert_eq!(covered, oh * ow);
    }

    #[test]
    fn wgrad_lowerings_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(22);
        let g = geom();
        // S layer: input 12×12 → delta 6×6.
        let x: Fmaps<f32> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let d: Fmaps<f32> = Fmaps::random(4, 6, 6, 1.0, &mut rng);
        let golden_s = w_conv_for_s_layer(&x, &d, &g).unwrap();
        let mm = MatmulKind::BlockedScalar;
        let ws = &mut ConvWorkspace::new();
        assert_eq!(golden_s, w_conv_s_via_gemm_ws(&x, &d, &g, mm, ws).unwrap());
        // T layer: input 6×6 → delta 12×12.
        let xt: Fmaps<f32> = Fmaps::random(4, 6, 6, 1.0, &mut rng);
        let dt: Fmaps<f32> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let golden_t = w_conv_for_t_layer(&xt, &dt, &g).unwrap();
        assert_eq!(
            golden_t,
            w_conv_t_zero_free_ws(&xt, &dt, &g, mm, ws).unwrap()
        );
        assert_eq!(
            golden_t,
            w_conv_t_via_zero_insert_gemm(&xt, &dt, &g, mm).unwrap()
        );
    }

    #[test]
    fn t_input_grad_lowering_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = geom();
        let d: Fmaps<f32> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let golden = t_conv_input_grad(&d, &k, &g).unwrap();
        let fast = t_conv_input_grad_via_gemm_ws(
            &d,
            &k,
            &g,
            MatmulKind::BlockedScalar,
            &mut ConvWorkspace::new(),
        )
        .unwrap();
        assert_eq!(golden, fast);
    }

    #[test]
    fn gemm_operands_mirror_the_zero_free_phases() {
        let mut rng = SmallRng::seed_from_u64(24);
        let x: Fmaps<f32> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let pairs = t_zero_free_gemm_operands(&x, &k, &geom()).unwrap();
        let lowered = im2col_t_zero_free(&x, &geom());
        assert_eq!(pairs.len(), lowered.len());
        for ((patches, weights), l) in pairs.iter().zip(&lowered) {
            assert_eq!(patches, &l.patches);
            assert_eq!(patches.cols(), weights.rows(), "GEMM-compatible pair");
            assert_eq!(weights.cols(), k.n_if());
        }
        let bad: Fmaps<f32> = Fmaps::zeros(2, 6, 6);
        assert!(t_zero_free_gemm_operands(&bad, &k, &geom()).is_err());
    }

    /// The reference (specification) fills and the cache-tuned fills must
    /// produce bit-identical matrices — they are the same reshape, only
    /// the traversal order differs. Covers boundary-heavy geometries
    /// where the patch fill's bounds checks matter.
    #[test]
    fn reference_and_tuned_fills_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(25);
        let geoms = [
            (ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap(), 6, 6),
            (ConvGeom::down(14, 14, 5, 5, 2, 7, 7).unwrap(), 7, 7),
            (ConvGeom::down(7, 7, 3, 3, 3, 3, 3).unwrap(), 3, 3),
            (ConvGeom::new(7, 7, 1, 0, 0, 0, 0).unwrap(), 1, 1),
        ];
        for (g, ih, iw) in &geoms {
            let (ih, iw) = (*ih, *iw);
            let x: Fmaps<f32> = Fmaps::random(3, ih, iw, 1.0, &mut rng);
            let k: Kernels<f32> = Kernels::random(3, 4, g.kh(), g.kw(), 1.0, &mut rng);
            let (oh, ow) = g.up_out(ih, iw);
            for phase in t_phases(g, oh, ow) {
                if phase.kys.is_empty() || phase.kxs.is_empty() {
                    continue;
                }
                let cols = x.channels() * phase.kys.len() * phase.kxs.len();
                let rows = phase.oys.len() * phase.oxs.len();
                let mut tuned = Matrix::zeros(rows, cols);
                fill_t_phase_patches(&mut tuned, &x, g, &phase);
                let mut reference = Matrix::zeros(rows, cols);
                fill_t_phase_patches_ref(&mut reference, &x, g, &phase);
                assert_eq!(tuned, reference, "patches, {g:?}");

                let wrows = k.n_of() * phase.kys.len() * phase.kxs.len();
                let mut tuned = Matrix::zeros(wrows, k.n_if());
                fill_t_phase_weights(&mut tuned, &k, &phase);
                let mut reference = Matrix::zeros(wrows, k.n_if());
                fill_t_phase_weights_ref(&mut reference, &k, &phase);
                assert_eq!(tuned, reference, "weights, {g:?}");
            }
            let mut tuned = Matrix::zeros(k.n_if() * k.kh() * k.kw(), k.n_of());
            for r in 0..tuned.rows() {
                fill_weights_as_matrix_s_swapped_row(&k, r, tuned.row_mut(r));
            }
            let mut reference = Matrix::zeros(k.n_if() * k.kh() * k.kw(), k.n_of());
            fill_weights_as_matrix_s_swapped_ref(&mut reference, &k);
            assert_eq!(tuned, reference, "swapped weights, {g:?}");
        }
    }

    #[test]
    fn shape_errors_match_the_golden_nests() {
        let g = geom();
        let x: Fmaps<f32> = Fmaps::zeros(2, 6, 6);
        let k: Kernels<f32> = Kernels::zeros(5, 3, 4, 4);
        let (mm, ws) = (MatmulKind::Blocked, &mut ConvWorkspace::new());
        assert!(t_conv_zero_free_ws(&x, &k, &g, mm, ws).is_err());
        let bad: Fmaps<f32> = Fmaps::zeros(3, 5, 5);
        assert!(w_conv_s_via_gemm_ws(&x, &bad, &g, mm, ws).is_err());
        assert!(w_conv_t_zero_free_ws(&x, &bad, &g, mm, ws).is_err());
        assert!(w_conv_t_via_zero_insert_gemm(&x, &bad, &g, MatmulKind::Blocked).is_err());
    }
}
