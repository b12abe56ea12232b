//! `im2col + GEMM` — the convolution lowering Caffe (the paper's CPU/GPU
//! baseline software) actually executes.
//!
//! Lowering a convolution to a matrix multiply materialises one input patch
//! per output position. For `S-CONV` that is merely redundant; for `T-CONV`
//! the patches come from the **zero-inserted** map, so the GEMM multiplies
//! through every inserted zero — this module makes that cost measurable
//! ([`Lowered::zero_fraction`]) and is the concrete justification for the
//! lower `T-CONV` efficiency factors in `zfgan-platforms`.
//!
//! Everything here is validated against the direct loop nests of
//! [`crate::s_conv`] / [`crate::t_conv`].

use crate::error::{ShapeError, TensorResult};
use crate::fmaps::Fmaps;
use crate::gemm::MatmulKind;
use crate::kernels::Kernels;
use crate::num::Num;
use crate::shape::ConvGeom;
use crate::workspace::ConvWorkspace;
use crate::zeros::insert_zeros;

/// A dense row-major matrix — just enough linear algebra for the lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Num> Matrix<T> {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }

    /// Mutably borrow element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}×{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes the matrix, returning its flat buffer — how matrices give
    /// their storage back to a [`crate::ConvWorkspace`].
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fraction of elements that are exactly zero.
    pub fn zero_fraction(&self) -> f64 {
        self.data.iter().filter(|v| v.is_zero()).count() as f64 / self.data.len() as f64
    }

    /// Plain triple-loop GEMM: `self × rhs`.
    ///
    /// # Errors
    ///
    /// Returns an error if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix<T>) -> TensorResult<Matrix<T>> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] into a caller-provided output matrix, which is
    /// zero-filled first (the triple loop accumulates with `+=`). The
    /// allocation-free form the workspace conv path uses; bit-identical to
    /// [`Matrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns an error if the inner dimensions disagree or `out` has the
    /// wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) -> TensorResult<()> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new(format!(
                "matmul inner dimensions disagree: {}×{} vs {}×{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        if out.rows != self.rows || out.cols != rhs.cols {
            return Err(ShapeError::new(format!(
                "matmul output shape {}×{} does not match {}×{}",
                out.rows, out.cols, self.rows, rhs.cols
            )));
        }
        out.data.fill(T::zero());
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.data[k * rhs.cols + j];
                }
            }
        }
        Ok(())
    }
}

/// The lowered form of one convolution: the patch matrix plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered<T> {
    /// Patch matrix: one row per output position, `N_if·K_h·K_w` columns.
    pub patches: Matrix<T>,
    /// Output spatial size `(oh, ow)`.
    pub out_hw: (usize, usize),
}

impl<T: Num> Lowered<T> {
    /// Fraction of the patch matrix that is zeros — the ineffectual-operand
    /// share a GEMM grinds through.
    pub fn zero_fraction(&self) -> f64 {
        self.patches.zero_fraction()
    }
}

/// The `S-CONV` patch fill loop, shared by the allocating and workspace
/// lowerings. Writes every cell of `patches`.
fn fill_im2col_s<T: Num>(
    patches: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
) {
    let stride = geom.stride() as isize;
    let (pt, pl) = (geom.pad_top() as isize, geom.pad_left() as isize);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let mut col = 0;
            for c in 0..input.channels() {
                for ky in 0..geom.kh() {
                    for kx in 0..geom.kw() {
                        let iy = stride * oy as isize + ky as isize - pt;
                        let ix = stride * ox as isize + kx as isize - pl;
                        *patches.at_mut(row, col) = input.at_padded(c, iy, ix);
                        col += 1;
                    }
                }
            }
        }
    }
}

/// Lowers an `S-CONV` input into patch-matrix form.
pub fn im2col_s<T: Num>(input: &Fmaps<T>, geom: &ConvGeom) -> Lowered<T> {
    let (oh, ow) = geom.down_out(input.height(), input.width());
    let cols = input.channels() * geom.kh() * geom.kw();
    let mut patches = Matrix::zeros(oh * ow, cols);
    fill_im2col_s(&mut patches, input, geom, oh, ow);
    Lowered {
        patches,
        out_hw: (oh, ow),
    }
}

/// [`im2col_s`] drawing the patch matrix from a [`ConvWorkspace`] instead
/// of allocating it. Bit-identical to [`im2col_s`]; return the patches via
/// [`ConvWorkspace::give_matrix`] when done.
pub fn im2col_s_ws<T: Num>(
    input: &Fmaps<T>,
    geom: &ConvGeom,
    ws: &mut ConvWorkspace<T>,
) -> Lowered<T> {
    let (oh, ow) = geom.down_out(input.height(), input.width());
    let cols = input.channels() * geom.kh() * geom.kw();
    let mut patches = ws.take_matrix(oh * ow, cols);
    fill_im2col_s(&mut patches, input, geom, oh, ow);
    Lowered {
        patches,
        out_hw: (oh, ow),
    }
}

/// Lowers a `T-CONV` input the way Caffe's deconvolution path effectively
/// does: zero-insert, then unit-stride `im2col` with the flipped-kernel
/// padding. The resulting patch matrix is mostly zeros.
pub fn im2col_t<T: Num>(input: &Fmaps<T>, geom: &ConvGeom) -> Lowered<T> {
    let (oh, ow) = geom.up_out(input.height(), input.width());
    im2col_t_with_output_size(input, geom, oh, ow)
}

/// [`im2col_t`] with an explicit output size — the backward error pass of
/// an S-CONV layer must recreate the layer's original input size, which a
/// strided down-sampling may have quantised away.
pub fn im2col_t_with_output_size<T: Num>(
    input: &Fmaps<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
) -> Lowered<T> {
    let zi = insert_zeros(input, geom.stride());
    let (pt, _, pl, _) = geom.t_conv_pads();
    let cols = input.channels() * geom.kh() * geom.kw();
    let mut patches = Matrix::zeros(oh * ow, cols);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let mut col = 0;
            for c in 0..input.channels() {
                for ky in 0..geom.kh() {
                    for kx in 0..geom.kw() {
                        let zy = oy as isize + ky as isize - pt as isize;
                        let zx = ox as isize + kx as isize - pl as isize;
                        *patches.at_mut(row, col) = zi.at_padded(c, zy, zx);
                        col += 1;
                    }
                }
            }
        }
    }
    Lowered {
        patches,
        out_hw: (oh, ow),
    }
}

/// The cache-tuned `S-CONV` weight-matrix fill behind
/// [`weights_as_matrix_s`]. Writes every cell of `m`.
fn fill_weights_as_matrix_s<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>) {
    // Row-major traversal: contiguous writes per output row; for a fixed
    // `if_` the strided reads revisit the same few cache lines of every
    // `of` block across the `(ky, kx)` sweep, so the kernel tensor
    // streams through cache once instead of once per output column.
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let kdata = k.as_slice();
    let mut row = 0;
    for if_ in 0..n_if {
        for ky in 0..kh {
            for kx in 0..kw {
                let off = (if_ * kh + ky) * kw + kx;
                let dst = m.row_mut(row);
                for (of, d) in dst.iter_mut().enumerate() {
                    *d = kdata[of * n_if * kh * kw + off];
                }
                row += 1;
            }
        }
    }
}

/// Specification form of [`fill_weights_as_matrix_s`]: column-major
/// traversal through the kernel accessor, as the reshape is defined. The
/// reference engines run this loop (see
/// [`crate::gemm::MatmulKind::is_reference`]); tests pin it bit-identical
/// to the row-major fill.
fn fill_weights_as_matrix_s_ref<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>) {
    for of in 0..k.n_of() {
        let mut row = 0;
        for if_ in 0..k.n_if() {
            for ky in 0..k.kh() {
                for kx in 0..k.kw() {
                    *m.at_mut(row, of) = *k.at(of, if_, ky, kx);
                    row += 1;
                }
            }
        }
    }
}

/// Fills one row `r` of the [`fill_weights_as_matrix_s`] reshape — the
/// per-row form the streamed GEMM lowering pulls through
/// [`crate::gemm`]'s row callback, so the full weight matrix need never
/// be materialised. Row `r` is the linear `(if_, ky, kx)` index, which is
/// exactly the kernel tensor's within-block offset. Writes every element
/// of `row`.
fn fill_weights_as_matrix_s_row<T: Num>(k: &Kernels<T>, r: usize, row: &mut [T]) {
    let block = k.n_if() * k.kh() * k.kw();
    let kdata = k.as_slice();
    for (of, d) in row.iter_mut().enumerate() {
        *d = kdata[of * block + r];
    }
}

/// Fills one row `r` (output position `oy·ow + ox`) of the
/// [`fill_im2col_s`] patch matrix — the per-row form for streamed GEMM
/// lowering. Writes every element of `row`.
pub(crate) fn fill_im2col_s_row<T: Num>(
    input: &Fmaps<T>,
    geom: &ConvGeom,
    ow: usize,
    r: usize,
    row: &mut [T],
) {
    let stride = geom.stride() as isize;
    let (pt, pl) = (geom.pad_top() as isize, geom.pad_left() as isize);
    let (oy, ox) = (r / ow, r % ow);
    let mut col = 0;
    for c in 0..input.channels() {
        for ky in 0..geom.kh() {
            for kx in 0..geom.kw() {
                let iy = stride * oy as isize + ky as isize - pt;
                let ix = stride * ox as isize + kx as isize - pl;
                row[col] = input.at_padded(c, iy, ix);
                col += 1;
            }
        }
    }
}

/// Reshapes an `S-CONV` weight tensor into the `(N_if·K_h·K_w) × N_of` GEMM
/// operand.
pub fn weights_as_matrix_s<T: Num>(k: &Kernels<T>) -> Matrix<T> {
    let mut m = Matrix::zeros(k.n_if() * k.kh() * k.kw(), k.n_of());
    fill_weights_as_matrix_s(&mut m, k);
    m
}

/// Reshapes a (down-layout) weight tensor for the `T-CONV` GEMM: the
/// flipped kernels, indexed by the transposed channel roles.
pub fn weights_as_matrix_t<T: Num>(k: &Kernels<T>) -> Matrix<T> {
    // Row-major traversal for the same cache-behaviour reason as
    // [`fill_weights_as_matrix_s`]: contiguous writes, reads confined to
    // one `sf` block per row group.
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let mut m = Matrix::zeros(k.n_of() * kh * kw, n_if);
    let kdata = k.as_slice();
    let mut row = 0;
    for sf in 0..k.n_of() {
        for ky in 0..kh {
            for kx in 0..kw {
                let tap = (kh - 1 - ky) * kw + (kw - 1 - kx);
                let base = sf * n_if * kh * kw + tap;
                let dst = m.row_mut(row);
                for (lf, d) in dst.iter_mut().enumerate() {
                    *d = kdata[base + lf * kh * kw];
                }
                row += 1;
            }
        }
    }
    m
}

/// `S-CONV` computed by `im2col + GEMM`. Bit-equivalent (up to float
/// summation order) to [`crate::s_conv`].
///
/// # Errors
///
/// Returns an error if `k` does not match `input`'s channel count.
pub fn s_conv_via_gemm<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
) -> TensorResult<Fmaps<T>> {
    if k.n_if() != input.channels() {
        return Err(ShapeError::new("kernel/input channel mismatch"));
    }
    let lowered = im2col_s(input, geom);
    let product = lowered.patches.matmul(&weights_as_matrix_s(k))?;
    let (oh, ow) = lowered.out_hw;
    let mut out = Fmaps::zeros(k.n_of(), oh, ow);
    for of in 0..k.n_of() {
        for oy in 0..oh {
            for ox in 0..ow {
                *out.at_mut(of, oy, ox) = *product.at(oy * ow + ox, of);
            }
        }
    }
    Ok(out)
}

/// `S-CONV` by lowering with an explicit GEMM kernel, drawing every
/// transient (patches, weight matrix, product, output maps) from the
/// workspace. Bit-identical to the allocating lowering for the same
/// [`MatmulKind`]; the returned maps belong to the caller (recycle them
/// via [`ConvWorkspace::give_fmaps`]).
///
/// # Errors
///
/// Returns an error if `k` does not match `input`'s channel count.
pub fn s_conv_via_gemm_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    if k.n_if() != input.channels() {
        return Err(ShapeError::new("kernel/input channel mismatch"));
    }
    let lowered = im2col_s_ws(input, geom, ws);
    let product = if mm.is_reference() {
        let mut wmat = ws.take_matrix(k.n_if() * k.kh() * k.kw(), k.n_of());
        fill_weights_as_matrix_s_ref(&mut wmat, k);
        let product = mm.run_ws(&lowered.patches, &wmat, ws)?;
        ws.give_matrix(wmat);
        product
    } else {
        // Streamed lowering: weight-matrix rows are produced on demand, so
        // when the dispatcher picks the small-m streamed engine, rows whose
        // patch column is entirely zero are never built at all.
        crate::gemm::matmul_streamed_ws(
            mm,
            &lowered.patches,
            k.n_if() * k.kh() * k.kw(),
            k.n_of(),
            &mut |r, row| fill_weights_as_matrix_s_row(k, r, row),
            ws,
        )?
    };
    ws.give_matrix(lowered.patches);
    let (oh, ow) = lowered.out_hw;
    let mut out = ws.take_fmaps(k.n_of(), oh, ow);
    for of in 0..k.n_of() {
        for oy in 0..oh {
            for ox in 0..ow {
                *out.at_mut(of, oy, ox) = *product.at(oy * ow + ox, of);
            }
        }
    }
    ws.give_matrix(product);
    Ok(out)
}

/// `T-CONV` computed by zero-insert + `im2col + GEMM` — the Caffe
/// deconvolution cost model made executable.
///
/// # Errors
///
/// Returns an error if `k` does not match `input`'s channel count.
pub fn t_conv_via_gemm<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
) -> TensorResult<Fmaps<T>> {
    if k.n_of() != input.channels() {
        return Err(ShapeError::new("kernel/input channel mismatch"));
    }
    let lowered = im2col_t(input, geom);
    let product = lowered.patches.matmul(&weights_as_matrix_t(k))?;
    let (oh, ow) = lowered.out_hw;
    let mut out = Fmaps::zeros(k.n_if(), oh, ow);
    for lf in 0..k.n_if() {
        for oy in 0..oh {
            for ox in 0..ow {
                *out.at_mut(lf, oy, ox) = *product.at(oy * ow + ox, lf);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{s_conv, t_conv};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn geom() -> ConvGeom {
        ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap()
    }

    #[test]
    fn matmul_known_values() {
        let mut a: Matrix<f64> = Matrix::zeros(2, 2);
        *a.at_mut(0, 0) = 1.0;
        *a.at_mut(0, 1) = 2.0;
        *a.at_mut(1, 0) = 3.0;
        *a.at_mut(1, 1) = 4.0;
        let b = a.clone();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a: Matrix<f64> = Matrix::zeros(2, 3);
        let b: Matrix<f64> = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    /// The specification fill and the cache-tuned fill are the same
    /// reshape in different traversal orders — bit-identical results.
    #[test]
    fn weight_fill_families_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(9);
        for (n_of, n_if, kh, kw) in [(5, 3, 4, 4), (1, 7, 5, 5), (8, 1, 7, 7), (2, 2, 1, 1)] {
            let k: Kernels<f32> = Kernels::random(n_of, n_if, kh, kw, 1.0, &mut rng);
            let mut tuned = Matrix::zeros(n_if * kh * kw, n_of);
            fill_weights_as_matrix_s(&mut tuned, &k);
            let mut reference = Matrix::zeros(n_if * kh * kw, n_of);
            fill_weights_as_matrix_s_ref(&mut reference, &k);
            assert_eq!(tuned, reference, "{n_of}x{n_if}x{kh}x{kw}");
        }
    }

    #[test]
    fn s_conv_gemm_matches_direct() {
        let mut rng = SmallRng::seed_from_u64(1);
        let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let direct = s_conv(&x, &k, &geom()).unwrap();
        let gemm = s_conv_via_gemm(&x, &k, &geom()).unwrap();
        assert!(direct.max_abs_diff(&gemm) < 1e-9);
    }

    #[test]
    fn t_conv_gemm_matches_direct() {
        let mut rng = SmallRng::seed_from_u64(2);
        let x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let direct = t_conv(&x, &k, &geom()).unwrap();
        let gemm = t_conv_via_gemm(&x, &k, &geom()).unwrap();
        assert!(direct.max_abs_diff(&gemm) < 1e-9);
    }

    #[test]
    fn t_conv_patches_are_mostly_zeros() {
        // The Caffe-cost story: the T-CONV patch matrix is ~3/4 zeros for
        // stride 2 (plus padding), while the S-CONV one has only padding
        // zeros.
        let mut rng = SmallRng::seed_from_u64(3);
        let dense: Fmaps<f64> = Fmaps::random(2, 6, 6, 1.0, &mut rng);
        let t = im2col_t(&dense, &geom());
        assert!(t.zero_fraction() > 0.65, "T fraction {}", t.zero_fraction());
        let big: Fmaps<f64> = Fmaps::random(2, 12, 12, 1.0, &mut rng);
        let s = im2col_s(&big, &geom());
        assert!(s.zero_fraction() < 0.2, "S fraction {}", s.zero_fraction());
    }

    #[test]
    fn gemm_rejects_channel_mismatch() {
        let x: Fmaps<f64> = Fmaps::zeros(2, 12, 12);
        let k: Kernels<f64> = Kernels::zeros(5, 3, 4, 4);
        assert!(s_conv_via_gemm(&x, &k, &geom()).is_err());
        let z: Fmaps<f64> = Fmaps::zeros(2, 6, 6);
        assert!(t_conv_via_gemm(&z, &k, &geom()).is_err());
    }

    #[test]
    fn asymmetric_padding_also_matches() {
        let g = ConvGeom::down(14, 14, 5, 5, 2, 7, 7).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let x: Fmaps<f64> = Fmaps::random(2, 14, 14, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(4, 2, 5, 5, 1.0, &mut rng);
        let a = s_conv(&x, &k, &g).unwrap();
        let b = s_conv_via_gemm(&x, &k, &g).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-9);
        let z: Fmaps<f64> = Fmaps::random(4, 7, 7, 1.0, &mut rng);
        let c = t_conv(&z, &k, &g).unwrap();
        let d = t_conv_via_gemm(&z, &k, &g).unwrap();
        assert!(c.max_abs_diff(&d) < 1e-9);
    }
}
