//! Bit-identity contracts of the fast convolution backends, split by
//! kernel family (see `zfgan_tensor::gemm` module docs):
//!
//! * **Scalar family** — [`ConvBackend::ScalarRef`] reproduces the golden
//!   loop nests *bit for bit*, for every family the layers dispatch
//!   (S-CONV, T-CONV, both input-gradient passes, both W-CONVs).
//! * **Packed family** — every packed-microkernel backend (dense- or
//!   zero-free-lowered) produces *one* identical result: the packed f32 kernel's fused
//!   accumulation order is deterministic, and it stays within the fused
//!   accumulation-error bound of the golden nests.
//! * **Fixed point** — with [`Fx`] (Q8.8) operands the packed kernel is
//!   bit-identical to the scalar semantics, so *every* backend matches
//!   golden exactly.
//!
//! This is the contract that lets training default to the zero-free path
//! while the golden nests stay the validation oracle.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan::tensor::gemm::MatmulKind;
use zfgan::tensor::im2col::Matrix;
use zfgan::tensor::{ConvBackend, ConvGeom, Fmaps, Fx, Kernels};

/// The packed-microkernel backends: mutually bit-identical for every
/// element type, and bit-identical to golden for `Fx`.
const PACKED: [ConvBackend; 2] = [ConvBackend::LoweredGemm, ConvBackend::LoweredZeroFree];

/// Allowed f32 drift between the packed fused accumulation order and the
/// golden nests on these tiny layers (reductions of at most a few hundred
/// unit-scale terms; the worst observed drift is orders below this).
const ACC_BOUND: f64 = 1e-4;

/// A randomly drawn layer: geometry plus channel counts, with the input
/// size chosen as an exact multiple of the stride so both directions of
/// the geometry are exercised (the same construction the dataflow
/// property tests use).
#[derive(Debug, Clone)]
struct ArbLayer {
    geom: ConvGeom,
    in_hw: usize,
    out_hw: usize,
    small_c: usize,
    large_c: usize,
    seed: u64,
}

fn arb_layer() -> impl Strategy<Value = ArbLayer> {
    (
        1usize..=3,
        1usize..=5,
        2usize..=5,
        1usize..=3,
        1usize..=4,
        any::<u64>(),
    )
        .prop_map(|(stride, k, out, small_c, large_c, seed)| {
            let k = k.max(stride);
            let in_hw = stride * out;
            let geom = ConvGeom::down(in_hw, in_hw, k, k, stride, out, out)
                .expect("constructed to be valid");
            ArbLayer {
                geom,
                in_hw,
                out_hw: out,
                small_c,
                large_c,
                seed,
            }
        })
}

/// Post-ReLU-like operand: roughly half exact zeros, so the zero-skipping
/// paths actually take their skip branches.
fn sparse(c: usize, h: usize, w: usize, rng: &mut SmallRng) -> Fmaps<f32> {
    Fmaps::random(c, h, w, 1.0, rng).map(|v| if v > 0.0 { v } else { 0.0 })
}

/// The six convolution passes the layers dispatch, evaluated on one
/// backend, as a uniform list for family-wise comparison.
fn six_passes<T: zfgan::tensor::Num>(
    b: ConvBackend,
    x: &Fmaps<T>,
    z: &Fmaps<T>,
    k: &Kernels<T>,
    g: &ConvGeom,
    in_hw: usize,
) -> (Vec<Fmaps<T>>, Vec<Kernels<T>>) {
    let y = b.s_conv(x, k, g).unwrap();
    let up = b.t_conv(z, k, g).unwrap();
    let sig = b.s_conv_input_grad(&y, k, g, in_hw, in_hw).unwrap();
    let tig = b.t_conv_input_grad(&up, k, g).unwrap();
    let ws = b.w_conv_for_s_layer(x, &y, g).unwrap();
    let wt = b.w_conv_for_t_layer(z, &up, g).unwrap();
    (vec![y, up, sig, tig], vec![ws, wt])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Family-wise backend contract on all six dispatched convolution
    /// passes: ScalarRef is bit-identical to golden; the packed backends
    /// are bit-identical to each other and within the accumulation bound
    /// of golden.
    #[test]
    fn backends_are_bit_identical_within_their_family(layer in arb_layer()) {
        let mut rng = SmallRng::seed_from_u64(layer.seed);
        let g = &layer.geom;
        let x = sparse(layer.large_c, layer.in_hw, layer.in_hw, &mut rng);
        let z = sparse(layer.small_c, layer.out_hw, layer.out_hw, &mut rng);
        let k = Kernels::random(layer.small_c, layer.large_c, g.kh(), g.kw(), 0.5, &mut rng);

        let (gf, gk) = six_passes(ConvBackend::GoldenDirect, &x, &z, &k, g, layer.in_hw);

        // Scalar family: exact golden reproduction.
        let (sf, sk) = six_passes(ConvBackend::ScalarRef, &x, &z, &k, g, layer.in_hw);
        prop_assert_eq!(&gf, &sf, "ScalarRef fmaps passes diverged from golden");
        prop_assert_eq!(&gk, &sk, "ScalarRef w-conv passes diverged from golden");

        // Packed family: one deterministic result, near golden.
        let (pf, pk) = six_passes(PACKED[0], &x, &z, &k, g, layer.in_hw);
        for (gold, packed) in gf.iter().zip(&pf) {
            prop_assert!(gold.max_abs_diff(packed) <= ACC_BOUND, "packed fmaps pass drifted");
        }
        for (gold, packed) in gk.iter().zip(&pk) {
            prop_assert!(gold.max_abs_diff(packed) <= ACC_BOUND, "packed w-conv pass drifted");
        }
        for b in &PACKED[1..] {
            let (bf, bk) = six_passes(*b, &x, &z, &k, g, layer.in_hw);
            prop_assert_eq!(&pf, &bf, "{:?} fmaps passes diverged from packed family", b);
            prop_assert_eq!(&pk, &bk, "{:?} w-conv passes diverged from packed family", b);
        }
    }

    /// With Q8.8 fixed-point operands the packed kernel replicates the
    /// scalar saturating chain exactly, so every backend — scalar or
    /// packed, any thread count — is bit-identical to golden.
    #[test]
    fn fx_backends_are_bit_identical_to_golden(layer in arb_layer()) {
        let mut rng = SmallRng::seed_from_u64(layer.seed ^ 0x5eed);
        let g = &layer.geom;
        let x = sparse(layer.large_c, layer.in_hw, layer.in_hw, &mut rng).map(Fx::from_f32);
        let z = sparse(layer.small_c, layer.out_hw, layer.out_hw, &mut rng).map(Fx::from_f32);
        let k = Kernels::random(layer.small_c, layer.large_c, g.kh(), g.kw(), 0.5, &mut rng)
            .map(Fx::from_f32);

        let golden = six_passes(ConvBackend::GoldenDirect, &x, &z, &k, g, layer.in_hw);
        let backends = [ConvBackend::ScalarRef, PACKED[0], PACKED[1]];
        for b in backends {
            let got = six_passes(b, &x, &z, &k, g, layer.in_hw);
            prop_assert_eq!(&golden, &got, "{:?} diverged from golden on Fx", b);
        }
    }

    /// GEMM kernel contracts, for any shape and sparsity: the retained
    /// scalar kernel matches the naive triple loop bit for bit; the packed
    /// kernel stays within the fused accumulation-error bound of naive;
    /// Q8.8 is bit-identical across all kernels.
    #[test]
    fn gemm_kernels_honor_their_family_contracts(
        m in 1usize..=40,
        kk in 1usize..=48,
        n in 1usize..=70,
        zero_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut draw = |rows: usize, cols: usize| {
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
        };
        let a = draw(m, kk);
        let b = draw(kk, n);
        let naive = MatmulKind::Naive.run(&a, &b).unwrap();
        prop_assert_eq!(&naive, &MatmulKind::BlockedScalar.run(&a, &b).unwrap());

        let blocked = MatmulKind::Blocked.run(&a, &b).unwrap();
        // Operands are in [-1, 1], so each output element is a reduction
        // of kk unit-scale terms: |fused - naive| <= 2 * kk^2 * eps.
        let bound = f64::from(2.0 * (kk * kk) as f32 * f32::EPSILON).max(1e-6);
        for (nv, bv) in naive.as_slice().iter().zip(blocked.as_slice()) {
            prop_assert!(
                (f64::from(*nv) - f64::from(*bv)).abs() <= bound,
                "packed f32 strayed beyond the accumulation bound"
            );
        }

        let afx = Matrix::from_vec(m, kk, a.as_slice().iter().map(|v| Fx::from_f32(*v)).collect());
        let bfx = Matrix::from_vec(kk, n, b.as_slice().iter().map(|v| Fx::from_f32(*v)).collect());
        let naive_fx = MatmulKind::Naive.run(&afx, &bfx).unwrap();
        prop_assert_eq!(&naive_fx, &MatmulKind::BlockedScalar.run(&afx, &bfx).unwrap());
        prop_assert_eq!(&naive_fx, &MatmulKind::Blocked.run(&afx, &bfx).unwrap());
    }

    /// The three dispatch engines (packed panel, broadcast-FMA `ikj`,
    /// small-`m` streaming) all compute one k-ascending fused chain per
    /// output element, so running any engine at any SIMD level through
    /// the production driver (`scan_gemm` → `run_gemm` with the plan's
    /// path overridden) must reproduce the dispatched result *bit for
    /// bit* — including the
    /// degenerate shapes the dispatcher exists for (`m = 1`, all-zero
    /// rows, `n` below one register tile).
    #[test]
    fn f32_dispatch_paths_are_bit_identical(
        m in 1usize..=19,
        kk in 1usize..=48,
        n in 1usize..=70,
        zero_frac in 0.0f64..1.0,
        zero_rows in 0usize..=3,
        seed in any::<u64>(),
    ) {
        use zfgan::tensor::microkernel::{
            run_gemm, scan_gemm, simd_level, GemmPath, PackScratch, SimdLevel,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a: Vec<f32> = (0..m * kk)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < zero_frac {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        // Whole zero rows so the element- and panel-skip branches engage.
        for r in 0..zero_rows.min(m) {
            a[r * kk..(r + 1) * kk].fill(0.0);
        }
        let b: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let mut scratch = PackScratch::new();
        let dispatch = scan_gemm(&a, m, kk, n, &mut scratch);
        let mut dispatched = vec![0.0f32; m * n];
        run_gemm(simd_level(), dispatch, &a, &b, &mut dispatched, kk, n, &mut scratch);
        let want: Vec<u32> = dispatched.iter().map(|v| v.to_bits()).collect();
        for level in [simd_level(), SimdLevel::Scalar] {
            for path in [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM] {
                let mut plan = scan_gemm(&a, m, kk, n, &mut scratch);
                plan.path = path;
                let mut out = vec![0.0f32; m * n];
                run_gemm(level, plan, &a, &b, &mut out, kk, n, &mut scratch);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&want, &got, "path {:?} at {:?} diverged bitwise", path, level);
            }
        }
    }
}

/// The generator's latent projection: a T-CONV whose input map is `1×1`.
/// The workspace driver collapses it to a single `1 × n_of` GEMM against
/// the kernel tensor read zero-copy; the allocating driver keeps the
/// classic phase lowering. Pins the collapsed path bit-identical to the
/// classic one for both element families — including a padded geometry
/// whose scatter crops boundary taps — and every Fx backend to golden
/// exactly, on a recycling workspace and on the allocating baseline
/// (reuse off, which hands every GEMM fresh pack scratch). The
/// scalar-reference backend must keep the specification cost model, so it
/// lands on the classic route too (checked against golden).
#[test]
fn one_by_one_t_conv_collapses_bit_identically() {
    use zfgan::tensor::ConvWorkspace;
    let mut rng = SmallRng::seed_from_u64(4242);
    let geoms = [
        // The MNIST-GAN projection: 1×1 → 7×7 through a 7×7 kernel.
        ConvGeom::down(7, 7, 7, 7, 7, 1, 1).unwrap(),
        // Padded: some taps map outside the 1×1-up output and are cropped.
        ConvGeom::down(2, 2, 3, 3, 2, 1, 1).unwrap(),
        // Degenerate 1×1 kernel.
        ConvGeom::down(1, 1, 1, 1, 1, 1, 1).unwrap(),
    ];
    for g in &geoms {
        for small_c in [1usize, 3, 100] {
            let z = sparse(small_c, 1, 1, &mut rng);
            let k = Kernels::random(small_c, 5, g.kh(), g.kw(), 0.5, &mut rng);
            let zq = z.map(Fx::from_f32);
            let kq = k.map(Fx::from_f32);
            let golden_fx = ConvBackend::GoldenDirect.t_conv(&zq, &kq, g).unwrap();
            for (b, reuse) in PACKED.into_iter().flat_map(|b| [(b, true), (b, false)]) {
                let classic = b.t_conv(&z, &k, g).unwrap();
                let mut ws = ConvWorkspace::new();
                let mut ws_fx = ConvWorkspace::new();
                ws.set_reuse(reuse);
                ws_fx.set_reuse(reuse);
                // Twice: once cold, once with a warm workspace.
                for round in 0..2 {
                    let fast = b.t_conv_ws(&z, &k, g, &mut ws).unwrap();
                    assert_eq!(
                        classic.as_slice(),
                        fast.as_slice(),
                        "collapsed 1×1 f32 T-CONV diverged from classic \
                         ({b:?}, reuse {reuse}, round {round})"
                    );
                    let fast_fx = b.t_conv_ws(&zq, &kq, g, &mut ws_fx).unwrap();
                    assert_eq!(
                        golden_fx.as_slice(),
                        fast_fx.as_slice(),
                        "collapsed 1×1 Fx T-CONV diverged from golden \
                         ({b:?}, reuse {reuse}, round {round})"
                    );
                    ws.give_fmaps(fast);
                    ws_fx.give_fmaps(fast_fx);
                }
            }
            let mut ws = ConvWorkspace::new();
            let scalar = ConvBackend::ScalarRef
                .t_conv_ws(&z, &k, g, &mut ws)
                .unwrap();
            let golden = ConvBackend::GoldenDirect.t_conv(&z, &k, g).unwrap();
            assert_eq!(
                golden.as_slice(),
                scalar.as_slice(),
                "ScalarRef 1×1 T-CONV diverged from golden"
            );
        }
    }
}
