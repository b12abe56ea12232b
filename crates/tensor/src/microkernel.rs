//! Packed SIMD microkernel GEMM — the software analogue of the paper's
//! dense 16-bit MAC datapath.
//!
//! The scalar blocked kernel ([`crate::gemm`]'s `BlockedScalar`) walks the
//! sparse `A` operand element by element with a branch per word. That shape
//! is exactly what defeats wide SIMD lanes, so this module restructures the
//! multiply the way a BLIS-style microkernel (and the paper's PE array)
//! does:
//!
//! * **`B` is packed** into contiguous column panels of [`NR_F32`] /
//!   [`NR_FX`] lanes (zero-padded tails), so the inner loop issues nothing
//!   but sequential full-width loads.
//! * **`A` is scanned once** into per-row *k-panel structural-zero masks*
//!   ([`KP`] words per panel, one bit per panel): the zero-free lowerings
//!   produce patch matrices whose residual (boundary) zeros cluster, and a
//!   masked panel is skipped without any per-element branch in the vector
//!   loop — the paper's zero-free scheduling composed with SIMD instead of
//!   defeated by it.
//! * The **inner kernel** is explicit `std::arch` AVX2/FMA (f32: an
//!   [`MR_F32`]`×`[`NR_F32`] register tile — 6 rows of `A` share every
//!   8-lane `B` load, feeding 12 independent fused multiply–add chains;
//!   Q8.8: 16-lane `i16` multiply with exact widened-`i32` rounding and
//!   saturating accumulate) with a portable scalar fallback. The
//!   implementation is
//!   chosen **once** per process through a [`OnceLock`] kernel table:
//!   `ZFGAN_NO_SIMD=1` forces the fallback, otherwise
//!   `is_x86_feature_detected!` picks AVX2+FMA when the host has both.
//!
//! # Shape-aware dispatch
//!
//! Packing pays for itself only when enough rows of `A` reuse the packed
//! panels and the panel masks actually elide work. Two GAN shapes break
//! both assumptions: the projection GEMM (49×4900×128, ~2 % density with
//! stride-49 nonzero columns) defeats the KP-panel masks because every
//! row's few live words sit in distinct panels, and the `m = 1`
//! input-grad GEMMs amortize a full `B` pack over a single output row.
//! Every GEMM therefore runs in two steps: [`scan_gemm`] builds the masks
//! and routes the call through [`choose_path`] to one of three engines
//! ([`GemmPath`]), then [`run_gemm`] runs that engine:
//!
//! * [`GemmPath::Packed`] — the packed panel kernel above (the default).
//! * [`GemmPath::Ikj`] — a broadcast-FMA `ikj` kernel over **unpacked**
//!   `B` rows: zero `A` words are skipped element-wise (no mask
//!   granularity to defeat) and `B` is never packed.
//! * [`GemmPath::SmallM`] — the `m = 1` route. On a materialized `B` it
//!   runs the same `ikj` engine; the workspace lowering drivers
//!   additionally stream `B` rows on the fly through both broadcast paths
//!   (`crate::gemm::matmul_streamed_ws`), so small-`m` sites skip the
//!   materialized lowering fill entirely.
//!
//! The decision is a pure function of `(m, kk, n, zero-word count)` — all
//! thread- and SIMD-invariant — and `ZFGAN_FORCE_KERNEL=packed|ikj|smallm`
//! (or [`set_forced_path`]) pins it for testing. Every engine computes the
//! same per-element operation chain (see below), so dispatch is never a
//! semantics choice: the equality tests run [`run_gemm`] with each
//! [`GemmPlan::path`] and each [`SimdLevel`] the host supports.
//!
//! # Determinism
//!
//! The packed f32 kernel defines its **own fixed accumulation order**: per
//! output element a single fused-multiply-add chain over `k` ascending.
//! The scalar fallback uses [`f32::mul_add`] — IEEE-754 correctly-rounded,
//! the same operation as one AVX2 `vfmadd` lane — so SIMD and no-SIMD
//! produce **bit-identical** results by construction, and any zero term
//! may be skipped at any granularity without changing bits
//! (`fma(0, b, acc) = acc` exactly for finite `b`). The retained scalar
//! oracle (`MatmulKind::Naive` / `BlockedScalar`) differs only by the
//! usual fused-vs-separate rounding, bounded by the standard accumulation
//! error bound (pinned by `tests/fast_conv.rs`).
//!
//! The Q8.8 kernel is **bit-identical** to scalar [`Fx`] semantics, not
//! merely close: each term is widened to `i32`, rounded to nearest (ties
//! toward +∞) and saturated exactly as [`Fx`]'s `Mul`, then accumulated
//! with [`Fx`]'s saturating `Add`, in `k`-ascending order
//! (`crates/tensor/tests/fx_semantics.rs` pins the contract).
//!
//! [`Fx`]: crate::Fx

use std::sync::OnceLock;

use crate::fixed::{Fx, FRAC_BITS};
use crate::num::Num;

/// `k`-panel width: the granularity of the structural-zero masks. One mask
/// bit covers [`KP`] consecutive `A` words of one row.
pub const KP: usize = 8;

/// f32 column-panel width: 8 AVX2 lanes × 2 accumulator vectors per row
/// of the register tile.
pub const NR_F32: usize = 16;

/// f32 register-tile height: [`MR_F32`] rows of `A` share every packed-`B`
/// load, giving `MR_F32 × 2` = 12 independent FMA chains (comfortably
/// past the ~8–10 needed to hide fused-add latency on two FMA ports) from
/// just 2 loads + 6 broadcasts per `k`-step. With the 2 `B` vectors and
/// the broadcast register that is 15 of the 16 ymm registers.
pub const MR_F32: usize = 6;

/// Q8.8 column-panel width: 16 `i16` lanes × 2 saturating accumulator
/// vectors (the widened-`i32` rounding runs in registers between them).
pub const NR_FX: usize = 32;

/// `k`-chunk depth (a multiple of [`KP`]): the row-tile loop runs inside
/// each `KC × NR` block of packed `B`, so the block stays cache-resident
/// and is streamed from memory once per GEMM instead of once per row tile
/// (f32: `512 × 16 × 4 B` = 32 KB, innermost-cache-resident). Chunking is
/// bit-neutral: the per-element accumulator is stored to `out` between
/// chunks and reloaded exactly (an f32 register↔memory round trip is
/// exact, and the Q8.8 accumulator is saturated back into `i16` range
/// after every step), so the operation chain per element is identical to a
/// single pass.
pub const KC: usize = 512;

const _: () = assert!(
    KC.is_multiple_of(KP),
    "chunks must start on a mask-panel boundary"
);

/// Which inner kernel the process selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Explicit AVX2 + FMA `std::arch` kernels.
    Avx2Fma,
    /// Portable scalar fallback (`f32::mul_add` / scalar `i32` lanes) —
    /// bit-identical to the SIMD kernels by construction.
    Scalar,
}

/// Inner-kernel signatures. f32 runs an [`MR_F32`]-row register tile
/// (see [`F32Tile`]); Q8.8 runs one row's `k`-chunk at a time:
/// `(a_chunk, masks_row, panel0, packed_chunk, out, w, accumulate)`,
/// continuing the accumulation already in `out` when `accumulate` is set.
/// The pointers are `unsafe fn` because the AVX2 entries require the
/// features the table verified at selection time; the scalar entries
/// coerce in safely.
type F32TileFn = unsafe fn(&F32Tile, &mut [f32]);
type FxPanelFn = unsafe fn(&[i16], &[u64], usize, &[i16], &mut [i16], usize, bool);

/// The kernel table: the selected level and its bench label, fixed once
/// per process, then only read. [`f32_tile_for`] / [`fx_panel_for`] map
/// the level onto the inner-kernel pointers.
#[derive(Debug)]
struct KernelTable {
    level: SimdLevel,
    label: &'static str,
}

static KERNELS: OnceLock<KernelTable> = OnceLock::new();

fn kernel_table() -> &'static KernelTable {
    KERNELS.get_or_init(|| {
        let forced_off = std::env::var("ZFGAN_NO_SIMD")
            .map(|v| !v.trim().is_empty() && v.trim() != "0")
            .unwrap_or(false);
        let level = if forced_off {
            SimdLevel::Scalar
        } else {
            detect_level()
        };
        let label = match level {
            SimdLevel::Avx2Fma => "avx2",
            SimdLevel::Scalar => "scalar",
        };
        KernelTable { level, label }
    })
}

/// Resolves the f32 tile kernel for a level. The process-selected level
/// always resolves to a kernel whose feature requirements were verified
/// by [`kernel_table`]; explicit levels are checked by [`assert_level`].
fn f32_tile_for(level: SimdLevel) -> F32TileFn {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => f32_tile_avx2,
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => f32_tile_scalar,
        SimdLevel::Scalar => f32_tile_scalar,
    }
}

/// Resolves the Q8.8 row-panel kernel for a level (see [`f32_tile_for`]).
fn fx_panel_for(level: SimdLevel) -> FxPanelFn {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => fx_row_panel_avx2,
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => fx_row_panel_scalar,
        SimdLevel::Scalar => fx_row_panel_scalar,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_level() -> SimdLevel {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        SimdLevel::Avx2Fma
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_level() -> SimdLevel {
    SimdLevel::Scalar
}

/// Whether `level`'s kernels may run on a host whose detected level is
/// `detected`: the scalar kernels run anywhere, the AVX2 ones only where
/// detection found avx2 + fma.
fn level_runs_on(level: SimdLevel, detected: SimdLevel) -> bool {
    level == SimdLevel::Scalar || detected == SimdLevel::Avx2Fma
}

/// Rejects a level whose kernels this host cannot execute. Checked
/// against feature detection, not [`simd_level`]: `ZFGAN_NO_SIMD=1` lowers
/// the process level, but the AVX2 kernels stay executable (and tested).
fn assert_level(level: SimdLevel) {
    assert!(
        level_runs_on(level, detect_level()),
        "SIMD level {level:?} needs CPU features this host lacks"
    );
}

/// The inner-kernel implementation this process selected (respecting
/// `ZFGAN_NO_SIMD=1` and runtime feature detection), fixed for the
/// process lifetime.
pub fn simd_level() -> SimdLevel {
    kernel_table().level
}

/// `"avx2"` or `"scalar"` — the feature tag the bench JSON records carry.
pub fn simd_label() -> &'static str {
    kernel_table().label
}

/// Which GEMM engine the shape/density dispatch selected for one call
/// (see the module docs' dispatch section). All paths compute the same
/// per-element operation chain; the choice is pure performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    /// The packed panel kernel: pack `B`, scan `A` into panel masks, run
    /// the register tile over packed panels.
    Packed,
    /// Broadcast-FMA `ikj` over unpacked `B` rows with an element-wise
    /// `a == 0` skip; bypasses the `B` pack entirely.
    Ikj,
    /// The `m = 1` route: the `ikj` engine, with `B` rows streamed on
    /// demand by the workspace lowering drivers.
    SmallM,
}

impl GemmPath {
    /// The telemetry / bench / `ZFGAN_FORCE_KERNEL` tag for this path.
    pub fn label(self) -> &'static str {
        match self {
            GemmPath::Packed => "packed",
            GemmPath::Ikj => "ikj",
            GemmPath::SmallM => "smallm",
        }
    }
}

/// Runtime forced-path override (bench harnesses): 0 = none, else
/// `GemmPath` discriminant + 1. Takes precedence over the env override.
static FORCED_RT: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// `ZFGAN_FORCE_KERNEL` parse, fixed once per process like the kernel
/// table.
static FORCED_ENV: OnceLock<Option<GemmPath>> = OnceLock::new();

/// Forces every dispatch decision in this process to `path` (`None`
/// restores normal dispatch). A bench/test knob — the trainstep harness
/// uses it to measure the always-packed baseline in-process; concurrent
/// GEMM callers see the change on their next dispatch.
pub fn set_forced_path(path: Option<GemmPath>) {
    let v = match path {
        None => 0,
        Some(GemmPath::Packed) => 1,
        Some(GemmPath::Ikj) => 2,
        Some(GemmPath::SmallM) => 3,
    };
    FORCED_RT.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The forced dispatch path, if any: [`set_forced_path`] wins over
/// `ZFGAN_FORCE_KERNEL=packed|ikj|smallm` (unset/empty/unknown values
/// force nothing).
pub fn forced_path() -> Option<GemmPath> {
    match FORCED_RT.load(std::sync::atomic::Ordering::Relaxed) {
        1 => return Some(GemmPath::Packed),
        2 => return Some(GemmPath::Ikj),
        3 => return Some(GemmPath::SmallM),
        _ => {}
    }
    *FORCED_ENV.get_or_init(|| {
        match std::env::var("ZFGAN_FORCE_KERNEL")
            .unwrap_or_default()
            .trim()
        {
            "packed" => Some(GemmPath::Packed),
            "ikj" => Some(GemmPath::Ikj),
            "smallm" => Some(GemmPath::SmallM),
            _ => None,
        }
    })
}

/// `Ikj` is chosen when at least [`IKJ_ZERO_NUM`]`/`[`IKJ_ZERO_DEN`] of
/// the `A` words are exactly zero. The threshold is deliberately high:
/// measured on the MNIST-GAN shapes, the packed tile still wins at 85–90 %
/// scattered zeros (its dense 6×16 FMA throughput beats the element skip),
/// and the broadcast engine only pulls ahead near the structural ~98 %
/// sparsity of the zero-free t-conv lowerings.
const IKJ_ZERO_NUM: u64 = 15;
const IKJ_ZERO_DEN: u64 = 16;

/// Minimum output width for any broadcast engine: below half a register
/// tile the per-live-element axpy overhead dominates and the packed tile
/// wins even on 98 %-sparse or single-row operands (measured at `n = 1`:
/// packed is 7–8× faster on the dense backward shapes).
const BROADCAST_MIN_N: usize = NR_F32 / 2;

/// Shape/density dispatch: a pure function of the GEMM shape and the
/// exact zero-word count of `A` (as counted by the panel-mask scan), so
/// the decision — and the `gemm_dispatch` telemetry derived from it — is
/// identical for every thread count and SIMD level. Thresholds are from
/// per-shape engine timings on the MNIST-GAN train step:
///
/// * `n ≥ 8` gates every broadcast route — narrower outputs can't
///   amortize a broadcast axpy;
/// * `m = 1`: packing `B` for one output row dwarfs the arithmetic →
///   `SmallM` (and the streamed drivers skip materializing `B` at all);
/// * `kk ≤ 2`: the pack writes ≥ `B`'s whole size for one or two axpys
///   per output row → `Ikj`;
/// * `A` ≥ 15/16 zero: element-wise skipping beats the dense tile →
///   `Ikj`.
pub fn choose_path(m: usize, kk: usize, n: usize, zero_words: u64) -> GemmPath {
    if n >= BROADCAST_MIN_N {
        if m == 1 {
            return GemmPath::SmallM;
        }
        if kk <= 2 && kk > 0 {
            return GemmPath::Ikj;
        }
        let total = (m * kk) as u64;
        if total > 0 && IKJ_ZERO_DEN * zero_words >= IKJ_ZERO_NUM * total {
            return GemmPath::Ikj;
        }
    }
    GemmPath::Packed
}

/// [`choose_path`] with the forced override applied — the decision the
/// drivers actually run.
fn dispatch_path(m: usize, kk: usize, n: usize, zero_words: u64) -> GemmPath {
    forced_path().unwrap_or_else(|| choose_path(m, kk, n, zero_words))
}

/// Element types the packed microkernel accelerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedKind {
    /// 32-bit float: AVX2/FMA f32x8 panels.
    F32,
    /// Q8.8 fixed point: widened-i32 8-lane panels.
    Fx,
}

/// Whether `T` has a packed kernel (`f32` and [`crate::Fx`] do; `f64` and
/// other [`Num`] types keep the scalar blocked path).
pub fn packed_kind<T: 'static>() -> Option<PackedKind> {
    use std::any::TypeId;
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f32>() {
        Some(PackedKind::F32)
    } else if t == TypeId::of::<Fx>() {
        Some(PackedKind::Fx)
    } else {
        None
    }
}

/// The packed kernel for `T`, for the entries that only accept `f32` and
/// [`Fx`] operands.
fn kind_of<T: 'static>() -> PackedKind {
    packed_kind::<T>().expect("the packed GEMM runs f32 and Fx operands only")
}

/// Reinterprets a slice as another element type of the same layout.
///
/// # Safety
///
/// `T` and `U` must have the same size, alignment and valid bit
/// patterns. The callers pair `T` = `f32` with `U` = `f32`, or `T` =
/// [`Fx`] (`repr(transparent)` over `i16`) with `U` = `i16`, proven by
/// [`kind_of`].
unsafe fn view<T, U>(s: &[T]) -> &[U] {
    debug_assert_eq!(std::mem::size_of::<T>(), std::mem::size_of::<U>());
    std::slice::from_raw_parts(s.as_ptr().cast(), s.len())
}

/// [`view`] for a mutable slice.
///
/// # Safety
///
/// As for [`view`].
unsafe fn view_mut<T, U>(s: &mut [T]) -> &mut [U] {
    debug_assert_eq!(std::mem::size_of::<T>(), std::mem::size_of::<U>());
    std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), s.len())
}

/// Reusable packing scratch: the packed `B` panels and the per-row `A`
/// panel masks. Owned by a [`crate::ConvWorkspace`] on the workspace hot
/// path, so the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// Packed f32 `B` panels, `[panel][k][lane]`, tails zero-padded.
    bf32: Vec<f32>,
    /// Packed Q8.8 raw-`i16` `B` panels, same layout.
    bi16: Vec<i16>,
    /// Per-row panel masks, `words_per_row` `u64`s per row; a set bit
    /// marks an all-zero `A` panel.
    masks: Vec<u64>,
}

impl PackScratch {
    /// Creates empty scratch (buffers grow on first use and are reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-row panel masks built by the last [`scan_gemm`] call:
    /// `mask_geometry(kk).1` words per `A` row, a set
    /// bit marking an all-zero panel. The streamed-lowering driver reads
    /// these to skip dead `A` panels without touching the operand again.
    pub(crate) fn masks(&self) -> &[u64] {
        &self.masks
    }
}

/// Panel-mask geometry for a `m × kk` operand.
#[inline]
pub(crate) fn mask_geometry(kk: usize) -> (usize, usize) {
    let n_panels = kk.div_ceil(KP);
    (n_panels, n_panels.div_ceil(64))
}

/// Scans `A` into per-row panel masks. Returns `(skipped, zeros)`: how
/// many operand words the masked panels elide, and how many words are
/// exactly zero (the dispatch layer's density measurement — scattered
/// zeros count here even when no whole panel is maskable). Both are pure
/// functions of `A` and its shape, so the derived telemetry and the
/// dispatch decision are identical for every thread count and SIMD level.
fn build_masks<T: Num>(a: &[T], m: usize, kk: usize, masks: &mut Vec<u64>) -> (u64, u64) {
    let (n_panels, words_per_row) = mask_geometry(kk);
    masks.clear();
    masks.resize(m * words_per_row, 0);
    let mut skipped = 0u64;
    let mut zeros = 0u64;
    for i in 0..m {
        let row = &a[i * kk..(i + 1) * kk];
        let mrow = &mut masks[i * words_per_row..(i + 1) * words_per_row];
        for p in 0..n_panels {
            let k0 = p * KP;
            let k1 = (k0 + KP).min(kk);
            let zc = row[k0..k1].iter().filter(|v| v.is_zero()).count();
            zeros += zc as u64;
            if zc == k1 - k0 {
                mrow[p / 64] |= 1u64 << (p % 64);
                skipped += (k1 - k0) as u64;
            }
        }
    }
    (skipped, zeros)
}

#[inline]
pub(crate) fn mask_hit(masks_row: &[u64], panel: usize) -> bool {
    masks_row[panel / 64] & (1u64 << (panel % 64)) != 0
}

/// Packs `B` (`kk × n`, row-major) into `nr`-wide column panels,
/// `[panel][k][lane]`, zero-padding the tail panel so the kernels always
/// run full width. `T::default()` is the zero word of both packed element
/// types (`0.0f32` and raw-`i16` Q8.8 zero).
fn pack_b<T: Copy + Default, const NR: usize>(b: &[T], kk: usize, n: usize, out: &mut Vec<T>) {
    let n_jp = n.div_ceil(NR);
    // Resize without a clear: every full lane is overwritten below and only
    // the tail panel's padding needs explicit zeros, so the buffer is never
    // bulk-zeroed first (that pre-pass used to double the write traffic).
    out.resize(n_jp * kk * NR, T::default());
    for jp in 0..n_jp {
        let j0 = jp * NR;
        let w = (n - j0).min(NR);
        let panel = &mut out[jp * kk * NR..(jp + 1) * kk * NR];
        if w == NR {
            // Full-width panels are the hot path: a compile-time-sized
            // array copy per `k` row compiles to straight vector moves
            // instead of a runtime-length memcpy call.
            for k in 0..kk {
                let dst: &mut [T; NR] = (&mut panel[k * NR..(k + 1) * NR])
                    .try_into()
                    .expect("chunk is exactly NR wide");
                let src: &[T; NR] = b[k * n + j0..k * n + j0 + NR]
                    .try_into()
                    .expect("chunk is exactly NR wide");
                *dst = *src;
            }
        } else {
            for k in 0..kk {
                let dst = &mut panel[k * NR..(k + 1) * NR];
                dst[..w].copy_from_slice(&b[k * n + j0..k * n + j0 + w]);
                dst[w..].fill(T::default());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f32 kernels
// ---------------------------------------------------------------------------

/// One f32 register-tile task: up to [`MR_F32`] consecutive rows of `A`
/// against one `klen`-deep, [`NR_F32`]-wide chunk of `B`, continuing the
/// accumulation already in the output when `accumulate` is set.
///
/// `a_rows`, `masks` and the output slice all cover the same row range
/// (`i0` is relative to it); `kc0`/`klen` select the `k`-chunk and
/// `panel0` is the absolute mask-panel index of its first (KP-aligned)
/// panel. `bchunk` is the chunk of one packed column panel, [`NR_F32`]
/// words per `k` row.
struct F32Tile<'a> {
    a_rows: &'a [f32],
    masks: &'a [u64],
    bchunk: &'a [f32],
    kk: usize,
    wpr: usize,
    i0: usize,
    rows: usize,
    kc0: usize,
    klen: usize,
    panel0: usize,
    n: usize,
    j0: usize,
    w: usize,
    accumulate: bool,
}

/// Portable f32 tile kernel: per output element a single `mul_add` chain
/// over `k` ascending (resumed from the output across chunks), panels
/// masked in every tile row and zero `A` words skipped (all bit-neutral —
/// see the module docs). The row grouping cannot change bits either: each
/// element's chain never crosses rows.
fn f32_tile_scalar(t: &F32Tile, out_rows: &mut [f32]) {
    let mut acc = [[0.0f32; NR_F32]; MR_F32];
    if t.accumulate {
        for (r, acc_r) in acc.iter_mut().enumerate().take(t.rows) {
            let o = &out_rows[(t.i0 + r) * t.n + t.j0..][..t.w];
            acc_r[..t.w].copy_from_slice(o);
        }
    }
    let n_panels = t.klen.div_ceil(KP);
    for p in 0..n_panels {
        let live = (0..t.rows).any(|r| !mask_hit(&t.masks[(t.i0 + r) * t.wpr..], t.panel0 + p));
        if !live {
            continue;
        }
        let k0 = p * KP;
        let k1 = (k0 + KP).min(t.klen);
        for k in k0..k1 {
            let b_row = &t.bchunk[k * NR_F32..k * NR_F32 + t.w];
            for (r, acc_r) in acc.iter_mut().enumerate().take(t.rows) {
                let av = t.a_rows[(t.i0 + r) * t.kk + t.kc0 + k];
                if av == 0.0 {
                    continue;
                }
                for (acc_v, &bv) in acc_r[..t.w].iter_mut().zip(b_row) {
                    *acc_v = <f32 as Num>::fused_mul_add(*acc_v, av, bv);
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(t.rows) {
        out_rows[(t.i0 + r) * t.n + t.j0..][..t.w].copy_from_slice(&acc_r[..t.w]);
    }
}

/// AVX2/FMA f32 tile kernel: dispatches on the tile's row count so each
/// variant keeps its `R × 2` accumulator vectors in registers.
///
/// # Safety
///
/// Caller must have verified `avx2` and `fma` are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn f32_tile_avx2(t: &F32Tile, out_rows: &mut [f32]) {
    match t.rows {
        6 => f32_tile_avx2_rows::<6>(t, out_rows),
        5 => f32_tile_avx2_rows::<5>(t, out_rows),
        4 => f32_tile_avx2_rows::<4>(t, out_rows),
        3 => f32_tile_avx2_rows::<3>(t, out_rows),
        2 => f32_tile_avx2_rows::<2>(t, out_rows),
        _ => f32_tile_avx2_rows::<1>(t, out_rows),
    }
}

/// The `R`-row AVX2/FMA tile body: every `k`-step loads the two `B`
/// vectors once and feeds `R` broadcast `vfmadd`s — `2·R` independent
/// chains, `k` ascending. Lane-for-lane the same operation sequence as
/// [`f32_tile_scalar`] minus its (bit-neutral) per-element zero skip: a
/// row whose word is zero contributes `fma(0, b, acc) = acc` exactly.
///
/// # Safety
///
/// Caller must have verified `avx2` and `fma` are available, and `R` must
/// not exceed the tile's row count. Every `k`-step loads [`NR_F32`] `B`
/// lanes regardless of `t.w`, which the zero-padded packed tail panel
/// provides.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn f32_tile_avx2_rows<const R: usize>(t: &F32Tile, out_rows: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); NR_F32 / 8]; R];
    if t.accumulate {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let o = out_rows.as_ptr().add((t.i0 + r) * t.n + t.j0);
            if t.w == NR_F32 {
                acc_r[0] = _mm256_loadu_ps(o);
                acc_r[1] = _mm256_loadu_ps(o.add(8));
            } else {
                let mut tmp = [0.0f32; NR_F32];
                tmp[..t.w].copy_from_slice(std::slice::from_raw_parts(o, t.w));
                acc_r[0] = _mm256_loadu_ps(tmp.as_ptr());
                acc_r[1] = _mm256_loadu_ps(tmp.as_ptr().add(8));
            }
        }
    }
    // Hoist the per-row `A` chunk base pointers and mask-row slices out of
    // the k loop.
    let arow: [*const f32; R] =
        std::array::from_fn(|r| t.a_rows.as_ptr().add((t.i0 + r) * t.kk + t.kc0));
    let mrow: [&[u64]; R] = std::array::from_fn(|r| &t.masks[(t.i0 + r) * t.wpr..]);
    let n_panels = t.klen.div_ceil(KP);
    for p in 0..n_panels {
        let mut all_masked = true;
        for mr in &mrow {
            all_masked &= mask_hit(mr, t.panel0 + p);
        }
        if all_masked {
            continue;
        }
        let k0 = p * KP;
        let k1 = (k0 + KP).min(t.klen);
        for k in k0..k1 {
            let base = t.bchunk.as_ptr().add(k * NR_F32);
            let b0 = _mm256_loadu_ps(base);
            let b1 = _mm256_loadu_ps(base.add(8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*arow[r].add(k));
                acc_r[0] = _mm256_fmadd_ps(av, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(av, b1, acc_r[1]);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let o = out_rows.as_mut_ptr().add((t.i0 + r) * t.n + t.j0);
        if t.w == NR_F32 {
            _mm256_storeu_ps(o, acc_r[0]);
            _mm256_storeu_ps(o.add(8), acc_r[1]);
        } else {
            let mut tmp = [0.0f32; NR_F32];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc_r[0]);
            _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc_r[1]);
            std::slice::from_raw_parts_mut(o, t.w).copy_from_slice(&tmp[..t.w]);
        }
    }
}

/// Row-block height for the cache loop: inside one `k`-chunk, [`MC`] rows
/// of `A` (≤ `MC × KC × 4 B` = 72 KB, L2-resident) are run against every
/// column panel before the next block, so neither operand re-streams from
/// memory as `m` grows. Like all blocking here it is bit-neutral: loop
/// order over (row, column-panel) never touches a per-element chain.
pub const MC: usize = 72;

/// Packed f32 GEMM over a contiguous row range: `a_rows` holds the rows'
/// `A` data, `masks` their panel masks, `packed_b` the full packed `B`.
/// Writes every element of `out_rows`. Loop nest (outer→inner):
/// [`KC`] `k`-chunks → [`MC`] row blocks → column panels → [`MR_F32`]
/// row tiles, so the packed-`B` chunk (16 KB) stays L1-resident across
/// the row tiles and the `A` row block stays L2-resident across the
/// column panels. Bit-identical for every [`SimdLevel`]; `level` must
/// have passed [`assert_level`].
fn f32_rows(
    level: SimdLevel,
    a_rows: &[f32],
    masks: &[u64],
    packed_b: &[f32],
    out_rows: &mut [f32],
    kk: usize,
    n: usize,
) {
    let m = a_rows.len().checked_div(kk).unwrap_or(0);
    debug_assert_eq!(out_rows.len(), m * n);
    let (_, wpr) = mask_geometry(kk);
    let kernel = f32_tile_for(level);
    let n_jp = n.div_ceil(NR_F32);
    let mut kc0 = 0;
    while kc0 < kk {
        let kc1 = (kc0 + KC).min(kk);
        let mut ib0 = 0;
        while ib0 < m {
            let ib1 = (ib0 + MC).min(m);
            for jp in 0..n_jp {
                let j0 = jp * NR_F32;
                let w = (n - j0).min(NR_F32);
                let base = jp * kk * NR_F32;
                let bchunk = &packed_b[base + kc0 * NR_F32..base + kc1 * NR_F32];
                let mut i0 = ib0;
                while i0 < ib1 {
                    let rows = (ib1 - i0).min(MR_F32);
                    let tile = F32Tile {
                        a_rows,
                        masks,
                        bchunk,
                        kk,
                        wpr,
                        i0,
                        rows,
                        kc0,
                        klen: kc1 - kc0,
                        panel0: kc0 / KP,
                        n,
                        j0,
                        w,
                        accumulate: kc0 > 0,
                    };
                    // SAFETY: `f32_tile_for` only returns a feature-gated
                    // kernel for `Avx2Fma`, and `run_gemm` rejected that
                    // level unless `is_x86_feature_detected!` verified
                    // avx2+fma.
                    unsafe { kernel(&tile, out_rows) };
                    i0 += rows;
                }
            }
            ib0 = ib1;
        }
        kc0 = kc1;
    }
}

/// Portable f32 axpy: `out[j] = fma(av, b[j], out[j])` — the same
/// correctly-rounded operation as one `vfmadd` lane, so both levels are
/// bit-identical.
fn f32_axpy_scalar(av: f32, b_row: &[f32], out_row: &mut [f32]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o = <f32 as Num>::fused_mul_add(*o, av, bv);
    }
}

/// The portable f32 body of [`ikj_tile_packed`]: one `k`-tile over
/// `btile`, which holds rows `kb..kend` of the (possibly virtual) `B`
/// operand, row `k` at offset `(k − kb)·n`. Accumulates into `out_rows`
/// without zeroing; callers zero once before the first tile.
#[allow(clippy::too_many_arguments)]
fn f32_ikj_tile_scalar(
    a_rows: &[f32],
    masks: &[u64],
    wpr: usize,
    btile: &[f32],
    out_rows: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    for i in 0..m {
        let mrow = &masks[i * wpr..(i + 1) * wpr];
        let mut k = kb;
        while k < kend {
            let p = k / KP;
            let pend = (p * KP + KP).min(kend);
            if mask_hit(mrow, p) {
                k = pend;
                continue;
            }
            while k < pend {
                let av = a_rows[i * kk + k];
                if av != 0.0 {
                    let b_row = &btile[(k - kb) * n..(k - kb + 1) * n];
                    f32_axpy_scalar(av, b_row, &mut out_rows[i * n..(i + 1) * n]);
                }
                k += 1;
            }
        }
    }
}

/// `k`-tile width for the ikj kernels: 16 words — one 64-byte cache line
/// of `A` per row per tile for f32 (half one for Q8.8), and a whole number
/// of [`KP`]-panels so mask skips never straddle a tile. Shared with the
/// streamed-lowering driver (`gemm::broadcast_streamed`) so its on-demand
/// `B` row buffer covers exactly one tile.
pub(crate) const IKJ_KB: usize = 16;

/// The fused AVX2/FMA form of [`f32_ikj_tile_scalar`]: one `k`-tile over
/// `btile` (row `k` at offset `(k − kb)·n`), the axpy body inlined so the
/// hot path pays no per-live-element indirect call or slice construction.
/// Same operations in the same order as the scalar tile — bit-identical.
/// Accumulates; callers zero `out_rows` once before the first tile.
///
/// # Safety
///
/// Caller must have verified `avx2` and `fma` are available, and that
/// `a_rows.len() ≥ m·kk`, `btile.len() == (kend − kb)·n`,
/// `out_rows.len() == m·n`, `masks.len() == m·wpr` with
/// `wpr = mask_geometry(kk).1`, `kb ≤ kend ≤ kk`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn f32_ikj_tile_avx2(
    a_rows: &[f32],
    masks: &[u64],
    wpr: usize,
    btile: &[f32],
    out_rows: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    use std::arch::x86_64::*;
    let ap = a_rows.as_ptr();
    let op0 = out_rows.as_mut_ptr();
    for i in 0..m {
        let mrow = &masks[i * wpr..(i + 1) * wpr];
        let arow = ap.add(i * kk);
        let op = op0.add(i * n);
        // Liveness-aware prefetch: live `A` panels land scattered (the
        // column-order walk defeats the hardware prefetcher), so pull
        // the *next* tile's line for this row now — but only when its
        // panels are live; prefetching dead lines would re-create the
        // traffic the mask skip exists to avoid.
        if kend < kk {
            let pn = kend / KP;
            if !mask_hit(mrow, pn)
                || (pn + 1 < wpr * 64 && (pn + 1) * KP < kk && !mask_hit(mrow, pn + 1))
            {
                _mm_prefetch(arow.add(kend) as *const i8, _MM_HINT_T0);
            }
        }
        let mut k = kb;
        while k < kend {
            let p = k / KP;
            let pend = (p * KP + KP).min(kend);
            if mask_hit(mrow, p) {
                k = pend;
                continue;
            }
            while k < pend {
                let av = *arow.add(k);
                k += 1;
                if av == 0.0 {
                    continue;
                }
                let bp = btile.as_ptr().add((k - 1 - kb) * n);
                let avv = _mm256_set1_ps(av);
                let mut j = 0;
                while j + 8 <= n {
                    let bv = _mm256_loadu_ps(bp.add(j));
                    let o = _mm256_loadu_ps(op.add(j));
                    _mm256_storeu_ps(op.add(j), _mm256_fmadd_ps(avv, bv, o));
                    j += 8;
                }
                while j < n {
                    *op.add(j) = av.mul_add(*bp.add(j), *op.add(j));
                    j += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Q8.8 kernels
// ---------------------------------------------------------------------------

const FX_HALF: i32 = 1 << (FRAC_BITS - 1);
const FX_MAX: i32 = i16::MAX as i32;
const FX_MIN: i32 = i16::MIN as i32;

#[inline]
fn fx_clamp(v: i32) -> i32 {
    v.clamp(FX_MIN, FX_MAX)
}

/// One scalar Q8.8 term + saturating accumulate — exactly [`Fx`]'s
/// `Mul` (widen, round to nearest with ties toward +∞, saturate) followed
/// by [`Fx`]'s saturating `Add`.
#[inline]
fn fx_mac(acc: i32, a: i16, b: i16) -> i32 {
    let term = fx_clamp((i32::from(a) * i32::from(b) + FX_HALF) >> FRAC_BITS);
    fx_clamp(acc + term)
}

/// Portable Q8.8 row kernel over one `k`-chunk of one packed column
/// panel, bit-identical to a `k`-ascending chain of scalar [`Fx`]
/// multiply–adds (resumed from `out` across chunks — exact, because the
/// saturated accumulator always fits `i16`).
#[allow(clippy::too_many_arguments)]
fn fx_row_panel_scalar(
    a_chunk: &[i16],
    masks_row: &[u64],
    panel0: usize,
    bchunk: &[i16],
    out: &mut [i16],
    w: usize,
    accumulate: bool,
) {
    let klen = a_chunk.len();
    let mut acc = [0i32; NR_FX];
    if accumulate {
        for (t, &o) in acc[..w].iter_mut().zip(&out[..w]) {
            *t = i32::from(o);
        }
    }
    let n_panels = klen.div_ceil(KP);
    for p in 0..n_panels {
        if mask_hit(masks_row, panel0 + p) {
            continue;
        }
        let k0 = p * KP;
        let k1 = (k0 + KP).min(klen);
        for k in k0..k1 {
            let av = a_chunk[k];
            if av == 0 {
                // A zero operand's term is (0 + half) >> 8 = 0, and a
                // saturating add of 0 is the identity: the skip is exact.
                continue;
            }
            let b_row = &bchunk[k * NR_FX..k * NR_FX + w];
            for (t, &bv) in acc[..w].iter_mut().zip(b_row) {
                *t = fx_mac(*t, av, bv);
            }
        }
    }
    for (o, &v) in out[..w].iter_mut().zip(&acc[..w]) {
        *o = v as i16;
    }
}

/// AVX2 Q8.8 row kernel: 16 `i16` lanes per vector, 2 saturating
/// accumulator vectors. Each lane performs exactly the scalar [`Fx`]
/// operation chain, with the i16-native instruction mix:
///
/// * `vpmullw`/`vpmulhw` + interleave reconstruct the exact widened
///   `i32` products (16 at a time, no slow `vpmulld`),
/// * add-half + `vpsrad` is [`Fx`]'s round-to-nearest (ties toward +∞),
/// * `vpackssdw` narrows with **saturation** — exactly the `Mul` clamp —
///   and restores lane order (unpack lo/hi then pack is order-preserving
///   within each 128-bit half),
/// * `vpaddsw` is exactly [`Fx`]'s saturating `Add`, so the accumulator
///   itself stays in i16 lanes (resuming from `out` across `k`-chunks is
///   a plain load).
///
/// # Safety
///
/// Caller must have verified `avx2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn fx_row_panel_avx2(
    a_chunk: &[i16],
    masks_row: &[u64],
    panel0: usize,
    bchunk: &[i16],
    out: &mut [i16],
    w: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    let klen = a_chunk.len();
    let half = _mm256_set1_epi32(FX_HALF);
    let mut acc = [_mm256_setzero_si256(); NR_FX / 16];
    if accumulate {
        if w == NR_FX {
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_loadu_si256(out.as_ptr().add(v * 16) as *const __m256i);
            }
        } else {
            let mut tmp = [0i16; NR_FX];
            tmp[..w].copy_from_slice(&out[..w]);
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_loadu_si256(tmp.as_ptr().add(v * 16) as *const __m256i);
            }
        }
    }
    let n_panels = klen.div_ceil(KP);
    for p in 0..n_panels {
        if mask_hit(masks_row, panel0 + p) {
            continue;
        }
        let k0 = p * KP;
        let k1 = (k0 + KP).min(klen);
        for k in k0..k1 {
            // No per-element zero skip here (unlike the scalar kernel):
            // a zero word's term is exactly 0 either way, and a
            // data-dependent branch per `k` costs more in mispredictions
            // than the saved arithmetic on the vector path. Structural
            // zeros are handled at panel granularity by the masks.
            let av = _mm256_set1_epi16(*a_chunk.get_unchecked(k));
            let base = bchunk.as_ptr().add(k * NR_FX);
            for (v, a) in acc.iter_mut().enumerate() {
                let bv = _mm256_loadu_si256(base.add(v * 16) as *const __m256i);
                let lo = _mm256_mullo_epi16(av, bv);
                let hi = _mm256_mulhi_epi16(av, bv);
                // Exact i32 products: lanes 0–3/8–11 and 4–7/12–15.
                let p0 = _mm256_unpacklo_epi16(lo, hi);
                let p1 = _mm256_unpackhi_epi16(lo, hi);
                let t0 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p0, half));
                let t1 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p1, half));
                let term = _mm256_packs_epi32(t0, t1);
                *a = _mm256_adds_epi16(*a, term);
            }
        }
    }
    if w == NR_FX {
        for (v, a) in acc.iter().enumerate() {
            _mm256_storeu_si256(out.as_mut_ptr().add(v * 16) as *mut __m256i, *a);
        }
    } else {
        let mut tmp = [0i16; NR_FX];
        for (v, a) in acc.iter().enumerate() {
            _mm256_storeu_si256(tmp.as_mut_ptr().add(v * 16) as *mut __m256i, *a);
        }
        out[..w].copy_from_slice(&tmp[..w]);
    }
}

/// Packed Q8.8 GEMM over a contiguous row range (raw-`i16` views of
/// [`Fx`] data), with the same [`KC`]-chunked row loop as [`f32_rows`].
/// Bit-identical to scalar [`Fx`] semantics for every [`SimdLevel`];
/// `level` must have passed [`assert_level`].
fn fx_rows(
    level: SimdLevel,
    a_rows: &[i16],
    masks: &[u64],
    packed_b: &[i16],
    out_rows: &mut [i16],
    kk: usize,
    n: usize,
) {
    let m = a_rows.len().checked_div(kk).unwrap_or(0);
    debug_assert_eq!(out_rows.len(), m * n);
    let (_, words_per_row) = mask_geometry(kk);
    let kernel = fx_panel_for(level);
    let n_jp = n.div_ceil(NR_FX);
    let mut kc0 = 0;
    while kc0 < kk {
        let kc1 = (kc0 + KC).min(kk);
        let panel0 = kc0 / KP;
        let mut ib0 = 0;
        while ib0 < m {
            // Same [`MC`] row blocking as [`f32_rows`] (i16 halves the
            // bytes, so the block is even smaller in cache).
            let ib1 = (ib0 + MC).min(m);
            for jp in 0..n_jp {
                let j0 = jp * NR_FX;
                let w = (n - j0).min(NR_FX);
                let base = jp * kk * NR_FX;
                let bchunk = &packed_b[base + kc0 * NR_FX..base + kc1 * NR_FX];
                for i in ib0..ib1 {
                    let a_chunk = &a_rows[i * kk + kc0..i * kk + kc1];
                    let masks_row = &masks[i * words_per_row..(i + 1) * words_per_row];
                    let out = &mut out_rows[i * n + j0..i * n + j0 + w];
                    // SAFETY: as in `f32_rows` — `run_gemm` checked the
                    // level against feature detection.
                    unsafe { kernel(a_chunk, masks_row, panel0, bchunk, out, w, kc0 > 0) };
                }
            }
            ib0 = ib1;
        }
        kc0 = kc1;
    }
}

/// Q8.8 axpy signature (raw `i16`): `out_row = sat(out_row + round(av ·
/// b_row))` per element — one scalar [`Fx`] multiply–add step.
type FxAxpyFn = unsafe fn(i16, &[i16], &mut [i16]);

fn fx_axpy_for(level: SimdLevel) -> FxAxpyFn {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => fx_axpy_avx2,
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => fx_axpy_scalar,
        SimdLevel::Scalar => fx_axpy_scalar,
    }
}

/// Portable Q8.8 axpy: one [`fx_mac`] per element, the accumulator
/// saturated back into `i16` each step (so resuming from memory between
/// `k` steps is exact — the same argument as the packed kernel's chunk
/// round trips).
fn fx_axpy_scalar(av: i16, b_row: &[i16], out_row: &mut [i16]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o = fx_mac(i32::from(*o), av, bv) as i16;
    }
}

/// AVX2 Q8.8 axpy: the identical instruction mix as [`fx_row_panel_avx2`]
/// — `vpmullw`/`vpmulhw` exact widened products, add-half + `vpsrad`
/// rounding, `vpackssdw` saturating narrow, `vpaddsw` saturating
/// accumulate — applied to one unpacked `B` row, with an [`fx_mac`]
/// scalar tail (the same operation per lane).
///
/// # Safety
///
/// Caller must have verified `avx2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fx_axpy_avx2(av: i16, b_row: &[i16], out_row: &mut [i16]) {
    use std::arch::x86_64::*;
    let n = out_row.len().min(b_row.len());
    let half = _mm256_set1_epi32(FX_HALF);
    let avv = _mm256_set1_epi16(av);
    let bp = b_row.as_ptr();
    let op = out_row.as_mut_ptr();
    let mut j = 0;
    while j + 16 <= n {
        let bv = _mm256_loadu_si256(bp.add(j) as *const __m256i);
        let acc = _mm256_loadu_si256(op.add(j) as *const __m256i);
        let lo = _mm256_mullo_epi16(avv, bv);
        let hi = _mm256_mulhi_epi16(avv, bv);
        let p0 = _mm256_unpacklo_epi16(lo, hi);
        let p1 = _mm256_unpackhi_epi16(lo, hi);
        let t0 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p0, half));
        let t1 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p1, half));
        let term = _mm256_packs_epi32(t0, t1);
        _mm256_storeu_si256(op.add(j) as *mut __m256i, _mm256_adds_epi16(acc, term));
        j += 16;
    }
    while j < n {
        *op.add(j) = fx_mac(i32::from(*op.add(j)), av, *bp.add(j)) as i16;
        j += 1;
    }
}

/// The Q8.8 body of [`ikj_tile_packed`] over `btile` (row `k` at offset
/// `(k − kb)·n`) — the counterpart of [`f32_ikj_tile_scalar`], applying
/// the level-resolved axpy per live `A` word; zero `A` words skip
/// element-wise, which is exact because a zero operand's term is exactly
/// zero. Accumulates; callers zero `out_rows` once before the first
/// tile.
#[allow(clippy::too_many_arguments)]
fn fx_ikj_tile(
    axpy: FxAxpyFn,
    a_rows: &[i16],
    masks: &[u64],
    wpr: usize,
    btile: &[i16],
    out_rows: &mut [i16],
    m: usize,
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    for i in 0..m {
        let mrow = &masks[i * wpr..(i + 1) * wpr];
        let mut k = kb;
        while k < kend {
            let p = k / KP;
            let pend = (p * KP + KP).min(kend);
            if mask_hit(mrow, p) {
                k = pend;
                continue;
            }
            while k < pend {
                let av = a_rows[i * kk + k];
                k += 1;
                if av == 0 {
                    continue;
                }
                let b_row = &btile[(k - 1 - kb) * n..(k - kb) * n];
                // SAFETY: `ikj_tile_packed` checked the level against
                // feature detection.
                unsafe { axpy(av, b_row, &mut out_rows[i * n..(i + 1) * n]) };
            }
        }
    }
}

/// One `k`-tile of the broadcast `ikj` engine: `btile` holds rows
/// `kb..kend` of the `B` operand (row `k` at offset `(k − kb)·n`) —
/// a slice of the materialized operand for [`run_gemm`], the on-demand
/// row buffer for the streamed-lowering driver in [`crate::gemm`]. Both
/// drivers run this one tile loop, so streaming changes *where `B` rows
/// come from*, never the per-element operation chain: bit-identity (f32)
/// and byte-identity (Q8.8) between them hold by construction.
/// Accumulates; zero `out` before the first tile.
///
/// # Panics
///
/// Panics if `T` has no packed kernel, if `level` needs CPU features this
/// host lacks, or if the slice lengths disagree with `kk`, `n` and the
/// tile bounds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ikj_tile_packed<T: Num>(
    level: SimdLevel,
    a: &[T],
    masks: &[u64],
    btile: &[T],
    out: &mut [T],
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    assert_level(level);
    let m = a.len().checked_div(kk).unwrap_or(0);
    let (_, wpr) = mask_geometry(kk);
    assert!(
        kb <= kend
            && kend <= kk
            && masks.len() == m * wpr
            && btile.len() == (kend - kb) * n
            && out.len() == m * n,
        "ikj tile operands disagree with the shape"
    );
    match kind_of::<T>() {
        PackedKind::F32 => {
            // SAFETY: `kind_of` proves `T == f32`.
            let (af, bf, of) = unsafe { (view(a), view(btile), view_mut(out)) };
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the level was checked against feature detection
                // and the lengths asserted above.
                SimdLevel::Avx2Fma => unsafe {
                    f32_ikj_tile_avx2(af, masks, wpr, bf, of, m, kk, n, kb, kend)
                },
                _ => f32_ikj_tile_scalar(af, masks, wpr, bf, of, m, kk, n, kb, kend),
            }
        }
        PackedKind::Fx => {
            // SAFETY: `kind_of` proves `T == Fx`, `repr(transparent)` over i16.
            let (ai, bi, oi) = unsafe { (view(a), view(btile), view_mut(out)) };
            fx_ikj_tile(
                fx_axpy_for(level),
                ai,
                masks,
                wpr,
                bi,
                oi,
                m,
                kk,
                n,
                kb,
                kend,
            );
        }
    }
}

/// The broadcast `ikj` engine behind [`GemmPath::Ikj`] and
/// [`GemmPath::SmallM`] on a materialized `B` (row-major, `kk × n`): zero
/// the output, then run [`ikj_tile_packed`] over each [`IKJ_KB`]-row tile
/// of `B`. Each live `A` word contributes one axpy of its `B` row —
/// exactly the packed kernel's per-element chain over `k` ascending (the
/// loop interchange reorders only *between* output elements, never within
/// one element's chain; bit-neutral, see the module docs), with the
/// accumulator round-tripping through `out` between `k` steps (exact).
/// Zero words skip element-wise, and a `B` row whose `A` column is
/// entirely zero is never read at all. `k` outermost means `B` is
/// streamed **sequentially, exactly once** — on the stride-49 projection
/// shape the i-outer order re-walks `B` in page-sized jumps and is
/// memory-latency-bound instead. Inside a tile the row loop runs outside
/// the `k` loop, so each `A` line is loaded once and serves all
/// [`IKJ_KB`] of its `k` values, and the per-row [`KP`]-panel masks from
/// the dispatch scan skip dead `A` panels without touching `A` at all —
/// on a ~2%-dense projection matrix most of `A` is never re-read after
/// the scan.
fn ikj_rows<T: Num>(
    level: SimdLevel,
    a: &[T],
    masks: &[u64],
    b: &[T],
    out: &mut [T],
    kk: usize,
    n: usize,
) {
    out.fill(T::zero());
    let mut kb = 0;
    while kb < kk {
        let kend = (kb + IKJ_KB).min(kk);
        ikj_tile_packed(level, a, masks, &b[kb * n..kend * n], out, kk, n, kb, kend);
        kb = kend;
    }
}

// ---------------------------------------------------------------------------
// The driver: scan, then run
// ---------------------------------------------------------------------------

/// One GEMM's dispatch decision plus the zero-scan statistics it was
/// derived from — everything the caller needs to run the GEMM and record
/// telemetry. All fields are pure functions of `A`, the shape and the
/// forced override, so a plan is identical for every thread count and
/// SIMD level.
#[derive(Debug, Clone, Copy)]
pub struct GemmPlan {
    /// The engine this GEMM runs.
    pub path: GemmPath,
    /// Operand words the panel masks elide (the structural-zero
    /// statistic, reported for every path).
    pub skipped: u64,
    /// Total `A` operand words (`m · kk`).
    pub visited: u64,
}

/// Scans `A` into the scratch panel masks and picks the dispatch path —
/// without touching `B` (the streamed lowering driver decides whether `B`
/// needs to be materialized at all based on the returned path). Follow
/// with [`run_gemm`] against the same scratch.
pub fn scan_gemm<T: Num>(
    a: &[T],
    m: usize,
    kk: usize,
    n: usize,
    scratch: &mut PackScratch,
) -> GemmPlan {
    let (skipped, zeros) = build_masks(a, m, kk, &mut scratch.masks);
    GemmPlan {
        path: dispatch_path(m, kk, n, zeros),
        skipped,
        visited: (m * kk) as u64,
    }
}

/// Runs one scanned GEMM: `out = a × b` for an `m × kk` operand `a` and
/// the **unpacked** row-major `kk × n` operand `b`, overwriting every
/// element of the `m × n` output. `plan` and the panel masks in `scratch`
/// come from [`scan_gemm`] on this `a`; `plan.path` picks the engine, and
/// `B` is packed into `scratch` only for [`GemmPath::Packed`]. Production
/// passes [`simd_level`]; the equality tests and the shape bench pass each
/// level the host runs and set `plan.path` to the engine under test.
///
/// # Panics
///
/// Panics if `T` is not `f32` or [`Fx`], if `level` needs CPU features
/// this host lacks, or if the operand lengths disagree with `kk`, `n` and
/// the scanned masks.
#[allow(clippy::too_many_arguments)]
pub fn run_gemm<T: Num>(
    level: SimdLevel,
    plan: GemmPlan,
    a: &[T],
    b: &[T],
    out: &mut [T],
    kk: usize,
    n: usize,
    scratch: &mut PackScratch,
) {
    assert_level(level);
    let kind = kind_of::<T>();
    let m = a.len().checked_div(kk).unwrap_or(0);
    assert!(
        a.len() == m * kk
            && b.len() == kk * n
            && out.len() == m * n
            && scratch.masks.len() == m * mask_geometry(kk).1,
        "GEMM operands disagree with the scanned {m}×{kk}×{n} shape"
    );
    match (plan.path, kind) {
        (GemmPath::Packed, PackedKind::F32) => {
            // SAFETY: `kind_of` proves `T == f32`.
            let (af, bf, of) = unsafe { (view(a), view(b), view_mut(out)) };
            pack_b::<f32, NR_F32>(bf, kk, n, &mut scratch.bf32);
            f32_rows(level, af, &scratch.masks, &scratch.bf32, of, kk, n);
        }
        (GemmPath::Packed, PackedKind::Fx) => {
            // SAFETY: `kind_of` proves `T == Fx`, `repr(transparent)` over i16.
            let (ai, bi, oi) = unsafe { (view(a), view(b), view_mut(out)) };
            pack_b::<i16, NR_FX>(bi, kk, n, &mut scratch.bi16);
            fx_rows(level, ai, &scratch.masks, &scratch.bi16, oi, kk, n);
        }
        // On materialized `B` the small-`m` path shares the ikj engine (one
        // streamed pass over `B`, no pack); SmallM stays a distinct path
        // because the streamed driver in `crate::gemm` keys the
        // fill-row-on-demand lowering off it.
        (GemmPath::Ikj | GemmPath::SmallM, _) => {
            ikj_rows(level, a, &scratch.masks, b, out, kk, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_f32(len: usize, zero_frac: f64, rng: &mut SmallRng) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < zero_frac {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect()
    }

    /// Naive fused reference: one `mul_add` chain per element, `k`
    /// ascending — the semantics both levels must hit bit-for-bit.
    fn fused_reference(a: &[f32], b: &[f32], m: usize, kk: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..kk {
                    acc = a[i * kk + k].mul_add(b[k * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// `a × b` through the production driver at `level`: scan, optionally
    /// override the dispatched path, run.
    #[allow(clippy::too_many_arguments)]
    fn gemm<T: Num>(
        level: SimdLevel,
        path: Option<GemmPath>,
        a: &[T],
        b: &[T],
        m: usize,
        kk: usize,
        n: usize,
        scratch: &mut PackScratch,
    ) -> Vec<T> {
        let mut plan = scan_gemm(a, m, kk, n, scratch);
        if let Some(path) = path {
            plan.path = path;
        }
        let mut out = vec![T::zero(); m * n];
        run_gemm(level, plan, a, b, &mut out, kk, n, scratch);
        out
    }

    /// [`gemm`] on raw-`i16` Q8.8 operands, returning raw words.
    #[allow(clippy::too_many_arguments)]
    fn gemm_fx(
        level: SimdLevel,
        path: Option<GemmPath>,
        a: &[i16],
        b: &[i16],
        m: usize,
        kk: usize,
        n: usize,
        scratch: &mut PackScratch,
    ) -> Vec<i16> {
        let fx = |raw: &[i16]| raw.iter().map(|&r| Fx::from_raw(r)).collect::<Vec<_>>();
        gemm(level, path, &fx(a), &fx(b), m, kk, n, scratch)
            .iter()
            .map(|v| v.raw())
            .collect()
    }

    #[test]
    fn f32_levels_are_bit_identical_and_match_the_fused_chain() {
        let mut rng = SmallRng::seed_from_u64(91);
        for (m, kk, n) in [
            (1, 1, 1),
            (3, 9, 5),
            (17, 70, 65),
            (5, 8, 64),
            (7, 129, 67),
            (3, 700, 70),
        ] {
            let a = random_f32(m * kk, 0.5, &mut rng);
            let b = random_f32(kk * n, 0.1, &mut rng);
            let reference = fused_reference(&a, &b, m, kk, n);
            let mut scratch = PackScratch::new();
            let out_s = gemm(SimdLevel::Scalar, None, &a, &b, m, kk, n, &mut scratch);
            assert_eq!(reference, out_s, "scalar {m}x{kk}x{n}");
            if detect_level() == SimdLevel::Avx2Fma {
                let out_v = gemm(SimdLevel::Avx2Fma, None, &a, &b, m, kk, n, &mut scratch);
                let same = out_s
                    .iter()
                    .zip(&out_v)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "avx2 diverged from scalar on {m}x{kk}x{n}");
            }
        }
    }

    #[test]
    fn fx_levels_match_scalar_fx_semantics_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(92);
        for (m, kk, n) in [(1, 1, 1), (4, 9, 5), (9, 33, 40), (3, 8, 32), (2, 300, 33)] {
            // Large magnitudes so saturation actually fires.
            let a: Vec<i16> = (0..m * kk)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0
                    } else {
                        rng.gen_range(i16::MIN..=i16::MAX)
                    }
                })
                .collect();
            let b: Vec<i16> = (0..kk * n)
                .map(|_| rng.gen_range(i16::MIN..=i16::MAX))
                .collect();
            // Scalar Fx oracle: k-ascending saturating multiply-add chain.
            let mut reference = vec![0i16; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = Fx::ZERO;
                    for k in 0..kk {
                        acc += Fx::from_raw(a[i * kk + k]) * Fx::from_raw(b[k * n + j]);
                    }
                    reference[i * n + j] = acc.raw();
                }
            }
            let mut scratch = PackScratch::new();
            for level in [SimdLevel::Scalar, detect_level()] {
                let out = gemm_fx(level, None, &a, &b, m, kk, n, &mut scratch);
                assert_eq!(reference, out, "{level:?} {m}x{kk}x{n}");
            }
        }
    }

    #[test]
    fn masks_count_elided_and_zero_words_exactly() {
        // Row of 10 words, KP=8: panel 0 = words 0..8, panel 1 = words 8..10.
        let mut a = vec![0.0f32; 10];
        a[9] = 1.0; // panel 1 live, panel 0 all-zero
        let mut masks = Vec::new();
        let (skipped, zeros) = build_masks(&a, 1, 10, &mut masks);
        assert_eq!(skipped, 8, "only the all-zero panel is elidable");
        assert_eq!(zeros, 9, "every zero word counts toward density");
        assert!(mask_hit(&masks, 0));
        assert!(!mask_hit(&masks, 1));
    }

    #[test]
    fn choose_path_keys_on_shape_and_density() {
        // A single output row with a wide-enough output streams B.
        assert_eq!(choose_path(1, 6272, 100, 0), GemmPath::SmallM);
        // Multi-row dense shapes keep the packed engine even below one
        // register tile of rows — the dense 6×16 tile wins from m = 2 up.
        assert_eq!(choose_path(MR_F32, 100, 128, 0), GemmPath::Packed);
        assert_eq!(choose_path(49, 1600, 128, 0), GemmPath::Packed);
        // Degenerate-kk shapes dodge the pack entirely.
        assert_eq!(choose_path(100, 1, 6272, 0), GemmPath::Ikj);
        assert_eq!(choose_path(100, 3, 6272, 0), GemmPath::Packed);
        // The projection shape: ~98% zeros scattered across panels.
        let total = 49u64 * 4900;
        assert_eq!(
            choose_path(49, 4900, 128, total - 49 * 100),
            GemmPath::Ikj,
            "sparse-A shapes take the element-skipping path"
        );
        // Exactly at the 15/16 threshold the ikj path still wins.
        assert_eq!(choose_path(8, 100, 128, 750), GemmPath::Ikj);
        assert_eq!(choose_path(8, 100, 128, 749), GemmPath::Packed);
        // Narrow outputs can't amortize a broadcast axpy: everything
        // below n = 8 stays packed no matter the shape or density.
        assert_eq!(choose_path(49, 6272, 1, 49 * 6272 - 49), GemmPath::Packed);
        assert_eq!(choose_path(1, 6272, 7, 0), GemmPath::Packed);
        assert_eq!(choose_path(1, 6272, 8, 0), GemmPath::SmallM);
    }

    const ALL_PATHS: [GemmPath; 3] = [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM];

    #[test]
    fn f32_paths_are_bit_identical_on_every_level() {
        let mut rng = SmallRng::seed_from_u64(93);
        // Degenerate shapes on purpose: m = 1, m > MR, n < NR, long k.
        for (m, kk, n, zf) in [
            (1, 1, 1, 0.0),
            (1, 700, 100, 0.5),
            (3, 40, 7, 0.9),
            (17, 70, 65, 0.98),
            (7, 129, 67, 0.0),
            (40, 50, 3, 0.3),
        ] {
            let a = random_f32(m * kk, zf, &mut rng);
            let b = random_f32(kk * n, 0.1, &mut rng);
            let reference = fused_reference(&a, &b, m, kk, n);
            let mut scratch = PackScratch::new();
            for path in ALL_PATHS {
                for level in [SimdLevel::Scalar, detect_level()] {
                    let out = gemm(level, Some(path), &a, &b, m, kk, n, &mut scratch);
                    let same = reference
                        .iter()
                        .zip(&out)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "{path:?} {level:?} diverged on {m}x{kk}x{n}");
                }
            }
        }
    }

    #[test]
    fn fx_paths_match_scalar_fx_semantics_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(94);
        for (m, kk, n) in [(1, 1, 1), (1, 300, 33), (4, 9, 5), (9, 33, 40), (8, 40, 3)] {
            let a: Vec<i16> = (0..m * kk)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.6 {
                        0
                    } else {
                        rng.gen_range(i16::MIN..=i16::MAX)
                    }
                })
                .collect();
            let b: Vec<i16> = (0..kk * n)
                .map(|_| rng.gen_range(i16::MIN..=i16::MAX))
                .collect();
            let mut reference = vec![0i16; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = Fx::ZERO;
                    for k in 0..kk {
                        acc += Fx::from_raw(a[i * kk + k]) * Fx::from_raw(b[k * n + j]);
                    }
                    reference[i * n + j] = acc.raw();
                }
            }
            let mut scratch = PackScratch::new();
            for path in ALL_PATHS {
                for level in [SimdLevel::Scalar, detect_level()] {
                    let out = gemm_fx(level, Some(path), &a, &b, m, kk, n, &mut scratch);
                    assert_eq!(reference, out, "{path:?} {level:?} {m}x{kk}x{n}");
                }
            }
        }
    }

    #[test]
    fn levels_are_checked_against_feature_detection() {
        assert!(level_runs_on(SimdLevel::Scalar, SimdLevel::Scalar));
        assert!(level_runs_on(SimdLevel::Scalar, SimdLevel::Avx2Fma));
        assert!(level_runs_on(SimdLevel::Avx2Fma, SimdLevel::Avx2Fma));
        assert!(
            !level_runs_on(SimdLevel::Avx2Fma, SimdLevel::Scalar),
            "AVX2 kernels must be refused on a host without avx2+fma"
        );
        // The detected and process levels always pass (`ZFGAN_NO_SIMD`
        // only ever lowers the process level below the detected one).
        for level in [SimdLevel::Scalar, detect_level(), simd_level()] {
            assert_level(level);
        }
    }

    #[test]
    #[should_panic(expected = "disagree with the scanned")]
    fn run_gemm_rejects_operands_that_disagree_with_the_shape() {
        let a = [1.0f32; 6];
        let b = [1.0f32; 6];
        let mut scratch = PackScratch::new();
        let plan = scan_gemm(&a, 2, 3, 2, &mut scratch);
        // `out` is one element short of 2×2.
        let mut out = [0.0f32; 3];
        run_gemm(simd_level(), plan, &a, &b, &mut out, 3, 2, &mut scratch);
    }

    #[test]
    fn simd_label_matches_level() {
        let label = simd_label();
        match simd_level() {
            SimdLevel::Avx2Fma => assert_eq!(label, "avx2"),
            SimdLevel::Scalar => assert_eq!(label, "scalar"),
        }
    }
}
