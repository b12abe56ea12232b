//! A reusable scratch arena for the conv hot path.
//!
//! Every lowered convolution needs the same transient buffers — im2col
//! patch matrices, reshaped weight matrices, the GEMM product, and the
//! output maps. Allocating them from scratch per call is where a training
//! step's heap traffic comes from; [`ConvWorkspace`] keeps the buffers on
//! a free list instead, so after a warm-up step the conv hot path performs
//! **zero heap allocation** (pinned by `tests/zero_alloc.rs` with a
//! counting global allocator).
//!
//! The workspace-fed (`_ws`) functions are the *only* implementation of
//! each lowered pass. The allocating entry points —
//! [`crate::ConvBackend`]'s plain methods,
//! [`crate::gemm::MatmulKind::run`], and the layer/network passes in
//! `zfgan-nn` — run them on a fresh `ConvWorkspace::new()`, so a
//! fresh-workspace call and a call on recycled (dirty) buffers must agree
//! bit for bit; that is what the zero-fill rules below protect.
//!
//! # Lifetime rules
//!
//! - `take_*` hands out a buffer of the exact requested shape, zero-filled
//!   (several fill loops — phase patches, scatter-skipped outputs, the
//!   naive GEMM's `+=` — rely on starting from zeros).
//! - `give_*` returns a buffer to the free list. Returning is optional for
//!   correctness (a dropped buffer is just an allocation next time) and
//!   mandatory for the zero-allocation guarantee.
//! - Buffers grow monotonically: `take` picks the smallest free buffer
//!   whose capacity already fits (best fit), so a steady-state workload
//!   stops allocating once every distinct size has been seen.
//! - A workspace is plain owned data (`Send`): one per trainer, never
//!   shared across threads.
//!
//! Setting [`ConvWorkspace::set_reuse`]`(false)` turns the arena into a
//! pass-through allocator (every `take` is fresh, every `give` drops, the
//! T-CONV phase cache is bypassed, packing scratch is rebuilt per GEMM).
//! The code path itself is unchanged, which is how the `trainstep` bench
//! measures an honest allocating baseline against the reusing one.

use crate::fmaps::Fmaps;
use crate::im2col::Matrix;
use crate::kernels::Kernels;
use crate::microkernel::PackScratch;
use crate::num::Num;
use crate::zero_free::PhaseCache;

/// Free-list arena for conv-sized `Vec<T>` buffers plus the memoized
/// T-CONV phase decompositions. See the module docs for the lifetime and
/// zero-fill rules.
#[derive(Debug)]
pub struct ConvWorkspace<T> {
    free: Vec<Vec<T>>,
    reuse: bool,
    /// Memoized `stride²`-phase decompositions for the zero-free T-CONV
    /// lowering (shape-keyed; shared out as `Arc` clones so the hot path
    /// never recomputes or reallocates them).
    pub(crate) phases: PhaseCache,
    /// Packed-microkernel scratch (packed `B` panels + `A` zero masks),
    /// reused across GEMMs so the packed fast path stays allocation-free
    /// once warm.
    pack: PackScratch,
}

impl<T> Default for ConvWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ConvWorkspace<T> {
    /// Creates an empty workspace with buffer reuse enabled.
    pub fn new() -> Self {
        Self {
            free: Vec::new(),
            reuse: true,
            phases: PhaseCache::default(),
            pack: PackScratch::new(),
        }
    }

    /// The packed-microkernel scratch. With reuse off the previous scratch
    /// is dropped first, so every GEMM packs into fresh buffers — the same
    /// honest allocating-baseline behaviour as [`ConvWorkspace::take`].
    pub(crate) fn pack_scratch(&mut self) -> &mut PackScratch {
        if !self.reuse {
            self.pack = PackScratch::new();
        }
        &mut self.pack
    }

    /// The scratch as the last [`Self::pack_scratch`] caller left it — no
    /// allocating-baseline reset, so the `A` masks a just-run scan built
    /// survive into the run half of the GEMM even with reuse off.
    pub(crate) fn scanned_pack_scratch(&mut self) -> &mut PackScratch {
        &mut self.pack
    }

    /// Whether buffers are recycled (the default) or freshly allocated per
    /// `take` (the honest allocating baseline for benchmarks).
    pub fn reuse(&self) -> bool {
        self.reuse
    }

    /// Toggles buffer reuse. Disabling also drops every cached buffer and
    /// bypasses the phase cache, so subsequent calls allocate every
    /// transient afresh — the honest allocating baseline.
    pub fn set_reuse(&mut self, reuse: bool) {
        self.reuse = reuse;
        if !reuse {
            self.free.clear();
            self.phases = PhaseCache::default();
            self.pack = PackScratch::new();
        }
    }

    /// Number of buffers currently parked on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Total capacity (in elements) parked on the free list.
    pub fn free_elems(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }
}

impl<T: Num> ConvWorkspace<T> {
    /// Takes a zero-filled buffer of exactly `len` elements, recycling the
    /// best-fitting free buffer when reuse is on.
    pub fn take(&mut self, len: usize) -> Vec<T> {
        if !self.reuse {
            return vec![T::zero(); len];
        }
        // Best fit: the smallest free buffer whose capacity suffices;
        // otherwise the largest available one (which then grows once and
        // serves this size forever after).
        let mut best: Option<usize> = None;
        let mut largest: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len {
                if best.is_none_or(|b| buf.capacity() < self.free[b].capacity()) {
                    best = Some(i);
                }
            } else if largest.is_none_or(|l| buf.capacity() > self.free[l].capacity()) {
                largest = Some(i);
            }
        }
        let mut v = match best.or(largest) {
            Some(i) => self.free.swap_remove(i),
            None => Vec::new(),
        };
        v.clear();
        v.resize(len, T::zero());
        v
    }

    /// Returns a buffer to the free list (dropped when reuse is off).
    pub fn give(&mut self, v: Vec<T>) {
        if self.reuse && v.capacity() > 0 {
            self.free.push(v);
        }
    }

    /// Takes a zero [`Matrix`] of the given shape from the arena.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (as [`Matrix::zeros`] does).
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// Returns a matrix's buffer to the arena.
    pub fn give_matrix(&mut self, m: Matrix<T>) {
        self.give(m.into_vec());
    }

    /// Takes zero [`Fmaps`] of the given shape from the arena.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (as [`Fmaps::zeros`] does).
    pub fn take_fmaps(&mut self, channels: usize, height: usize, width: usize) -> Fmaps<T> {
        Fmaps::from_vec(
            channels,
            height,
            width,
            self.take(channels * height * width),
        )
    }

    /// Returns a feature-map buffer to the arena.
    pub fn give_fmaps(&mut self, f: Fmaps<T>) {
        self.give(f.into_vec());
    }

    /// Takes zero [`Kernels`] of the given shape from the arena.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (as [`Kernels::zeros`] does).
    pub fn take_kernels(&mut self, n_of: usize, n_if: usize, kh: usize, kw: usize) -> Kernels<T> {
        Kernels::from_vec(n_of, n_if, kh, kw, self.take(n_of * n_if * kh * kw))
    }

    /// Returns a kernel buffer to the arena.
    pub fn give_kernels(&mut self, k: Kernels<T>) {
        self.give(k.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_even_after_dirty_give() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let mut a = ws.take(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.give(a);
        let b = ws.take(4);
        assert_eq!(b, vec![0.0; 4]);
    }

    #[test]
    fn steady_state_reuses_instead_of_allocating() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let warm = ws.take(100);
        ws.give(warm);
        let cap_before = ws.free_elems();
        for _ in 0..10 {
            let v = ws.take(100);
            assert!(v.capacity() >= 100);
            ws.give(v);
        }
        assert_eq!(ws.free_elems(), cap_before);
        assert_eq!(ws.free_buffers(), 1);
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        ws.give(Vec::with_capacity(1000));
        ws.give(Vec::with_capacity(10));
        let v = ws.take(5);
        assert!(v.capacity() < 1000, "took the big buffer for a small job");
        ws.give(v);
    }

    #[test]
    fn reuse_off_is_a_pass_through_allocator() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        ws.set_reuse(false);
        let v = ws.take(16);
        ws.give(v);
        assert_eq!(ws.free_buffers(), 0);
        assert_eq!(ws.take(3), vec![0.0; 3]);
    }

    #[test]
    fn typed_takes_have_the_right_shapes() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let m = ws.take_matrix(3, 4);
        let f = ws.take_fmaps(2, 3, 4);
        let k = ws.take_kernels(2, 3, 4, 5);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(f.shape(), (2, 3, 4));
        assert_eq!(k.shape(), (2, 3, 4, 5));
        ws.give_matrix(m);
        ws.give_fmaps(f);
        ws.give_kernels(k);
        assert_eq!(ws.free_buffers(), 3);
    }
}
