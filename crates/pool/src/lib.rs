//! `zfgan-pool` — a persistent, lazily-initialized, process-global worker
//! pool for the data-parallel hot paths (the executor engine's output
//! groups, the DSE miss fan-out, `parallel_dis_grads`). Its
//! width, [`pool_threads`] (`ZFGAN_THREADS`, else the hardware thread
//! count), is the one parallelism setting in the codebase.
//!
//! The pool spawns `pool_threads() - 1` workers once, on first use, and
//! keeps them parked on a condvar between batches, so dispatch cost is a
//! few mutex operations instead of a `clone`+`spawn`+`join` round trip per
//! call.
//!
//! # Execution model
//!
//! A batch is `n` index-tasks over a caller-provided `Fn(usize) + Sync`
//! closure. Tasks are distributed round-robin over per-worker deques; idle
//! workers pop their own queue front-first and steal from other queues
//! back-first. The submitting thread never blocks idly while its batch is in
//! flight: it *helps*, draining queued tasks (preferring its own batch) until
//! every task of its batch has finished. This makes nested submission safe —
//! a pool task that submits its own batch cannot deadlock, because every
//! blocked submitter is also a worker.
//!
//! # Determinism contract
//!
//! The pool assigns each index to exactly one executor; callers partition
//! output buffers so each element is written once, with the same per-element
//! reduction order as the sequential reference. Scheduling affects only
//! *which thread* computes an element, never the arithmetic — so pooled
//! results are bit-identical to sequential ones and the fig15–fig19 sweeps
//! stay byte-stable. Pool telemetry (tasks, batches, steals, queue depth) is
//! scheduling-dependent and therefore emitted via the wall-clock metric
//! class, which the deterministic export section excludes.
//!
//! # Panic semantics
//!
//! Each task runs under `catch_unwind`; a panicking task is counted and the
//! batch completes the remaining work, returning
//! [`PoolError::TaskPanicked`] so callers can surface typed errors
//! (`zfgan_nn::ParallelError`) instead of crashing the trainer. The
//! sequential fallback (one hardware thread, one task, or an uninitialized
//! pool) uses the same per-index `catch_unwind`, so error semantics do not
//! depend on where the batch ran.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Error returned when one or more tasks of a batch panicked. The batch
/// still ran to completion (every non-panicking task finished), mirroring
/// the semantics callers need to degrade gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// `failed` of `total` tasks panicked.
    TaskPanicked {
        /// Number of tasks whose closure panicked.
        failed: usize,
        /// Total number of tasks in the batch.
        total: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::TaskPanicked { failed, total } => {
                write!(f, "{failed} of {total} pool tasks panicked")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Parses a `ZFGAN_THREADS`-style override, falling back to the detected
/// hardware parallelism. Factored out of [`pool_threads`] so the parse rules
/// are unit-testable despite the process-wide `OnceLock` cache.
fn threads_from(env: Option<&str>, fallback: usize) -> usize {
    match env.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => fallback.max(1),
    }
}

/// The process-wide thread budget: `ZFGAN_THREADS` if set to a positive
/// integer, else `std::thread::available_parallelism()`. Computed once per
/// process and cached — call sites must never re-query the OS per call.
pub fn pool_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let fallback = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        threads_from(std::env::var("ZFGAN_THREADS").ok().as_deref(), fallback)
    })
}

/// Header of an in-flight batch. Lives on the submitter's stack; the
/// completion protocol below guarantees no task (or worker) touches it after
/// the submitter returns.
struct BatchHeader {
    /// Monomorphized trampoline: calls the `Fn(usize)` behind `ctx`.
    run: unsafe fn(*const (), usize),
    /// Type-erased pointer to the caller's closure (`&F`, `F: Sync`).
    ctx: *const (),
    /// Tasks not yet finished. The executor of the last task performs the
    /// `done` handoff.
    remaining: AtomicUsize,
    /// Tasks whose closure panicked.
    panicked: AtomicUsize,
    /// Completion flag. Set to `true` — and signalled — *while holding the
    /// mutex* by whichever thread finishes the last task; the submitter only
    /// returns after observing `true` under the same mutex. This handoff is
    /// what makes the stack-resident header sound: `remaining == 0` alone
    /// would let the submitter free the header while the finishing worker is
    /// still about to signal it.
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// One unit of work: an index into some batch.
#[derive(Clone, Copy)]
struct Task {
    header: *const BatchHeader,
    index: usize,
}

// SAFETY: the raw header pointer is only dereferenced while the batch is in
// flight; the submitter keeps the header alive until the `done` handoff
// (see `BatchHeader::done`), after which no `Task` for it exists anywhere.
unsafe impl Send for Task {}

/// Shared pool state: one deque per worker, a version counter + condvar for
/// idle parking, and a round-robin cursor for task placement.
struct Shared {
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks submitted but not yet popped — the `pool_queue_depth` gauge.
    /// A batch adds its count *before* pushing any task and every pop
    /// subtracts one *after* taking a task, so the counter never wraps and
    /// never exceeds the tasks in flight.
    pending: AtomicUsize,
    /// Bumped on every submission; parked workers wake when it changes.
    version: Mutex<u64>,
    work_cv: Condvar,
    /// Rotates the starting queue between submissions to spread load.
    rr: AtomicUsize,
}

impl Shared {
    fn new(n_queues: usize) -> Self {
        Shared {
            queues: (0..n_queues).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            version: Mutex::new(0),
            work_cv: Condvar::new(),
            rr: AtomicUsize::new(0),
        }
    }
}

/// Executes one task: catch the panic, count it, and perform the completion
/// handoff if this was the batch's last task.
fn run_task(t: Task) {
    // SAFETY: the batch is in flight (this Task was just popped), so the
    // header is alive; `run`/`ctx` were built from a `&F` with `F: Sync`.
    let header = unsafe { &*t.header };
    let ok = catch_unwind(AssertUnwindSafe(|| unsafe {
        (header.run)(header.ctx, t.index)
    }))
    .is_ok();
    if !ok {
        header.panicked.fetch_add(1, Ordering::SeqCst);
    }
    if header.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        // Last task: flip `done` and signal while still holding the lock —
        // after the guard drops the submitter may free the header, so no
        // header access is allowed past this block.
        let mut d = header.done.lock().unwrap();
        *d = true;
        header.done_cv.notify_all();
    }
}

/// Pops a queued task for a helping submitter: prefer a task of its own
/// batch (front of any queue), else any task. `None` means every queue was
/// empty at scan time.
fn pop_any(shared: &Shared, own: *const BatchHeader) -> Option<Task> {
    let mut fallback = None;
    for (i, qm) in shared.queues.iter().enumerate() {
        let mut q = qm.lock().unwrap();
        match q.front() {
            Some(t) if std::ptr::eq(t.header, own) => return q.pop_front(),
            Some(_) if fallback.is_none() => fallback = Some(i),
            _ => {}
        }
    }
    fallback.and_then(|i| shared.queues[i].lock().unwrap().pop_front())
}

/// Steals a task from any queue other than `me` (back-first, so owners and
/// thieves contend on opposite ends).
fn steal(shared: &Shared, me: usize) -> Option<Task> {
    for (i, qm) in shared.queues.iter().enumerate() {
        if i == me {
            continue;
        }
        if let Some(t) = qm.lock().unwrap().pop_back() {
            zfgan_telemetry::count_wall("pool_steals_total", &[], 1);
            return Some(t);
        }
    }
    None
}

fn worker_loop(shared: &'static Shared, me: usize) {
    let mut seen_version = 0u64;
    loop {
        // Release the own-queue lock before stealing: holding it while
        // `steal` locks the other queues lets two workers deadlock.
        let own = shared.queues[me].lock().unwrap().pop_front();
        let task = own.or_else(|| steal(shared, me));
        if let Some(t) = task {
            shared.pending.fetch_sub(1, Ordering::Relaxed);
            run_task(t);
            continue;
        }
        let v = shared.version.lock().unwrap();
        if *v != seen_version {
            seen_version = *v;
            continue;
        }
        // Timeout is belt-and-suspenders against a missed wakeup; the
        // version counter is the real signal.
        let (v, _) = shared
            .work_cv
            .wait_timeout(v, Duration::from_millis(50))
            .unwrap();
        seen_version = *v;
    }
}

/// The lazily-created global pool. `None` when the thread budget is 1 —
/// every batch then runs inline. Worker spawn failures are tolerated: the
/// submitting thread's help loop drains the queues regardless, so a pool
/// with zero live workers still completes every batch (just sequentially).
fn pool() -> Option<&'static Shared> {
    static POOL: OnceLock<Option<&'static Shared>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let threads = pool_threads();
        if threads <= 1 {
            return None;
        }
        let shared: &'static Shared = Box::leak(Box::new(Shared::new(threads - 1)));
        for i in 0..threads - 1 {
            let _ = std::thread::Builder::new()
                .name(format!("zfgan-pool-{i}"))
                .spawn(move || worker_loop(shared, i));
        }
        Some(shared)
    })
}

/// Runs `n` tasks inline on the calling thread with pooled panic semantics.
fn run_inline<F: Fn(usize) + Sync>(n: usize, f: &F) -> Result<(), PoolError> {
    let mut failed = 0;
    for i in 0..n {
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            failed += 1;
        }
    }
    if failed > 0 {
        Err(PoolError::TaskPanicked { failed, total: n })
    } else {
        Ok(())
    }
}

/// Runs `f(0..n)` as a batch on the global pool, returning once every index
/// has executed exactly once. Falls back to an inline sequential loop when
/// the thread budget is 1 or the batch is trivial. See the crate docs for
/// the determinism and panic contracts.
pub fn run_batch<F: Fn(usize) + Sync>(n: usize, f: &F) -> Result<(), PoolError> {
    if n == 0 {
        return Ok(());
    }
    zfgan_telemetry::count_wall("pool_batches_total", &[], 1);
    zfgan_telemetry::count_wall("pool_tasks_total", &[], n as u64);
    let shared = if n > 1 { pool() } else { None };
    match shared {
        Some(shared) => run_on(shared, n, f),
        None => run_inline(n, f),
    }
}

/// Runs `f(0..n)` as one batch on `shared`'s queues, the submitting thread
/// helping until every task has finished.
fn run_on<F: Fn(usize) + Sync>(shared: &Shared, n: usize, f: &F) -> Result<(), PoolError> {
    /// Monomorphized trampoline; `ctx` is a `&F` in disguise.
    unsafe fn call<F: Fn(usize) + Sync>(ctx: *const (), index: usize) {
        let f = &*(ctx as *const F);
        f(index);
    }

    let header = BatchHeader {
        run: call::<F>,
        ctx: f as *const F as *const (),
        remaining: AtomicUsize::new(n),
        panicked: AtomicUsize::new(0),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    };
    let hp: *const BatchHeader = &header;

    // Count the batch in before any task is visible: a worker may pop and
    // decrement as soon as the first push lands, and that decrement must
    // not find the counter at zero. Relaxed suffices — the queue mutex
    // orders this add before every pop of the batch's tasks.
    let depth = shared.pending.fetch_add(n, Ordering::Relaxed) + n;
    zfgan_telemetry::gauge_wall("pool_queue_depth", &[], depth as f64);
    let nq = shared.queues.len();
    let start = shared.rr.fetch_add(1, Ordering::Relaxed);
    for i in 0..n {
        shared.queues[(start + i) % nq]
            .lock()
            .unwrap()
            .push_back(Task {
                header: hp,
                index: i,
            });
    }
    {
        let mut v = shared.version.lock().unwrap();
        *v = v.wrapping_add(1);
        shared.work_cv.notify_all();
    }

    // Help until our batch completes: drain queued tasks (ours first), and
    // only park — briefly — when every queue is empty, which means our
    // remaining tasks are executing on workers right now. The short timeout
    // also lets us resume helping if new (possibly our own, stolen-back)
    // work appears while we wait.
    loop {
        if *header.done.lock().unwrap() {
            break;
        }
        if let Some(t) = pop_any(shared, hp) {
            shared.pending.fetch_sub(1, Ordering::Relaxed);
            run_task(t);
            continue;
        }
        let d = header.done.lock().unwrap();
        if *d {
            break;
        }
        let (d, _) = header
            .done_cv
            .wait_timeout(d, Duration::from_millis(1))
            .unwrap();
        if *d {
            break;
        }
    }

    let failed = header.panicked.load(Ordering::SeqCst);
    if failed > 0 {
        Err(PoolError::TaskPanicked { failed, total: n })
    } else {
        Ok(())
    }
}

/// Scoped parallel for: `f(i)` for every `i in 0..n`, each exactly once.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) -> Result<(), PoolError> {
    run_batch(n, &f)
}

/// Raw-pointer wrapper for handing disjoint output slots to pool tasks.
#[derive(Debug)]
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Offsets the base pointer. A method (rather than field access) so
    /// closures capture the whole `Sync` wrapper, not the raw `.0` field —
    /// edition-2021 precise capture would otherwise grab the bare pointer
    /// and un-`Sync` the closure.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation behind the base pointer.
    unsafe fn add(self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

// SAFETY: every use partitions the pointee so each task touches a disjoint
// element/range; the buffer outlives the batch (it is owned by the caller
// of run_batch, which blocks until completion).
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Maps `f` over `0..n` on the pool and returns the results in index order.
/// If any task panics the surviving results are dropped and the typed error
/// is returned.
pub fn parallel_map<R, F>(n: usize, f: F) -> Result<Vec<R>, PoolError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let out = SendPtr(slots.as_mut_ptr());
    run_batch(n, &|i| {
        let r = f(i);
        // SAFETY: each index writes only its own slot; `slots` outlives the
        // batch because run_batch blocks until completion.
        unsafe { *out.add(i) = Some(r) };
    })?;
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every pool task fills its slot"))
        .collect())
}

/// Splits `data` into consecutive chunks of `chunk_len` (the last may be
/// shorter, exactly as `data.chunks_mut(chunk_len)`) and runs
/// `f(chunk_index, chunk)` for each on the pool. Returns nothing, so the
/// call itself performs **no heap allocation** — the primitive the
/// zero-allocation executor hot path in `zfgan-dataflow` fans out on.
/// Tasks that need to report back do so through caller-owned state
/// (disjoint chunk writes, or commutative atomics).
///
/// # Panics
///
/// Panics if `chunk_len == 0` and `data` is non-empty.
pub fn parallel_chunks_for<T, F>(data: &mut [T], chunk_len: usize, f: F) -> Result<(), PoolError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return Ok(());
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    let n = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    run_batch(n, &|i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunks [start, end) are pairwise disjoint across indices
        // and in bounds; `data` outlives the batch.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.add(start), end - start) };
        f(i, chunk);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn threads_from_parses_override() {
        assert_eq!(threads_from(Some("3"), 8), 3);
        assert_eq!(threads_from(Some(" 2 "), 8), 2);
        assert_eq!(threads_from(Some("0"), 8), 8);
        assert_eq!(threads_from(Some("nope"), 8), 8);
        assert_eq!(threads_from(None, 8), 8);
        assert_eq!(threads_from(None, 0), 1);
    }

    #[test]
    fn pool_threads_is_stable() {
        assert_eq!(pool_threads(), pool_threads());
        assert!(pool_threads() >= 1);
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, |i| i * i).unwrap();
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(parallel_map(0, |i| i).unwrap().is_empty());
    }

    #[test]
    fn chunks_for_visits_every_chunk_once() {
        let mut data: Vec<u64> = vec![0; 103];
        let visits = AtomicU64::new(0);
        parallel_chunks_for(&mut data, 10, |ci, chunk| {
            visits.fetch_add(1, Ordering::SeqCst);
            for v in chunk.iter_mut() {
                *v = ci as u64 + 1;
            }
        })
        .unwrap();
        assert_eq!(visits.load(Ordering::SeqCst), 11);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 10) as u64 + 1, "element {i} missed its chunk");
        }
        let mut empty: Vec<u64> = Vec::new();
        parallel_chunks_for(&mut empty, 4, |_, _| unreachable!()).unwrap();
    }

    #[test]
    fn panics_become_typed_errors_and_batch_completes() {
        let done = AtomicU64::new(0);
        let err = parallel_for(16, |i| {
            if i % 4 == 0 {
                panic!("task {i} exploded");
            }
            done.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap_err();
        assert_eq!(
            err,
            PoolError::TaskPanicked {
                failed: 4,
                total: 16
            }
        );
        assert_eq!(done.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for(8, |_| {
            let inner = parallel_map(8, |j| j as u64).unwrap();
            total.fetch_add(inner.iter().sum::<u64>(), Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 8 * 28);
    }

    /// Several submitters racing many tiny batches through one pool: the
    /// queue-depth counter must never exceed the tasks in flight (a wrap
    /// below zero reads as a huge count) and must drain back to zero.
    #[test]
    fn pending_stays_bounded_under_concurrent_submitters() {
        const WORKERS: usize = 3;
        const SUBMITTERS: usize = 4;
        const BATCHES: usize = 2000;
        // A private pool, so sibling tests' batches don't share the counter.
        // Its workers live for the process, like the global pool's.
        let shared: &'static Shared = Box::leak(Box::new(Shared::new(WORKERS)));
        for i in 0..WORKERS {
            std::thread::spawn(move || worker_loop(shared, i));
        }
        let go = &std::sync::Barrier::new(SUBMITTERS);
        let (started, finished) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
        let stop = &std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut samples = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    // Both tallies only grow, and a batch is counted as
                    // started before it is pushed and as finished after its
                    // last pop, so `started − finished` read around the
                    // sample bounds the tasks in flight at that moment.
                    let done = finished.load(Ordering::SeqCst);
                    let queued = shared.pending.load(Ordering::SeqCst);
                    let submitted = started.load(Ordering::SeqCst);
                    assert!(
                        queued <= submitted - done,
                        "pending {queued} exceeds the {} tasks in flight",
                        submitted - done
                    );
                    samples += 1;
                    std::thread::yield_now();
                }
                samples
            });
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    s.spawn(move || {
                        go.wait();
                        for b in 0..BATCHES {
                            let n = 2 + (t + b) % 7;
                            started.fetch_add(n, Ordering::SeqCst);
                            // Enough work per task that workers are busy
                            // and pop new tasks the moment they land.
                            run_on(shared, n, &|i| {
                                for k in 0..2000 {
                                    std::hint::black_box(i + k);
                                }
                            })
                            .unwrap();
                            finished.fetch_add(n, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in submitters {
                h.join().unwrap();
            }
            stop.store(true, Ordering::SeqCst);
            assert!(sampler.join().unwrap() > 0);
        });
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn single_task_runs_inline() {
        let mut x = 0u64;
        let xp = &mut x as *mut u64 as usize;
        parallel_for(1, |_| {
            // SAFETY: n == 1, runs inline on this thread.
            unsafe { *(xp as *mut u64) += 7 };
        })
        .unwrap();
        assert_eq!(x, 7);
    }
}
