//! Deterministic chunked parallelism for the compute kernels.
//!
//! Every hot kernel in the workspace (CSR SpMV, dense matvec, the α-Cut
//! operator, k-means, affinity/superlink weighting) parallelizes through
//! this module, and all of them obey one rule that makes parallel output
//! **bit-identical** to serial output:
//!
//! > *The algorithm is a function of the chunking, never of the thread
//! > count.* Work is split into chunks at **fixed boundaries** derived only
//! > from the problem size and a constant chunk length; each chunk is
//! > reduced sequentially in index order; chunk partials are merged in
//! > **chunk order** (an ordered left fold). The thread count only decides
//! > *which worker* computes each chunk — never how results combine.
//!
//! In particular no reduction ever accumulates floats in
//! arrival/atomics order. Consequences:
//!
//! * running with 1, 2, 4 or 64 threads produces byte-for-byte identical
//!   results (see `tests/integration_parallel.rs`);
//! * for inputs no longer than one chunk the chunked kernel degenerates to
//!   the plain sequential loop, so small problems are also bit-identical
//!   to the historical serial code.
//!
//! [`ThreadPool`] is a plain configuration value (`Copy`): it holds a
//! thread count and spawns scoped threads per call — no persistent worker
//! threads, channels, or locks. At `threads == 1` everything runs inline on
//! the caller's thread. The pool size defaults to the `ROADPART_THREADS`
//! environment variable with a serial fallback of 1.

use crate::vecops;
use std::ops::Range;

/// Environment variable naming the default pool width
/// (see [`ThreadPool::from_env`]).
pub const THREADS_ENV: &str = "ROADPART_THREADS";

/// Default chunk length for the workspace kernels. Fixed — it must never
/// depend on the thread count, or determinism across pool sizes is lost.
pub const DEFAULT_CHUNK: usize = 1024;

/// A chunked scoped-thread pool configuration.
///
/// Cheap to copy and embed in config structs; spawns `std::thread::scope`
/// workers per parallel call. `threads == 1` (the default without
/// `ROADPART_THREADS`) executes inline with zero spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool executing everything inline on the caller's thread.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A pool of `threads` workers; clamped up to at least 1.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Pool sized from the `ROADPART_THREADS` environment variable.
    ///
    /// Unset or unparsable values fall back to serial (1). The value `0`
    /// means "all available cores".
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(0) => Self::new(
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1),
                ),
                Ok(t) => Self::new(t),
                Err(_) => Self::serial(),
            },
            Err(_) => Self::serial(),
        }
    }

    /// Number of worker threads this pool uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(index, task)` for every task and returns the results in
    /// task order.
    ///
    /// Tasks are assigned to workers statically (round-robin by index), so
    /// the mapping is reproducible; results are gathered by index, so the
    /// output order never depends on scheduling. With one thread (or at
    /// most one task) everything runs inline in index order.
    ///
    /// # Panics
    /// If a task panics, the panic is re-raised on the caller once every
    /// worker has been joined — a worker failure can never hang the pool.
    /// When several workers panic, the payload of the lowest-indexed
    /// worker wins.
    pub fn map_tasks<T, U, F>(&self, tasks: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let n = tasks.len();
        if self.threads == 1 || n <= 1 {
            return tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let workers = self.threads.min(n);
        // Static round-robin assignment: worker w owns tasks w, w+W, ...
        let mut buckets: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            buckets[i % workers].push((i, t));
        }
        let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut first_panic = None;
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move || {
                        bucket
                            .into_iter()
                            .map(|(i, t)| (i, f(i, t)))
                            .collect::<Vec<(usize, U)>>()
                    })
                })
                .collect();
            // Join every worker before surfacing any panic: no detached
            // threads, no hang, deterministic payload choice.
            for handle in handles {
                match handle.join() {
                    Ok(pairs) => {
                        for (i, u) in pairs {
                            slots[i] = Some(u);
                        }
                    }
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
        });
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        slots.into_iter().flatten().collect()
    }

    /// Maps `f` over the fixed chunking of `0..len` and returns the
    /// per-chunk results in chunk order.
    ///
    /// Chunk boundaries come from [`chunk_ranges`] — they depend only on
    /// `len` and `chunk`, never on the thread count, which is what makes
    /// every kernel built on this bit-identical across pool sizes.
    pub fn chunked_map<U, F>(&self, len: usize, chunk: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Range<usize>) -> U + Sync,
    {
        if self.threads == 1 {
            // Serial fast path: walk the same fixed boundaries without
            // materializing the range list.
            let chunk = chunk.max(1);
            let mut out = Vec::with_capacity(len.div_ceil(chunk));
            let mut start = 0;
            while start < len {
                let end = (start + chunk).min(len);
                out.push(f(start..end));
                start = end;
            }
            return out;
        }
        self.map_tasks(chunk_ranges(len, chunk), |_, r| f(r))
    }

    /// Ordered chunked reduction: folds the per-chunk partials of
    /// [`ThreadPool::chunked_map`] left-to-right in chunk order, starting
    /// from `init`.
    ///
    /// Equivalent to
    /// `chunk_ranges(len, chunk).map(f).fold(init, merge)` — the parallel
    /// and sequential results are *exactly* equal (proptest-pinned),
    /// because merge order is chunk order regardless of which worker
    /// finished first.
    pub fn chunked_reduce<A, F, M>(
        &self,
        len: usize,
        chunk: usize,
        init: A,
        f: F,
        mut merge: M,
    ) -> A
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
        M: FnMut(A, A) -> A,
    {
        if self.threads == 1 {
            // Serial fast path: fold each chunk as it is produced — same
            // boundaries, same left-to-right merge order, zero allocation.
            let chunk = chunk.max(1);
            let mut acc = init;
            let mut start = 0;
            while start < len {
                let end = (start + chunk).min(len);
                acc = merge(acc, f(start..end));
                start = end;
            }
            return acc;
        }
        self.chunked_map(len, chunk, f)
            .into_iter()
            .fold(init, merge)
    }

    /// Runs `f(range, chunk)` over disjoint mutable chunks of `out`,
    /// where `range` is the index span of the chunk within `out`.
    ///
    /// This is the write-side primitive: each output chunk is owned by
    /// exactly one task, so no synchronization (and no ordering hazard)
    /// exists by construction.
    pub fn for_each_chunk_mut<T, F>(&self, out: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        if self.threads == 1 {
            // Serial fast path: iterate the chunks in place.
            let mut start = 0;
            for slice in out.chunks_mut(chunk) {
                let end = start + slice.len();
                f(start..end, slice);
                start = end;
            }
            return;
        }
        let ranges = chunk_ranges(out.len(), chunk);
        let tasks: Vec<(Range<usize>, &mut [T])> =
            ranges.into_iter().zip(out.chunks_mut(chunk)).collect();
        self.map_tasks(tasks, |_, (range, slice)| f(range, slice));
    }

    /// [`ThreadPool::for_each_chunk_mut`] that also gathers a per-chunk
    /// result, returned in chunk order.
    ///
    /// The read-modify-reduce primitive behind the bound-pruned k-means
    /// pass: each chunk owns a mutable slice of per-point state *and*
    /// produces a partial (inertia, sums, counts) the caller merges in chunk
    /// order. Same determinism contract as every other chunked kernel:
    /// boundaries depend only on `(out.len(), chunk)` and results are
    /// ordered by chunk index, never by completion.
    pub fn chunked_map_mut<T, U, F>(&self, out: &mut [T], chunk: usize, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(Range<usize>, &mut [T]) -> U + Sync,
    {
        let chunk = chunk.max(1);
        if self.threads == 1 {
            let mut results = Vec::with_capacity(out.len().div_ceil(chunk));
            let mut start = 0;
            for slice in out.chunks_mut(chunk) {
                let end = start + slice.len();
                results.push(f(start..end, slice));
                start = end;
            }
            return results;
        }
        let ranges = chunk_ranges(out.len(), chunk);
        let tasks: Vec<(Range<usize>, &mut [T])> =
            ranges.into_iter().zip(out.chunks_mut(chunk)).collect();
        self.map_tasks(tasks, |_, (range, slice)| f(range, slice))
    }
}

impl Default for ThreadPool {
    /// Defaults to [`ThreadPool::from_env`]: `ROADPART_THREADS` with a
    /// serial fallback.
    fn default() -> Self {
        Self::from_env()
    }
}

/// The fixed chunking of `0..len` into spans of `chunk` (last one short).
///
/// Boundaries are a pure function of `(len, chunk)` — every deterministic
/// kernel in the workspace derives its work split from this.
#[must_use]
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// Chunked dot product with ordered partial-sum merge.
///
/// Bit-identical across pool sizes; identical to [`vecops::dot`] whenever
/// `a.len() <= DEFAULT_CHUNK` (single chunk).
#[must_use]
pub fn dot(pool: &ThreadPool, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    pool.chunked_reduce(
        a.len(),
        DEFAULT_CHUNK,
        0.0,
        |r| vecops::dot(&a[r.start..r.end], &b[r]),
        |x, y| x + y,
    )
}

/// Chunked `y += alpha * x`. Elementwise, so bit-identical to
/// [`vecops::axpy`] at every pool size.
pub fn axpy(pool: &ThreadPool, alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    pool.for_each_chunk_mut(y, DEFAULT_CHUNK, |r, yc| vecops::axpy(alpha, &x[r], yc));
}

/// Chunked `x *= alpha` in place. Elementwise, so bit-identical to
/// [`vecops::scale`] at every pool size.
pub fn scale(pool: &ThreadPool, alpha: f64, x: &mut [f64]) {
    pool.for_each_chunk_mut(x, DEFAULT_CHUNK, |_, xc| vecops::scale(alpha, xc));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_and_are_disjoint() {
        for (len, chunk) in [(0, 4), (1, 4), (4, 4), (5, 4), (12, 5), (7, 1), (3, 0)] {
            let ranges = chunk_ranges(len, chunk);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn map_tasks_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.map_tasks((0..37).collect::<Vec<usize>>(), |i, t| {
                assert_eq!(i, t);
                t * 10
            });
            assert_eq!(out, (0..37).map(|t| t * 10).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn chunked_reduce_equals_sequential_fold() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.137 - 3.0).collect();
        let expected: f64 = chunk_ranges(data.len(), DEFAULT_CHUNK)
            .into_iter()
            .map(|r| vecops::dot(&data[r.clone()], &data[r]))
            .fold(0.0, |x, y| x + y);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let got = dot(&pool, &data, &data);
            assert_eq!(got.to_bits(), expected.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_all_indices() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut out = vec![0usize; 2500];
            pool.for_each_chunk_mut(&mut out, 64, |r, c| {
                for (v, i) in c.iter_mut().zip(r) {
                    *v = i + 1;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
        }
    }

    #[test]
    fn chunked_map_mut_is_identical_across_pool_sizes() {
        let reference = {
            let pool = ThreadPool::serial();
            let mut state = vec![0.0f64; 3000];
            let partials = pool.chunked_map_mut(&mut state, 128, |r, s| {
                let mut acc = 0.0;
                for (v, i) in s.iter_mut().zip(r) {
                    *v = (i as f64).sin();
                    acc += *v;
                }
                acc
            });
            (state, partials)
        };
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let mut state = vec![0.0f64; 3000];
            let partials = pool.chunked_map_mut(&mut state, 128, |r, s| {
                let mut acc = 0.0;
                for (v, i) in s.iter_mut().zip(r) {
                    *v = (i as f64).sin();
                    acc += *v;
                }
                acc
            });
            assert_eq!(state, reference.0, "threads={threads}");
            assert_eq!(partials, reference.1, "threads={threads}");
        }
    }

    #[test]
    fn axpy_and_scale_match_serial() {
        let x: Vec<f64> = (0..5000).map(|i| (i as f64).sin()).collect();
        let mut y1: Vec<f64> = (0..5000).map(|i| (i as f64).cos()).collect();
        let mut y2 = y1.clone();
        vecops::axpy(0.37, &x, &mut y1);
        axpy(&ThreadPool::new(4), 0.37, &x, &mut y2);
        assert_eq!(y1, y2);
        vecops::scale(-1.25, &mut y1);
        scale(&ThreadPool::new(4), -1.25, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.chunked_map(0, 8, |_| 1usize), Vec::<usize>::new());
        assert_eq!(pool.chunked_reduce(0, 8, 42usize, |_| 1, |a, b| a + b), 42);
        let mut empty: [f64; 0] = [];
        pool.for_each_chunk_mut(&mut empty, 8, |_, _| {});
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(|| {
            pool.map_tasks((0..64).collect::<Vec<usize>>(), |_, t| {
                assert!(t != 17, "injected worker failure");
                t
            })
        });
        assert!(result.is_err());
        // The pool is a plain value; it remains fully usable afterwards.
        let ok = pool.map_tasks(vec![1, 2, 3], |_, t| t * 2);
        assert_eq!(ok, vec![2, 4, 6]);
    }
}
