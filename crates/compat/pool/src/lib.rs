//! `vsj-pool`: a zero-dependency scoped work pool.
//!
//! The workspace has no registry access, so this crate plays the role
//! rayon would otherwise fill: a fixed set of worker threads, per-worker
//! injection queues with work stealing, and a scoped spawn API that lets
//! tasks borrow from the caller's stack. Two entry points cover every
//! hot path in the repo:
//!
//! - [`WorkPool::scope`] — structured fork/join. Tasks spawned inside the
//!   closure may borrow `'env` data; the scope does not return until every
//!   task has run, and the first task panic is re-raised at the call site.
//! - [`WorkPool::parallel_map_indexed`] — chunked data-parallel map whose
//!   output is **always in submission order**, regardless of which worker
//!   ran which chunk. This is the primitive the bit-identity contract is
//!   built on: callers get exactly the `Vec` a serial loop would produce.
//!   [`WorkPool::for_each_chunked`] is its in-place twin: the same chunks
//!   fill a preallocated output, each with its own scratch state.
//!
//! # Determinism
//!
//! The pool never changes *what* is computed, only *where*. Results are
//! collected positionally, so any pure `f` yields byte-identical output at
//! every thread count. A pool built with `threads == 1` spawns no worker
//! threads at all: `spawn` runs its closure inline and the map degenerates
//! to the exact serial loop, giving a true legacy execution path.
//!
//! # Scheduling
//!
//! Tasks are injected round-robin across per-worker queues (each a
//! `Mutex<VecDeque>` — contention is negligible because tasks are coarse
//! chunks, not elements). An idle worker first drains its own queue, then
//! steals from the others; steals are counted in [`PoolStats`]. The thread
//! that opened a scope participates too: while waiting for the scope to
//! drain it pops and runs queued tasks, which both shortens the wait and
//! makes nested scopes (a pooled task that itself uses a pool) deadlock-free
//! by construction — the waiter can always finish the remaining work itself.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Chunks created per thread by [`WorkPool::parallel_map_indexed`] and
/// [`WorkPool::for_each_chunked`]. More
/// chunks than threads lets stealing smooth out skew (one heavy chunk no
/// longer serializes the pass) at the cost of slightly more queue traffic.
const CHUNKS_PER_THREAD: usize = 4;

/// A heap task whose environment lifetime has been erased. Soundness is
/// provided by [`WorkPool::scope`], which refuses to return (even on panic)
/// until every task it spawned has finished running.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Callback invoked with the wall-clock duration of each executed task.
pub type TaskObserver = Arc<dyn Fn(Duration) + Send + Sync>;

/// Monotonic counters describing pool activity since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallelism degree the pool was built with (`1` ⇒ serial inline).
    pub threads: usize,
    /// Tasks executed to completion (by workers or helping callers).
    pub tasks_total: u64,
    /// Tasks a worker popped from another worker's queue.
    pub steals_total: u64,
    /// Tasks currently sitting in queues, not yet picked up.
    pub queued: u64,
}

struct Shared {
    /// One injection queue per worker; round-robin targets.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Guards the sleep state; `Condvar` wakes idle workers.
    sleep: Mutex<bool>, // the bool is the shutdown flag
    wake: Condvar,
    /// Round-robin cursor for task injection.
    next_queue: AtomicUsize,
    /// Number of tasks sitting in queues (popped ⇒ decremented).
    queued: AtomicU64,
    tasks_total: AtomicU64,
    steals_total: AtomicU64,
    observer: Mutex<Option<TaskObserver>>,
}

impl Shared {
    /// Pop a task, preferring queue `home` and stealing from the rest.
    /// `home >= queues.len()` means "no home queue" (a helping caller);
    /// every successful pop is then counted as a steal-free drain.
    fn pop(&self, home: usize) -> Option<Task> {
        let n = self.queues.len();
        for offset in 0..n {
            let idx = (home % n + offset) % n;
            let task = self.queues[idx]
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            if let Some(task) = task {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                if offset != 0 && home < n {
                    self.steals_total.fetch_add(1, Ordering::Relaxed);
                }
                return Some(task);
            }
        }
        None
    }

    /// Run one task, feeding the observer (if any) its wall-clock cost.
    fn run(&self, task: Task) {
        let observer = self
            .observer
            .lock()
            .expect("pool observer poisoned")
            .clone();
        match observer {
            Some(obs) => {
                let start = Instant::now();
                task();
                obs(start.elapsed());
            }
            None => task(),
        }
        self.tasks_total.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: Arc<Shared>, home: usize) {
    loop {
        if let Some(task) = shared.pop(home) {
            shared.run(task);
            continue;
        }
        let mut shutdown = shared.sleep.lock().expect("pool sleep lock poisoned");
        loop {
            if *shutdown {
                return;
            }
            if shared.queued.load(Ordering::Acquire) > 0 {
                break; // recheck queues with the lock released
            }
            shutdown = shared
                .wake
                .wait(shutdown)
                .expect("pool sleep lock poisoned");
        }
    }
}

/// Book-keeping for one [`WorkPool::scope`] invocation: outstanding task
/// count plus the first captured panic payload.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the [`WorkPool::scope`] closure. Tasks may borrow
/// any `'env` data; the scope joins them all before returning.
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkPool,
    state: Arc<ScopeState>,
    _marker: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawn a task onto the pool. With `threads == 1` the closure runs
    /// inline, immediately — the exact serial execution order.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.threads <= 1 {
            f();
            return;
        }
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().expect("scope panic slot poisoned");
                slot.get_or_insert(payload);
            }
            state.pending.fetch_sub(1, Ordering::AcqRel);
        });
        // SAFETY: the erased task borrows at most `'env` data. `scope()`
        // blocks (helping to drain queues) until `state.pending` hits zero,
        // and `pending` is only decremented after a task body has finished
        // running — so every task completes before the borrows it holds can
        // expire, including when the scope closure or a sibling panics.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        self.pool.inject(task);
    }
}

/// A fixed-size scoped work pool. See the [crate docs](crate) for the
/// design; construction spawns the workers, drop joins them.
pub struct WorkPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkPool {
    /// Build a pool with the given parallelism degree. `threads <= 1`
    /// spawns no worker threads: every spawn runs inline on the caller
    /// (the exact legacy serial path). `threads = n > 1` spawns `n`
    /// workers; the caller additionally helps while waiting on a scope.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = if threads <= 1 { 0 } else { threads };
        let shared = Arc::new(Shared {
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            sleep: Mutex::new(false),
            wake: Condvar::new(),
            next_queue: AtomicUsize::new(0),
            queued: AtomicU64::new(0),
            tasks_total: AtomicU64::new(0),
            steals_total: AtomicU64::new(0),
            observer: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vsj-pool-{home}"))
                    .spawn(move || worker_loop(shared, home))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
            threads,
        }
    }

    /// The parallelism degree this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the pool's activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            tasks_total: self.shared.tasks_total.load(Ordering::Relaxed),
            steals_total: self.shared.steals_total.load(Ordering::Relaxed),
            queued: self.shared.queued.load(Ordering::Acquire),
        }
    }

    /// Install (or clear) a per-task latency observer. The callback runs on
    /// worker threads after each task completes; keep it cheap.
    pub fn set_observer(&self, observer: Option<TaskObserver>) {
        *self.shared.observer.lock().expect("pool observer poisoned") = observer;
    }

    fn inject(&self, task: Task) {
        let slot =
            self.shared.next_queue.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.queues[slot]
            .lock()
            .expect("pool queue poisoned")
            .push_back(task);
        self.shared.queued.fetch_add(1, Ordering::AcqRel);
        // Wake one worker. Taking the sleep lock orders this notification
        // after any in-progress `queued == 0` check, so wakeups cannot be
        // lost between a worker's check and its wait.
        let _guard = self.shared.sleep.lock().expect("pool sleep lock poisoned");
        self.shared.wake.notify_one();
    }

    /// Structured fork/join: run `f` with a [`Scope`] handle, then block
    /// until every spawned task has finished. While blocked, the calling
    /// thread pops and runs queued tasks itself. The first panic — from the
    /// closure or any task — is re-raised here after the join completes, so
    /// borrows held by in-flight tasks never outlive the data they point to.
    pub fn scope<'env, F, T>(&self, f: F) -> T
    where
        F: FnOnce(&Scope<'_, 'env>) -> T,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            _marker: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join barrier: help run queued work until all our tasks are done.
        // This must happen even if `f` panicked — tasks may borrow `'env`.
        while scope.state.pending.load(Ordering::Acquire) > 0 {
            match self.shared.pop(usize::MAX) {
                Some(task) => self.shared.run(task),
                None => std::thread::yield_now(),
            }
        }
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                let panic = scope
                    .state
                    .panic
                    .lock()
                    .expect("scope panic slot poisoned")
                    .take();
                if let Some(payload) = panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Apply `f` to every element of `items`, returning the results **in
    /// submission order**. Work is split into `threads × 4` contiguous
    /// chunks so stealing can absorb skew; with `threads == 1` (or a tiny
    /// input) this is exactly the serial `iter().enumerate().map()` loop.
    pub fn parallel_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n < 2 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let chunk_len = self.chunk_len(n);
        let chunk_count = n.div_ceil(chunk_len);
        let slots: Vec<Mutex<Option<Vec<R>>>> =
            (0..chunk_count).map(|_| Mutex::new(None)).collect();
        self.scope(|scope| {
            for (ci, slot) in slots.iter().enumerate() {
                let start = ci * chunk_len;
                let end = (start + chunk_len).min(n);
                let f = &f;
                scope.spawn(move || {
                    let out: Vec<R> = (start..end).map(|i| f(i, &items[i])).collect();
                    *slot.lock().expect("map slot poisoned") = Some(out);
                });
            }
        });
        let mut result = Vec::with_capacity(n);
        for slot in slots {
            let chunk = slot
                .into_inner()
                .expect("map slot poisoned")
                .expect("scope joined ⇒ every chunk ran");
            result.extend(chunk);
        }
        result
    }

    /// Run `each(scratch, item, words)` for every element of `items`,
    /// where `words` is the item's own `out.len() / items.len()` words
    /// of `out`, over the contiguous chunks of
    /// [`parallel_map_indexed`](Self::parallel_map_indexed); each chunk
    /// makes one `scratch`. Every item writes only its own words, so
    /// `out` is the serial loop's at any thread count; with
    /// `threads == 1` (or a tiny input) this is exactly that loop.
    pub fn for_each_chunked<T, U, W>(
        &self,
        items: &[T],
        out: &mut [U],
        scratch: impl Fn() -> W + Sync,
        each: impl Fn(&mut W, &T, &mut [U]) + Sync,
    ) where
        T: Sync,
        U: Send,
    {
        let n = items.len();
        if n == 0 {
            assert!(out.is_empty(), "no items, so no output words");
            return;
        }
        let width = out.len() / n;
        assert!(
            width > 0 && out.len() == n * width,
            "out must hold the same nonzero number of words for every item"
        );
        let run = |items: &[T], out: &mut [U]| {
            let mut state = scratch();
            for (item, words) in items.iter().zip(out.chunks_exact_mut(width)) {
                each(&mut state, item, words);
            }
        };
        if self.threads <= 1 || n < 2 {
            return run(items, out);
        }
        let chunk_len = self.chunk_len(n);
        let run = &run;
        self.scope(|scope| {
            for (items, out) in items
                .chunks(chunk_len)
                .zip(out.chunks_mut(chunk_len * width))
            {
                scope.spawn(move || run(items, out));
            }
        });
    }

    /// Items per chunk when `n ≥ 2` items fan out: `threads × 4` chunks.
    fn chunk_len(&self, n: usize) -> usize {
        n.div_ceil((self.threads * CHUNKS_PER_THREAD).min(n))
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut shutdown = self.shared.sleep.lock().expect("pool sleep lock poisoned");
            *shutdown = true;
            self.shared.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Parse a `VSJ_POOL_THREADS`-style override: a positive integer wins,
/// anything else (absent, empty, malformed, zero) falls back to `None`.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The default parallelism degree: `VSJ_POOL_THREADS` when set to a
/// positive integer, else [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    let env = std::env::var("VSJ_POOL_THREADS").ok();
    parse_threads(env.as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide shared pool, built lazily with [`default_threads`].
/// Free functions with no pool of their own (checksum chunking, offline
/// index builds) run here; the engine owns a pool sized by its config.
pub fn global() -> &'static WorkPool {
    static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkPool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkPool::new(threads);
            let got = pool.parallel_map_indexed(&items, |i, x| x * 3 + i as u64);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = WorkPool::new(4);
        assert_eq!(
            pool.parallel_map_indexed(&[] as &[u8], |_, x| *x),
            Vec::<u8>::new()
        );
        assert_eq!(
            pool.parallel_map_indexed(&[7u8], |i, x| *x as usize + i),
            vec![7]
        );
    }

    #[test]
    fn for_each_chunked_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().flat_map(|x| [x * 3, x + 1]).collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkPool::new(threads);
            let mut out = vec![0u64; items.len() * 2];
            pool.for_each_chunked(&items, &mut out, Vec::new, |buf, x, words| {
                buf.clear();
                buf.extend([x * 3, x + 1]);
                words.copy_from_slice(buf);
            });
            assert_eq!(out, serial, "threads={threads}");
        }
        let pool = WorkPool::new(4);
        pool.for_each_chunked(&[] as &[u8], &mut [] as &mut [u8], || (), |_, _, _| {});
        let mut one = [0u8; 3];
        pool.for_each_chunked(&[7u8], &mut one, || (), |_, x, w| w.fill(*x));
        assert_eq!(one, [7; 3]);
    }

    #[test]
    fn single_thread_pool_spawns_no_workers_and_runs_inline() {
        let pool = WorkPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let on_caller = std::thread::current().id();
        pool.scope(|scope| {
            scope.spawn(move || {
                assert_eq!(std::thread::current().id(), on_caller);
            });
        });
    }

    #[test]
    fn scope_joins_borrowed_tasks() {
        let pool = WorkPool::new(4);
        let mut slots = vec![0u32; 64];
        pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || *slot = i as u32 + 1);
            }
        });
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = WorkPool::new(2);
        let hit = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom from task"));
                scope.spawn(|| {
                    hit.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err());
        // The sibling task still ran to completion before the unwind.
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        // And the pool remains fully usable afterwards.
        let got = pool.parallel_map_indexed(&[1u64, 2, 3], |_, x| x * 2);
        assert_eq!(got, vec![2, 4, 6]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = WorkPool::new(2);
        let items: Vec<u64> = (0..64).collect();
        let got = pool.parallel_map_indexed(&items, |_, &x| {
            // A pooled task that itself fans out on the same pool.
            let inner = pool.parallel_map_indexed(&[x, x + 1], |_, &y| y * 2);
            inner.iter().sum::<u64>()
        });
        let want: Vec<u64> = items.iter().map(|&x| 2 * x + 2 * (x + 1)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stats_count_tasks_and_drain_to_empty_queues() {
        let pool = WorkPool::new(2);
        let before = pool.stats().tasks_total;
        let _ = pool.parallel_map_indexed(&(0..256).collect::<Vec<u32>>(), |_, x| x + 1);
        let stats = pool.stats();
        assert!(stats.tasks_total > before, "chunks executed as tasks");
        assert_eq!(stats.queued, 0, "scope drained every queue");
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn observer_sees_each_task() {
        let pool = WorkPool::new(2);
        let seen = Arc::new(AtomicU32::new(0));
        let seen2 = Arc::clone(&seen);
        pool.set_observer(Some(Arc::new(move |_d| {
            seen2.fetch_add(1, Ordering::Relaxed);
        })));
        let _ = pool.parallel_map_indexed(&(0..100).collect::<Vec<u32>>(), |_, x| x * x);
        assert!(seen.load(Ordering::Relaxed) > 0);
        pool.set_observer(None);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let pool = Arc::new(WorkPool::new(4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..20u64 {
                        let items: Vec<u64> = (0..200).collect();
                        let got =
                            pool.parallel_map_indexed(&items, |i, x| x + t + round + i as u64);
                        let want: Vec<u64> = items
                            .iter()
                            .enumerate()
                            .map(|(i, x)| x + t + round + i as u64)
                            .collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-1")), None);
        assert_eq!(parse_threads(Some("nope")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
        assert!(global().threads() >= 1);
    }
}
