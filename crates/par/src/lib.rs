//! # lowdeg-par
//!
//! A small, dependency-free scoped worker pool. Most of it serves the
//! *preprocessing* side of the pipeline (the pseudo-linear phase of
//! Theorems 2.5–2.7): anchor passes, canonical encodings, `E`-edge
//! generation, skip-table construction, the `2^m` inclusion–exclusion
//! terms, Gaifman-graph extraction and conformance cases. One combinator,
//! [`par_stream`], serves the answer side: it streams task outputs to the
//! caller in task order while the caller itself runs every task no worker
//! has claimed yet, so the first output arrives at serial delay. The
//! delay-*accounted* enumeration stays single-threaded by design — the
//! constant-delay claim is about sequential RAM operations per output.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every combinator is order-preserving: the output of
//!    [`par_map`]/[`par_flat_map`]/[`par_chunks`] is byte-for-byte identical
//!    to the serial fallback, regardless of thread count or scheduling.
//!    Work is split into fixed chunks, workers claim chunks through an
//!    atomic counter (dynamic load balancing), and results are reassembled
//!    by chunk index before returning. [`par_stream`] hands outputs to its
//!    consumer in task order instead of reassembling them.
//! 2. **No globals where practical.** Callers thread an explicit
//!    [`ParConfig`]; [`ParConfig::from_env`] is the single place the
//!    process-wide `LOWDEG_THREADS` knob is read.
//! 3. **Panic transparency.** A panic in a worker closure is re-raised on
//!    the calling thread with its original payload (no deadlock, no
//!    swallowed result).
//! 4. **Serial fallback.** Below [`ParConfig::min_items`] items (or with
//!    `threads == 1`) no thread is spawned at all — small inputs must not
//!    pay spawn latency, and `LOWDEG_THREADS=1` must produce a genuinely
//!    single-threaded run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TryRecvError};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count (`0` or unset
/// means "auto": one worker per available core, capped at
/// [`ParConfig::MAX_AUTO_THREADS`]).
pub const THREADS_ENV: &str = "LOWDEG_THREADS";

/// Parallelism knobs threaded explicitly through every build stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
    min_items: usize,
}

impl ParConfig {
    /// Auto mode never spawns more workers than this, however many cores
    /// the machine reports: the build stages are memory-bound well before
    /// 16 threads.
    pub const MAX_AUTO_THREADS: usize = 16;

    /// Default serial-fallback threshold: inputs shorter than this run
    /// inline. Matches the threshold the reduction used before the pool
    /// was extracted.
    pub const DEFAULT_MIN_ITEMS: usize = 256;

    /// A config with an explicit worker count (`0` means auto).
    pub fn with_threads(threads: usize) -> ParConfig {
        ParConfig {
            threads: if threads == 0 {
                auto_threads()
            } else {
                threads
            },
            min_items: Self::DEFAULT_MIN_ITEMS,
        }
    }

    /// The process-wide default: `LOWDEG_THREADS` when set and parseable,
    /// otherwise one worker per available core (capped).
    pub fn from_env() -> ParConfig {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(auto_threads);
        ParConfig::with_threads(threads)
    }

    /// A genuinely single-threaded config (every combinator runs inline).
    pub fn serial() -> ParConfig {
        ParConfig::with_threads(1)
    }

    /// Override the serial-fallback threshold. `min_items(1)` forces the
    /// pool to engage even on tiny inputs — the conformance oracle uses
    /// this so the parallel code paths are exercised on shrunk instances.
    pub fn min_items(mut self, min_items: usize) -> ParConfig {
        self.min_items = min_items.max(1);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether every combinator will run inline.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Whether an input of `len` items would run inline under this config.
    pub fn runs_serial(&self, len: usize) -> bool {
        self.threads <= 1 || len < self.min_items
    }
}

impl Default for ParConfig {
    fn default() -> ParConfig {
        ParConfig::from_env()
    }
}

fn auto_threads() -> usize {
    // `available_parallelism` parses cgroup limits on Linux — far too
    // expensive to re-run on every `from_env` (which sits behind lazy
    // accessors on hot paths). The value cannot change meaningfully within
    // a process lifetime, so resolve it once.
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(ParConfig::MAX_AUTO_THREADS)
    })
}

/// Order-preserving parallel map: `items.iter().map(f).collect()`, fanned
/// out over scoped workers. The closure must be pure up to its output —
/// it runs concurrently over disjoint chunks.
pub fn par_map<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    if cfg.runs_serial(items.len()) {
        return items.iter().map(f).collect();
    }
    run_chunked(cfg, items, |chunk| chunk.iter().map(&f).collect())
}

/// Order-preserving parallel flat-map: `items.iter().flat_map(f).collect()`.
pub fn par_flat_map<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    f: impl Fn(&T) -> Vec<U> + Sync,
) -> Vec<U> {
    if cfg.runs_serial(items.len()) {
        return items.iter().flat_map(f).collect();
    }
    run_chunked(cfg, items, |chunk| chunk.iter().flat_map(&f).collect())
}

/// Split `items` into exactly `parts` contiguous slices and map each
/// `(part index, slice)` to one result, in part order. The slice boundaries
/// are fixed by `parts` and `items.len()` alone — never by the thread count
/// — so concatenating or folding the results is deterministic under any
/// parallelism. When `parts` exceeds `items.len()` the trailing parts are
/// empty slices (still invoked: a partition always yields `parts` results);
/// `parts == 0` yields an empty result.
///
/// This is the fan-out primitive for producer passes that write disjoint
/// output ranges (sharded CSR extraction, subset-lattice slices): each part
/// sees its part index, so it can derive its slice of the output space.
pub fn par_partition<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    parts: usize,
    f: impl Fn(usize, &[T]) -> U + Sync,
) -> Vec<U> {
    if parts == 0 {
        return Vec::new();
    }
    let part_len = items.len().div_ceil(parts).max(1);
    let bounds = |p: usize| {
        let lo = (p * part_len).min(items.len());
        let hi = (lo + part_len).min(items.len());
        (lo, hi)
    };
    if parts < 2 || cfg.runs_serial(items.len()) {
        return (0..parts)
            .map(|p| {
                let (lo, hi) = bounds(p);
                f(p, &items[lo..hi])
            })
            .collect();
    }
    let indices: Vec<usize> = (0..parts).collect();
    run_chunked(cfg, &indices, |group| {
        group
            .iter()
            .map(|&p| {
                let (lo, hi) = bounds(p);
                f(p, &items[lo..hi])
            })
            .collect()
    })
}

/// Map over *fixed-size* contiguous chunks of `items` (the last chunk may
/// be shorter), producing one result per chunk, in chunk order. Because the
/// chunk boundaries are fixed by `chunk_len` — not by the thread count —
/// the result is identical under any parallelism.
pub fn par_chunks<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    chunk_len: usize,
    f: impl Fn(&[T]) -> U + Sync,
) -> Vec<U> {
    let chunk_len = chunk_len.max(1);
    if cfg.runs_serial(items.len()) {
        return items.chunks(chunk_len).map(f).collect();
    }
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    if chunks.len() < 2 {
        return chunks.into_iter().map(f).collect();
    }
    run_chunked(cfg, &chunks, |group| group.iter().map(|c| f(c)).collect())
}

/// Items a [`par_stream`] worker buffers before it hands them to the
/// caller in one batch (a batch ends on a whole record, so it may run a
/// record over).
const STREAM_BATCH: usize = 4096;

/// Batches a [`par_stream`] worker may have waiting for the caller before
/// its next hand-off blocks. With the caller's own budget of
/// `STREAM_DEPTH × STREAM_BATCH` buffered items (it starts a buffered task
/// only under that budget) this bounds what a stream holds to a few
/// batches per thread plus one task, not the whole output.
const STREAM_DEPTH: usize = 16;

/// What a [`par_stream`] worker sends the caller over its own channel, in
/// the order it claimed its tasks.
enum Msg<U> {
    /// The next whole records of the worker's current task.
    Batch(Vec<U>),
    /// The worker's current task ran to its end.
    Done,
    /// The worker's current task panicked with this payload.
    Panic(Box<dyn Any + Send>),
}

/// Order-preserving streaming fan-out: run every task and hand everything
/// the tasks emit to `consume`, in task order, as it is produced — the
/// streaming counterpart of [`par_map`], for outputs too large or too
/// latency-sensitive to materialize.
///
/// `run(task, sink)` emits a task's output as *records*, one `sink` call
/// each, and must return as soon as `sink` returns
/// [`ControlFlow::Break`]. `consume` sees the concatenation of all records
/// in task order (and, within a task, in emission order); each call gets
/// one or more whole records, so fixed-width records can be split again
/// with `chunks_exact`. `consume` returning [`ControlFlow::Break`] ends the
/// stream: no record after it is consumed.
///
/// Scheduling, with `cfg.threads()` counting the caller itself:
///
/// - tasks are claimed in index order through one atomic cursor; the caller
///   claims task 0 before any worker starts;
/// - whenever no worker has claimed the next task in order, the caller
///   claims and runs it itself, with `sink` feeding `consume` directly, so
///   the first record arrives at serial delay;
/// - a worker buffers its task's records and sends them to the caller in
///   batches over a bounded channel, so it runs ahead of the caller by a
///   bounded amount of buffered output;
/// - when the caller would wait on a worker, it claims the next free task
///   and runs it into a buffer of its own instead, within the same budget
///   a worker's channel has: a consumer faster than the workers keeps the
///   caller producing as well;
/// - a `Break` sets a stop flag that workers check between tasks and on
///   every record, so no new task starts after it and running ones return
///   at their next record.
///
/// A panic in a task the caller reaches is re-raised on the caller with
/// its original payload; a panic in `consume` unwinds through here after
/// the workers have stopped. A serial config, or fewer than
/// `cfg.min_items` tasks, runs every task inline without spawning.
pub fn par_stream<T: Sync, U: Clone + Send>(
    cfg: &ParConfig,
    tasks: &[T],
    run: impl Fn(&T, &mut dyn FnMut(&[U]) -> ControlFlow<()>) + Sync,
    mut consume: impl FnMut(&[U]) -> ControlFlow<()>,
) {
    let n = tasks.len();
    if n < 2 || cfg.runs_serial(n) {
        for task in tasks {
            if run_inline(&run, task, &mut consume).is_break() {
                return;
            }
        }
        return;
    }
    let workers = (cfg.threads - 1).min(n - 1);
    // The next unclaimed task; task 0 is the caller's before any worker
    // can claim. `cursor` and `stop` are Relaxed: they publish no other
    // data (tasks are shared read-only, records travel over the channels,
    // which synchronize). `owner[i]` is the id of the worker that claimed
    // task i, stored with Release and loaded with Acquire by the caller.
    let cursor = AtomicUsize::new(1);
    let stop = AtomicBool::new(false);
    let owner: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();

    std::thread::scope(|scope| {
        // set on every way out of the caller's loop — Break, the last
        // task, a re-raised worker panic, a panicking `consume` — so the
        // workers stop before the scope joins them
        struct StopOnExit<'a>(&'a AtomicBool);
        impl Drop for StopOnExit<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        // dropped before the scope joins: a worker blocked on a full
        // channel then wakes with a send error and returns
        let inboxes: Vec<_> = (0..workers)
            .map(|w| {
                let (tx, rx) = sync_channel(STREAM_DEPTH);
                let (cursor, stop, owner, run) = (&cursor, &stop, &owner, &run);
                scope.spawn(move || stream_worker(w, tx, tasks, run, cursor, stop, owner));
                rx
            })
            .collect();

        // tasks the caller ran into a buffer of its own while a worker
        // kept it waiting, in index order, and their total length
        let mut ahead: VecDeque<(usize, Vec<U>)> = VecDeque::new();
        let mut ahead_len = 0;
        // declared after the buffers, so dropped before them
        let _stop_on_exit = StopOnExit(&stop);
        let mut next = 0;
        let mut mine = true;
        loop {
            if mine {
                if run_inline(&run, &tasks[next], &mut consume).is_break() {
                    return;
                }
            } else if ahead.front().is_some_and(|&(i, _)| i == next) {
                let (_, records) = ahead.pop_front().expect("front checked");
                ahead_len -= records.len();
                if !records.is_empty() && consume(&records).is_break() {
                    return;
                }
            } else {
                // a worker took `next`; it publishes its id right after
                let w = loop {
                    let w = owner[next].load(Ordering::Acquire);
                    if w != usize::MAX {
                        break w;
                    }
                    std::thread::yield_now();
                };
                loop {
                    let msg = match inboxes[w].try_recv() {
                        Ok(msg) => msg,
                        Err(TryRecvError::Empty) => {
                            // rather than wait on the worker, run the next
                            // free task into a buffer, within the budget
                            // one worker's channel has
                            if ahead_len < STREAM_DEPTH * STREAM_BATCH {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i < n {
                                    let records = run_buffered(&run, &tasks[i]);
                                    ahead_len += records.len();
                                    ahead.push_back((i, records));
                                    continue;
                                }
                            }
                            inboxes[w].recv().expect(UNREPORTED)
                        }
                        Err(TryRecvError::Disconnected) => panic!("{UNREPORTED}"),
                    };
                    match msg {
                        Msg::Batch(records) => {
                            if consume(&records).is_break() {
                                return;
                            }
                        }
                        Msg::Done => break,
                        Msg::Panic(payload) => std::panic::resume_unwind(payload),
                    }
                }
            }
            next += 1;
            if next == n {
                return;
            }
            mine = cursor
                .compare_exchange(next, next + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        }
    });
}

/// A worker hung up before reporting the end of a task it claimed — the
/// worker loop never does.
const UNREPORTED: &str = "a worker left its claimed task unreported";

/// Run one [`par_stream`] task on the calling thread into a buffer.
fn run_buffered<T, U: Clone>(
    run: &impl Fn(&T, &mut dyn FnMut(&[U]) -> ControlFlow<()>),
    task: &T,
) -> Vec<U> {
    let mut out = Vec::new();
    run(task, &mut |records: &[U]| {
        out.extend_from_slice(records);
        ControlFlow::Continue(())
    });
    out
}

/// Run one [`par_stream`] task on the calling thread straight into
/// `consume`; returns whether `consume` asked to stop.
fn run_inline<T, U>(
    run: &impl Fn(&T, &mut dyn FnMut(&[U]) -> ControlFlow<()>),
    task: &T,
    consume: &mut impl FnMut(&[U]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut flow = ControlFlow::Continue(());
    run(task, &mut |records: &[U]| {
        if flow.is_continue() {
            flow = consume(records);
        }
        flow
    });
    flow
}

/// One [`par_stream`] worker: claim tasks in index order until they run
/// out or the caller stops, sending each task's records in batches and
/// then its end (or its panic payload) over `tx`.
fn stream_worker<T, U: Clone>(
    w: usize,
    tx: SyncSender<Msg<U>>,
    tasks: &[T],
    run: &impl Fn(&T, &mut dyn FnMut(&[U]) -> ControlFlow<()>),
    cursor: &AtomicUsize,
    stop: &AtomicBool,
    owner: &[AtomicUsize],
) {
    let mut batch: Vec<U> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= tasks.len() {
            return;
        }
        owner[i].store(w, Ordering::Release);
        let mut alive = true;
        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(&tasks[i], &mut |r: &[U]| {
                if stop.load(Ordering::Relaxed) {
                    alive = false;
                    return ControlFlow::Break(());
                }
                batch.extend_from_slice(r);
                if batch.len() >= STREAM_BATCH
                    && tx.send(Msg::Batch(take_batch(&mut batch))).is_err()
                {
                    alive = false;
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            })
        }));
        if let Err(payload) = ran {
            let _ = tx.send(Msg::Panic(payload));
            return;
        }
        if !alive {
            return;
        }
        if !batch.is_empty() && tx.send(Msg::Batch(take_batch(&mut batch))).is_err() {
            return;
        }
        if tx.send(Msg::Done).is_err() {
            return;
        }
    }
}

/// Hand off a filled batch, leaving an empty one of the same capacity.
fn take_batch<U>(batch: &mut Vec<U>) -> Vec<U> {
    let cap = batch.len();
    std::mem::replace(batch, Vec::with_capacity(cap))
}

/// The shared engine: split `items` into fixed chunks, let workers claim
/// chunks through an atomic cursor, reassemble per-chunk outputs in index
/// order. Worker panics are re-raised on the caller with their original
/// payload.
fn run_chunked<T: Sync, U: Send>(
    cfg: &ParConfig,
    items: &[T],
    per_chunk: impl Fn(&[T]) -> Vec<U> + Sync,
) -> Vec<U> {
    // Over-split relative to the worker count so uneven chunks (skewed
    // ball sizes, hub vertices) rebalance dynamically.
    let target_chunks = cfg.threads * 4;
    let chunk_len = items.len().div_ceil(target_chunks).max(1);
    let n_chunks = items.len().div_ceil(chunk_len);
    let workers = cfg.threads.min(n_chunks);

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Vec<U>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n_chunks {
                        return;
                    }
                    let lo = idx * chunk_len;
                    let hi = (lo + chunk_len).min(items.len());
                    let out = per_chunk(&items[lo..hi]);
                    *slots[idx].lock().expect("result slot poisoned") = out;
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });

    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.append(&mut slot.into_inner().expect("result slot poisoned"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg(threads: usize) -> ParConfig {
        ParConfig::with_threads(threads).min_items(1)
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(&cfg(threads), &items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_flat_map_preserves_order_with_uneven_outputs() {
        let items: Vec<usize> = (0..3_000).collect();
        let f = |&x: &usize| -> Vec<usize> { (0..x % 7).map(|i| x * 10 + i).collect() };
        let expect: Vec<usize> = items.iter().flat_map(f).collect();
        for threads in [2, 5, 16] {
            assert_eq!(par_flat_map(&cfg(threads), &items, f), expect);
        }
    }

    #[test]
    fn par_chunks_is_chunklen_stable() {
        let items: Vec<u32> = (0..1_001).collect();
        let f = |c: &[u32]| c.iter().map(|&x| x as u64).sum::<u64>();
        let expect: Vec<u64> = items.chunks(64).map(f).collect();
        for threads in [1, 4, 9] {
            assert_eq!(par_chunks(&cfg(threads), &items, 64, f), expect);
        }
        // total is the full sum whatever the chunking
        let total: u64 = par_chunks(&cfg(4), &items, 17, f).iter().sum();
        assert_eq!(total, 1_000 * 1_001 / 2);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..4_096).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&cfg(4), &items, |&x| {
                if x == 2_000 {
                    panic!("worker exploded at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("worker exploded at 2000"), "{msg}");
    }

    #[test]
    fn below_threshold_runs_inline() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..100).collect();
        // default min_items (256) > 100: must not spawn
        let out = par_map(&ParConfig::with_threads(8), &items, |&x| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            x + 1
        });
        assert_eq!(out.len(), 100);
        let ids = seen.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&format!("{:?}", std::thread::current().id())));
    }

    #[test]
    fn serial_config_never_spawns() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..10_000).collect();
        par_map(&ParConfig::serial().min_items(1), &items, |&x| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            x
        });
        let ids = seen.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&format!("{:?}", std::thread::current().id())));
    }

    #[test]
    fn large_inputs_actually_fan_out() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..50_000).collect();
        par_map(&cfg(4), &items, |&x| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            x
        });
        assert!(
            seen.into_inner().unwrap().len() > 1,
            "expected multiple worker threads"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&cfg(8), &empty, |&x| x).is_empty());
        assert!(par_flat_map(&cfg(8), &empty, |&x| vec![x]).is_empty());
        assert!(par_chunks(&cfg(8), &empty, 4, |c| c.len()).is_empty());
        assert_eq!(par_map(&cfg(8), &[7u32], |&x| x * 2), vec![14]);
    }

    #[test]
    fn par_partition_preserves_order_and_boundaries() {
        let items: Vec<u32> = (0..10_007).collect();
        let f = |p: usize, s: &[u32]| {
            (
                p,
                s.first().copied(),
                s.iter().map(|&x| x as u64).sum::<u64>(),
            )
        };
        for parts in [1usize, 2, 7, 16, 64] {
            let part_len = items.len().div_ceil(parts);
            let expect: Vec<_> = (0..parts)
                .map(|p| {
                    let lo = (p * part_len).min(items.len());
                    let hi = (lo + part_len).min(items.len());
                    f(p, &items[lo..hi])
                })
                .collect();
            for threads in [1, 2, 3, 8] {
                let got = par_partition(&cfg(threads), &items, parts, f);
                assert_eq!(got, expect, "parts={parts} threads={threads}");
            }
        }
        // every element lands in exactly one part
        let sums = par_partition(&cfg(4), &items, 13, |_, s| {
            s.iter().map(|&x| x as u64).sum::<u64>()
        });
        assert_eq!(sums.len(), 13);
        assert_eq!(sums.iter().sum::<u64>(), 10_006 * 10_007 / 2);
    }

    #[test]
    fn par_partition_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..4_096).collect();
        let result = std::panic::catch_unwind(|| {
            par_partition(&cfg(4), &items, 16, |p, _| {
                if p == 9 {
                    panic!("partition exploded at {p}");
                }
                p
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("partition exploded at 9"), "{msg}");
    }

    #[test]
    fn par_partition_empty_and_singleton_slices() {
        // parts > len: exactly `parts` results, the trailing ones empty
        let items: Vec<u32> = vec![10, 20];
        let got = par_partition(&cfg(8), &items, 5, |p, s| (p, s.to_vec()));
        assert_eq!(
            got,
            vec![
                (0, vec![10]),
                (1, vec![20]),
                (2, vec![]),
                (3, vec![]),
                (4, vec![]),
            ]
        );
        // empty input: every part sees the empty slice
        let empty: Vec<u32> = Vec::new();
        let got = par_partition(&cfg(8), &empty, 3, |p, s| (p, s.len()));
        assert_eq!(got, vec![(0, 0), (1, 0), (2, 0)]);
        // zero parts: empty result
        assert!(par_partition(&cfg(8), &items, 0, |p, _| p).is_empty());
    }

    #[test]
    fn par_partition_threshold_fallback_runs_inline() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..100).collect();
        // default min_items (256) > 100: must not spawn
        let out = par_partition(&ParConfig::with_threads(8), &items, 4, |p, s| {
            seen.lock()
                .unwrap()
                .insert(format!("{:?}", std::thread::current().id()));
            (p, s.len())
        });
        assert_eq!(out.len(), 4);
        let ids = seen.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&format!("{:?}", std::thread::current().id())));
    }

    #[test]
    fn par_partition_large_inputs_fan_out() {
        let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..50_000).collect();
        par_partition(&cfg(4), &items, 16, |p, s| {
            for _ in s {
                seen.lock()
                    .unwrap()
                    .insert(format!("{:?}", std::thread::current().id()));
            }
            (p, s.len())
        });
        assert!(
            seen.into_inner().unwrap().len() > 1,
            "expected multiple worker threads"
        );
    }

    /// A task of the stream tests: emits `records(i)` records `[i, j]`,
    /// each after `spin` iterations of busy work.
    fn emit(
        i: usize,
        records: usize,
        spin: u64,
        sink: &mut dyn FnMut(&[usize]) -> ControlFlow<()>,
    ) {
        for j in 0..records {
            for s in 0..spin {
                std::hint::black_box(s);
            }
            if sink(&[i, j]).is_break() {
                return;
            }
        }
    }

    /// Consume a stream of `[task, record]` pairs until `stop_at` (if any),
    /// returning the pairs seen.
    fn drain_pairs(
        cfg: &ParConfig,
        tasks: &[usize],
        run: impl Fn(&usize, &mut dyn FnMut(&[usize]) -> ControlFlow<()>) + Sync,
        mut stop_at: impl FnMut(usize, usize) -> bool,
    ) -> Vec<(usize, usize)> {
        let mut seen = Vec::new();
        par_stream(cfg, tasks, run, |records| {
            for r in records.chunks_exact(2) {
                seen.push((r[0], r[1]));
                if stop_at(r[0], r[1]) {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        seen
    }

    #[test]
    fn par_stream_preserves_order_with_uneven_costs() {
        let tasks: Vec<usize> = (0..120).collect();
        // some tasks emit nothing, some several batches; costs vary 8x
        let records = |i: usize| (i % 7) * 1_500;
        let run = |&i: &usize, sink: &mut dyn FnMut(&[usize]) -> ControlFlow<()>| {
            emit(i, records(i), (i % 8) as u64 * 4, sink)
        };
        let expect: Vec<(usize, usize)> = tasks
            .iter()
            .flat_map(|&i| (0..records(i)).map(move |j| (i, j)))
            .collect();
        for threads in [1, 2, 3, 8] {
            let got = drain_pairs(&cfg(threads), &tasks, run, |_, _| false);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_stream_first_task_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let tasks: Vec<usize> = (0..64).collect();
        for threads in [2, 8] {
            let first = Mutex::new(None);
            drain_pairs(
                &cfg(threads),
                &tasks,
                |&i, sink| {
                    if i == 0 {
                        *first.lock().unwrap() = Some(std::thread::current().id());
                    }
                    emit(i, 3, 0, sink)
                },
                |_, _| false,
            );
            assert_eq!(first.into_inner().unwrap(), Some(caller));
        }
    }

    #[test]
    fn par_stream_caller_runs_ahead_while_a_worker_is_busy() {
        // task 1 (a worker's: the caller is inside task 0 when the worker
        // claims it) emits nothing until task 2 has run; a caller that
        // waited on task 1 instead of running task 2 ahead would stall it
        // until the deadline
        let caller = std::thread::current().id();
        let tasks: Vec<usize> = (0..8).collect();
        let task2_on = Mutex::new(None);
        let task1_started = std::sync::Barrier::new(2);
        let (task2_ran, stalled) = (AtomicBool::new(false), AtomicBool::new(false));
        let got = drain_pairs(
            &cfg(2),
            &tasks,
            |&i, sink| {
                if i <= 1 {
                    task1_started.wait();
                }
                if i == 1 {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while !task2_ran.load(Ordering::SeqCst) {
                        if std::time::Instant::now() > deadline {
                            stalled.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                if i == 2 {
                    *task2_on.lock().unwrap() = Some(std::thread::current().id());
                    task2_ran.store(true, Ordering::SeqCst);
                }
                emit(i, 3, 0, sink)
            },
            |_, _| false,
        );
        let expect: Vec<(usize, usize)> = tasks
            .iter()
            .flat_map(|&i| (0..3).map(move |j| (i, j)))
            .collect();
        assert_eq!(got, expect);
        assert!(!stalled.load(Ordering::SeqCst), "task 2 waited for task 1");
        assert_eq!(task2_on.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn par_stream_break_at_every_task_starts_no_new_task() {
        let tasks: Vec<usize> = (0..48).collect();
        let expect: Vec<(usize, usize)> = tasks
            .iter()
            .flat_map(|&i| (0..8).map(move |j| (i, j)))
            .collect();
        for threads in [2, 3] {
            let workers = threads - 1;
            for k in 0..tasks.len() {
                let starts = AtomicUsize::new(0);
                let mut at_break = None;
                let got = drain_pairs(
                    &cfg(threads),
                    &tasks,
                    |&i, sink| {
                        starts.fetch_add(1, Ordering::SeqCst);
                        emit(i, 8, 2_000, sink)
                    },
                    |i, _| {
                        let hit = i == k;
                        if hit {
                            at_break = Some(starts.load(Ordering::SeqCst));
                        }
                        hit
                    },
                );
                // the serial prefix, up to and including the first record
                // of task k
                assert_eq!(got, expect[..k * 8 + 1], "threads={threads} k={k}");
                // each worker may have claimed one task between the
                // consumer's Break and the stop flag; none after that
                let (at_break, after) = (at_break.unwrap(), starts.load(Ordering::SeqCst));
                assert!(
                    after <= at_break + workers,
                    "threads={threads} k={k}: {after} starts after Break at {at_break}"
                );
            }
        }
    }

    #[test]
    fn par_stream_break_mid_task_stops_running_tasks() {
        let tasks: Vec<usize> = (0..16).collect();
        for threads in [2, 3] {
            let workers = threads - 1;
            for k in [0, 1, 5] {
                let emitted = AtomicUsize::new(0);
                let (starts, mut at_break) = (AtomicUsize::new(0), None);
                drain_pairs(
                    &cfg(threads),
                    &tasks,
                    |&i, sink| {
                        starts.fetch_add(1, Ordering::SeqCst);
                        emit(i, 100_000, 20, &mut |r| {
                            emitted.fetch_add(1, Ordering::SeqCst);
                            sink(r)
                        })
                    },
                    |i, j| {
                        let hit = i == k && j == 500;
                        if hit {
                            at_break = Some((
                                emitted.load(Ordering::SeqCst),
                                starts.load(Ordering::SeqCst),
                            ));
                        }
                        hit
                    },
                );
                let (emitted_then, starts_then) = at_break.expect("Break reached");
                let (emitted_now, starts_now) = (
                    emitted.load(Ordering::SeqCst),
                    starts.load(Ordering::SeqCst),
                );
                // a running task returns at its next record, well inside
                // the batch it was filling
                assert!(
                    emitted_now - emitted_then < workers * STREAM_BATCH / 4,
                    "threads={threads} k={k}: {} records after Break",
                    emitted_now - emitted_then
                );
                assert!(starts_now <= starts_then + workers);
            }
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload")
    }

    #[test]
    fn par_stream_worker_panic_propagates_with_payload() {
        let caller = std::thread::current().id();
        let tasks: Vec<usize> = (0..32).collect();
        for threads in [2, 3, 8] {
            let panicked_on = Mutex::new(None);
            let started = std::sync::Barrier::new(2);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                drain_pairs(
                    &cfg(threads),
                    &tasks,
                    |&i, sink| {
                        // the caller holds task 0 until task 1 has started,
                        // so task 1 runs on a worker
                        if i <= 1 {
                            started.wait();
                        }
                        if i == 1 {
                            *panicked_on.lock().unwrap() = Some(std::thread::current().id());
                            emit(i, 5_000, 0, sink);
                            panic!("task {i} exploded");
                        }
                        emit(i, 10, 0, sink)
                    },
                    |_, _| false,
                );
            }));
            let msg = panic_message(result.expect_err("panic must propagate"));
            assert!(msg.contains("task 1 exploded"), "{msg}");
            let on = panicked_on.into_inner().unwrap().expect("task 1 ran");
            assert_ne!(on, caller, "threads={threads}: task 1 ran on the caller");
        }
    }

    #[test]
    fn par_stream_consumer_panic_propagates_with_payload() {
        let tasks: Vec<usize> = (0..32).collect();
        for threads in [2, 3, 8] {
            for at in [(0, 3), (7, 0), (31, 99)] {
                let result = std::panic::catch_unwind(|| {
                    par_stream(
                        &cfg(threads),
                        &tasks,
                        |&i, sink| emit(i, 100, 10, sink),
                        |records| {
                            for r in records.chunks_exact(2) {
                                if (r[0], r[1]) == at {
                                    panic!("consumer exploded at {at:?}");
                                }
                            }
                            ControlFlow::Continue(())
                        },
                    )
                });
                let msg = panic_message(result.expect_err("panic must propagate"));
                assert!(
                    msg.contains(&format!("consumer exploded at {at:?}")),
                    "{msg}"
                );
            }
        }
    }

    #[test]
    fn par_stream_serial_config_never_spawns() {
        let tasks: Vec<usize> = (0..100).collect();
        for cfg in [
            ParConfig::serial().min_items(1),
            // default min_items (256) > 100 tasks
            ParConfig::with_threads(8),
        ] {
            let seen: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
            let got = drain_pairs(
                &cfg,
                &tasks,
                |&i, sink| {
                    seen.lock()
                        .unwrap()
                        .insert(format!("{:?}", std::thread::current().id()));
                    emit(i, 2, 0, sink)
                },
                |_, _| false,
            );
            assert_eq!(got.len(), 200);
            let ids = seen.into_inner().unwrap();
            assert_eq!(ids.len(), 1);
            assert!(ids.contains(&format!("{:?}", std::thread::current().id())));
        }
    }

    #[test]
    fn par_stream_empty_and_singleton_task_lists() {
        let none: Vec<usize> = Vec::new();
        assert!(drain_pairs(&cfg(4), &none, |&i, s| emit(i, 3, 0, s), |_, _| false).is_empty());
        let one = vec![7usize];
        let got = drain_pairs(&cfg(4), &one, |&i, s| emit(i, 3, 0, s), |_, _| false);
        assert_eq!(got, vec![(7, 0), (7, 1), (7, 2)]);
    }

    #[test]
    fn with_threads_zero_means_auto() {
        let c = ParConfig::with_threads(0);
        assert!(c.threads() >= 1);
        assert!(c.threads() <= ParConfig::MAX_AUTO_THREADS);
    }

    #[test]
    fn runs_serial_thresholds() {
        let c = ParConfig::with_threads(8);
        assert!(c.runs_serial(ParConfig::DEFAULT_MIN_ITEMS - 1));
        assert!(!c.runs_serial(ParConfig::DEFAULT_MIN_ITEMS));
        assert!(ParConfig::serial().runs_serial(usize::MAX));
        assert!(!c.min_items(1).runs_serial(1));
    }
}
