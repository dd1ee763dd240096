//! Deterministic parallel execution for the offline FeMux pipeline.
//!
//! The offline pipeline — forecast labelling, feature extraction,
//! classifier fitting — is embarrassingly parallel across apps, blocks,
//! restarts, and trees, and dominates reproduction compute (the paper
//! reports ~120 compute-hours of labelling). This crate provides the one
//! substrate every hot loop shares:
//!
//! - [`par_map`]: order-preserving map over a slice; item `i`'s result
//!   lands at output index `i` regardless of which worker computed it or
//!   when it finished.
//! - [`par_map_chunked`]: the same, scheduled in fixed-size contiguous
//!   chunks to amortize dispatch for cheap per-item work.
//!
//! **Determinism contract:** both functions return *exactly* what the
//! sequential `items.iter().map(f).collect()` returns, for any thread
//! count. Work units never share mutable state, results are collected by
//! input index, and any cross-item reduction is left to the (sequential)
//! caller, so floating-point evaluation order never depends on
//! scheduling. The test suites in `crates/core` and `tests/` enforce
//! byte-identical output between `FEMUX_THREADS=1` and multi-threaded
//! runs of the whole training pipeline.
//!
//! **Panic contract:** a panic inside the mapped closure is propagated
//! to the caller (via [`std::thread::scope`]'s join), never swallowed.
//!
//! Thread count comes from, in priority order: a process-wide test
//! override ([`override_threads`]), the `FEMUX_THREADS` environment
//! variable, then [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Process-wide thread-count override; 0 means "no override".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Returns the worker count parallel sections will use.
///
/// Priority: active [`override_threads`] guard, then `FEMUX_THREADS`
/// (values that fail to parse, or `0`, are ignored), then the machine's
/// available parallelism, then 1.
#[expect(
    clippy::disallowed_methods,
    reason = "FEMUX_THREADS only sizes the pool; par_map output is identical at any count"
)]
pub fn thread_count() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("FEMUX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Forces [`thread_count`] to `n` until the returned guard drops.
///
/// Intended for tests and benchmarks that compare thread counts within
/// one process. The override is process-global; because every parallel
/// section is deterministic by construction, concurrently running tests
/// observe at worst a different *speed*, never a different result.
pub fn override_threads(n: usize) -> ThreadCountGuard {
    let previous = OVERRIDE.swap(n, Ordering::Relaxed);
    ThreadCountGuard { previous }
}

/// Restores the previous thread-count override on drop.
#[must_use = "the override ends when the guard drops"]
pub struct ThreadCountGuard {
    previous: usize,
}

impl Drop for ThreadCountGuard {
    fn drop(&mut self) {
        OVERRIDE.store(self.previous, Ordering::Relaxed);
    }
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Each worker repeatedly claims the next unprocessed index (dynamic
/// scheduling, so skewed per-item costs still balance) and sends
/// `(index, result)` back to the caller, which slots results by index.
/// With one thread (or one item) the map runs inline with no pool.
///
/// # Pure closures
///
/// The `F: Fn + Sync` bound makes rustc reject a closure that would
/// accumulate through its captures in completion order. Each of these
/// fails to compile (the error code rustc reports is in the comment):
///
/// ```compile_fail
/// // E0594: assignment to a captured variable in a `Fn` closure.
/// let mut total = 0.0;
/// femux_par::par_map(&[1.0, 2.0], |_, x: &f64| total += *x);
/// ```
///
/// ```compile_fail
/// // E0596: `push` through a captured `&mut Vec`.
/// fn collect(items: &[u64], sink: &mut Vec<usize>) {
///     femux_par::par_map(items, |i, _| sink.push(i));
/// }
/// ```
///
/// ```compile_fail
/// // E0277: a captured `Cell` is not `Sync`.
/// let n = std::cell::Cell::new(0u64);
/// femux_par::par_map(&[1u64, 2], |_, x| n.set(n.get() + x));
/// ```
///
/// ```compile_fail
/// // E0277: a captured `RefCell` is not `Sync`.
/// let v = std::cell::RefCell::new(Vec::new());
/// femux_par::par_map(&[1u64, 2], |i, _| v.borrow_mut().push(i));
/// ```
///
/// ```compile_fail
/// // E0596: `BorrowMut` on a captured `Vec` borrows it mutably.
/// use std::borrow::BorrowMut;
/// let mut v: Vec<usize> = Vec::new();
/// femux_par::par_map(&[1u64, 2], |i, _| {
///     let w: &mut Vec<usize> = v.borrow_mut();
///     w.push(i)
/// });
/// ```
///
/// Shared state behind a lock or an atomic does compile (`unsafe` is
/// denied workspace-wide), and no lint sees it. What it would break is
/// thread-count invariance, so that is what is tested: every library
/// caller's output is compared at 1 and 8 threads by an identity test
/// (DESIGN.md lists them), and a new caller needs one too.
///
/// # Panics
///
/// Re-raises any panic from `f` once all workers have stopped.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    record_dispatch(items.len());
    par_map_impl(items, thread_count(), f)
}

/// Counts one parallel-section dispatch. Only scheduling-invariant
/// quantities are recorded (sections and items — never workers spawned
/// or chunks formed, which legitimately vary with the thread count), so
/// telemetry reports stay byte-identical across `FEMUX_THREADS`.
fn record_dispatch(items: usize) {
    femux_obs::counter_add("par.sections", 1);
    femux_obs::counter_add("par.items", items as u64);
}

/// Flushes the worker's telemetry sink on scope exit — normal return
/// *and* unwind — so a panicking worker never loses the observations it
/// already made.
struct FlushOnExit;

impl Drop for FlushOnExit {
    fn drop(&mut self) {
        femux_obs::flush_thread();
    }
}

/// The actual map, shared by every public entry point so each dispatch
/// is counted exactly once regardless of which path (inline, pooled,
/// chunked) executes it.
fn par_map_impl<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let n = items.len();
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            #[expect(
                clippy::disallowed_methods,
                reason = "the one pool: every worker holds FlushOnExit, so its telemetry outlives the thread"
            )]
            scope.spawn(move || {
                // Scoped threads wake the owner before TLS destructors
                // run, so the telemetry sink must be flushed explicitly
                // or a drain right after this section could miss it.
                // A drop guard keeps that true when `f` panics: the
                // unwind still flushes whatever the worker recorded
                // before dying.
                let _flush = FlushOnExit;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = f(i, &items[i]);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // If a worker panics it drops its sender without sending; the
        // loop then ends early and the scope re-raises the panic.
        for (i, result) in rx {
            out[i] = Some(result);
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index produced a result"))
        .collect()
}

/// Maps `f` over `items` in parallel, scheduling whole contiguous chunks
/// of `chunk_len` items per dispatch, and preserving input order.
///
/// Semantically identical to [`par_map`]; use it when per-item work is
/// too cheap to pay one channel send per item (e.g. nearest-centroid
/// assignment over thousands of small rows). Chunk boundaries depend
/// only on `chunk_len`, never on the thread count, so output is
/// byte-identical across thread counts.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; re-raises any panic from `f`.
pub fn par_map_chunked<T, U, F>(
    items: &[T],
    chunk_len: usize,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    record_dispatch(items.len());
    let threads = thread_count();
    if threads <= 1 || items.len() <= chunk_len {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let mapped = par_map_impl(&chunks, threads, |ci, chunk| {
        let base = ci * chunk_len;
        chunk
            .iter()
            .enumerate()
            .map(|(j, x)| f(base + j, x))
            .collect::<Vec<U>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in mapped {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-global override/env.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn preserves_order() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _t = override_threads(8);
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_matches_per_item() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _t = override_threads(4);
        let items: Vec<f64> = (0..5_001).map(|i| i as f64).collect();
        let a = par_map(&items, |_, &x| x.sin());
        let b = par_map_chunked(&items, 64, |_, &x| x.sin());
        assert_eq!(a, b);
    }

    #[test]
    fn single_thread_equals_multi_thread() {
        let _guard = ENV_LOCK.lock().unwrap();
        let items: Vec<u64> = (0..4_096).collect();
        let one = {
            let _t = override_threads(1);
            par_map(&items, |_, &x| x.wrapping_mul(0x9E37_79B9))
        };
        let many = {
            let _t = override_threads(7);
            par_map(&items, |_, &x| x.wrapping_mul(0x9E37_79B9))
        };
        assert_eq!(one, many);
    }

    #[test]
    fn skewed_work_still_ordered() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _t = override_threads(4);
        // Early items are the slowest, so naive static chunking would
        // finish out of order; dynamic claiming plus index-slotting must
        // still return input order.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(&items, |_, &x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn propagates_panics() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _t = override_threads(4);
        let items: Vec<u32> = (0..256).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |_, &x| {
                assert!(x != 100, "boom at {x}");
                x
            })
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn flush_runs_even_when_a_worker_panics() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _t = override_threads(4);
        let _obs = femux_obs::scoped(false);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |_, &x| {
                femux_obs::counter_add("par.test.items_started", 1);
                assert!(x != 40, "boom at {x}");
                x
            })
        });
        assert!(result.is_err(), "panic must still propagate");
        // Every item's counter increment must survive — including the
        // panicking item's own, recorded on the worker that died. The
        // surviving workers drain the remaining items (the receiver
        // runs until every sender drops), and the drop guard flushes
        // the dead worker's sink mid-unwind, so the merged report is
        // complete, not short by one worker's share.
        let report = femux_obs::collect();
        assert_eq!(
            report.counters.get("par.test.items_started"),
            Some(&64),
            "a panicking worker must not lose its telemetry"
        );
    }

    #[test]
    fn env_var_sets_thread_count() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("FEMUX_THREADS", "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var("FEMUX_THREADS", "not-a-number");
        assert!(thread_count() >= 1);
        std::env::set_var("FEMUX_THREADS", "0");
        assert!(thread_count() >= 1);
        std::env::remove_var("FEMUX_THREADS");
        assert!(thread_count() >= 1);
    }

    #[test]
    fn override_wins_and_restores() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("FEMUX_THREADS", "2");
        {
            let _t = override_threads(5);
            assert_eq!(thread_count(), 5);
        }
        assert_eq!(thread_count(), 2);
        std::env::remove_var("FEMUX_THREADS");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _t = override_threads(4);
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41u8], |_, &x| x + 1), vec![42]);
        assert_eq!(par_map_chunked(&[41u8], 16, |_, &x| x + 1), vec![42]);
    }
}
