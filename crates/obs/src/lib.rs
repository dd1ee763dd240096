//! Deterministic structured telemetry for the FeMux reproduction.
//!
//! The paper's claims are end-to-end pipeline numbers; when a figure
//! drifts, this crate is how we see *which stage* diverged and where the
//! time goes. It provides three primitives, all recorded into per-thread
//! sinks and merged deterministically:
//!
//! - **counters** ([`counter_add`]) — monotonic `u64` sums;
//! - **histograms** ([`observe`]) — fixed power-of-two buckets over
//!   `u64` observations (see [`hist`]);
//! - **trace events** ([`span`], [`instant`]) — timestamped entries on
//!   named *tracks*, exported as Chrome `chrome://tracing` JSON.
//!
//! # Clock rules
//!
//! Two clocks exist and they never mix:
//!
//! 1. **Virtual time** — simulator/Knative milliseconds, passed by the
//!    caller. All semantic events (cold starts, scale decisions) carry
//!    virtual timestamps and are fully reproducible.
//! 2. **Wall time** — quarantined in [`walltime`], the deterministic
//!    crates' one clock site, and only recorded into `wall.*`
//!    metrics while [`set_profiling`] is on (which waives the
//!    determinism guarantee for those metrics alone).
//!
//! # Determinism contract
//!
//! With profiling off, [`collect`]'s report serializes to byte-identical
//! JSON for any `FEMUX_THREADS` value: counters and histograms merge by
//! commutative integer addition, and events are ordered by
//! `(track, seq)` where the per-track sequence is assigned at emission.
//! The corollary contract for instrumentation sites: a track must only
//! be emitted from one sequential unit of work (one simulated app, one
//! training phase), and recorded quantities must not depend on
//! scheduling (count *work*, never workers or chunks).
//!
//! # Zero-cost when disabled
//!
//! The crate is inert by default. Every recording function first does
//! one relaxed atomic load and returns; nothing is allocated, no
//! thread-local is touched, and callers need no `if` around
//! instrumentation. Enabling is an explicit API call from the binary
//! layer (never an environment read — the deterministic crates are
//! forbidden those), typically via `femux-bench`'s shared
//! `--metrics-out` / `--trace-out` flags.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub mod hist;
mod report;
mod sink;
pub mod span;
pub mod validate;
pub mod walltime;

pub use report::Report;
pub use sink::FlowPhase;

/// Serializes tests (across this crate's modules) that toggle the
/// process-global switches.
#[cfg(test)]
pub(crate) static OBS_TEST_LOCK: std::sync::Mutex<()> =
    std::sync::Mutex::new(());

/// Master switch: when false, every recording call is a no-op.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Event recording switch (events cost memory; metrics alone are cheap).
static EVENTS: AtomicBool = AtomicBool::new(false);
/// Wall-clock profiling switch (waives determinism for `wall.*`).
static PROFILING: AtomicBool = AtomicBool::new(false);
/// Sequential namespace counter for repeated track families (see
/// [`next_track_epoch`]).
static TRACK_EPOCH: AtomicU64 = AtomicU64::new(0);

/// True when telemetry recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when trace-event recording is on (implies [`enabled`]).
#[inline]
pub fn events_enabled() -> bool {
    enabled() && EVENTS.load(Ordering::Relaxed)
}

/// True when wall-clock profiling is on (implies [`enabled`]).
#[inline]
pub fn profiling() -> bool {
    enabled() && PROFILING.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Turns trace-event recording on or off (no effect while disabled).
pub fn set_events(on: bool) {
    EVENTS.store(on, Ordering::Relaxed);
}

/// Turns wall-clock profiling on or off (no effect while disabled).
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Adds `delta` to the counter `name`.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    sink::with_local(|s| s.add(name, delta));
}

/// Records `value` into the histogram `name`.
#[inline]
pub fn observe(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    sink::with_local(|s| s.observe(name, value));
}

/// Records a complete span on `track` at virtual time `ts_us` lasting
/// `dur_us` microseconds.
#[inline]
pub fn span(
    track: &str,
    cat: &'static str,
    name: &str,
    ts_us: u64,
    dur_us: u64,
    args: &[(&'static str, u64)],
) {
    if !events_enabled() {
        return;
    }
    sink::with_local(|s| {
        s.push_event(track, cat, name, ts_us, Some(dur_us), args)
    });
}

/// Records an instant event on `track` at virtual time `ts_us`.
#[inline]
pub fn instant(
    track: &str,
    cat: &'static str,
    name: &str,
    ts_us: u64,
    args: &[(&'static str, u64)],
) {
    if !events_enabled() {
        return;
    }
    sink::with_local(|s| s.push_event(track, cat, name, ts_us, None, args));
}

/// Records a flow event on `track` at virtual time `ts_us`. Flow events
/// (`s`/`t`/`f` phases) draw arrows in the Chrome trace viewer between
/// causally linked points on different tracks; all phases sharing `id`
/// form one flow. Emit the `Start` before any `Step`/`End` and never
/// reuse an id for a second `Start` — `obs_validate` rejects both.
#[inline]
pub fn flow(
    track: &str,
    cat: &'static str,
    name: &str,
    ts_us: u64,
    phase: FlowPhase,
    id: u64,
) {
    if !events_enabled() {
        return;
    }
    sink::with_local(|s| s.push_flow(track, cat, name, ts_us, phase, id));
}

/// Folds this thread's telemetry into the process-global sink now.
///
/// Every thread that records telemetry and whose completion is awaited
/// with anything weaker than `JoinHandle::join` (notably the scoped
/// workers of `femux-par`: `std::thread::scope` can return before TLS
/// destructors run) must call this as its last act, or a subsequent
/// [`collect`] may miss its contribution.
pub fn flush_thread() {
    sink::flush_local();
}

/// Returns the next track-namespace ordinal. Repeated experiment phases
/// that would otherwise reuse track names (e.g. the same app simulated
/// under several policies) prefix their tracks with this ordinal so
/// every track stays a single sequential emission unit. Must be called
/// from sequential coordination code (never inside a parallel section),
/// so the ordinal sequence itself is deterministic.
pub fn next_track_epoch() -> u64 {
    TRACK_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Drains all recorded telemetry into a [`Report`] and resets the
/// sinks (including the track-epoch counter, so consecutive collection
/// windows start from the same state). Call after parallel sections
/// have returned (the `femux-par` scoped workers are joined by then, so
/// their sinks have merged).
pub fn collect() -> Report {
    TRACK_EPOCH.store(0, Ordering::Relaxed);
    Report::from_sink(sink::drain_all())
}

/// Enables telemetry for a scope; restores the previous switches and
/// drains any leftover state on drop. Intended for tests and benches so
/// one test's telemetry can never leak into another's report.
#[must_use = "telemetry turns back off when the guard drops"]
pub struct ObsGuard {
    was_enabled: bool,
    was_events: bool,
    was_profiling: bool,
}

/// Enables recording (and optionally events) until the guard drops.
pub fn scoped(events: bool) -> ObsGuard {
    let guard = ObsGuard {
        was_enabled: ENABLED.swap(true, Ordering::Relaxed),
        was_events: EVENTS.swap(events, Ordering::Relaxed),
        was_profiling: PROFILING.load(Ordering::Relaxed),
    };
    drop(collect()); // Start from a clean slate.
    guard
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        drop(collect());
        ENABLED.store(self.was_enabled, Ordering::Relaxed);
        EVENTS.store(self.was_events, Ordering::Relaxed);
        PROFILING.store(self.was_profiling, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::OBS_TEST_LOCK as OBS_LOCK;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _lock = OBS_LOCK.lock().expect("obs test lock");
        set_enabled(false);
        counter_add("x", 1);
        observe("h", 1);
        instant("t", "c", "e", 0, &[]);
        let r = collect();
        assert!(r.counters.is_empty());
        assert!(r.hists.is_empty());
        assert!(r.events.is_empty());
    }

    #[test]
    fn events_off_still_records_metrics() {
        let _lock = OBS_LOCK.lock().expect("obs test lock");
        let _g = scoped(false);
        counter_add("c", 2);
        span("t", "cat", "s", 0, 1, &[]);
        let r = collect();
        assert_eq!(r.counters.get("c"), Some(&2));
        assert!(r.events.is_empty(), "events gated separately");
    }

    #[test]
    fn collect_resets_state() {
        let _lock = OBS_LOCK.lock().expect("obs test lock");
        let _g = scoped(true);
        counter_add("once", 1);
        assert_eq!(collect().counters.get("once"), Some(&1));
        assert!(collect().counters.is_empty());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "tests the raw merge: each worker calls flush_thread itself"
    )]
    fn worker_thread_sinks_merge_into_collect() {
        let _lock = OBS_LOCK.lock().expect("obs test lock");
        let _g = scoped(true);
        counter_add("n", 1);
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    counter_add("n", 1);
                    observe("h", 10 * (i + 1));
                    instant(&format!("worker-{i}"), "test", "tick", i, &[]);
                    flush_thread();
                });
            }
        });
        let r = collect();
        assert_eq!(r.counters.get("n"), Some(&5));
        assert_eq!(r.hists.get("h").map(|h| h.count), Some(4));
        assert_eq!(r.events.len(), 4);
        // Export order is by track name, not by merge order.
        let tracks: Vec<&str> =
            r.events.iter().map(|e| e.track.as_str()).collect();
        assert_eq!(tracks, vec!["worker-0", "worker-1", "worker-2", "worker-3"]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "emulates a parallel section by hand: each worker calls flush_thread itself"
    )]
    fn merged_report_is_byte_identical_across_thread_layouts() {
        let _lock = OBS_LOCK.lock().expect("obs test lock");
        let run = |workers: usize| {
            let _g = scoped(true);
            let items: Vec<u64> = (0..32).collect();
            // Emulate a parallel section: each item is one sequential
            // unit of work owning its own track.
            std::thread::scope(|scope| {
                for chunk in items.chunks(items.len().div_ceil(workers)) {
                    scope.spawn(move || {
                        for &i in chunk {
                            counter_add("items", 1);
                            observe("value", i);
                            span(
                                &format!("unit-{i:02}"),
                                "test",
                                "work",
                                i * 10,
                                5,
                                &[("i", i)],
                            );
                        }
                        flush_thread();
                    });
                }
            });
            let r = collect();
            (r.metrics_json(), r.chrome_trace_json())
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn profiling_gates_wall_metrics() {
        let _lock = OBS_LOCK.lock().expect("obs test lock");
        let _g = scoped(false);
        let t0 = walltime::monotonic_micros();
        walltime::record_elapsed("wall.test_us", t0);
        assert!(collect().hists.is_empty(), "profiling off: no wall metrics");
        set_profiling(true);
        walltime::record_elapsed("wall.test_us", t0);
        let r = collect();
        set_profiling(false);
        #[cfg(feature = "walltime")]
        assert_eq!(r.hists.get("wall.test_us").map(|h| h.count), Some(1));
        #[cfg(not(feature = "walltime"))]
        assert_eq!(r.hists.get("wall.test_us").map(|h| h.count), Some(1));
    }
}
