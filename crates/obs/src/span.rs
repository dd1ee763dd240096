//! Causal lifecycle spans: per-invocation latency attribution.
//!
//! The aggregate layer (counters, histograms) answers *how much* delay a
//! fleet paid; this module answers *which* invocation paid it and *which*
//! scaling decision caused it. The engine samples invocations with a
//! deterministic seeded hash keyed on `(app, invocation_index)`
//! ([`SpanSampler`]), and for each sampled invocation records an
//! [`InvocationSpan`]: the arrival time, the wait split into queue vs
//! cold segments, the execution time, and a [`WaitCause`] naming the
//! pod or policy decision responsible.
//!
//! # Exact accounting
//!
//! The span segments are integer milliseconds taken from the same
//! variables the engine bills, and the derived delay uses the engine's
//! exact rounding op: [`InvocationSpan::delay_secs`] computes
//! `(queue_wait_ms + cold_wait_ms) as f64 / 1_000.0`, which must equal
//! the engine's `delays_secs` entry for that invocation *bitwise*. The
//! oracle reference simulator derives spans independently and the diff
//! layer compares them field-for-field.
//!
//! # Rate 0 is the no-op
//!
//! [`SpanSampler::new`] returns `None` for a non-positive rate, and the
//! engine keeps no sampler in that case — the run takes the exact same
//! branches as one with the span layer absent, so output is
//! byte-identical. This is the "compiled-out" contract: turning the
//! layer off is not "sample nothing", it is "never look".
//!
//! # Guarded emission
//!
//! Trace-event emission for spans goes through [`SpanGuard`], whose
//! `Drop` closes the span. The raw open/close pair underneath it is
//! private to this module, so no caller can open a span without the
//! guard and leak it on a panic or early return, which would
//! desynchronize per-track sequences.

use std::sync::atomic::{AtomicU64, Ordering};

/// Span-layer configuration carried in `SimConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanConfig {
    /// Sampling rate in `[0, 1]`; non-positive disables the layer.
    pub rate: f64,
    /// Sampler seed; same seed + same workload ⇒ same sample set.
    pub seed: u64,
}

impl SpanConfig {
    /// Samples every invocation (tests, oracle cross-checks).
    pub fn all(seed: u64) -> Self {
        SpanConfig { rate: 1.0, seed }
    }
}

/// Deterministic invocation sampler: a seeded 64-bit mix of
/// `(app, invocation_index)` against a rate threshold. Stateless, so
/// the engine and the oracle agree on the sample set by construction.
#[derive(Debug, Clone, Copy)]
pub struct SpanSampler {
    seed: u64,
    threshold: u64,
}

impl SpanSampler {
    /// Builds a sampler, or `None` when the rate is non-positive (the
    /// span layer is then compiled out of the run entirely).
    pub fn new(cfg: &SpanConfig) -> Option<SpanSampler> {
        if cfg.rate.is_nan() || cfg.rate <= 0.0 {
            return None;
        }
        let rate = cfg.rate.min(1.0);
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        Some(SpanSampler { seed: cfg.seed, threshold })
    }

    /// True when invocation `index` of `app` is in the sample.
    #[inline]
    pub fn sample(&self, app: u64, index: u64) -> bool {
        mix64(self.seed, app, index) <= self.threshold
    }
}

/// SplitMix64-style finalizer over the sampler key. Any fixed 64-bit
/// mixer works; what matters is that it is a pure function of
/// `(seed, app, index)` with no run-order dependence.
#[inline]
fn mix64(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Provenance of a pod: which decision brought it into existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodOrigin {
    /// Part of the configured min-scale floor at simulation start.
    MinScale,
    /// Spawned reactively by admission at `at_ms` (an arrival found no
    /// capacity).
    Reactive {
        /// Virtual spawn time, ms.
        at_ms: u64,
    },
    /// Spawned proactively by the scaling policy's target at `at_ms`
    /// (keep-alive window, forecast, …).
    Proactive {
        /// Virtual spawn time, ms.
        at_ms: u64,
    },
    /// Respawned at `at_ms` on a surviving node after its previous
    /// incarnation was displaced by a node crash.
    Restarted {
        /// Virtual respawn time, ms.
        at_ms: u64,
    },
}

impl PodOrigin {
    /// Stable numeric code for trace-event args.
    pub fn code(&self) -> u64 {
        match self {
            PodOrigin::MinScale => 0,
            PodOrigin::Reactive { .. } => 1,
            PodOrigin::Proactive { .. } => 2,
            PodOrigin::Restarted { .. } => 3,
        }
    }
}

/// Why a sampled invocation waited (or did not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitCause {
    /// Admitted on warm capacity: zero wait. The counts break the warm
    /// pool down by provenance at admission time, so "why was this
    /// free?" is answerable (min-scale floor vs earlier reactive spawn
    /// vs proactive policy decision).
    Warm {
        /// Warm pods owed to the min-scale floor.
        min_scale: u64,
        /// Warm pods spawned by earlier reactive admissions.
        reactive: u64,
        /// Warm pods spawned proactively by the policy.
        proactive: u64,
        /// Warm pods respawned after a node crash displaced them.
        restarted: u64,
    },
    /// Queued on a pod that was already warming: the wait is the
    /// remainder of a cold start some *earlier* decision started.
    JoinedWarmingPod {
        /// The pod joined.
        pod_uid: u64,
        /// Provenance of that pod (always a reactive spawn today —
        /// only admission-spawned pods are joinable — but recorded as
        /// the full origin so the trace stays self-describing).
        origin: PodOrigin,
    },
    /// No warm or warming capacity: admission spawned a fresh pod and
    /// this invocation paid its full cold start.
    FreshSpawn {
        /// The pod spawned on behalf of this arrival.
        pod_uid: u64,
    },
    /// The cluster had no room: admission evicted an idle warm pod
    /// (`victim_pod`, resident on `node`) to make space, and this
    /// invocation paid a full cold start on the replacement.
    Evicted {
        /// Node the victim was reclaimed from (and the replacement
        /// placed on).
        node: u64,
        /// The warm pod sacrificed to memory pressure.
        victim_pod: u64,
    },
    /// The cluster had no room *and* no evictable victim: the request
    /// ran overcommitted, paying a full cold start with no pod created.
    Saturated,
}

impl WaitCause {
    /// Stable numeric code for trace-event args: 0 warm, 1 join,
    /// 2 fresh spawn, 3 eviction, 4 saturated overcommit.
    pub fn code(&self) -> u64 {
        match self {
            WaitCause::Warm { .. } => 0,
            WaitCause::JoinedWarmingPod { .. } => 1,
            WaitCause::FreshSpawn { .. } => 2,
            WaitCause::Evicted { .. } => 3,
            WaitCause::Saturated => 4,
        }
    }
}

/// Full lifecycle record of one sampled invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationSpan {
    /// Numeric app id.
    pub app: u64,
    /// Invocation index within the app's replayed trace.
    pub index: u64,
    /// Arrival time, virtual ms.
    pub arrival_ms: u64,
    /// Time spent queued on an already-warming pod, ms.
    pub queue_wait_ms: u64,
    /// Cold-start latency paid on a fresh spawn, ms.
    pub cold_wait_ms: u64,
    /// Execution duration, ms.
    pub exec_ms: u64,
    /// Why the wait segments are what they are.
    pub cause: WaitCause,
}

impl InvocationSpan {
    /// Total delay in seconds, using the engine's exact rounding op
    /// (`delay_ms as f64 / 1_000.0`). Must equal the corresponding
    /// `delays_secs` entry bitwise — the exact-accounting contract.
    pub fn delay_secs(&self) -> f64 {
        (self.queue_wait_ms + self.cold_wait_ms) as f64 / 1_000.0
    }
}

// --- Ambient configuration -------------------------------------------------
//
// Deterministic crates never read the environment, so the bench/binary
// layer deposits the CLI-provided span config here and `femux-sim`'s
// fleet runner injects it into any `SimConfig` that does not already
// carry one (same pattern as the events switch). Stored as
// (rate bits, seed); rate bits of 0.0 means "unset".

static AMBIENT_RATE_BITS: AtomicU64 = AtomicU64::new(0);
static AMBIENT_SEED: AtomicU64 = AtomicU64::new(0);

/// Deposits (or clears) the process-ambient span config. Binary layer
/// only — deterministic crates receive the config via `SimConfig`.
pub fn set_ambient(cfg: Option<SpanConfig>) {
    match cfg {
        Some(c) => {
            AMBIENT_SEED.store(c.seed, Ordering::Relaxed);
            AMBIENT_RATE_BITS.store(c.rate.to_bits(), Ordering::Relaxed);
        }
        None => {
            AMBIENT_RATE_BITS.store(0, Ordering::Relaxed);
            AMBIENT_SEED.store(0, Ordering::Relaxed);
        }
    }
}

/// The ambient span config, if one with a positive rate is deposited.
pub fn ambient() -> Option<SpanConfig> {
    let rate = f64::from_bits(AMBIENT_RATE_BITS.load(Ordering::Relaxed));
    if rate > 0.0 {
        Some(SpanConfig { rate, seed: AMBIENT_SEED.load(Ordering::Relaxed) })
    } else {
        None
    }
}

// --- Guarded trace emission ------------------------------------------------

/// An open span: the half-state between [`open_span`] and
/// [`close_span`].
#[derive(Debug)]
struct OpenSpan {
    track: String,
    cat: &'static str,
    name: String,
    ts_us: u64,
}

/// Opens a span on `track` at `ts_us`. Only [`SpanGuard`] calls it, so
/// its `Drop` guarantees the matching close.
fn open_span(
    track: &str,
    cat: &'static str,
    name: &str,
    ts_us: u64,
) -> OpenSpan {
    OpenSpan {
        track: track.to_string(),
        cat,
        name: name.to_string(),
        ts_us,
    }
}

/// Closes `open` at `end_ts_us`, emitting the complete `X` event. Only
/// [`SpanGuard`]'s `Drop` calls it.
fn close_span(open: OpenSpan, end_ts_us: u64, args: &[(&'static str, u64)]) {
    crate::span(
        &open.track,
        open.cat,
        &open.name,
        open.ts_us,
        end_ts_us.saturating_sub(open.ts_us),
        args,
    );
}

/// Drop-guarded span: opens on construction, emits the complete event
/// when dropped. The only way to record a lifecycle span —
/// unwind-safe by construction.
#[must_use = "the span is emitted when the guard drops"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
    end_ts_us: u64,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Opens a span (no-op guard when event recording is off).
    pub fn open(
        track: &str,
        cat: &'static str,
        name: &str,
        ts_us: u64,
    ) -> SpanGuard {
        let open = if crate::events_enabled() {
            Some(open_span(track, cat, name, ts_us))
        } else {
            None
        };
        SpanGuard { open, end_ts_us: ts_us, args: Vec::new() }
    }

    /// Sets the span's end timestamp (defaults to the open timestamp).
    pub fn end_at(&mut self, ts_us: u64) {
        self.end_ts_us = ts_us;
    }

    /// Attaches an integer argument.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.open.is_some() {
            self.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            close_span(open, self.end_ts_us, &self.args);
        }
    }
}

/// Stable flow-event id binding a request span to its causing pod's
/// spawn event: FNV-1a over the track name folded with the pod uid.
/// Track names embed the run epoch and app id, so ids stay unique
/// across apps and repeated experiment phases.
pub fn flow_id(track: &str, pod_uid: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in track.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= pod_uid;
    h.wrapping_mul(0x0000_0100_0000_01B3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_and_negative_yield_no_sampler() {
        assert!(SpanSampler::new(&SpanConfig { rate: 0.0, seed: 7 }).is_none());
        assert!(SpanSampler::new(&SpanConfig { rate: -1.0, seed: 7 }).is_none());
        assert!(SpanSampler::new(&SpanConfig { rate: f64::NAN, seed: 7 })
            .is_none());
    }

    #[test]
    fn rate_one_samples_everything() {
        let s = SpanSampler::new(&SpanConfig::all(42)).expect("sampler");
        for app in 0..8 {
            for idx in 0..64 {
                assert!(s.sample(app, idx));
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_and_seed_keyed() {
        let cfg = SpanConfig { rate: 0.25, seed: 1234 };
        let a = SpanSampler::new(&cfg).expect("sampler");
        let b = SpanSampler::new(&cfg).expect("sampler");
        let picks = |s: &SpanSampler| -> Vec<bool> {
            (0..256).map(|i| s.sample(3, i)).collect()
        };
        assert_eq!(picks(&a), picks(&b), "same key, same sample set");
        let other = SpanSampler::new(&SpanConfig { rate: 0.25, seed: 99 })
            .expect("sampler");
        assert_ne!(picks(&a), picks(&other), "seed changes the sample set");
    }

    #[test]
    fn fractional_rate_hits_a_plausible_share() {
        let s = SpanSampler::new(&SpanConfig { rate: 0.25, seed: 5 })
            .expect("sampler");
        let hits = (0..10_000u64).filter(|&i| s.sample(17, i)).count();
        assert!(
            (1_500..3_500).contains(&hits),
            "rate 0.25 sampled {hits}/10000"
        );
    }

    #[test]
    fn delay_secs_uses_the_engine_rounding_op() {
        let span = InvocationSpan {
            app: 1,
            index: 0,
            arrival_ms: 10,
            queue_wait_ms: 333,
            cold_wait_ms: 475,
            exec_ms: 20,
            cause: WaitCause::FreshSpawn { pod_uid: 9 },
        };
        assert_eq!(span.delay_secs().to_bits(), (808f64 / 1_000.0).to_bits());
    }

    #[test]
    fn ambient_round_trips_and_clears() {
        set_ambient(Some(SpanConfig { rate: 0.5, seed: 77 }));
        assert_eq!(ambient(), Some(SpanConfig { rate: 0.5, seed: 77 }));
        set_ambient(None);
        assert_eq!(ambient(), None);
        set_ambient(Some(SpanConfig { rate: 0.0, seed: 77 }));
        assert_eq!(ambient(), None, "rate 0 is indistinguishable from unset");
    }

    #[test]
    fn flow_ids_separate_tracks_and_uids() {
        let a = flow_id("fleet-00/sim/kpa/app-00001", 3);
        let b = flow_id("fleet-00/sim/kpa/app-00002", 3);
        let c = flow_id("fleet-00/sim/kpa/app-00001", 4);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn guard_emits_one_complete_span() {
        let _lock = crate::OBS_TEST_LOCK.lock().expect("obs test lock");
        let _g = crate::scoped(true);
        {
            let mut span = SpanGuard::open("t", "span", "inv-0", 1_000);
            span.end_at(5_000);
            span.arg("cold_wait_ms", 4);
        }
        let r = crate::collect();
        assert_eq!(r.events.len(), 1);
        let e = &r.events[0];
        assert_eq!((e.ts_us, e.dur_us), (1_000, Some(4_000)));
        assert_eq!(e.args, vec![("cold_wait_ms", 4)]);
    }
}
