//! Wall-clock trace replay (the prototype's FaaSProfiler role).
//!
//! §5.2 replays traces against the Knative deployment with FaaSProfiler:
//! "each invocation executes a Go function that allocates memory and
//! busy waits as defined by the trace". This replayer does the same in
//! compressed wall-clock time: worker threads stand in for pods, each
//! request allocates its app's memory footprint and busy-waits its
//! (scaled) execution time, and the driver reports achieved throughput
//! and per-request latency so platform-level effects (queuing under
//! under-provisioning) are actually observable rather than simulated.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "wall-clock replay: elapsed real time is what this module measures, and its worker threads record no telemetry (latencies return through join)"
)]

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use femux_stats::desc::Summary;
use femux_trace::types::Trace;

/// Configuration for a wall-clock replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Time compression: trace time divided by this factor becomes wall
    /// time (e.g. 600 replays 10 trace-minutes per wall-second).
    pub speedup: f64,
    /// Worker threads standing in for pod capacity.
    pub workers: usize,
    /// Hard cap on replayed invocations.
    pub max_invocations: usize,
    /// Cap on each request's busy-wait in (already compressed) wall
    /// time.
    pub max_busy_wait: Duration,
    /// Bytes allocated per request per MB of the app's footprint
    /// (scaled down so replay fits in memory).
    pub bytes_per_mb: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            speedup: 600.0,
            workers: 4,
            max_invocations: 50_000,
            max_busy_wait: Duration::from_millis(5),
            bytes_per_mb: 256,
        }
    }
}

/// Result of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Requests completed.
    pub completed: u64,
    /// Requests issued.
    pub issued: u64,
    /// End-to-end latency summary in milliseconds (queue + execution).
    pub latency_ms: Summary,
    /// Wall-clock duration of the replay.
    pub wall: Duration,
}

struct Request {
    enqueued: Instant,
    busy: Duration,
    alloc_bytes: usize,
}

/// Serves requests until the queue is drained and the sender gone,
/// then returns this worker's end-to-end latencies in milliseconds.
/// Whichever worker is free takes the next request.
fn worker(rx: &Mutex<Receiver<Request>>) -> Vec<f64> {
    let mut latencies = Vec::new();
    loop {
        // The guard is a temporary of this statement, so the lock is
        // released before the request is served.
        let next = rx.lock().expect("replay queue lock poisoned").recv();
        let Ok(req) = next else {
            return latencies;
        };
        // Allocate-and-touch, as FaaSProfiler's function does.
        let mut block = vec![0u8; req.alloc_bytes.max(1)];
        for i in (0..block.len()).step_by(64) {
            block[i] = i as u8;
        }
        std::hint::black_box(&block);
        // Busy-wait the compressed execution time.
        let t0 = Instant::now();
        while t0.elapsed() < req.busy {
            std::hint::spin_loop();
        }
        latencies.push(req.enqueued.elapsed().as_secs_f64() * 1_000.0);
    }
}

/// Replays a trace in compressed wall-clock time.
pub fn replay(trace: &Trace, cfg: &ReplayConfig) -> ReplayResult {
    assert!(cfg.workers > 0 && cfg.speedup > 0.0, "bad replay config");
    // Merge invocations time-ordered, capped.
    let mut events: Vec<(u64, u32, u32)> = Vec::new(); // (t, dur, mem)
    for app in &trace.apps {
        for inv in &app.invocations {
            events.push((inv.start_ms, inv.duration_ms, app.mem_used_mb));
        }
    }
    events.sort_unstable_by_key(|e| e.0);
    events.truncate(cfg.max_invocations);

    let (tx, rx) = sync_channel::<Request>(4_096);
    let rx = Arc::new(Mutex::new(rx));
    let handles: Vec<_> = (0..cfg.workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || worker(&rx))
        })
        .collect();
    // Only the workers hold the receiver, so if every worker dies a
    // send fails instead of blocking on a full queue.
    drop(rx);

    let start = Instant::now();
    let mut issued = 0u64;
    for &(t_ms, dur_ms, mem_mb) in &events {
        let due =
            Duration::from_secs_f64(t_ms as f64 / 1_000.0 / cfg.speedup);
        loop {
            let now = start.elapsed();
            if now >= due {
                break;
            }
            let remaining = due - now;
            if remaining > Duration::from_micros(500) {
                std::thread::sleep(remaining - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let busy = Duration::from_secs_f64(
            dur_ms as f64 / 1_000.0 / cfg.speedup,
        )
        .min(cfg.max_busy_wait);
        if tx
            .send(Request {
                enqueued: Instant::now(),
                busy,
                alloc_bytes: mem_mb as usize * cfg.bytes_per_mb,
            })
            .is_err()
        {
            break;
        }
        issued += 1;
    }
    // Disconnect: each worker drains what is queued, sees the channel
    // closed, and hands back its latencies.
    drop(tx);
    let latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("replay worker panicked"))
        .collect();
    ReplayResult {
        completed: latencies.len() as u64,
        issued,
        latency_ms: Summary::of(&latencies).unwrap_or(Summary {
            count: 0,
            mean: f64::NAN,
            min: f64::NAN,
            p50: f64::NAN,
            p90: f64::NAN,
            p99: f64::NAN,
            max: f64::NAN,
        }),
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_trace::synth::ibm::{generate, IbmFleetConfig};

    fn small_trace() -> Trace {
        generate(&IbmFleetConfig {
            n_apps: 30,
            span_days: 1,
            seed: 71,
            max_invocations_per_app: 200,
            rate_scale: 0.02,
        })
    }

    #[test]
    fn replays_everything_at_high_speedup() {
        let trace = small_trace();
        let cfg = ReplayConfig {
            speedup: 50_000.0,
            workers: 2,
            max_invocations: 2_000,
            ..ReplayConfig::default()
        };
        let res = replay(&trace, &cfg);
        assert!(res.issued > 0);
        assert_eq!(res.completed, res.issued, "all requests completed");
        assert!(res.latency_ms.count as u64 == res.completed);
        assert!(res.wall < Duration::from_secs(20));
    }

    #[test]
    fn fewer_workers_mean_higher_latency_under_load() {
        let trace = small_trace();
        let base = ReplayConfig {
            speedup: 100_000.0,
            max_invocations: 1_500,
            max_busy_wait: Duration::from_millis(2),
            ..ReplayConfig::default()
        };
        let narrow = replay(
            &trace,
            &ReplayConfig {
                workers: 1,
                ..base.clone()
            },
        );
        let wide = replay(
            &trace,
            &ReplayConfig {
                workers: 8,
                ..base.clone()
            },
        );
        assert!(narrow.completed > 0 && wide.completed > 0);
        assert!(
            narrow.latency_ms.p90 >= wide.latency_ms.p90 * 0.8,
            "narrow p90 {} vs wide p90 {}",
            narrow.latency_ms.p90,
            wide.latency_ms.p90
        );
    }

    #[test]
    fn invocation_cap_respected() {
        let trace = small_trace();
        let cfg = ReplayConfig {
            speedup: 100_000.0,
            max_invocations: 100,
            ..ReplayConfig::default()
        };
        let res = replay(&trace, &cfg);
        assert!(res.issued <= 100);
    }
}
