//! Core trace data model.
//!
//! Mirrors the schema of the paper's IBM Cloud Code Engine dataset:
//! millisecond-timestamped invocations with per-request execution durations
//! and platform delays, plus per-application configuration metadata (CPU,
//! memory, container concurrency, minimum pod scale) — the fields Table 1
//! credits as unique to that trace.

/// Milliseconds in one second.
pub const MS_PER_SEC: u64 = 1_000;
/// Milliseconds in one minute.
pub const MS_PER_MIN: u64 = 60_000;
/// Milliseconds in one hour.
pub const MS_PER_HOUR: u64 = 3_600_000;
/// Milliseconds in one day.
pub const MS_PER_DAY: u64 = 86_400_000;

/// Identifier of an application (or function) within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app-{:05}", self.0)
    }
}

/// The kind of serverless workload, per IBM's platform mix (§2.1: ~75 %
/// applications, ~15 % batch jobs, ~10 % functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// A custom-container application (may serve many concurrent requests).
    Application,
    /// A code-snippet function (concurrency 1, standard images).
    Function,
    /// A batch job (event/timer triggered, no inbound HTTP).
    BatchJob,
}

/// Per-application resource and scaling configuration (Fig. 7 fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppConfig {
    /// Requested CPU in millicores (default 1000 = 1 vCPU).
    pub cpu_milli: u32,
    /// Requested memory in MB (default 4096 = 4 GB).
    pub mem_mb: u32,
    /// Container concurrency limit (default 100; functions use 1).
    pub concurrency: u32,
    /// Minimum pod scale (default 0 = scale to zero).
    pub min_scale: u32,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            cpu_milli: 1_000,
            mem_mb: 4_096,
            concurrency: 100,
            min_scale: 0,
        }
    }
}

impl AppConfig {
    /// Returns the configured memory in GB.
    pub fn mem_gb(&self) -> f64 {
        self.mem_mb as f64 / 1024.0
    }

    /// The per-pod concurrency limit that pod counts are derived from:
    /// `concurrency`, or 1 when it is 0. The trace loaders reject 0, but
    /// a record built in code can carry it, and dividing by it would
    /// ask for unbounded pods.
    pub fn pod_concurrency(&self) -> u32 {
        self.concurrency.max(1)
    }
}

/// A single invocation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Arrival time in milliseconds since trace start.
    pub start_ms: u64,
    /// Execution duration in milliseconds.
    pub duration_ms: u32,
    /// Platform delay in milliseconds (service time minus execution time:
    /// cold start + queuing + inter-component latency). Zero when unknown.
    pub delay_ms: u32,
}

impl Invocation {
    /// Returns the completion time (`start + delay + duration`).
    pub fn end_ms(&self) -> u64 {
        self.start_ms + self.delay_ms as u64 + self.duration_ms as u64
    }
}

/// All data for one application: identity, configuration, and its
/// time-sorted invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRecord {
    /// Application identity.
    pub id: AppId,
    /// Workload kind.
    pub kind: WorkloadKind,
    /// User configuration.
    pub config: AppConfig,
    /// Typical memory actually consumed per pod in MB (for wasted-memory
    /// accounting; the paper's default analysis uses 150 MB medians from
    /// Azure '19).
    pub mem_used_mb: u32,
    /// Cold-start duration in milliseconds for this application's image
    /// (custom images can exceed 10 s; the paper's default analysis fixes
    /// this at 808 ms for comparability).
    pub cold_start_ms: u32,
    /// Time-sorted invocations.
    pub invocations: Vec<Invocation>,
}

impl AppRecord {
    /// Creates an empty record with default configuration.
    pub fn new(id: AppId, kind: WorkloadKind) -> Self {
        AppRecord {
            id,
            kind,
            config: AppConfig::default(),
            mem_used_mb: 150,
            cold_start_ms: 808,
            invocations: Vec::new(),
        }
    }

    /// Returns invocation inter-arrival times in seconds.
    pub fn iats_secs(&self) -> Vec<f64> {
        self.invocations
            .windows(2)
            .map(|w| (w[1].start_ms - w[0].start_ms) as f64 / 1_000.0)
            .collect()
    }

    /// Returns execution durations in seconds.
    pub fn durations_secs(&self) -> Vec<f64> {
        self.invocations
            .iter()
            .map(|i| i.duration_ms as f64 / 1_000.0)
            .collect()
    }

    /// Returns platform delays in seconds.
    pub fn delays_secs(&self) -> Vec<f64> {
        self.invocations
            .iter()
            .map(|i| i.delay_ms as f64 / 1_000.0)
            .collect()
    }

    /// Returns `true` if invocations are sorted by arrival time.
    pub fn is_sorted(&self) -> bool {
        self.invocations.windows(2).all(|w| w[0].start_ms <= w[1].start_ms)
    }

    /// Sorts invocations by arrival time (stable).
    pub fn sort(&mut self) {
        self.invocations.sort_by_key(|i| i.start_ms);
    }
}

/// A complete trace: a fleet of applications over a common time span.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Duration of the trace in milliseconds.
    pub span_ms: u64,
    /// Per-application records.
    pub apps: Vec<AppRecord>,
}

impl Trace {
    /// Creates an empty trace of the given span.
    pub fn new(span_ms: u64) -> Self {
        Trace {
            span_ms,
            apps: Vec::new(),
        }
    }

    /// Returns the total number of invocations across all applications.
    pub fn total_invocations(&self) -> u64 {
        self.apps.iter().map(|a| a.invocations.len() as u64).sum()
    }

    /// Returns the trace span in whole days (rounded up).
    pub fn span_days(&self) -> u64 {
        self.span_ms.div_ceil(MS_PER_DAY)
    }

    /// Looks up an application by id.
    pub fn app(&self, id: AppId) -> Option<&AppRecord> {
        self.apps.iter().find(|a| a.id == id)
    }

    /// Returns invocation counts per day across the whole fleet — the
    /// series behind Fig. 1.
    pub fn daily_invocations(&self) -> Vec<u64> {
        let days = self.span_days() as usize;
        let mut counts = vec![0u64; days.max(1)];
        for app in &self.apps {
            for inv in &app.invocations {
                let d = (inv.start_ms / MS_PER_DAY) as usize;
                if d < counts.len() {
                    counts[d] += 1;
                }
            }
        }
        counts
    }

    /// Validates structural invariants: sorted invocations, in-span starts,
    /// non-zero span. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.span_ms == 0 {
            return Err("trace span is zero".into());
        }
        for app in &self.apps {
            if !app.is_sorted() {
                return Err(format!("{} invocations not sorted", app.id));
            }
            if let Some(inv) =
                app.invocations.iter().find(|i| i.start_ms >= self.span_ms)
            {
                return Err(format!(
                    "{} invocation at {} ms exceeds span {} ms",
                    app.id, inv.start_ms, self.span_ms
                ));
            }
            if app.config.concurrency == 0 {
                return Err(format!("{} has zero concurrency", app.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_app() -> AppRecord {
        let mut app = AppRecord::new(AppId(1), WorkloadKind::Application);
        app.invocations = vec![
            Invocation {
                start_ms: 0,
                duration_ms: 100,
                delay_ms: 5,
            },
            Invocation {
                start_ms: 500,
                duration_ms: 200,
                delay_ms: 0,
            },
            Invocation {
                start_ms: 2_500,
                duration_ms: 50,
                delay_ms: 900,
            },
        ];
        app
    }

    #[test]
    fn invocation_timing() {
        let inv = Invocation {
            start_ms: 1_000,
            duration_ms: 300,
            delay_ms: 20,
        };
        assert_eq!(inv.end_ms(), 1_320);
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = AppConfig::default();
        assert_eq!(cfg.cpu_milli, 1_000);
        assert_eq!(cfg.mem_mb, 4_096);
        assert_eq!(cfg.concurrency, 100);
        assert_eq!(cfg.min_scale, 0);
        assert!((cfg.mem_gb() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn iats_and_durations() {
        let app = sample_app();
        let iats = app.iats_secs();
        assert_eq!(iats, vec![0.5, 2.0]);
        assert_eq!(app.durations_secs(), vec![0.1, 0.2, 0.05]);
        assert_eq!(app.delays_secs(), vec![0.005, 0.0, 0.9]);
    }

    #[test]
    fn sortedness() {
        let mut app = sample_app();
        assert!(app.is_sorted());
        app.invocations.swap(0, 2);
        assert!(!app.is_sorted());
        app.sort();
        assert!(app.is_sorted());
    }

    #[test]
    fn trace_accounting() {
        let mut trace = Trace::new(3 * MS_PER_DAY);
        trace.apps.push(sample_app());
        let mut b = AppRecord::new(AppId(2), WorkloadKind::Function);
        b.invocations.push(Invocation {
            start_ms: 2 * MS_PER_DAY + 5,
            duration_ms: 10,
            delay_ms: 0,
        });
        trace.apps.push(b);
        assert_eq!(trace.total_invocations(), 4);
        assert_eq!(trace.span_days(), 3);
        assert_eq!(trace.daily_invocations(), vec![3, 0, 1]);
        assert!(trace.validate().is_ok());
        assert!(trace.app(AppId(2)).is_some());
        assert!(trace.app(AppId(99)).is_none());
    }

    #[test]
    fn validate_rejects_out_of_span() {
        let mut trace = Trace::new(1_000);
        let mut app = AppRecord::new(AppId(1), WorkloadKind::Application);
        app.invocations.push(Invocation {
            start_ms: 5_000,
            duration_ms: 1,
            delay_ms: 0,
        });
        trace.apps.push(app);
        assert!(trace.validate().is_err());
    }

    #[test]
    fn validate_rejects_unsorted() {
        let mut trace = Trace::new(10_000);
        let mut app = sample_app();
        app.invocations.swap(0, 2);
        trace.apps.push(app);
        assert!(trace.validate().is_err());
    }
}
