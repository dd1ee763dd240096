//! Trace serialization.
//!
//! Traces round-trip through a simple line-oriented CSV format so that
//! experiments can persist fleets and users can import their own traces.
//! Two record kinds share one file, distinguished by a leading tag:
//!
//! ```text
//! A,<app_id>,<kind>,<cpu_milli>,<mem_mb>,<concurrency>,<min_scale>,<mem_used_mb>,<cold_start_ms>
//! I,<app_id>,<start_ms>,<duration_ms>,<delay_ms>
//! ```
//!
//! The first line is a header `femux-trace,v1,<span_ms>`. An app's
//! `concurrency` limit must be at least 1.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use crate::types::{
    AppConfig, AppId, AppRecord, Invocation, Trace, WorkloadKind,
};

/// Errors arising while reading a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem, with a line number, the offending field (when
    /// the problem is specific to one), and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The field being parsed when the error arose, if any —
        /// `None` for line-level problems (bad header, unknown tag).
        field: Option<&'static str>,
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::Parse {
                line,
                field: Some(field),
                message,
            } => {
                write!(
                    f,
                    "parse error at line {line}, field {field}: {message}"
                )
            }
            TraceIoError::Parse {
                line,
                field: None,
                message,
            } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn kind_tag(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Application => "app",
        WorkloadKind::Function => "func",
        WorkloadKind::BatchJob => "batch",
    }
}

fn parse_kind(tag: &str) -> Option<WorkloadKind> {
    match tag {
        "app" => Some(WorkloadKind::Application),
        "func" => Some(WorkloadKind::Function),
        "batch" => Some(WorkloadKind::BatchJob),
        _ => None,
    }
}

/// Writes a trace in the CSV format described in the module docs.
pub fn write_trace<W: Write>(
    trace: &Trace,
    out: &mut W,
) -> std::io::Result<()> {
    writeln!(out, "femux-trace,v1,{}", trace.span_ms)?;
    for app in &trace.apps {
        writeln!(
            out,
            "A,{},{},{},{},{},{},{},{}",
            app.id.0,
            kind_tag(app.kind),
            app.config.cpu_milli,
            app.config.mem_mb,
            app.config.concurrency,
            app.config.min_scale,
            app.mem_used_mb,
            app.cold_start_ms
        )?;
        for inv in &app.invocations {
            writeln!(
                out,
                "I,{},{},{},{}",
                app.id.0, inv.start_ms, inv.duration_ms, inv.delay_ms
            )?;
        }
    }
    Ok(())
}

fn parse_err(line: usize, message: impl Into<String>) -> TraceIoError {
    TraceIoError::Parse {
        line,
        field: None,
        message: message.into(),
    }
}

fn field_err(
    line: usize,
    name: &'static str,
    message: impl Into<String>,
) -> TraceIoError {
    TraceIoError::Parse {
        line,
        field: Some(name),
        message: message.into(),
    }
}

fn field<'a>(
    parts: &mut std::str::Split<'a, char>,
    line: usize,
    name: &'static str,
) -> Result<&'a str, TraceIoError> {
    parts.next().ok_or_else(|| {
        field_err(line, name, "record truncated before this field")
    })
}

fn num<T: std::str::FromStr>(
    s: &str,
    line: usize,
    name: &'static str,
) -> Result<T, TraceIoError> {
    s.parse()
        .map_err(|_| field_err(line, name, format!("bad {name}: {s:?}")))
}

/// Reads a trace written by [`write_trace`].
///
/// Invocations are re-sorted per application on load, so files produced
/// by external tooling need not be pre-sorted. At the *serving*
/// boundary, where silently reordering live history would rewrite the
/// past, use [`crate::ingest::read_trace_strict`] instead.
pub fn read_trace<R: BufRead>(input: R) -> Result<Trace, TraceIoError> {
    let mut trace = parse_trace(input)?;
    for app in &mut trace.apps {
        app.sort();
    }
    Ok(trace)
}

/// Parses the CSV format without normalizing invocation order — the
/// shared front half of [`read_trace`] (which then sorts) and the strict
/// serving-boundary loader (which refuses or clamps instead).
pub(crate) fn parse_trace<R: BufRead>(
    input: R,
) -> Result<Trace, TraceIoError> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty file"))??;
    let mut hp = header.split(',');
    if hp.next() != Some("femux-trace") || hp.next() != Some("v1") {
        return Err(parse_err(1, "bad header"));
    }
    let span_ms: u64 = num(
        hp.next().ok_or_else(|| parse_err(1, "missing span"))?,
        1,
        "span",
    )?;
    let mut trace = Trace::new(span_ms);
    // Ordered: app-id -> slot lookups must stay deterministic even if
    // a future writer enumerates this index into an output file.
    let mut index: BTreeMap<u32, usize> = BTreeMap::new();
    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        match field(&mut parts, lineno, "tag")? {
            "A" => {
                let id: u32 =
                    num(field(&mut parts, lineno, "id")?, lineno, "id")?;
                let kind = parse_kind(field(&mut parts, lineno, "kind")?)
                    .ok_or_else(|| {
                        field_err(lineno, "kind", "bad kind")
                    })?;
                let cpu_milli =
                    num(field(&mut parts, lineno, "cpu")?, lineno, "cpu")?;
                let mem_mb =
                    num(field(&mut parts, lineno, "mem")?, lineno, "mem")?;
                let concurrency: u32 = num(
                    field(&mut parts, lineno, "concurrency")?,
                    lineno,
                    "concurrency",
                )?;
                // Scaling divides demand by the per-pod limit, so a
                // zero limit would ask for unbounded pods.
                if concurrency == 0 {
                    return Err(field_err(
                        lineno,
                        "concurrency",
                        "concurrency must be at least 1",
                    ));
                }
                let min_scale = num(
                    field(&mut parts, lineno, "min_scale")?,
                    lineno,
                    "min_scale",
                )?;
                let mem_used_mb = num(
                    field(&mut parts, lineno, "mem_used")?,
                    lineno,
                    "mem_used",
                )?;
                let cold_start_ms = num(
                    field(&mut parts, lineno, "cold_start")?,
                    lineno,
                    "cold_start",
                )?;
                if index.contains_key(&id) {
                    return Err(parse_err(
                        lineno,
                        format!("duplicate app {id}"),
                    ));
                }
                index.insert(id, trace.apps.len());
                trace.apps.push(AppRecord {
                    id: AppId(id),
                    kind,
                    config: AppConfig {
                        cpu_milli,
                        mem_mb,
                        concurrency,
                        min_scale,
                    },
                    mem_used_mb,
                    cold_start_ms,
                    invocations: Vec::new(),
                });
            }
            "I" => {
                let id: u32 =
                    num(field(&mut parts, lineno, "id")?, lineno, "id")?;
                let start_ms = num(
                    field(&mut parts, lineno, "start")?,
                    lineno,
                    "start",
                )?;
                let duration_ms = num(
                    field(&mut parts, lineno, "duration")?,
                    lineno,
                    "duration",
                )?;
                let delay_ms = num(
                    field(&mut parts, lineno, "delay")?,
                    lineno,
                    "delay",
                )?;
                let slot = *index.get(&id).ok_or_else(|| {
                    parse_err(lineno, format!("invocation for unknown app {id}"))
                })?;
                trace.apps[slot].invocations.push(Invocation {
                    start_ms,
                    duration_ms,
                    delay_ms,
                });
            }
            other => {
                return Err(parse_err(
                    lineno,
                    format!("unknown record tag {other:?}"),
                ))
            }
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::ibm::{generate, IbmFleetConfig};

    #[test]
    fn round_trip_synthetic_fleet() {
        let trace = generate(&IbmFleetConfig::small(42));
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn unsorted_invocations_get_sorted() {
        let text = "femux-trace,v1,10000\n\
                    A,3,app,1000,4096,100,0,150,808\n\
                    I,3,500,10,0\n\
                    I,3,100,10,0\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert!(trace.apps[0].is_sorted());
        assert_eq!(trace.apps[0].invocations[0].start_ms, 100);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_trace("nope,v1,10\n".as_bytes()).is_err());
        assert!(read_trace("".as_bytes()).is_err());
    }

    #[test]
    fn rejects_unknown_app() {
        let text = "femux-trace,v1,10000\nI,9,1,2,3\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown app"));
    }

    #[test]
    fn rejects_duplicate_app() {
        let text = "femux-trace,v1,1\n\
                    A,1,app,1,1,1,0,1,1\n\
                    A,1,app,1,1,1,0,1,1\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_malformed_numbers() {
        let text = "femux-trace,v1,1\nA,x,app,1,1,1,0,1,1\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad id"));
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "femux-trace,v1,1\nA,1,app,1,1,1,0,1,1\nQ,oops\n";
        match read_trace(text.as_bytes()).unwrap_err() {
            TraceIoError::Parse { line, field, .. } => {
                assert_eq!(line, 3);
                assert_eq!(field, None, "tag errors are line-level");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn truncated_record_names_the_missing_field() {
        // An app row cut off after mem: the next expected field is the
        // concurrency limit.
        let text = "femux-trace,v1,1\nA,1,app,1,1\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        match &err {
            TraceIoError::Parse { line, field, .. } => {
                assert_eq!(*line, 2);
                assert_eq!(*field, Some("concurrency"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(
            err.to_string().contains("line 2")
                && err.to_string().contains("concurrency"),
            "message must carry line and field: {err}"
        );
    }

    #[test]
    fn both_loaders_reject_zero_concurrency() {
        let text = "femux-trace,v1,10000\n\
                    A,1,app,1000,4096,0,0,150,808\n\
                    I,1,300,500,0\n";
        let lenient = read_trace(text.as_bytes()).unwrap_err();
        let strict = crate::ingest::read_trace_strict(
            text.as_bytes(),
            crate::ingest::MonotonePolicy::Clamp,
        )
        .unwrap_err();
        let crate::ingest::IngestError::Io(strict) = strict else {
            panic!("unexpected error {strict:?}");
        };
        for err in [lenient, strict] {
            match &err {
                TraceIoError::Parse { line, field, .. } => {
                    assert_eq!(*line, 2);
                    assert_eq!(*field, Some("concurrency"));
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn non_numeric_field_names_the_bad_field() {
        let text =
            "femux-trace,v1,1\nA,1,app,1,1,1,0,1,1\nI,1,abc,2,3\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        match &err {
            TraceIoError::Parse { line, field, .. } => {
                assert_eq!(*line, 3);
                assert_eq!(*field, Some("start"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("\"abc\""), "{err}");
    }

    #[test]
    fn out_of_order_timestamps_are_accepted_and_resorted() {
        // External tooling may interleave apps and emit timestamps in
        // any order; loading is lenient and normalizes per app.
        let text = "femux-trace,v1,10000\n\
                    A,1,app,1000,4096,100,0,150,808\n\
                    A,2,func,1000,4096,100,0,150,808\n\
                    I,2,9000,10,0\n\
                    I,1,700,10,0\n\
                    I,2,50,10,0\n\
                    I,1,300,10,0\n";
        let trace = read_trace(text.as_bytes()).expect("lenient load");
        for app in &trace.apps {
            assert!(app.is_sorted());
        }
        assert_eq!(trace.apps[0].invocations[0].start_ms, 300);
        assert_eq!(trace.apps[1].invocations[0].start_ms, 50);
    }
}
