//! Characterize a trace the way §3 of the paper does: IAT structure,
//! execution times, platform delays, and configuration marginals.
//!
//! Works on the synthetic IBM-like fleet out of the box; point it at
//! your own trace file (the `femux-trace` CSV format) to characterize
//! real data:
//!
//! ```sh
//! cargo run --release --example characterize [path/to/trace.csv]
//! ```

use std::fs::File;
use std::io::BufReader;

use femux_repro::stats::desc::{
    coefficient_of_variation, fraction_where, mean, median, quantile,
};
use femux_repro::trace::io::read_trace;
use femux_repro::trace::synth::ibm::{generate, IbmFleetConfig};
use femux_repro::trace::Trace;

fn load() -> Trace {
    match std::env::args().nth(1) {
        Some(path) => {
            let file = File::open(&path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1)
            });
            read_trace(BufReader::new(file)).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1)
            })
        }
        None => generate(&IbmFleetConfig {
            n_apps: 300,
            span_days: 2,
            seed: 2024,
            max_invocations_per_app: 20_000,
            rate_scale: 0.3,
        }),
    }
}

fn main() {
    let trace = load();
    trace.validate().expect("trace is structurally valid");
    println!(
        "trace: {} workloads, {} invocations, {} days\n",
        trace.apps.len(),
        trace.total_invocations(),
        trace.span_days()
    );

    // §3.2 — inter-arrival times.
    let mut medians = Vec::new();
    let mut high_cv = 0usize;
    let mut counted = 0usize;
    let mut sub_second_invocations = 0u64;
    let mut total_iats = 0u64;
    for app in &trace.apps {
        let iats = app.iats_secs();
        if iats.len() < 5 {
            continue;
        }
        counted += 1;
        medians.push(median(&iats).expect("non-empty"));
        if coefficient_of_variation(&iats) > 1.0 {
            high_cv += 1;
        }
        sub_second_invocations +=
            iats.iter().filter(|x| **x < 1.0).count() as u64;
        total_iats += iats.len() as u64;
    }
    println!("inter-arrival times (paper: 94.5% sub-second, 96% CV>1):");
    println!(
        "  sub-second IATs: {:.1}%",
        100.0 * sub_second_invocations as f64 / total_iats.max(1) as f64
    );
    println!(
        "  workloads with sub-minute median IAT: {:.1}%",
        100.0 * fraction_where(&medians, |x| x < 60.0)
    );
    println!(
        "  workloads with CV > 1: {:.1}%",
        100.0 * high_cv as f64 / counted.max(1) as f64
    );

    // §3.2 — execution times.
    let means: Vec<f64> = trace
        .apps
        .iter()
        .filter(|a| !a.invocations.is_empty())
        .map(|a| mean(&a.durations_secs()))
        .collect();
    println!("\nexecution times (paper: 82% of workloads sub-second mean):");
    println!(
        "  workloads with mean exec < 1 s: {:.1}%",
        100.0 * fraction_where(&means, |x| x < 1.0)
    );
    println!(
        "  median of per-workload mean: {:.0} ms",
        1_000.0 * median(&means).unwrap_or(f64::NAN)
    );

    // §3.3 — platform delay.
    let p99s: Vec<f64> = trace
        .apps
        .iter()
        .filter(|a| a.invocations.len() >= 10)
        .map(|a| quantile(&a.delays_secs(), 0.99).expect("non-empty"))
        .collect();
    println!("\nplatform delay (paper: ~20% of workloads p99 > 1 s):");
    println!(
        "  workloads with p99 delay > 1 s: {:.1}%",
        100.0 * fraction_where(&p99s, |x| x > 1.0)
    );

    // §3.4 — configuration marginals.
    let n = trace.apps.len() as f64;
    let frac = |pred: &dyn Fn(&femux_repro::trace::AppConfig) -> bool| {
        100.0
            * trace.apps.iter().filter(|a| pred(&a.config)).count() as f64
            / n
    };
    println!("\nconfigurations (paper: 58.8% min-scale >= 1, 93.3% \
              concurrency 100):");
    println!(
        "  min-scale >= 1: {:.1}%",
        frac(&|c| c.min_scale >= 1)
    );
    println!(
        "  default CPU (1 vCPU): {:.1}%",
        frac(&|c| c.cpu_milli == 1_000)
    );
    println!(
        "  default memory (4 GB): {:.1}%",
        frac(&|c| c.mem_mb == 4_096)
    );
    println!(
        "  concurrency 100: {:.1}%",
        frac(&|c| c.concurrency == 100)
    );
}
