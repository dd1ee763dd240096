//! Benchmark entry point.
//!
//! Usage: `femux-perfbench --workload <serve-paper|sim-engine>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines prefixed `# ` (the serve digest, RUM
//! values, the layer tree), then the one-line JSON result. Exits 1 when
//! a correctness check fails, 2 on bad arguments.

use femux_perfbench::report::{run_traced, run_untraced, stage_of};

fn usage(msg: &str) -> ! {
    eprintln!("femux-perfbench: {msg}");
    eprintln!(
        "usage: femux-perfbench --workload <serve-paper|sim-engine> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok(),
            "--trace" => trace = Some(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    let focus =
        stage_of(&workload).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let seed = seed.unwrap_or_else(|| usage("--seed needs a whole number"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds needs a whole number"));
    let outcome = match trace.as_deref() {
        Some("0") => run_untraced(focus, seed, seconds),
        Some("1") => run_traced(seed),
        _ => usage("--trace must be 0 or 1"),
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
