//! The repository benchmark: builds the index a workload names from seeded
//! inputs, drives the workload for a fixed time, checks every answer against
//! the benchmark's own computation, and prints one JSON line of metrics.
//!
//! ```text
//! nsg-perfbench --workload <query-f32|serve-sq8|mutate-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
//! (see README.md).

mod bench;
mod check;
mod data;
mod est;

use std::time::Instant;

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: nsg-perfbench --workload <query-f32|serve-sq8|mutate-mixed> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn main() {
    let started = Instant::now();
    // Every count the benchmark reports repeats exactly only with one build
    // worker: the parallel reverse-edge insertion of the build is racy.
    // Set before any thread exists; the thread pool reads it once.
    std::env::set_var("NSG_SHIM_THREADS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    bench::Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a non-negative number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let options = bench::Options {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        started,
    };
    let outcome = match bench::run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
