//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints its metrics: a readable summary
//! on standard error, then one JSON object as the last line of standard
//! output. With `--trace 0` the metrics are the end-to-end set, with
//! `--trace 1` the per-layer set. Exits 1 when an output check fails and
//! 2 on a usage error.

use perfbench::setup::{workload, WORKLOADS};
use perfbench::{bench, DEFAULT_SEED};
use std::process::exit;

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\nworkloads: {}",
        names.join(", ")
    );
    exit(2)
}

fn main() {
    let mut name = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0_f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage());
                if !(seconds.is_finite() && seconds >= 0.0) {
                    usage()
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(w) = name.as_deref().and_then(workload) else {
        usage()
    };

    let result = bench(&w, seed, seconds, traced);
    eprintln!(
        "{} seed {seed}: inputs {} outcome digest {}",
        w.name, result.input_fingerprint, result.digest
    );
    eprintln!("  host calibration loop: {} ms", result.calib_ms);
    eprintln!("  wall_s per repetition: {:?}", result.walls_s);
    if traced {
        eprintln!(
            "  traced wall_s per repetition: {:?}",
            result.traced_walls_s
        );
    }
    for m in &result.metrics {
        eprintln!("  {:<24} {:>16} {}", m.name, m.value, m.unit);
    }
    for e in &result.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", result.to_json());
    if !result.correct {
        exit(1)
    }
}
