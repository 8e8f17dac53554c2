//! Runs one benchmark workload and prints its metrics.
//!
//! Usage: `faasnap-benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Every metric measured is printed as `metric <name> <value> <unit>`;
//! the last line is the JSON result with the metrics `BENCHMARK.json`
//! lists for the run's mode (`end_to_end` untraced, `per_layer` traced).
//! Exits non-zero, printing no result, on bad arguments or a failed
//! set-up.

use std::process::ExitCode;

use faasnap_benchmark::report::{def, result_line, END_TO_END, PER_LAYER};
use faasnap_benchmark::workloads::{self, Args};

fn parse() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, args))
}

fn main() -> ExitCode {
    let (name, args) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("faasnap-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&name, &args) {
        None => {
            eprintln!(
                "faasnap-benchmark: unknown workload {name} (one of {})",
                workloads::NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
        Some(Err(e)) => {
            eprintln!("faasnap-benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
        Some(Ok(o)) => o,
    };
    for (metric, v) in outcome.values.iter() {
        let unit = def(metric).map_or("", |d| d.unit);
        println!("metric {metric} {v} {unit}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            defs,
            &outcome.values
        )
    );
    ExitCode::SUCCESS
}
