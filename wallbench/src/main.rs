//! Command-line entry of the wall-clock benchmark.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints two lines on standard output: the load shape (client threads,
//! sizes, error rate), then the result object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! output checked correct, 1 when a check failed, 2 on bad arguments.

use std::process::ExitCode;

use wallbench::{Options, WORKLOADS};

fn parse() -> Result<(String, Options), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let opts = Options::new(
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    );
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match wallbench::run(&workload, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.shape_json(&workload, opts.seed, opts.trace));
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for reason in &report.failures {
            eprintln!("wallbench: check failed: {reason}");
        }
        ExitCode::from(1)
    }
}
