//! `rrbench`: host-time benchmark of the register-relocation workspace.
//!
//! ```text
//! cargo run --release --manifest-path rrbench/Cargo.toml -- \
//!     --workload <fig5_cold|fig6_cold|fig5_warm|executive_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets the workload up at least five times, then runs
//! whole jobs for `--seconds` and reports the end-to-end metrics, taking job
//! and step times from the run's fastest jobs. With
//! `--trace 1` it runs untraced jobs, then the same jobs with a span around
//! every layer call, then the per-operation microcases, and reports the
//! per-layer metrics and the tracing overhead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is nonzero when any output check failed.

mod churn;
mod events;
mod micro;
mod report;
mod scratch;
mod spans;
mod stats;
mod sweep;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::Workload;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rrbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        workload::measure_traced(&args)
    } else {
        workload::measure(&args, process_start)
    };
    match result.and_then(|r| r.json_line().map(|line| (r.correct(), line))) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("rrbench: an output check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rrbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fig6_cold --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::Fig6Cold,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(args("--workload fig7 --seed 1 --seconds 1").is_err());
        assert!(args("--workload fig5_cold --sed 1 --seconds 1").is_err());
        assert!(args("--workload fig5_cold --seed 1 --seconds 0").is_err());
        assert!(args("--workload fig5_cold --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fig5_cold --seed 1").is_err());
        assert!(args("--workload fig5_cold --seed").is_err());
    }
}
