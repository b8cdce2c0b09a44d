//! The punchsim benchmark driver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload in this single process for about `--seconds`
//! seconds, checks the simulator's outputs, prints every metric with its
//! unit, and ends with a one-line JSON result object. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` prints the per-layer split. See
//! README.md next to this package for the workloads and metrics.

mod drive;
mod phases;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;

use punchsim_campaign::DEFAULT_SEED;

use crate::workloads::{Settings, Workload};

/// Environment switches that select non-default simulator paths. The
/// benchmark always measures the defaults: one shard, the SoA kernel,
/// fast-forward on, full-length suites.
const SIMULATOR_SWITCHES: [&str; 5] = [
    "PP_FAST",
    "PP_NAIVE_TICK",
    "PP_SHARDS",
    "PP_SPAWN_TICK",
    "PP_STRUCT_TICK",
];

const USAGE: &str =
    "usage: punchsim-perfbench --workload <fullsys_parsec|busy_mesh|sparse_idle|verify_2x3> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut s = Settings {
        workload: Workload::FullsysParsec,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?);
            }
            "--seed" => s.seed = parse_u64(val).ok_or_else(|| format!("bad seed {val}"))?,
            "--seconds" => {
                s.seconds = parse_u64(val)
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("bad seconds {val}"))?;
            }
            "--trace" => {
                s.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                };
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    s.workload = workload.ok_or("--workload is required")?;
    Ok(s)
}

fn main() -> ExitCode {
    for k in SIMULATOR_SWITCHES {
        std::env::remove_var(k);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(&settings) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let s = parse_args(&args(&[
            "--workload",
            "busy_mesh",
            "--seed",
            "0x2a",
            "--seconds",
            "7",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(s.workload, Workload::BusyMesh);
        assert_eq!((s.seed, s.seconds, s.trace), (42, 7, true));
        let d = parse_args(&args(&["--workload", "verify_2x3"])).unwrap();
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(!d.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "busy_mesh", "--trace", "2"],
            &["--workload", "busy_mesh", "--seconds", "0"],
            &["--workload"],
            &["--workload", "busy_mesh", "--bogus", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
