//! The Qoncord end-to-end benchmark: one command that runs a named
//! workload through the public APIs of the orchestrator, cloud, device and
//! simulator crates, checks its outputs, and prints every metric with its
//! unit. The last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload dm_contended --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the profiler off;
//! `--trace 1` runs the traced pass behind the per-layer metrics. See
//! `e2ebench/README.md` for every metric, workload and layer.

mod admission;
mod host;
mod layers;
mod orchestrated;
mod report;
mod stats;
mod workloads;

use report::{json_string, Outcome};
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SEED, HOLDOUT_SEED};

/// Environment overrides that would silently change a workload: the first
/// replaces `OrchestratorConfig::shards`, the second the simulator's
/// thread count.
const PINNED_ENV: [&str; 2] = ["QONCORD_SHARDS", "QONCORD_SIM_THREADS"];

/// Simulator kernel threads: shards are the benchmark's only parallelism,
/// so two shards never oversubscribe a two-core host.
const SIM_THREADS: usize = 1;

const USAGE: &str = "usage: qoncord-e2ebench --workload <dm_contended|traj_lockstep|\
small_jobs_fleet|admission_1e5> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn provenance(args: &Args) -> String {
    let shards = match args.workload {
        Workload::Admission1e5 => 0,
        w => workloads::orchestrated(w, args.seed).shards,
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"holdout_seed\": {HOLDOUT_SEED}, \"trace\": {}, \"nproc\": {}, \"cpu\": {}, \
         \"rustc\": {}, \"git_commit\": {}, \"shards\": {shards}, \"sim_threads\": {}, \
         \"cleared_env\": [\"{}\", \"{}\"]}}",
        json_string(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        json_string(&host::cpu_model()),
        json_string(host::rustc_version()),
        json_string(&host::git_commit()),
        qoncord_sim::par::threads(),
        PINNED_ENV[0],
        PINNED_ENV[1],
    )
}

fn main() -> ExitCode {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    qoncord_sim::par::set_threads(SIM_THREADS);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = Outcome::default();
    outcome.detail("provenance", provenance(&args));
    match (args.workload, args.trace) {
        (Workload::Admission1e5, false) => {
            admission::end_to_end(args.seed, args.seconds, &mut outcome)
        }
        (Workload::Admission1e5, true) => admission::traced(args.seed, args.seconds, &mut outcome),
        (w, false) => orchestrated::end_to_end(w, args.seed, args.seconds, &mut outcome),
        (w, true) => orchestrated::traced(w, args.seed, args.seconds, &mut outcome),
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        outcome.errors.push(format!(
            "{}: metric {} is not finite",
            args.workload.name(),
            m.name
        ));
    }
    print!("{}", outcome.table());
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(
            "--workload traj_lockstep --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::TrajLockstep,
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        let d = parse_args(&args("--workload admission_1e5")).expect("valid");
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(!d.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload dm_contended --trace 2",
            "--workload dm_contended --seconds -1",
            "--workload dm_contended --seed",
            "--workload dm_contended --fast 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
