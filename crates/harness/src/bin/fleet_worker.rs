//! One shard of a supervised fleet run — the harness's only worker.
//!
//! This is the child process the supervisor spawns, times out, kills,
//! and retries. It evaluates shard `i` of `N` of a named workload and
//! lands a checksummed artifact at `--shard-out`; under `--chaos` it
//! deterministically sabotages itself first (see
//! [`fleet_harness::chaos`]). The workload flags are read by
//! [`Workload::from_args`] and the worker flags by
//! [`WorkerConfig::from_args`], the inverses of the `to_args` pair the
//! supervisor spawns it with.
//!
//! ```text
//! fleet_worker --workload tiny|smoke|builtin|generated:N|golden200
//!              --seed S --shard i/N --shard-out PATH
//!              [--v2] [--threads T]
//!              [--chaos SEED --attempt K] [--fail]
//! ```
//!
//! `--threads T` pins the engine's worker threads; `0`, like leaving
//! the flag out, means all available cores.
//!
//! Exit codes follow [`fleet_harness::exit`].

use fleet_harness::{exit, run_worker, WorkerConfig, Workload};

fn main() {
    let parsed = Workload::from_args(std::env::args().skip(1)).and_then(|(workload, rest)| {
        WorkerConfig::from_args(rest).map(|config| (workload, config))
    });
    let (workload, config) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("fleet_worker: {e}");
            std::process::exit(exit::USAGE);
        }
    };
    match run_worker(&workload, &config) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("fleet_worker: {e}");
            std::process::exit(exit::FAILED);
        }
    }
}
