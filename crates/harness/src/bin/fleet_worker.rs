//! One shard of a supervised fleet run — the harness's only worker.
//!
//! This is the child process the supervisor spawns, times out, kills,
//! and retries. It evaluates shard `i` of `N` of a named workload and
//! lands a checksummed artifact at `--shard-out`; under `--chaos` it
//! deterministically sabotages itself first (see
//! [`fleet_harness::chaos`]). The workload flags are read by
//! [`Workload::from_args`], the inverse of the `Workload::to_args`
//! the supervisor spawns it with.
//!
//! ```text
//! fleet_worker --workload tiny|smoke|builtin|generated:N|golden200
//!              --seed S --shard i/N --shard-out PATH
//!              [--v2] [--threads T]
//!              [--chaos SEED --attempt K] [--fail]
//! ```
//!
//! Exit codes follow [`fleet_harness::exit`].

use fleet_harness::worker::{ChaosSpec, WorkerConfig};
use fleet_harness::{exit, run_worker, Workload};

fn parse_args() -> Result<(Workload, WorkerConfig), String> {
    let (workload, rest) = Workload::from_args(std::env::args().skip(1))?;
    let mut shard: Option<(usize, usize)> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut attempt: u32 = 0;
    let mut fail = false;

    let mut args = rest.into_iter();
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shard" => {
                let spec = next(&mut args, "--shard")?;
                let (index, count) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("--shard wants i/N, got {spec:?}"))?;
                shard = Some((
                    index.parse().map_err(|e| format!("bad shard index: {e}"))?,
                    count.parse().map_err(|e| format!("bad shard count: {e}"))?,
                ));
            }
            "--shard-out" => out = Some(next(&mut args, "--shard-out")?.into()),
            "--chaos" => {
                chaos_seed = Some(
                    next(&mut args, "--chaos")?
                        .parse()
                        .map_err(|e| format!("bad chaos seed: {e}"))?,
                )
            }
            "--attempt" => {
                attempt = next(&mut args, "--attempt")?
                    .parse()
                    .map_err(|e| format!("bad attempt: {e}"))?
            }
            "--fail" => fail = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    let (shard_index, shard_count) = shard.ok_or("--shard is required")?;
    let out_path = out.ok_or("--shard-out is required")?;
    Ok((
        workload,
        WorkerConfig {
            shard_index,
            shard_count,
            out_path,
            chaos: chaos_seed.map(|seed| ChaosSpec { seed, attempt }),
            fail,
        },
    ))
}

fn main() {
    let (workload, config) = match parse_args() {
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
