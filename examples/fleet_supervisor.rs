//! Supervised multi-process fleet evaluation: spawn one `fleet_worker`
//! per shard, retry/timeout/kill what fails, merge what survives.
//!
//! ```text
//! cargo run --release --example fleet_supervisor -- --workload smoke --shards 2
//! cargo run --release --example fleet_supervisor -- --workload golden200 --seed 2026 \
//!     --shards 2 --chaos 101 --expect-digest 0xf6f8_c0ad_9b38_dde4
//! ```
//!
//! * `--workload tiny|smoke|builtin|generated:N|golden200` (default
//!   `smoke`), `--seed S` (default 42), `--v2`, `--threads T` — the
//!   workload, parsed by `Workload::from_args` exactly as
//!   `fleet_worker` parses it;
//! * `--shards N` (default 2) — worker processes to split across;
//! * `--timeout-ms N` / `--retries N` / `--backoff-ms N` — supervision
//!   policy (defaults: `SupervisorConfig::new`'s 10 min, 4 attempts,
//!   25 ms doubling backoff);
//! * `--chaos SEED` — deterministic fault injection: workers crash,
//!   stall, and corrupt their artifacts on a schedule that is a pure
//!   function of the seed, and the supervisor must recover;
//! * `--fail-shard I` (repeatable) — degradation drill: shard `I`
//!   fails unconditionally, exhausts its retries, and the run degrades
//!   to a partial scorecard with explicit coverage (an `I` outside
//!   `--shards` is an error, exit 3);
//! * `--out DIR` (default `target/fleet_supervisor`) — artifacts plus
//!   the merged `scorecard.json` and `coverage.json` (atomic writes);
//! * `--report PATH` — write the supervisor's run report (harness
//!   counters + absorbed worker ledgers) as JSON;
//! * `--expect-digest HEX` — fail (exit 3) unless the merged scorecard
//!   hashes to exactly this FNV-1a digest — the CI recovery gate;
//! * `--worker PATH` — the worker binary (default: the `fleet_worker`
//!   built next to this example).
//!
//! Exit codes follow `fleet_harness::exit`: 0 complete, 2 degraded,
//! 3 failed/regressed, 64 usage.

use std::time::Duration;

use fleet_harness::{exit, run_supervisor, SupervisorConfig, Workload};
use scenario_fleet::Collector;

struct Args {
    config: SupervisorConfig,
    report: Option<std::path::PathBuf>,
    expect_digest: Option<u64>,
    out_dir: std::path::PathBuf,
}

fn parse_digest(text: &str) -> Result<u64, String> {
    let cleaned = text.trim_start_matches("0x").replace('_', "");
    u64::from_str_radix(&cleaned, 16).map_err(|e| format!("bad digest {text:?}: {e}"))
}

fn default_worker() -> Result<std::path::PathBuf, String> {
    // Examples land in target/<profile>/examples/, binaries one level
    // up — the sibling fleet_worker from the same build.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let examples = exe.parent().ok_or("current_exe has no parent")?;
    let profile = examples.parent().ok_or("examples dir has no parent")?;
    Ok(profile.join(format!("fleet_worker{}", std::env::consts::EXE_SUFFIX)))
}

fn parse_args() -> Result<Args, String> {
    // The defaults go first, so the user's own --workload/--seed win.
    let defaults = ["--workload", "smoke", "--seed", "42"].map(String::from);
    let (workload, rest) =
        Workload::from_args(defaults.into_iter().chain(std::env::args().skip(1)))?;
    // Policy flags overwrite `SupervisorConfig::new`'s defaults.
    let mut config = SupervisorConfig::new(default_worker()?, workload, 2);
    let mut out_dir = std::path::PathBuf::from("target/fleet_supervisor");
    let mut report = None;
    let mut expect_digest = None;

    let mut args = rest.into_iter();
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        let parse_err = |e: std::num::ParseIntError| format!("{arg}: {e}");
        match arg.as_str() {
            "--shards" => {
                config.shard_count = next(&mut args, "--shards")?.parse().map_err(parse_err)?
            }
            "--timeout-ms" => {
                config.timeout = Duration::from_millis(
                    next(&mut args, "--timeout-ms")?
                        .parse()
                        .map_err(parse_err)?,
                )
            }
            "--retries" => {
                config.max_attempts = next(&mut args, "--retries")?.parse().map_err(parse_err)?
            }
            "--backoff-ms" => {
                config.backoff_base = Duration::from_millis(
                    next(&mut args, "--backoff-ms")?
                        .parse()
                        .map_err(parse_err)?,
                )
            }
            "--chaos" => {
                config.chaos_seed = Some(next(&mut args, "--chaos")?.parse().map_err(parse_err)?)
            }
            "--fail-shard" => config.fail_shards.push(
                next(&mut args, "--fail-shard")?
                    .parse()
                    .map_err(parse_err)?,
            ),
            "--out" => out_dir = next(&mut args, "--out")?.into(),
            "--report" => report = Some(next(&mut args, "--report")?.into()),
            "--expect-digest" => {
                expect_digest = Some(parse_digest(&next(&mut args, "--expect-digest")?)?)
            }
            "--worker" => config.worker_program = next(&mut args, "--worker")?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    config.artifact_dir = out_dir.join("artifacts");
    Ok(Args {
        config,
        report,
        expect_digest,
        out_dir,
    })
}

fn run(args: Args) -> Result<i32, String> {
    if !args.config.worker_program.exists() {
        return Err(format!(
            "worker binary {:?} not found — build it first (cargo build --bin fleet_worker)",
            args.config.worker_program
        ));
    }
    println!(
        "supervising {} × {} over {:?} (timeout {:?}, {} attempts{})",
        args.config.shard_count,
        args.config.workload.kind_name(),
        args.config.worker_program,
        args.config.timeout,
        args.config.max_attempts,
        match args.config.chaos_seed {
            Some(seed) => format!(", chaos seed {seed}"),
            None => String::new(),
        },
    );

    let collector = Collector::recording();
    let started = std::time::Instant::now();
    let run = run_supervisor(&args.config, &collector)?;
    println!(
        "outcome: {} in {:.2?}",
        run.outcome.name(),
        started.elapsed()
    );
    for shard in &run.shards {
        println!(
            "  shard {}: {} attempt(s){}{}",
            shard.shard_index,
            shard.attempts,
            if shard.completed { "" } else { " — LOST" },
            match &shard.last_error {
                Some(e) => format!(" (last error: {e})"),
                None => String::new(),
            },
        );
    }
    print!("{}", run.coverage.render_text());

    fleet_obs::fsio::write_atomic_str(
        &args.out_dir.join("coverage.json"),
        &run.coverage.to_json().render_pretty(),
    )?;
    if let Some(scorecard) = &run.scorecard {
        let json = scorecard.to_json_string();
        fleet_obs::fsio::write_atomic_str(&args.out_dir.join("scorecard.json"), &json)?;
        println!(
            "scorecard ({} scenario tables) written to {}",
            scorecard.per_scenario.len(),
            args.out_dir.join("scorecard.json").display()
        );
        if let Some(expected) = args.expect_digest {
            let digest = solar_trace::hash::fnv1a(&json);
            if digest != expected {
                eprintln!(
                    "digest mismatch: scorecard hashes to {digest:#018x}, expected {expected:#018x}"
                );
                return Ok(exit::FAILED);
            }
            println!("digest {digest:#018x} matches the pinned value");
        }
    } else if args.expect_digest.is_some() {
        eprintln!("digest check impossible: no scorecard survived");
        return Ok(exit::FAILED);
    }

    if let Some(path) = &args.report {
        let report = collector.report();
        report.write_atomic(path)?;
        println!("run report written to {}", path.display());
    }
    Ok(run.outcome.exit_code())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleet_supervisor: {e}");
            std::process::exit(exit::USAGE);
        }
    };
    match run(args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("fleet_supervisor: {e}");
            std::process::exit(exit::FAILED);
        }
    }
}
