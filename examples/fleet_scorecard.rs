//! Fleet scorecard: evaluate a predictor family × power-manager ×
//! scenario matrix through the fleet engine and print the ranked
//! results.
//!
//! Run with (all arguments optional):
//!
//! ```text
//! cargo run --release --example fleet_scorecard -- 42 8
//! cargo run --release --example fleet_scorecard -- 42 --shards 4
//! cargo run --release --example fleet_scorecard -- --smoke
//! cargo run --release --example fleet_scorecard -- --generated 64 --smoke
//! ```
//!
//! * positional args: master seed, then worker-thread count;
//! * `--shards N` — run the sharded reduction in-process: shard JSONs
//!   plus the manifest land in `target/`, and the example verifies the
//!   merged scorecard is byte-identical to the monolithic one;
//! * `--smoke` — a fast matrix that still spans a multi-year horizon:
//!   four regimes including the 3-year la-niña entry, evaluated under a
//!   bounded retention budget too small to keep the multi-year
//!   scenario's slot series across runs;
//! * `--generated N` — replace the builtin catalog with `N` scenarios
//!   from the parameterized catalog generator (seeded by the master
//!   seed; up to ~290 regimes across five climate families), evaluated
//!   under the bounded retention budget. With
//!   `--smoke`, the predictor family shrinks to the guideline set.
//! * `--report PATH` — attach a recording collector and write the full
//!   run report (deterministic ledger + phase-span timing) as JSON to
//!   `PATH`, plus a text summary to stdout. Collection does not move a
//!   byte of the scorecard output.
//!
//! Shards here are in-process; a shard in its own process runs through
//! the harness's `fleet_worker` (see `fleet_supervisor`).
//!
//! The run is deterministic for a given seed: the scorecard JSON (also
//! written to `target/fleet_scorecard.json`) is byte-identical across
//! runs, thread counts, shard counts, and trace-cache policies.
//!
//! Exit codes follow `fleet_harness::exit`: 0 success, 3 failure,
//! 64 usage.

use fleet_harness::exit;
use scenario_fleet::{
    Catalog, CatalogGenerator, Collector, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec,
    RunReport, Scorecard, TraceCachePolicy,
};

#[derive(Default)]
struct Args {
    seed: u64,
    threads: Option<usize>,
    shards: Option<usize>,
    smoke: bool,
    generated: Option<usize>,
    report: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut positional: Vec<u64> = Vec::new();
    let mut iter = std::env::args().skip(1);
    let next = |iter: &mut dyn Iterator<Item = String>, flag: &str| {
        iter.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--shards" => {
                args.shards = Some(
                    next(&mut iter, "--shards")?
                        .parse()
                        .map_err(|e| format!("bad shard count: {e}"))?,
                )
            }
            "--generated" => {
                args.generated = Some(
                    next(&mut iter, "--generated")?
                        .parse()
                        .map_err(|e| format!("bad generated count: {e}"))?,
                )
            }
            "--report" => args.report = Some(next(&mut iter, "--report")?.into()),
            other => positional.push(
                other
                    .parse()
                    .map_err(|e| format!("unexpected argument {other:?}: {e}"))?,
            ),
        }
    }
    if let Some(&seed) = positional.first() {
        args.seed = seed;
    }
    args.threads = positional.get(1).map(|&t| t as usize);
    Ok(args)
}

fn run(args: Args) -> Result<i32, String> {
    let seed = args.seed;
    let threads = args.threads;

    let catalog = Catalog::builtin();
    let (scenarios, predictors) = if let Some(count) = args.generated {
        // The parameterized catalog: `count` regimes expanded from the
        // master seed, round-robin across the five climate families.
        let generator = CatalogGenerator::new(seed);
        println!(
            "generated catalog: {count} of {} template regimes (seed {seed})",
            generator.total()
        );
        (
            generator.generate(count)?.scenarios().to_vec(),
            if args.smoke {
                PredictorSpec::guideline_family()
            } else {
                PredictorSpec::extended_family()
            },
        )
    } else if args.smoke {
        // Four regimes spanning desert → polar plus the 3-year la-niña
        // anomaly — the multi-year entry is the point of the smoke run.
        let names = [
            "desert-clear-sky",
            "marine-fog",
            "arctic-winter",
            "la-nina-triennium",
        ];
        (
            names
                .iter()
                .map(|name| catalog.get(name).expect("builtin").clone())
                .collect::<Vec<_>>(),
            PredictorSpec::guideline_family(),
        )
    } else {
        (
            catalog.scenarios().to_vec(),
            PredictorSpec::extended_family(),
        )
    };
    let matrix = FleetMatrix::new(predictors, ManagerSpec::default_set(), scenarios)?;
    println!(
        "fleet: {} predictors × {} managers × {} scenarios = {} jobs (seed {seed})",
        matrix.predictors.len(),
        matrix.managers.len(),
        matrix.scenarios.len(),
        matrix.job_count(),
    );

    // A bounded trace cache keeps only the series that fit; results
    // are byte-identical either way. The smoke budget is tight enough
    // that the 3-year la-niña series (≈0.8 MiB) is not retained.
    let budget: u64 = if args.smoke { 512 << 10 } else { 4 << 20 };
    let collector = if args.report.is_some() {
        Collector::recording()
    } else {
        Collector::noop()
    };
    let mut engine = FleetEngine::new(seed)
        .with_trace_cache(TraceCachePolicy::bounded(budget))
        .with_collector(collector.clone());
    if let Some(threads) = threads {
        engine = engine.with_threads(threads);
    }

    let started = std::time::Instant::now();
    // One shared cache: the optional sharded pass below answers every
    // job from it instead of re-evaluating the matrix.
    let mut cache = engine.new_cache();
    let result = engine.run_cached(&matrix, &mut cache)?;
    println!(
        "evaluated {} jobs in {:.2?} on {} threads — {} without a retained series (trace cache ≤ {} KiB), {} retained",
        result.outcomes.len(),
        started.elapsed(),
        threads
            .map(|t| t.to_string())
            .unwrap_or_else(|| "default".to_string()),
        result.streamed_jobs,
        budget >> 10,
        result.outcomes.len() - result.streamed_jobs,
    );

    if let Some(shard_count) = args.shards {
        let sharded = engine.run_sharded_cached(&matrix, shard_count, &mut cache)?;
        assert_eq!(
            sharded.cached_jobs,
            matrix.job_count(),
            "the sharded pass must be answered entirely from the warm cache"
        );
        let merged = Scorecard::merge_shards(&sharded.manifest, &sharded.shards)?;
        assert_eq!(
            merged.to_json_string(),
            result.scorecard.to_json_string(),
            "merged shards must reproduce the monolithic scorecard byte-for-byte"
        );
        let manifest_path = std::path::Path::new("target").join("fleet_manifest.json");
        fleet_obs::fsio::write_atomic_str(
            &manifest_path,
            &sharded.manifest.to_json().render_pretty(),
        )?;
        for shard in &sharded.shards {
            let path = std::path::Path::new("target")
                .join(format!("fleet_shard_{}.json", shard.shard_index));
            fleet_obs::fsio::write_atomic_str(&path, &shard.to_json().render_pretty())?;
        }
        println!(
            "sharded into {} shards (target/fleet_manifest.json + shards); \
             merge verified byte-identical",
            sharded.manifest.shard_count
        );
    }

    println!("\n=== overall ranking (score = 2·brownout + waste + 0.5·MAPE) ===");
    print!("{}", result.scorecard.render_text());

    println!("\n=== per-scenario winners ===");
    for ranking in &result.scorecard.per_scenario {
        let best = &ranking.entries[0];
        println!(
            "{:<24} {} + {}  (MAPE {:.2}%, brownout {:.2}%)",
            ranking.scenario,
            best.predictor,
            best.manager,
            best.mape * 100.0,
            best.brownout_rate * 100.0,
        );
    }

    let json = result.scorecard.to_json_string();
    let path = std::path::Path::new("target").join("fleet_scorecard.json");
    fleet_obs::fsio::write_atomic_str(&path, &json)?;
    println!("\nscorecard JSON written to {}", path.display());

    let winner = result.scorecard.winner().expect("non-empty matrix");
    println!(
        "\nwinner: {} + {} (score {:.3})",
        winner.predictor, winner.manager, winner.score
    );

    if let Some(path) = args.report {
        let report = collector.report();
        // Round-trip before writing: a report that does not parse is a
        // bug, and the CI step relies on this check.
        RunReport::from_json_str(&report.to_json_string())?;
        report.write_atomic(&path)?;
        println!("\n=== run report (written to {}) ===", path.display());
        print!("{}", report.render_text());
    }
    Ok(exit::SUCCESS)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleet_scorecard: {e}");
            std::process::exit(exit::USAGE);
        }
    };
    match run(args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("fleet_scorecard: {e}");
            std::process::exit(exit::FAILED);
        }
    }
}
