//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--days DAYS] [--out DIR] (all | list | <experiment-id>...)
//! ```
//!
//! Experiment ids (`repro list` prints them) are `table1` … `table5`,
//! `fig2`, `fig6`, `fig7`, plus the ablations. Tables print to stdout
//! and are saved as CSV under `--out` (default `target/experiments`).

use paper_repro::{experiments, Context};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    days: usize,
    out: PathBuf,
    ids: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut days = 365usize;
    let mut out = PathBuf::from("target/experiments");
    let mut ids = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--days" => {
                let value = argv.next().ok_or("--days needs a value")?;
                days = value
                    .parse()
                    .map_err(|_| format!("invalid --days value {value:?}"))?;
                if days < 25 {
                    return Err("--days must be at least 25 (20 warm-up + evaluation)".into());
                }
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" => {
                return Err("usage: repro [--days DAYS] [--out DIR] (all | list | <id>...)".into())
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return Err("no experiment given; try `repro list` or `repro all`".into());
    }
    Ok(Args { days, out, ids })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if args.ids.iter().any(|id| id == "list") {
        println!("available experiments:");
        for (id, _) in experiments::ALL {
            println!("  {id}");
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<_> = if args.ids.iter().any(|id| id == "all") {
        experiments::ALL.to_vec()
    } else {
        let mut selected = Vec::new();
        for id in &args.ids {
            match experiments::ALL.iter().find(|(known, _)| known == id) {
                Some(&experiment) => selected.push(experiment),
                None => {
                    eprintln!("unknown experiment {id:?}; try `repro list`");
                    return ExitCode::FAILURE;
                }
            }
        }
        selected
    };

    eprintln!(
        "generating 6 data sets of {} days (seed {})...",
        args.days,
        paper_repro::datasets::DATASET_SEED
    );
    let ctx = Context::with_days(args.days);

    for (id, run) in selected {
        let started = std::time::Instant::now();
        let output = run(&ctx);
        println!("\n=== {} ===", output.title);
        for (name, table) in &output.tables {
            if table.len() > 60 {
                println!("[{name}: {} rows, see CSV]", table.len());
            } else {
                println!("{table}");
            }
        }
        match output.save_csvs(&args.out) {
            Ok(paths) => {
                for path in paths {
                    eprintln!("wrote {}", path.display());
                }
            }
            Err(err) => {
                eprintln!("failed to save CSVs for {id}: {err}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[{id} took {:.1?}]", started.elapsed());
    }
    ExitCode::SUCCESS
}
