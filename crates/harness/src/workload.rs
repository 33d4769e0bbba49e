//! Named fleet workloads, shared by the worker binary, the supervisor,
//! and the tests.
//!
//! The supervisor and its workers live in different processes, so they
//! can only agree on *what to evaluate* through the command line. A
//! [`Workload`] is that agreement made first-class: a small value that
//! both sides construct identically — the supervisor to derive the
//! expected [`ShardManifest`] and coverage, the worker to build the
//! matrix it actually runs — with a lossless
//! [`Workload::to_args`]/[`Workload::from_args`] round-trip between
//! them, and one `Workload::shard_plan` for both to split by.

use scenario_fleet::{
    Catalog, CatalogGenerator, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec, Scenario,
    ShardManifest, StreamVersion, TraceCachePolicy,
};

/// Which matrix a workload expands to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Three builtin regimes × one predictor × one manager — the
    /// debug-speed matrix the recovery tests drill on.
    Tiny,
    /// The fleet_scorecard `--smoke` matrix: four regimes (including
    /// the 3-year la-niña entry) × guideline predictors × default
    /// managers.
    Smoke,
    /// The full builtin catalog × extended predictors × default
    /// managers.
    Builtin,
    /// `count` scenarios from the parameterized catalog generator ×
    /// extended predictors × default managers.
    Generated {
        /// How many regimes to generate.
        count: usize,
    },
    /// The pinned 200-regime golden matrix: generated catalog ×
    /// `Wcma{0.7,10,2}` × `EnergyNeutral{0.5,0.25}` — the workload
    /// whose scorecard digest CI holds byte-constant.
    Golden200,
}

/// A complete, CLI-serialisable description of one fleet evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Master seed (drives generation and per-scenario seeds).
    pub seed: u64,
    /// The matrix to expand.
    pub kind: WorkloadKind,
    /// Evaluate on the v2 (lane-order) synthesis stream. Only the
    /// generated kinds carry a stream version.
    pub v2: bool,
    /// The engine's worker-thread count (`--threads`); `None` or `0`
    /// means all available cores.
    pub threads: Option<usize>,
}

impl Workload {
    /// A workload of `kind` under `seed`.
    pub fn new(seed: u64, kind: WorkloadKind) -> Self {
        Workload {
            seed,
            kind,
            v2: false,
            threads: None,
        }
    }

    /// Override the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The trace-cache budget this workload runs under.
    pub fn effective_budget(&self) -> u64 {
        match self.kind {
            WorkloadKind::Tiny | WorkloadKind::Smoke => 2 << 20,
            _ => 4 << 20,
        }
    }

    fn builtin_subset(names: &[&str]) -> Result<Vec<Scenario>, String> {
        let catalog = Catalog::builtin();
        names
            .iter()
            .map(|name| {
                catalog
                    .get(name)
                    .cloned()
                    .ok_or_else(|| format!("builtin scenario {name:?} missing"))
            })
            .collect()
    }

    /// Expands the workload into its fleet matrix. Deterministic: both
    /// sides of the process boundary call this and must see the same
    /// scenario list in the same order.
    pub fn matrix(&self) -> Result<FleetMatrix, String> {
        if self.v2
            && !matches!(
                self.kind,
                WorkloadKind::Generated { .. } | WorkloadKind::Golden200
            )
        {
            return Err("--v2 requires a generated workload".to_string());
        }
        let generated = |count: usize| -> Result<Vec<Scenario>, String> {
            let mut generator = CatalogGenerator::new(self.seed);
            if self.v2 {
                generator = generator.with_stream_version(StreamVersion::V2);
            }
            Ok(generator.generate(count)?.scenarios().to_vec())
        };
        let (scenarios, predictors, managers) = match self.kind {
            WorkloadKind::Tiny => (
                Self::builtin_subset(&["desert-clear-sky", "marine-fog", "continental-storms"])?,
                vec![PredictorSpec::Wcma {
                    alpha: 0.7,
                    days: 10,
                    k: 2,
                }],
                vec![ManagerSpec::Greedy],
            ),
            WorkloadKind::Smoke => (
                Self::builtin_subset(&[
                    "desert-clear-sky",
                    "marine-fog",
                    "arctic-winter",
                    "la-nina-triennium",
                ])?,
                PredictorSpec::guideline_family(),
                ManagerSpec::default_set(),
            ),
            WorkloadKind::Builtin => (
                Catalog::builtin().scenarios().to_vec(),
                PredictorSpec::extended_family(),
                ManagerSpec::default_set(),
            ),
            WorkloadKind::Generated { count } => (
                generated(count)?,
                PredictorSpec::extended_family(),
                ManagerSpec::default_set(),
            ),
            WorkloadKind::Golden200 => (
                generated(200)?,
                vec![PredictorSpec::Wcma {
                    alpha: 0.7,
                    days: 10,
                    k: 2,
                }],
                vec![ManagerSpec::EnergyNeutral {
                    target_soc: 0.5,
                    gain: 0.25,
                }],
            ),
        };
        FleetMatrix::new(predictors, managers, scenarios)
    }

    /// The matrix and its [`ShardManifest::round_robin`] split into
    /// `shard_count` shards — the plan the supervisor expects and every
    /// worker runs its shard of.
    ///
    /// # Errors
    ///
    /// A shard count outside `1..=scenarios` (an empty shard has nothing
    /// to run), or a matrix that does not expand.
    pub(crate) fn shard_plan(
        &self,
        shard_count: usize,
    ) -> Result<(FleetMatrix, ShardManifest), String> {
        let matrix = self.matrix()?;
        if shard_count == 0 || shard_count > matrix.scenarios.len() {
            return Err(format!(
                "shard count {shard_count} invalid for {} scenarios",
                matrix.scenarios.len()
            ));
        }
        let manifest = ShardManifest::round_robin(&matrix, self.seed, shard_count);
        Ok((matrix, manifest))
    }

    /// The engine this workload evaluates under (bounded trace cache,
    /// optional thread pin). Collector, quarantine, and chaos are the
    /// worker's to attach.
    pub fn engine(&self) -> FleetEngine {
        let mut engine = FleetEngine::new(self.seed)
            .with_trace_cache(TraceCachePolicy::bounded(self.effective_budget()));
        if let Some(threads) = self.threads {
            engine = engine.with_threads(threads);
        }
        engine
    }

    /// The kind's CLI name.
    pub fn kind_name(&self) -> String {
        match self.kind {
            WorkloadKind::Tiny => "tiny".to_string(),
            WorkloadKind::Smoke => "smoke".to_string(),
            WorkloadKind::Builtin => "builtin".to_string(),
            WorkloadKind::Generated { count } => format!("generated:{count}"),
            WorkloadKind::Golden200 => "golden200".to_string(),
        }
    }

    /// Parses a kind CLI name.
    pub fn parse_kind(name: &str) -> Result<WorkloadKind, String> {
        match name {
            "tiny" => Ok(WorkloadKind::Tiny),
            "smoke" => Ok(WorkloadKind::Smoke),
            "builtin" => Ok(WorkloadKind::Builtin),
            "golden200" => Ok(WorkloadKind::Golden200),
            other => match other.strip_prefix("generated:") {
                Some(count) => Ok(WorkloadKind::Generated {
                    count: count
                        .parse()
                        .map_err(|e| format!("bad generated count {count:?}: {e}"))?,
                }),
                None => Err(format!("unknown workload {other:?}")),
            },
        }
    }

    /// The worker-CLI arguments that reconstruct this workload.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            self.kind_name(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if self.v2 {
            args.push("--v2".to_string());
        }
        if let Some(threads) = self.threads {
            args.push("--threads".to_string());
            args.push(threads.to_string());
        }
        args
    }

    /// Parses the workload flags out of a command line — the inverse of
    /// [`Workload::to_args`]. `--workload` and `--seed` are required;
    /// `--v2` and `--threads` are optional; a repeated flag overrides
    /// the earlier one. Every other argument is returned, in order, for
    /// the caller to parse.
    ///
    /// # Errors
    ///
    /// A missing `--workload` or `--seed`, a flag without its value, or
    /// a value that does not parse.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Workload, Vec<String>), String> {
        let mut kind = None;
        let mut seed = None;
        let mut v2 = false;
        let mut threads = None;
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => kind = Some(Self::parse_kind(&value()?)?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad seed: {e}"))?),
                "--v2" => v2 = true,
                "--threads" => {
                    threads = Some(value()?.parse().map_err(|e| format!("bad threads: {e}"))?)
                }
                _ => rest.push(arg),
            }
        }
        let workload = Workload {
            seed: seed.ok_or("--seed is required")?,
            kind: kind.ok_or("--workload is required")?,
            v2,
            threads,
        };
        Ok((workload, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn args_round_trip() {
        for workload in [
            Workload::new(42, WorkloadKind::Tiny),
            Workload::new(7, WorkloadKind::Smoke).with_threads(1),
            Workload {
                v2: true,
                ..Workload::new(2026, WorkloadKind::Golden200)
            }
            .with_threads(2),
            Workload::new(9, WorkloadKind::Generated { count: 16 }),
        ] {
            let (parsed, rest) = Workload::from_args(workload.to_args()).unwrap();
            assert_eq!(parsed, workload);
            assert!(rest.is_empty(), "{rest:?}");
        }
        // Foreign flags pass through in order, and a later workload flag
        // overrides an earlier one — the supervisor puts its defaults
        // ahead of the user's arguments.
        for (words, workload, rest) in [
            (
                &[
                    "--shard",
                    "1/2",
                    "--workload",
                    "golden200",
                    "--fail",
                    "--seed",
                    "2026",
                    "--v2",
                    "--shard-out",
                    "out.artifact",
                ][..],
                Workload {
                    v2: true,
                    ..Workload::new(2026, WorkloadKind::Golden200)
                },
                &["--shard", "1/2", "--fail", "--shard-out", "out.artifact"][..],
            ),
            (
                &[
                    "--workload",
                    "smoke",
                    "--seed",
                    "42",
                    "--workload",
                    "golden200",
                    "--seed",
                    "2026",
                    "--shards",
                    "2",
                ][..],
                Workload::new(2026, WorkloadKind::Golden200),
                &["--shards", "2"][..],
            ),
        ] {
            assert_eq!(
                Workload::from_args(args(words)).unwrap(),
                (workload, args(rest)),
                "{words:?}"
            );
        }
    }

    #[test]
    fn from_args_rejects_missing_and_value_less_flags() {
        for (words, wanted) in [
            (&["--seed", "1"][..], "--workload"),
            (&["--workload", "tiny"][..], "--seed"),
            (
                &["--workload", "tiny", "--seed"][..],
                "--seed needs a value",
            ),
            (&["--workload", "tiny", "--seed", "x"][..], "bad seed"),
        ] {
            let err = Workload::from_args(args(words)).unwrap_err();
            assert!(err.contains(wanted), "{words:?}: {err}");
        }
    }

    #[test]
    fn tiny_matrix_is_three_jobs_and_v2_needs_generation() {
        let matrix = Workload::new(1, WorkloadKind::Tiny).matrix().unwrap();
        assert_eq!(matrix.job_count(), 3);
        let err = Workload {
            v2: true,
            ..Workload::new(1, WorkloadKind::Tiny)
        }
        .matrix()
        .unwrap_err();
        assert!(err.contains("--v2"), "{err}");
    }

    #[test]
    fn golden_matrix_matches_the_pinned_shape() {
        let matrix = Workload::new(2026, WorkloadKind::Golden200)
            .matrix()
            .unwrap();
        assert_eq!(matrix.scenarios.len(), 200);
        assert_eq!(matrix.job_count(), 200);
        let v2 = Workload {
            v2: true,
            ..Workload::new(2026, WorkloadKind::Golden200)
        }
        .matrix()
        .unwrap();
        assert!(v2.scenarios.iter().all(|s| s.name.ends_with("-v2")));
    }
}
