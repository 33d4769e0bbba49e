//! The worker half of the harness: evaluate one shard of a workload
//! in-process and land the result on disk as a checksummed artifact.
//!
//! A worker is the unit the supervisor retries, times out, and kills —
//! so everything it produces must be legible from outside the process:
//! the shard's ranking tables, the manifest it believed in, the
//! scenarios it had to quarantine, and its deterministic ledger, all in
//! one [`ShardRunArtifact`]. The artifact is written atomically
//! ([`crate::artifact`]), so a worker that dies mid-write leaves either
//! nothing or a complete, verifiable file — never a half-truth the
//! merge could ingest.
//!
//! Shard assignment is the workload's shard plan:
//! [`ShardManifest::round_robin`] over the *full* matrix, exactly the
//! split [`FleetEngine::run_sharded`](scenario_fleet::FleetEngine) uses
//! in-process. The artifact's tables are the sub-matrix run's own
//! scorecard tables — the worker ranks nothing itself. That is what
//! makes "1 host ≡ N processes" hold byte-for-byte: per-scenario seeds
//! derive from (master seed, scenario name), so evaluating a sub-matrix
//! reproduces the full run's tables for those scenarios exactly.

use std::path::PathBuf;

use scenario_fleet::{Collector, FleetMatrix, QuarantinedScenario, ScorecardShard, ShardManifest};

use crate::artifact::{self, ArtifactError, ArtifactErrorKind};
use crate::chaos::{ChaosMode, ChaosPlan};
use crate::exit;
use crate::workload::Workload;

/// Envelope kind of a shard-run artifact.
pub const SHARD_RUN_KIND: &str = "shard-run";
/// Payload schema id of a shard-run artifact.
pub const SHARD_RUN_SCHEMA: &str = "fleet-shard-run/1";

/// Chaos coordinates of one worker attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The chaos seed (shared by every attempt of a run).
    pub seed: u64,
    /// Which attempt this is, 0-based — the supervisor increments it on
    /// every retry so the plan can schedule a clean tail.
    pub attempt: u32,
}

/// One worker invocation: which shard, where to land the artifact, and
/// what (if any) chaos to self-inject.
///
/// [`WorkerConfig::to_args`]/[`WorkerConfig::from_args`] are the one
/// contract for these flags between the supervisor that spawns a worker
/// and the `fleet_worker` binary that reads them, as
/// [`Workload::to_args`]/[`Workload::from_args`] are for the workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerConfig {
    /// This worker's shard in `0..shard_count`.
    pub shard_index: usize,
    /// Total shard count.
    pub shard_count: usize,
    /// Where the artifact lands.
    pub out_path: PathBuf,
    /// Deterministic self-sabotage, if any.
    pub chaos: Option<ChaosSpec>,
    /// Fail unconditionally (exit nonzero, no artifact) — the
    /// degradation drills' way of exhausting a retry budget.
    pub fail: bool,
}

impl WorkerConfig {
    /// The worker-CLI arguments that reconstruct this configuration;
    /// they follow [`Workload::to_args`] on a worker's command line.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--shard".to_string(),
            format!("{}/{}", self.shard_index, self.shard_count),
            "--shard-out".to_string(),
            self.out_path.display().to_string(),
        ];
        if let Some(spec) = self.chaos {
            args.extend([
                "--chaos".to_string(),
                spec.seed.to_string(),
                "--attempt".to_string(),
                spec.attempt.to_string(),
            ]);
        }
        if self.fail {
            args.push("--fail".to_string());
        }
        args
    }

    /// Parses the worker flags — the inverse of
    /// [`WorkerConfig::to_args`], applied to what
    /// [`Workload::from_args`] leaves over. `--shard i/N` and
    /// `--shard-out` are required; `--attempt` counts only with
    /// `--chaos` and defaults to 0.
    ///
    /// # Errors
    ///
    /// A missing required flag, a flag without its value, a value that
    /// does not parse, or an argument that is not a worker flag.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<WorkerConfig, String> {
        let mut shard = None;
        let mut out_path = None;
        let mut chaos_seed = None;
        let mut attempt = 0;
        let mut fail = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--shard" => {
                    let spec = value()?;
                    let (index, count) = spec
                        .split_once('/')
                        .ok_or_else(|| format!("--shard wants i/N, got {spec:?}"))?;
                    shard = Some((
                        index.parse().map_err(|e| format!("bad shard index: {e}"))?,
                        count.parse().map_err(|e| format!("bad shard count: {e}"))?,
                    ));
                }
                "--shard-out" => out_path = Some(PathBuf::from(value()?)),
                "--chaos" => {
                    chaos_seed = Some(
                        value()?
                            .parse()
                            .map_err(|e| format!("bad chaos seed: {e}"))?,
                    )
                }
                "--attempt" => {
                    attempt = value()?.parse().map_err(|e| format!("bad attempt: {e}"))?
                }
                "--fail" => fail = true,
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        let (shard_index, shard_count) = shard.ok_or("--shard is required")?;
        Ok(WorkerConfig {
            shard_index,
            shard_count,
            out_path: out_path.ok_or("--shard-out is required")?,
            chaos: chaos_seed.map(|seed| ChaosSpec { seed, attempt }),
            fail,
        })
    }
}

/// Everything one completed worker attempt hands the supervisor.
#[derive(Clone, Debug)]
pub struct ShardRunArtifact {
    /// This worker's shard index.
    pub shard_index: usize,
    /// Total shard count the worker assumed.
    pub shard_count: usize,
    /// The full-matrix manifest the worker derived — the supervisor
    /// cross-checks it byte-for-byte against its own expectation.
    pub manifest: ShardManifest,
    /// The shard's ranking tables and cost.
    pub shard: ScorecardShard,
    /// Scenarios whose work units panicked and were quarantined
    /// (empty on a clean run).
    pub quarantined: Vec<QuarantinedScenario>,
    /// The worker's deterministic ledger.
    pub ledger: fleet_obs::Ledger,
}

impl ShardRunArtifact {
    /// The deterministic JSON payload.
    pub fn to_json(&self) -> fleet_obs::json::Json {
        use fleet_obs::json::Json;
        Json::obj([
            ("schema", Json::Str(SHARD_RUN_SCHEMA.to_string())),
            ("shard_index", Json::Num(self.shard_index as f64)),
            ("shard_count", Json::Num(self.shard_count as f64)),
            ("manifest", self.manifest.to_json()),
            ("shard", self.shard.to_json()),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|q| {
                            Json::obj([
                                ("scenario", Json::Str(q.scenario.clone())),
                                ("error", Json::Str(q.error.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("ledger", self.ledger.to_json()),
        ])
    }

    /// Parses the JSON payload.
    pub fn from_json(value: &fleet_obs::json::Json) -> Result<ShardRunArtifact, String> {
        let schema = value.req_str("schema")?;
        if schema != SHARD_RUN_SCHEMA {
            return Err(format!("unsupported shard-run schema {schema:?}"));
        }
        Ok(ShardRunArtifact {
            shard_index: value.req_index("shard_index")? as usize,
            shard_count: value.req_index("shard_count")? as usize,
            manifest: ShardManifest::from_json(value.req("manifest")?)?,
            shard: ScorecardShard::from_json(value.req("shard")?)?,
            quarantined: value
                .req("quarantined")?
                .as_arr()
                .ok_or("quarantined must be an array")?
                .iter()
                .map(|q| {
                    Ok(QuarantinedScenario {
                        scenario: q.req_str("scenario")?.to_string(),
                        error: q.req_str("error")?.to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            ledger: fleet_obs::Ledger::from_json(value.req("ledger")?)?,
        })
    }

    /// Writes the artifact atomically under the checksummed envelope.
    pub fn write_atomic(&self, path: &std::path::Path) -> Result<(), String> {
        artifact::write_artifact_atomic(
            path,
            SHARD_RUN_KIND,
            self.to_json().render_pretty().as_bytes(),
        )
    }

    /// Reads and fully verifies an artifact: envelope checksum, JSON
    /// payload, schema. Every failure is a typed [`ArtifactError`].
    pub fn read(path: &std::path::Path) -> Result<ShardRunArtifact, ArtifactError> {
        let json = artifact::read_artifact_json(path, SHARD_RUN_KIND)?;
        Self::from_json(&json).map_err(|e| ArtifactError {
            artifact: path.display().to_string(),
            offset: None,
            kind: ArtifactErrorKind::Payload(e),
        })
    }
}

/// The sub-matrix of `matrix` that `manifest` assigns to `shard_index`.
pub fn shard_sub_matrix(
    matrix: &FleetMatrix,
    manifest: &ShardManifest,
    shard_index: usize,
) -> Result<FleetMatrix, String> {
    let scenarios: Vec<_> = matrix
        .scenarios
        .iter()
        .zip(&manifest.scenarios)
        .filter(|(_, (_, shard))| *shard == shard_index)
        .map(|(s, _)| s.clone())
        .collect();
    FleetMatrix::new(
        matrix.predictors.clone(),
        matrix.managers.clone(),
        scenarios,
    )
}

/// Runs the full worker protocol for one attempt: chaos gates, shard
/// evaluation, atomic artifact write, post-write corruption (chaos
/// again). Returns the process exit code the caller should exit with.
///
/// # Errors
///
/// Usage-level problems (bad shard coordinates, un-shardable matrix) —
/// the caller maps these to [`exit::USAGE`].
pub fn run_worker(workload: &Workload, config: &WorkerConfig) -> Result<i32, String> {
    if config.shard_count == 0 || config.shard_index >= config.shard_count {
        return Err(format!(
            "shard {}/{} out of range",
            config.shard_index, config.shard_count
        ));
    }
    if config.fail {
        // The degradation drill: burn the attempt without a trace.
        return Ok(exit::FAILED);
    }
    let mode = match config.chaos {
        Some(spec) => ChaosPlan::new(spec.seed).mode(config.shard_index, spec.attempt),
        None => ChaosMode::Clean,
    };
    match mode {
        ChaosMode::ExitMidRun => return Ok(exit::CHAOS_KILLED),
        ChaosMode::Stall => {
            // Hang until the supervisor loses patience and kills us.
            // Bounded so an unsupervised chaos worker still terminates.
            std::thread::sleep(std::time::Duration::from_secs(3600));
            return Ok(exit::FAILED);
        }
        _ => {}
    }

    let (matrix, manifest) = workload.shard_plan(config.shard_count)?;
    let sub_matrix = shard_sub_matrix(&matrix, &manifest, config.shard_index)?;

    let collector = Collector::recording();
    let mut engine = workload
        .engine()
        .with_collector(collector.clone())
        .with_quarantine(true);
    if mode == ChaosMode::PanicUnit {
        // Deterministic target: the shard's first scenario.
        engine = engine.with_chaos_unit_panic(&sub_matrix.scenarios[0].name);
    }
    let result = engine.run(&sub_matrix)?;

    let artifact = ShardRunArtifact {
        shard_index: config.shard_index,
        shard_count: config.shard_count,
        manifest,
        shard: ScorecardShard {
            shard_index: config.shard_index,
            master_seed: workload.seed,
            per_scenario: result.scorecard.per_scenario,
            cost: result.scorecard.cost,
        },
        quarantined: result.quarantined,
        ledger: collector.ledger(),
    };
    artifact.write_atomic(&config.out_path)?;

    // Post-write corruption: the artifact was written correctly and
    // atomically; now damage it the way a failing medium would.
    if matches!(
        mode,
        ChaosMode::TruncateArtifact | ChaosMode::BitFlipArtifact
    ) {
        let spec = config.chaos.expect("chaos mode implies chaos spec");
        let plan = ChaosPlan::new(spec.seed);
        let mut bytes = std::fs::read(&config.out_path).map_err(|e| e.to_string())?;
        let (offset, bit) =
            plan.corruption_site(config.shard_index, spec.attempt, bytes.len() as u64);
        match mode {
            ChaosMode::TruncateArtifact => bytes.truncate(offset.max(1) as usize),
            _ => bytes[offset as usize] ^= 1 << bit,
        }
        std::fs::write(&config.out_path, &bytes).map_err(|e| e.to_string())?;
    }
    Ok(exit::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;
    use scenario_fleet::Scorecard;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("harness_worker_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn worker_args_round_trip() {
        for (chaos, fail) in [
            (None, false),
            (
                Some(ChaosSpec {
                    seed: 101,
                    attempt: 2,
                }),
                false,
            ),
            (None, true),
            (
                Some(ChaosSpec {
                    seed: u64::MAX,
                    attempt: 0,
                }),
                true,
            ),
        ] {
            let config = WorkerConfig {
                shard_index: 1,
                shard_count: 3,
                out_path: PathBuf::from("out dir/shard_1_attempt_2.artifact"),
                chaos,
                fail,
            };
            assert_eq!(WorkerConfig::from_args(config.to_args()), Ok(config));
        }
        // What a supervisor spawns: the worker flags follow the workload's.
        let workload = Workload {
            v2: true,
            ..Workload::new(2026, WorkloadKind::Golden200)
        };
        let config = WorkerConfig {
            shard_index: 0,
            shard_count: 2,
            out_path: PathBuf::from("shard_0_attempt_0.artifact"),
            chaos: Some(ChaosSpec {
                seed: 7,
                attempt: 0,
            }),
            fail: false,
        };
        let (parsed, rest) =
            Workload::from_args(workload.to_args().into_iter().chain(config.to_args())).unwrap();
        assert_eq!(parsed, workload);
        assert_eq!(WorkerConfig::from_args(rest), Ok(config));
    }

    #[test]
    fn worker_from_args_rejects_missing_and_malformed_flags() {
        for (words, wanted) in [
            (&["--shard-out", "a.artifact"][..], "--shard is required"),
            (&["--shard", "0/2"][..], "--shard-out is required"),
            (
                &["--shard", "0-2", "--shard-out", "a.artifact"][..],
                "--shard wants i/N, got \"0-2\"",
            ),
            (
                &["--shard", "x/2", "--shard-out", "a.artifact"][..],
                "bad shard index",
            ),
            (
                &["--shard", "0/", "--shard-out", "a.artifact"][..],
                "bad shard count",
            ),
            (&["--shard"][..], "--shard needs a value"),
            (
                &[
                    "--shard",
                    "0/2",
                    "--shard-out",
                    "a.artifact",
                    "--chaos",
                    "x",
                ][..],
                "bad chaos seed",
            ),
            (
                &[
                    "--shard",
                    "0/2",
                    "--shard-out",
                    "a.artifact",
                    "--threads",
                    "2",
                ][..],
                "unknown argument \"--threads\"",
            ),
        ] {
            let err = WorkerConfig::from_args(args(words)).unwrap_err();
            assert!(err.contains(wanted), "{words:?}: {err}");
        }
    }

    #[test]
    fn worker_shards_merge_to_the_monolithic_scorecard() {
        let workload = Workload::new(42, WorkloadKind::Tiny);
        let dir = temp_dir("merge");
        let shard_count = 2;

        let mut shards = Vec::new();
        let mut manifest = None;
        for shard_index in 0..shard_count {
            let out = dir.join(format!("shard_{shard_index}.artifact"));
            let code = run_worker(
                &workload,
                &WorkerConfig {
                    shard_index,
                    shard_count,
                    out_path: out.clone(),
                    chaos: None,
                    fail: false,
                },
            )
            .unwrap();
            assert_eq!(code, exit::SUCCESS);
            let artifact = ShardRunArtifact::read(&out).unwrap();
            assert!(artifact.quarantined.is_empty());
            manifest = Some(artifact.manifest.clone());
            shards.push(artifact.shard);
        }

        let manifest = manifest.unwrap();
        let matrix = workload.matrix().unwrap();
        let in_process = workload.engine().run_sharded(&matrix, shard_count).unwrap();
        assert_eq!(
            manifest, in_process.manifest,
            "worker processes must split the matrix exactly as the in-process reduction"
        );
        assert_eq!(shards.len(), in_process.shards.len());
        for (worker_shard, in_process_shard) in shards.iter().zip(&in_process.shards) {
            assert_eq!(
                worker_shard.to_json().render_pretty(),
                in_process_shard.to_json().render_pretty(),
                "each worker's shard must equal the in-process shard, jobs and peak candidates included"
            );
        }
        let merged = Scorecard::merge_shards(&manifest, &shards).unwrap();
        let reference = workload.engine().run(&matrix).unwrap();
        assert_eq!(
            merged.to_json_string(),
            reference.scorecard.to_json_string(),
            "N worker processes must reproduce the single-process scorecard byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panic_unit_chaos_quarantines_and_still_lands_a_valid_artifact() {
        let workload = Workload::new(42, WorkloadKind::Tiny);
        let dir = temp_dir("panic");
        // Find chaos coordinates that schedule PanicUnit for shard 0.
        let (seed, attempt) = (0u64..)
            .find_map(|seed| {
                let plan = ChaosPlan::new(seed);
                (0..plan.fail_attempts(0))
                    .find(|&a| plan.mode(0, a) == ChaosMode::PanicUnit)
                    .map(|a| (seed, a))
            })
            .unwrap();
        let out = dir.join("shard_0.artifact");
        let code = run_worker(
            &workload,
            &WorkerConfig {
                shard_index: 0,
                shard_count: 2,
                out_path: out.clone(),
                chaos: Some(ChaosSpec { seed, attempt }),
                fail: false,
            },
        )
        .unwrap();
        assert_eq!(code, exit::SUCCESS);
        let artifact = ShardRunArtifact::read(&out).unwrap();
        assert_eq!(artifact.quarantined.len(), 1);
        assert!(artifact.quarantined[0].error.contains("panicked"));
        // The quarantined scenario's table is present but empty — the
        // partial merge turns exactly that into a coverage hole.
        let tables = &artifact.shard.per_scenario;
        assert!(tables.iter().any(|t| t.entries.is_empty()));
        assert!(tables.iter().any(|t| !t.entries.is_empty()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_chaos_produces_detectably_bad_artifacts() {
        let workload = Workload::new(42, WorkloadKind::Tiny);
        let dir = temp_dir("corrupt");
        for wanted in [ChaosMode::TruncateArtifact, ChaosMode::BitFlipArtifact] {
            let (seed, attempt) = (0u64..)
                .find_map(|seed| {
                    let plan = ChaosPlan::new(seed);
                    (0..plan.fail_attempts(1))
                        .find(|&a| plan.mode(1, a) == wanted)
                        .map(|a| (seed, a))
                })
                .unwrap();
            let out = dir.join(format!("{}.artifact", wanted.name()));
            run_worker(
                &workload,
                &WorkerConfig {
                    shard_index: 1,
                    shard_count: 2,
                    out_path: out.clone(),
                    chaos: Some(ChaosSpec { seed, attempt }),
                    fail: false,
                },
            )
            .unwrap();
            let err = ShardRunArtifact::read(&out).unwrap_err();
            assert!(
                matches!(
                    err.kind,
                    ArtifactErrorKind::Truncated { .. }
                        | ArtifactErrorKind::ChecksumMismatch { .. }
                        | ArtifactErrorKind::Header(_)
                ),
                "{wanted:?} must be detected, got: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
