//! The supervisor: spawn N shard workers as child processes, retry
//! what fails, kill what hangs, and merge what survives.
//!
//! The contract has two halves:
//!
//! * **Recovery** — as long as every shard eventually lands one valid
//!   artifact, the merged scorecard is byte-identical to the
//!   single-process run: crashes, timeouts, and corrupt artifacts cost
//!   retries, never bytes.
//! * **Degradation** — when a shard exhausts its retry budget, the run
//!   does not abort: it merges what it has into a *partial* scorecard
//!   with an explicit [`CoverageManifest`] naming every missing
//!   scenario and why, and reports [`RunOutcome::Degraded`] (or
//!   [`RunOutcome::Failed`] when nothing at all survived) with a
//!   distinct exit code.
//!
//! Failure classification is explicit: a nonzero exit is a *worker
//! failure*, a deadline overrun is a *timeout* (the worker is killed),
//! an artifact that fails its checksum or schema is *corrupt*, and a
//! valid artifact carrying quarantined scenarios is retried in the
//! hope of a clean pass — but kept, so retry exhaustion can still
//! degrade to it rather than lose the whole shard.
//!
//! Everything the supervisor observes lands as `harness/*` counters on
//! the deterministic ledger plane: under a fixed chaos seed the whole
//! failure storm — spawns, retries, kills, corrupt artifacts — is
//! replayable and diffable, so CI pins it like any other counter.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use scenario_fleet::{Collector, CoverageManifest, Scorecard, ScorecardShard, ShardManifest};

use crate::exit;
use crate::worker::{ChaosSpec, ShardRunArtifact, WorkerConfig};
use crate::workload::Workload;

/// How a supervised run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every shard completed cleanly; the scorecard is the full,
    /// byte-exact merge.
    Complete,
    /// Some scenarios are missing (exhausted shards or quarantined
    /// units); the scorecard is a partial merge and the coverage
    /// manifest names every hole.
    Degraded,
    /// No shard produced anything mergeable.
    Failed,
}

impl RunOutcome {
    /// The process exit code for this outcome (see [`crate::exit`]).
    pub fn exit_code(self) -> i32 {
        match self {
            RunOutcome::Complete => exit::SUCCESS,
            RunOutcome::Degraded => exit::DEGRADED,
            RunOutcome::Failed => exit::FAILED,
        }
    }

    /// Stable label value for the ledger.
    pub fn name(self) -> &'static str {
        match self {
            RunOutcome::Complete => "complete",
            RunOutcome::Degraded => "degraded",
            RunOutcome::Failed => "failed",
        }
    }
}

/// One shard's story, for the run summary.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// The shard index.
    pub shard_index: usize,
    /// Attempts spent (including the successful one, if any).
    pub attempts: u32,
    /// Whether a mergeable artifact was accepted.
    pub completed: bool,
    /// Scenarios the accepted artifact quarantined (empty when clean).
    pub quarantined: usize,
    /// The last failure, where one occurred.
    pub last_error: Option<String>,
}

/// A supervised run's full result.
#[derive(Clone, Debug)]
pub struct SupervisorRun {
    /// How it ended.
    pub outcome: RunOutcome,
    /// The merged scorecard — full on [`RunOutcome::Complete`], partial
    /// on [`RunOutcome::Degraded`], absent on [`RunOutcome::Failed`].
    pub scorecard: Option<Scorecard>,
    /// Which scenarios the scorecard covers, and why the rest are
    /// missing.
    pub coverage: CoverageManifest,
    /// The manifest the run was supervised against.
    pub manifest: ShardManifest,
    /// Per-shard summaries, by shard index.
    pub shards: Vec<ShardStatus>,
}

/// Supervisor policy and wiring.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The worker executable (must speak the `fleet_worker` CLI).
    pub worker_program: PathBuf,
    /// What to evaluate — also how the supervisor derives the expected
    /// manifest without trusting any worker.
    pub workload: Workload,
    /// How many worker processes to split the fleet across.
    pub shard_count: usize,
    /// Per-attempt wall-clock budget before the worker is killed.
    pub timeout: Duration,
    /// Attempts per shard (≥ 1) before it degrades.
    pub max_attempts: u32,
    /// First retry delay; doubles per subsequent retry of a shard.
    pub backoff_base: Duration,
    /// Where shard artifacts land (one file per attempt).
    pub artifact_dir: PathBuf,
    /// Chaos seed forwarded to every worker (None ⇒ no injection).
    pub chaos_seed: Option<u64>,
    /// Shards told to fail unconditionally (degradation drills).
    pub fail_shards: Vec<usize>,
}

impl SupervisorConfig {
    /// A config with the given wiring and harness-default policy:
    /// 4 attempts (one more than the chaos plan's failure bound),
    /// 25 ms backoff, 10-minute timeout.
    pub fn new(worker_program: PathBuf, workload: Workload, shard_count: usize) -> Self {
        SupervisorConfig {
            worker_program,
            workload,
            shard_count,
            timeout: Duration::from_secs(600),
            max_attempts: crate::chaos::MAX_FAIL_ATTEMPTS + 1,
            backoff_base: Duration::from_millis(25),
            artifact_dir: std::env::temp_dir().join("fleet_harness"),
            chaos_seed: None,
            fail_shards: Vec::new(),
        }
    }
}

/// One shard's supervision state machine.
enum ShardState {
    /// Waiting (for a slot in time, not resources): eligible at the
    /// given instant, about to spend attempt `attempt`.
    Pending { attempt: u32, eligible_at: Instant },
    /// A worker process is running attempt `attempt`.
    Running {
        child: Child,
        attempt: u32,
        deadline: Instant,
        out_path: PathBuf,
    },
    /// A mergeable artifact was accepted.
    Done,
    /// Retry budget exhausted with nothing mergeable.
    Exhausted,
}

struct ShardSlot {
    state: ShardState,
    /// Accepted artifact (clean, or best quarantined at exhaustion).
    artifact: Option<ShardRunArtifact>,
    /// Latest valid-but-quarantined artifact, kept as a degradation
    /// fallback.
    quarantined_fallback: Option<ShardRunArtifact>,
    attempts: u32,
    last_error: Option<String>,
}

/// Runs a supervised N-process evaluation of `config.workload`.
///
/// # Errors
///
/// Configuration-level problems only (bad shard counts, unspawnable
/// worker program, un-shardable matrix). Worker failures — crashes,
/// timeouts, corruption, chaos — are *handled*, not returned: they
/// surface as retries and, past the budget, as degraded coverage.
pub fn run_supervisor(
    config: &SupervisorConfig,
    collector: &Collector,
) -> Result<SupervisorRun, String> {
    if config.max_attempts == 0 {
        return Err("max_attempts must be at least 1".to_string());
    }
    let (_, expected_manifest) = config.workload.shard_plan(config.shard_count)?;
    let expected_manifest_json = expected_manifest.to_json().render_pretty();
    std::fs::create_dir_all(&config.artifact_dir)
        .map_err(|e| format!("artifact dir {:?}: {e}", config.artifact_dir))?;

    collector.gauge("harness/shard_count", config.shard_count as u64);
    collector.gauge("harness/max_attempts", config.max_attempts as u64);

    let start = Instant::now();
    let mut slots: Vec<ShardSlot> = (0..config.shard_count)
        .map(|_| ShardSlot {
            state: ShardState::Pending {
                attempt: 0,
                eligible_at: start,
            },
            artifact: None,
            quarantined_fallback: None,
            attempts: 0,
            last_error: None,
        })
        .collect();

    loop {
        let mut all_settled = true;
        for (shard_index, slot) in slots.iter_mut().enumerate() {
            match &mut slot.state {
                ShardState::Done | ShardState::Exhausted => continue,
                ShardState::Pending {
                    attempt,
                    eligible_at,
                } => {
                    all_settled = false;
                    if Instant::now() < *eligible_at {
                        continue;
                    }
                    let attempt = *attempt;
                    let worker = WorkerConfig {
                        shard_index,
                        shard_count: config.shard_count,
                        out_path: config
                            .artifact_dir
                            .join(format!("shard_{shard_index}_attempt_{attempt}.artifact")),
                        chaos: config.chaos_seed.map(|seed| ChaosSpec { seed, attempt }),
                        fail: config.fail_shards.contains(&shard_index),
                    };
                    let child = Command::new(&config.worker_program)
                        .args(config.workload.to_args())
                        .args(worker.to_args())
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .spawn()
                        .map_err(|e| format!("spawn {:?}: {e}", config.worker_program))?;
                    collector.count("harness/spawns", 1);
                    if attempt > 0 {
                        collector.count("harness/retries", 1);
                    }
                    slot.attempts = attempt + 1;
                    slot.state = ShardState::Running {
                        child,
                        attempt,
                        deadline: Instant::now() + config.timeout,
                        out_path: worker.out_path,
                    };
                }
                ShardState::Running {
                    child,
                    attempt,
                    deadline,
                    out_path,
                } => {
                    all_settled = false;
                    let attempt = *attempt;
                    let failure: Option<String> = match child.try_wait() {
                        Err(e) => Some(format!("wait failed: {e}")),
                        Ok(None) => {
                            if Instant::now() < *deadline {
                                continue;
                            }
                            // Hung worker: kill, reap, classify.
                            let _ = child.kill();
                            let _ = child.wait();
                            collector.count("harness/timeouts", 1);
                            collector.count("harness/kills", 1);
                            Some(format!("timed out after {:?}", config.timeout))
                        }
                        Ok(Some(status)) if !status.success() => {
                            collector.count("harness/worker_failures", 1);
                            Some(format!("worker exited with {status}"))
                        }
                        Ok(Some(_)) => match ShardRunArtifact::read(out_path) {
                            Err(e) => {
                                collector.count("harness/corrupt_artifacts", 1);
                                Some(format!("artifact rejected: {e}"))
                            }
                            Ok(artifact) => {
                                match validate_artifact(
                                    &artifact,
                                    shard_index,
                                    config,
                                    &expected_manifest_json,
                                ) {
                                    Err(e) => {
                                        collector.count("harness/corrupt_artifacts", 1);
                                        Some(format!("artifact rejected: {e}"))
                                    }
                                    Ok(()) if artifact.quarantined.is_empty() => {
                                        collector.count("harness/completed_shards", 1);
                                        slot.artifact = Some(artifact);
                                        slot.state = ShardState::Done;
                                        continue;
                                    }
                                    Ok(()) => {
                                        // Valid but wounded: keep it as
                                        // the degradation fallback and
                                        // retry for a clean pass.
                                        collector.count("harness/quarantine_retries", 1);
                                        let names: Vec<&str> = artifact
                                            .quarantined
                                            .iter()
                                            .map(|q| q.scenario.as_str())
                                            .collect();
                                        let error =
                                            format!("quarantined scenarios: {}", names.join(", "));
                                        slot.quarantined_fallback = Some(artifact);
                                        Some(error)
                                    }
                                }
                            }
                        },
                    };
                    let failure = failure.expect("every fall-through path classifies a failure");
                    slot.last_error = Some(failure);
                    if attempt + 1 >= config.max_attempts {
                        if let Some(fallback) = slot.quarantined_fallback.take() {
                            // Exhausted, but a quarantined artifact is
                            // still a partial shard — degrade to it
                            // rather than lose every scenario in it.
                            collector.count("harness/degraded_shards", 1);
                            collector.count(
                                "harness/quarantined_scenarios",
                                fallback.quarantined.len() as u64,
                            );
                            slot.artifact = Some(fallback);
                            slot.state = ShardState::Done;
                        } else {
                            collector.count("harness/exhausted_shards", 1);
                            slot.state = ShardState::Exhausted;
                        }
                    } else {
                        // Exponential backoff: base · 2^(retry - 1).
                        let backoff = config.backoff_base * 2u32.pow(attempt.min(16));
                        slot.state = ShardState::Pending {
                            attempt: attempt + 1,
                            eligible_at: Instant::now() + backoff,
                        };
                    }
                }
            }
        }
        if all_settled {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Assembly. Artifacts are absorbed in shard order — never
    // completion order — so the merged ledger is deterministic.
    let mut shard_docs: Vec<ScorecardShard> = Vec::new();
    let mut shard_reasons: BTreeMap<usize, String> = BTreeMap::new();
    let mut scenario_reasons: BTreeMap<String, String> = BTreeMap::new();
    let mut degraded = false;
    for (shard_index, slot) in slots.iter().enumerate() {
        match &slot.artifact {
            Some(artifact) => {
                collector
                    .absorb_ledger(&artifact.ledger)
                    .map_err(|e| format!("shard {shard_index} ledger: {e}"))?;
                for q in &artifact.quarantined {
                    degraded = true;
                    scenario_reasons.insert(
                        q.scenario.clone(),
                        format!("work unit panicked: {}", q.error),
                    );
                }
                shard_docs.push(artifact.shard.clone());
            }
            None => {
                degraded = true;
                shard_reasons.insert(
                    shard_index,
                    format!(
                        "retry budget exhausted after {} attempts: {}",
                        slot.attempts,
                        slot.last_error.as_deref().unwrap_or("no error recorded")
                    ),
                );
            }
        }
    }

    let shards: Vec<ShardStatus> = slots
        .iter()
        .enumerate()
        .map(|(shard_index, slot)| ShardStatus {
            shard_index,
            attempts: slot.attempts,
            completed: slot.artifact.is_some(),
            quarantined: slot.artifact.as_ref().map_or(0, |a| a.quarantined.len()),
            last_error: slot.last_error.clone(),
        })
        .collect();

    let (outcome, scorecard, coverage) = if !degraded {
        let scorecard =
            Scorecard::merge_shards_observed(&expected_manifest, &shard_docs, collector)?;
        let coverage = CoverageManifest {
            covered: expected_manifest
                .scenarios
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
            missing: Vec::new(),
        };
        (RunOutcome::Complete, Some(scorecard), coverage)
    } else {
        let (scorecard, coverage) = Scorecard::merge_shards_partial(
            &expected_manifest,
            &shard_docs,
            &shard_reasons,
            &scenario_reasons,
        )?;
        if coverage.covered.is_empty() {
            (RunOutcome::Failed, None, coverage)
        } else {
            (RunOutcome::Degraded, Some(scorecard), coverage)
        }
    };
    collector.label("harness/outcome", outcome.name());
    collector.gauge("harness/covered_scenarios", coverage.covered.len() as u64);
    collector.gauge("harness/missing_scenarios", coverage.missing.len() as u64);

    Ok(SupervisorRun {
        outcome,
        scorecard,
        coverage,
        manifest: expected_manifest,
        shards,
    })
}

/// Cross-checks a structurally valid artifact against what the
/// supervisor expects of this shard: right coordinates, right seed, and
/// a manifest byte-identical to the supervisor's own derivation.
fn validate_artifact(
    artifact: &ShardRunArtifact,
    shard_index: usize,
    config: &SupervisorConfig,
    expected_manifest_json: &str,
) -> Result<(), String> {
    if artifact.shard_index != shard_index || artifact.shard.shard_index != shard_index {
        return Err(format!(
            "claims shard {} (expected {shard_index})",
            artifact.shard_index
        ));
    }
    if artifact.shard_count != config.shard_count {
        return Err(format!(
            "claims {} shards (expected {})",
            artifact.shard_count, config.shard_count
        ));
    }
    if artifact.shard.master_seed != config.workload.seed {
        return Err(format!(
            "claims seed {} (expected {})",
            artifact.shard.master_seed, config.workload.seed
        ));
    }
    if artifact.manifest.to_json().render_pretty() != expected_manifest_json {
        return Err("manifest disagrees with the supervisor's derivation".to_string());
    }
    Ok(())
}
