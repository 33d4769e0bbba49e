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
//! Each shard is one state machine — launch an attempt, poll it, settle
//! it (accept, retry after backoff, degrade to the quarantined fallback,
//! or give up) — and the settled shards meet in one merge,
//! [`Scorecard::merge_shards_partial`], for every outcome. **The outcome
//! is read off the coverage that merge returns**: Complete when nothing
//! is missing, Failed when nothing is covered, Degraded otherwise.
//!
//! Failure classification is explicit: a nonzero exit is a *worker
//! failure* (its reason ends with the last line the worker wrote to
//! stderr, kept in a file beside the attempt's artifact while the
//! worker runs), a deadline overrun is a *timeout* (the worker is killed),
//! an artifact that fails its checksum or schema is *corrupt*, and a
//! valid artifact carrying quarantined scenarios is retried in the
//! hope of a clean pass — but kept, so retry exhaustion can still
//! degrade to it rather than lose the whole shard.
//!
//! **No worker outlives the supervisor**: a running worker is owned by
//! its shard's state, and dropping that state kills and reaps the
//! process — on a timeout, on an error return (say, a retry that cannot
//! spawn), and on a panic.
//!
//! Everything the supervisor observes lands as `harness/*` counters on
//! the deterministic ledger plane, beside the merge's own `merge/*`
//! counters (scenario tables, never shards, so every split of a run
//! records the same ones): under a fixed chaos seed the whole failure
//! storm — spawns, retries, kills, corrupt artifacts — is replayable
//! and diffable, so CI pins it like any other counter.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
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

/// One shard's supervision state machine:
/// `Pending → Running → (Pending → Running)* → Settled`.
enum ShardState {
    /// Waiting (for a slot in time, not resources) to launch the
    /// slot's next attempt.
    Pending { eligible_at: Instant },
    /// A worker process is running the slot's latest attempt.
    Running { worker: Worker, deadline: Instant },
    /// No further attempts; the slot's `artifact` says whether one was
    /// accepted.
    Settled,
}

/// A spawned worker process and the file its stderr goes to — a file,
/// not a pipe: nothing reads a pipe while the worker runs, so a worker
/// that writes a lot would block on it. Dropping it — on settling, on
/// a timeout, on every early return, on a panic — kills and reaps the
/// process and removes the file, so no worker outlives the supervisor
/// and the artifact dir keeps only artifacts. Killing an already-reaped
/// child is a no-op.
struct Worker {
    child: Child,
    stderr: PathBuf,
}

impl Worker {
    /// The last non-empty line of the worker's stderr, read from the
    /// file's final 4 KiB.
    fn last_stderr_line(&self) -> Option<String> {
        let mut file = File::open(&self.stderr).ok()?;
        let len = file.metadata().ok()?.len();
        file.seek(SeekFrom::Start(len.saturating_sub(4096))).ok()?;
        let mut tail = Vec::new();
        file.read_to_end(&mut tail).ok()?;
        let tail = String::from_utf8_lossy(&tail);
        let line = tail.lines().map(str::trim).rfind(|line| !line.is_empty())?;
        Some(line.to_string())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.stderr);
    }
}

struct ShardSlot {
    state: ShardState,
    /// Accepted artifact (clean, or best quarantined at exhaustion).
    artifact: Option<ShardRunArtifact>,
    /// Latest valid-but-quarantined artifact, kept as a degradation
    /// fallback.
    quarantined_fallback: Option<ShardRunArtifact>,
    /// Attempts launched so far: the running attempt is
    /// `attempts - 1`, the next one to launch is `attempts`.
    attempts: u32,
    last_error: Option<String>,
}

/// Where attempt `attempt` of shard `shard` lands its artifact.
fn attempt_path(config: &SupervisorConfig, shard: usize, attempt: u32) -> PathBuf {
    config
        .artifact_dir
        .join(format!("shard_{shard}_attempt_{attempt}.artifact"))
}

/// Runs a supervised N-process evaluation of `config.workload`.
///
/// # Errors
///
/// Configuration-level problems only (bad shard counts, a
/// `fail_shards` index outside the run, unspawnable worker program,
/// un-shardable matrix). Worker failures — crashes, timeouts,
/// corruption, chaos — are *handled*, not returned: they surface as
/// retries and, past the budget, as degraded coverage. Every worker
/// still running when an error returns is killed and reaped first.
pub fn run_supervisor(
    config: &SupervisorConfig,
    collector: &Collector,
) -> Result<SupervisorRun, String> {
    if config.max_attempts == 0 {
        return Err("max_attempts must be at least 1".to_string());
    }
    let (_, manifest) = config.workload.shard_plan(config.shard_count)?;
    if let Some(shard) = config
        .fail_shards
        .iter()
        .find(|&&s| s >= config.shard_count)
    {
        return Err(format!(
            "fail shard {shard} is out of range for {} shards",
            config.shard_count
        ));
    }
    std::fs::create_dir_all(&config.artifact_dir)
        .map_err(|e| format!("artifact dir {:?}: {e}", config.artifact_dir))?;

    collector.gauge("harness/shard_count", config.shard_count as u64);
    collector.gauge("harness/max_attempts", config.max_attempts as u64);

    let start = Instant::now();
    let mut slots: Vec<ShardSlot> = (0..config.shard_count)
        .map(|_| ShardSlot {
            state: ShardState::Pending { eligible_at: start },
            artifact: None,
            quarantined_fallback: None,
            attempts: 0,
            last_error: None,
        })
        .collect();
    loop {
        for (shard, slot) in slots.iter_mut().enumerate() {
            match &mut slot.state {
                ShardState::Settled => {}
                ShardState::Pending { eligible_at } => {
                    if Instant::now() >= *eligible_at {
                        slot.launch(shard, config, collector)?;
                    }
                }
                ShardState::Running { worker, deadline } => {
                    let path = attempt_path(config, shard, slot.attempts - 1);
                    let ended = poll(
                        worker, *deadline, &path, shard, config, &manifest, collector,
                    );
                    if let Some(ended) = ended {
                        slot.settle(ended, config, collector);
                    }
                }
            }
        }
        if slots.iter().all(|s| matches!(s.state, ShardState::Settled)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assemble(slots, manifest, collector)
}

impl ShardSlot {
    /// Spawns the slot's next attempt.
    fn launch(
        &mut self,
        shard: usize,
        config: &SupervisorConfig,
        collector: &Collector,
    ) -> Result<(), String> {
        let attempt = self.attempts;
        let out_path = attempt_path(config, shard, attempt);
        let stderr = out_path.with_extension("stderr");
        let worker = WorkerConfig {
            shard_index: shard,
            shard_count: config.shard_count,
            out_path,
            chaos: config.chaos_seed.map(|seed| ChaosSpec { seed, attempt }),
            fail: config.fail_shards.contains(&shard),
        };
        let log = File::create(&stderr).map_err(|e| format!("worker stderr {stderr:?}: {e}"))?;
        let spawned = Command::new(&config.worker_program)
            .args(config.workload.to_args())
            .args(worker.to_args())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn();
        let child = spawned.map_err(|e| {
            let _ = std::fs::remove_file(&stderr);
            format!("spawn {:?}: {e}", config.worker_program)
        })?;
        collector.count("harness/spawns", 1);
        if attempt > 0 {
            collector.count("harness/retries", 1);
        }
        self.attempts = attempt + 1;
        self.state = ShardState::Running {
            worker: Worker { child, stderr },
            deadline: Instant::now() + config.timeout,
        };
        Ok(())
    }

    /// Settles an ended attempt: accept a clean artifact, or record the
    /// failure and retry after backoff — or, with the budget spent,
    /// degrade to the quarantined fallback or give up. Leaving
    /// `Running` drops the worker, which kills a timed-out one.
    fn settle(
        &mut self,
        ended: Result<ShardRunArtifact, String>,
        config: &SupervisorConfig,
        collector: &Collector,
    ) {
        let failure = match ended {
            Ok(artifact) if artifact.quarantined.is_empty() => {
                collector.count("harness/completed_shards", 1);
                self.artifact = Some(artifact);
                self.state = ShardState::Settled;
                return;
            }
            Ok(artifact) => {
                // Valid but wounded: keep it as the degradation
                // fallback and retry for a clean pass.
                collector.count("harness/quarantine_retries", 1);
                let names: Vec<&str> = artifact
                    .quarantined
                    .iter()
                    .map(|q| q.scenario.as_str())
                    .collect();
                let error = format!("quarantined scenarios: {}", names.join(", "));
                self.quarantined_fallback = Some(artifact);
                error
            }
            Err(error) => error,
        };
        self.last_error = Some(failure);
        if self.attempts < config.max_attempts {
            // Exponential backoff: base · 2^(retry - 1).
            let backoff = config.backoff_base * 2u32.pow((self.attempts - 1).min(16));
            self.state = ShardState::Pending {
                eligible_at: Instant::now() + backoff,
            };
            return;
        }
        // Exhausted, but a quarantined artifact is still a partial
        // shard — degrade to it rather than lose every scenario in it.
        self.artifact = self.quarantined_fallback.take();
        match &self.artifact {
            Some(fallback) => {
                collector.count("harness/degraded_shards", 1);
                collector.count(
                    "harness/quarantined_scenarios",
                    fallback.quarantined.len() as u64,
                );
            }
            None => collector.count("harness/exhausted_shards", 1),
        }
        self.state = ShardState::Settled;
    }
}

/// Looks at a running attempt once: `None` while it runs inside its
/// deadline, else its valid artifact or its classified failure — a
/// nonzero exit is a worker failure (its reason ends with the last
/// line the worker wrote to stderr, if it wrote any), a deadline
/// overrun a timeout, an unreadable or mismatched artifact a corrupt
/// one.
fn poll(
    worker: &mut Worker,
    deadline: Instant,
    path: &Path,
    shard: usize,
    config: &SupervisorConfig,
    manifest: &ShardManifest,
    collector: &Collector,
) -> Option<Result<ShardRunArtifact, String>> {
    let status = match worker.child.try_wait() {
        Err(e) => return Some(Err(format!("wait failed: {e}"))),
        Ok(None) if Instant::now() < deadline => return None,
        Ok(None) => {
            // Hung: `settle` drops the worker, which kills and reaps it.
            collector.count("harness/timeouts", 1);
            collector.count("harness/kills", 1);
            return Some(Err(format!("timed out after {:?}", config.timeout)));
        }
        Ok(Some(status)) => status,
    };
    if !status.success() {
        collector.count("harness/worker_failures", 1);
        let failure = format!("worker exited with {status}");
        return Some(Err(match worker.last_stderr_line() {
            Some(line) => format!("{failure}: {line}"),
            None => failure,
        }));
    }
    let accepted = ShardRunArtifact::read(path)
        .map_err(|e| e.to_string())
        .and_then(|artifact| {
            validate_artifact(&artifact, shard, config, manifest)?;
            Ok(artifact)
        });
    Some(accepted.map_err(|e| {
        collector.count("harness/corrupt_artifacts", 1);
        format!("artifact rejected: {e}")
    }))
}

/// Merges the settled slots, in shard order — never completion order —
/// so the merged ledger is deterministic. The one merge is partial:
/// the outcome is read off the coverage it returns.
fn assemble(
    slots: Vec<ShardSlot>,
    manifest: ShardManifest,
    collector: &Collector,
) -> Result<SupervisorRun, String> {
    let mut shard_docs: Vec<ScorecardShard> = Vec::new();
    let mut shard_reasons: BTreeMap<usize, String> = BTreeMap::new();
    let mut scenario_reasons: BTreeMap<String, String> = BTreeMap::new();
    let mut shards: Vec<ShardStatus> = Vec::new();
    for (shard_index, slot) in slots.into_iter().enumerate() {
        shards.push(ShardStatus {
            shard_index,
            attempts: slot.attempts,
            completed: slot.artifact.is_some(),
            quarantined: slot.artifact.as_ref().map_or(0, |a| a.quarantined.len()),
            last_error: slot.last_error.clone(),
        });
        let Some(artifact) = slot.artifact else {
            shard_reasons.insert(
                shard_index,
                format!(
                    "retry budget exhausted after {} attempts: {}",
                    slot.attempts,
                    slot.last_error.as_deref().unwrap_or("no error recorded")
                ),
            );
            continue;
        };
        collector
            .absorb_ledger(&artifact.ledger)
            .map_err(|e| format!("shard {shard_index} ledger: {e}"))?;
        for q in artifact.quarantined {
            scenario_reasons.insert(q.scenario, format!("work unit panicked: {}", q.error));
        }
        shard_docs.push(artifact.shard);
    }

    let (scorecard, coverage) =
        Scorecard::merge_shards_partial(&manifest, &shard_docs, &shard_reasons, &scenario_reasons)?;
    // The merge ledger counts scenario tables, never shards, so every
    // shard split of one run records the same `merge/*` counters.
    collector.count("merge/scenario_tables", manifest.scenarios.len() as u64);
    for ranking in &scorecard.per_scenario {
        collector.count_scenario(&ranking.scenario, "merge/merged_tables", 1);
    }
    let outcome = if coverage.missing.is_empty() {
        RunOutcome::Complete
    } else if coverage.covered.is_empty() {
        RunOutcome::Failed
    } else {
        RunOutcome::Degraded
    };
    collector.label("harness/outcome", outcome.name());
    collector.gauge("harness/covered_scenarios", coverage.covered.len() as u64);
    collector.gauge("harness/missing_scenarios", coverage.missing.len() as u64);

    Ok(SupervisorRun {
        outcome,
        scorecard: (outcome != RunOutcome::Failed).then_some(scorecard),
        coverage,
        manifest,
        shards,
    })
}

/// Cross-checks a structurally valid artifact against what the
/// supervisor expects of this shard: right coordinates, right seed, and
/// the manifest of the supervisor's own derivation.
fn validate_artifact(
    artifact: &ShardRunArtifact,
    shard_index: usize,
    config: &SupervisorConfig,
    manifest: &ShardManifest,
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
    if artifact.manifest != *manifest {
        return Err("manifest disagrees with the supervisor's derivation".to_string());
    }
    Ok(())
}
