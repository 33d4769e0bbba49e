//! Fault-tolerant multi-process shard execution for the fleet engine.
//!
//! `scenario-fleet` can split a fleet matrix into shards and merge them
//! back byte-for-byte — but until this crate, every shard lived in the
//! same process: one panic, one OOM kill, one wedged thread and the
//! whole evaluation was gone. The harness moves the shard boundary to
//! the *process* boundary and makes it survivable:
//!
//! * [`worker`] — `fleet_worker --shard i/N`, the one worker front
//!   end, evaluates one shard in-process and lands a
//!   [`worker::ShardRunArtifact`] (its sub-matrix run's scorecard
//!   tables, manifest, quarantined scenarios, deterministic ledger) as
//!   a checksummed, atomically-written file; its shard flags round-trip
//!   through [`WorkerConfig::to_args`] / [`WorkerConfig::from_args`];
//! * [`artifact`] — the crash-safe envelope: torn, truncated, or
//!   bit-flipped files are typed errors with byte offsets, never panics
//!   and never false accepts;
//! * [`supervisor`] — spawns the N workers, enforces per-attempt
//!   wall-clock timeouts (hung workers are killed), retries failures on
//!   bounded exponential backoff, and merges what survives: full
//!   recovery reproduces the single-process scorecard byte-for-byte,
//!   and retry exhaustion degrades to a partial scorecard with an
//!   explicit [`scenario_fleet::CoverageManifest`] instead of aborting;
//! * [`chaos`] — deterministic self-sabotage: a seed schedules worker
//!   crashes, artifact corruption, stalls, and work-unit panics as a
//!   pure function, so CI can replay an exact failure storm and pin
//!   that recovery still lands the golden digests;
//! * [`workload`] — named matrices both sides of the process boundary
//!   reconstruct identically from CLI arguments
//!   ([`Workload::to_args`] / [`Workload::from_args`]) and split by one
//!   shard plan.
//!
//! The paper's experiments are cheap; the *fleet-scale* replays this
//! repo grew around them are not. The harness is what lets those runs
//! be long-lived: worker processes may die, the answer may degrade, but
//! it never silently changes and never takes the run down with it.

pub mod artifact;
pub mod chaos;
pub mod supervisor;
pub mod worker;
pub mod workload;

pub use artifact::{Artifact, ArtifactError, ArtifactErrorKind};
pub use chaos::{ChaosMode, ChaosPlan, MAX_FAIL_ATTEMPTS};
pub use supervisor::{run_supervisor, RunOutcome, ShardStatus, SupervisorConfig, SupervisorRun};
pub use worker::{run_worker, ChaosSpec, ShardRunArtifact, WorkerConfig};
pub use workload::{Workload, WorkloadKind};

/// Process exit codes, unified across every binary and example in the
/// workspace:
///
/// | code | meaning |
/// |------|---------|
/// | 0    | success — complete result, no regression |
/// | 2    | degraded — partial result with explicit coverage holes |
/// | 3    | failed — no usable result, or a detected regression |
/// | 64   | usage — bad command line (BSD `EX_USAGE`) |
///
/// Workers additionally use [`exit::CHAOS_KILLED`] for chaos-injected
/// mid-run exits, so a chaos crash is distinguishable from a real one
/// in supervisor logs.
pub mod exit {
    /// Complete result, no regression.
    pub const SUCCESS: i32 = 0;
    /// Partial result with explicit coverage holes.
    pub const DEGRADED: i32 = 2;
    /// No usable result, or a detected regression.
    pub const FAILED: i32 = 3;
    /// Bad command line (BSD `EX_USAGE`).
    pub const USAGE: i32 = 64;
    /// A chaos-injected mid-run worker exit.
    pub const CHAOS_KILLED: i32 = 17;
}
