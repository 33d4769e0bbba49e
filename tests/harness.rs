//! The supervisor recovery matrix: real child processes, injected
//! failures, and the two contracts that make the harness trustworthy —
//!
//! 1. **recovery is invisible**: any failure storm that stays within
//!    the retry budget merges to the byte-exact single-process
//!    scorecard (pinned against the golden digests for the 200-regime
//!    workload);
//! 2. **degradation is explicit**: retry exhaustion yields a partial
//!    scorecard whose [`CoverageManifest`] names every missing
//!    scenario and why, under a distinct exit code.
//!
//! Plus the artifact-hardening property: no mutation of a valid
//! artifact — truncation, bit flip, byte edit — may panic the reader
//! or be accepted as valid.

use std::path::PathBuf;
use std::time::Duration;

use fleet_harness::{
    exit, run_supervisor, ChaosMode, ChaosPlan, RunOutcome, SupervisorConfig, Workload,
    WorkloadKind,
};
use proptest::prelude::*;
use scenario_fleet::json::Json;
use scenario_fleet::{Collector, CoverageManifest, Ledger};

/// The worker binary Cargo built alongside this test.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))
}

/// A test's own directory under the system temp dir, removed with
/// everything in it when the guard drops, so a failing test (its panic
/// unwinds through the guard) leaves nothing behind either.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("harness_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// Finds the first chaos seed whose failure schedule for `shards`
/// shards satisfies `pred` — deterministic, since the plan is a pure
/// function of the seed.
fn find_chaos_seed(pred: impl Fn(&ChaosPlan) -> bool) -> u64 {
    (0u64..100_000)
        .find(|&seed| pred(&ChaosPlan::new(seed)))
        .expect("no chaos seed in range satisfies the predicate")
}

/// Failing attempts of `shard` under `plan`, as modes.
fn failing_modes(plan: &ChaosPlan, shard: usize) -> Vec<ChaosMode> {
    (0..plan.fail_attempts(shard))
        .map(|attempt| plan.mode(shard, attempt))
        .collect()
}

/// A storm without stalls (fast to replay): every shard fails at least
/// once, somebody crashes mid-run, and somebody corrupts an artifact.
fn crash_and_corrupt_storm(shards: usize) -> impl Fn(&ChaosPlan) -> bool {
    move |plan| {
        let all: Vec<ChaosMode> = (0..shards).flat_map(|s| failing_modes(plan, s)).collect();
        (0..shards).all(|s| !failing_modes(plan, s).is_empty())
            && all.iter().all(|m| *m != ChaosMode::Stall)
            && all.contains(&ChaosMode::ExitMidRun)
            && all
                .iter()
                .any(|m| matches!(m, ChaosMode::TruncateArtifact | ChaosMode::BitFlipArtifact))
    }
}

fn tiny_config(dir: &TempDir, shard_count: usize) -> SupervisorConfig {
    let mut config = SupervisorConfig::new(
        worker_bin(),
        Workload::new(42, WorkloadKind::Tiny),
        shard_count,
    );
    config.artifact_dir = dir.0.clone();
    config.backoff_base = Duration::from_millis(5);
    config.timeout = Duration::from_secs(120);
    config
}

/// The single-process reference scorecard for a workload.
fn reference_scorecard(workload: &Workload) -> String {
    workload
        .engine()
        .run(&workload.matrix().unwrap())
        .unwrap()
        .scorecard
        .to_json_string()
}

#[test]
fn crash_and_corruption_storm_recovers_byte_identically() {
    let shard_count = 2;
    let seed = find_chaos_seed(crash_and_corrupt_storm(shard_count));
    let dir = temp_dir("storm");
    let mut config = tiny_config(&dir, shard_count);
    config.chaos_seed = Some(seed);

    let collector = Collector::recording();
    let run = run_supervisor(&config, &collector).unwrap();
    assert_eq!(run.outcome, RunOutcome::Complete);
    assert_eq!(run.outcome.exit_code(), exit::SUCCESS);
    assert!(run.coverage.is_complete());
    assert_eq!(run.coverage.covered.len(), 3);
    assert_eq!(
        run.scorecard.unwrap().to_json_string(),
        reference_scorecard(&config.workload),
        "recovery must be invisible in the output bytes"
    );

    // The storm left deterministic fingerprints on the ledger.
    let ledger = collector.ledger().to_json_string();
    let plan = ChaosPlan::new(seed);
    let total_failures: u32 = (0..shard_count as u32)
        .map(|s| plan.fail_attempts(s as usize))
        .sum();
    let expect = |key: &str, n: u64| {
        let line = format!("\"{key}\": {n}");
        assert!(ledger.contains(&line), "want {line} in ledger:\n{ledger}");
    };
    expect("harness/spawns", shard_count as u64 + total_failures as u64);
    expect("harness/retries", total_failures as u64);
    expect("harness/completed_shards", shard_count as u64);
    assert!(
        ledger.contains("harness/corrupt_artifacts"),
        "corruption was scheduled, so it must have been detected:\n{ledger}"
    );
    assert!(ledger.contains("\"harness/outcome\": \"complete\""));
}

#[test]
fn stalled_worker_is_killed_and_the_retry_recovers() {
    let shard_count = 2;
    // A stall somewhere, no crash-free pass before it, and nothing else
    // slow: total failing attempts capped so the test stays quick.
    let seed = find_chaos_seed(|plan| {
        let all: Vec<ChaosMode> = (0..shard_count)
            .flat_map(|s| failing_modes(plan, s))
            .collect();
        all.len() == 1 && all[0] == ChaosMode::Stall
    });
    let dir = temp_dir("stall");
    let mut config = tiny_config(&dir, shard_count);
    config.chaos_seed = Some(seed);
    // The stalled worker sleeps for an hour; the supervisor must not.
    config.timeout = Duration::from_secs(3);

    let collector = Collector::recording();
    let run = run_supervisor(&config, &collector).unwrap();
    assert_eq!(run.outcome, RunOutcome::Complete);
    assert_eq!(
        run.scorecard.unwrap().to_json_string(),
        reference_scorecard(&config.workload),
    );
    let ledger = collector.ledger().to_json_string();
    assert!(ledger.contains("\"harness/timeouts\": 1"), "{ledger}");
    assert!(ledger.contains("\"harness/kills\": 1"), "{ledger}");
}

#[test]
fn retry_exhaustion_degrades_with_accurate_coverage_and_exit_code() {
    let shard_count = 3;
    let dir = temp_dir("exhaust");
    let mut config = tiny_config(&dir, shard_count);
    config.fail_shards = vec![1];
    config.max_attempts = 2;

    let collector = Collector::recording();
    let run = run_supervisor(&config, &collector).unwrap();
    assert_eq!(run.outcome, RunOutcome::Degraded);
    assert_eq!(run.outcome.exit_code(), exit::DEGRADED);

    // Tiny has 3 scenarios round-robined over 3 shards: shard 1 owns
    // exactly the second scenario.
    let expected_missing: Vec<String> = run
        .manifest
        .scenarios
        .iter()
        .filter(|(_, shard)| *shard == 1)
        .map(|(name, _)| name.clone())
        .collect();
    assert_eq!(expected_missing, vec!["marine-fog".to_string()]);
    assert!(!run.coverage.is_complete());
    assert_eq!(run.coverage.covered.len(), 2);
    assert_eq!(run.coverage.missing.len(), 1);
    assert_eq!(run.coverage.missing[0].scenario, "marine-fog");
    assert!(
        run.coverage.missing[0]
            .reason
            .contains("retry budget exhausted"),
        "{}",
        run.coverage.missing[0].reason
    );

    // The partial scorecard really is partial — and honest about it.
    let scorecard = run.scorecard.unwrap();
    assert_eq!(scorecard.per_scenario.len(), 2);
    assert!(scorecard
        .per_scenario
        .iter()
        .all(|t| t.scenario != "marine-fog"));

    // The shard's story: two attempts, both burned, nothing accepted.
    assert_eq!(run.shards[1].attempts, 2);
    assert!(!run.shards[1].completed);

    // Coverage survives its own serialisation (the supervisor example
    // writes exactly this document).
    let round_trip = Json::parse(&run.coverage.to_json().render_pretty()).unwrap();
    assert_eq!(
        CoverageManifest::from_json(&round_trip).unwrap(),
        run.coverage
    );
    assert!(run.coverage.render_text().contains("DEGRADED"));

    let ledger = collector.ledger().to_json_string();
    assert!(
        ledger.contains("\"harness/exhausted_shards\": 1"),
        "{ledger}"
    );
    assert!(
        ledger.contains("\"harness/outcome\": \"degraded\""),
        "{ledger}"
    );
}

#[test]
fn quarantined_artifact_is_kept_as_the_degradation_fallback() {
    let shard_count = 2;
    // Shard 0's only scheduled attempt panics a work unit; with a
    // budget of one attempt the supervisor must degrade to the
    // quarantined artifact instead of losing the whole shard.
    let seed = find_chaos_seed(|plan| {
        failing_modes(plan, 0) == vec![ChaosMode::PanicUnit] && failing_modes(plan, 1).is_empty()
    });
    let dir = temp_dir("quarantine");
    let mut config = tiny_config(&dir, shard_count);
    config.chaos_seed = Some(seed);
    config.max_attempts = 1;

    let collector = Collector::recording();
    let run = run_supervisor(&config, &collector).unwrap();
    assert_eq!(run.outcome, RunOutcome::Degraded);
    // Shard 0 owns scenarios 0 and 2; the panic hit its first scenario,
    // the other two still scored.
    assert_eq!(run.coverage.covered.len(), 2);
    assert_eq!(run.coverage.missing.len(), 1);
    assert_eq!(run.coverage.missing[0].scenario, "desert-clear-sky");
    assert!(
        run.coverage.missing[0].reason.contains("panicked"),
        "{}",
        run.coverage.missing[0].reason
    );
    assert!(run.shards[0].completed);
    assert_eq!(run.shards[0].quarantined, 1);

    let ledger = collector.ledger().to_json_string();
    assert!(
        ledger.contains("\"harness/degraded_shards\": 1"),
        "{ledger}"
    );
    assert!(
        ledger.contains("\"harness/quarantined_scenarios\": 1"),
        "{ledger}"
    );
}

#[test]
fn an_out_of_range_fail_shard_is_rejected_before_any_spawn() {
    let dir = temp_dir("fail_range");
    let mut config = tiny_config(&dir, 2);
    config.fail_shards = vec![5];

    let collector = Collector::recording();
    let error = run_supervisor(&config, &collector).unwrap_err();
    assert!(error.contains("fail shard 5"), "{error}");
    assert_eq!(collector.ledger().counter("harness/spawns"), 0);
}

/// Every `merge/*` counter a ledger holds, run-level (scope `""`) and
/// per scenario.
fn merge_counters(ledger: &Ledger) -> Vec<(String, String, u64)> {
    let mut counters: Vec<(String, String, u64)> = ledger
        .counter_keys()
        .filter(|key| key.starts_with("merge/"))
        .map(|key| (String::new(), key.to_string(), ledger.counter(key)))
        .collect();
    for scenario in ledger.scenario_names() {
        for key in ledger.scenario_counter_keys(scenario) {
            if key.starts_with("merge/") {
                let n = ledger.scenario_counter(scenario, key);
                counters.push((scenario.to_string(), key.to_string(), n));
            }
        }
    }
    counters
}

#[test]
fn the_merge_ledger_is_the_same_for_every_shard_split() {
    // The supervisor counts scenario tables, never shards, so one run
    // split 1 or 3 ways records the same merge ledger.
    let merge_ledger = |shard_count: usize| {
        let dir = temp_dir(&format!("merge_{shard_count}"));
        let config = tiny_config(&dir, shard_count);
        let collector = Collector::recording();
        let run = run_supervisor(&config, &collector).unwrap();
        assert_eq!(run.outcome, RunOutcome::Complete);
        merge_counters(&collector.ledger())
    };
    let whole = merge_ledger(1);
    // Two run-level counters plus one merged table per tiny scenario.
    assert_eq!(whole.len(), 5, "{whole:?}");
    assert!(whole.contains(&(String::new(), "merge/scenario_tables".to_string(), 3)));
    assert_eq!(merge_ledger(3), whole);
}

/// Writes `script` as the executable worker program `worker.sh` in
/// `dir`.
#[cfg(unix)]
fn script_worker(dir: &TempDir, script: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;

    let program = dir.0.join("worker.sh");
    std::fs::write(&program, script).unwrap();
    std::fs::set_permissions(&program, std::fs::Permissions::from_mode(0o755)).unwrap();
    program
}

/// A retry whose spawn fails returns an error, and must kill and reap
/// every worker still running before it does. Shard 0 records its pid
/// and sleeps for an hour; shard 1 waits for that pid, deletes the
/// worker program and fails, so its retry cannot spawn.
#[cfg(unix)]
#[test]
fn a_failed_respawn_kills_and_reaps_every_running_worker() {
    let dir = temp_dir("reap");
    let mut config = tiny_config(&dir, 2);
    let pid_file = config.artifact_dir.join("shard_0.pid");
    let script = format!(
        r#"#!/bin/sh
case "$*" in
  *"--shard 0/2"*) echo $$ > "{pid}"; exec sleep 3600 ;;
esac
n=0
while [ ! -s "{pid}" ] && [ $n -lt 1000 ]; do sleep 0.01; n=$((n + 1)); done
rm -f "$0"
exit 1
"#,
        pid = pid_file.display()
    );
    config.worker_program = script_worker(&dir, &script);

    let error = run_supervisor(&config, &Collector::noop()).unwrap_err();
    assert!(error.contains("spawn"), "{error}");
    let pid = std::fs::read_to_string(&pid_file).unwrap();
    let signal = |signal: &str| {
        std::process::Command::new("sh")
            .args(["-c", &format!("kill -{signal} {} 2>/dev/null", pid.trim())])
            .status()
            .unwrap()
            .success()
    };
    let alive = signal("0");
    if alive {
        signal("9");
    }
    assert!(
        !alive,
        "shard 0's worker (pid {}) outlived the supervisor",
        pid.trim()
    );
}

/// A failing worker's own last stderr line reaches the run's reason.
/// The worker writes well past a pipe's buffer first, so a supervisor
/// that piped stderr without reading it would hang the worker, and it
/// ends with a blank line, which the reason skips.
#[cfg(unix)]
#[test]
fn a_failed_workers_last_stderr_line_reaches_the_reason() {
    let dir = temp_dir("stderr");
    let mut config = tiny_config(&dir, 1);
    config.max_attempts = 1;
    let script = r#"#!/bin/sh
yes "progress: still working" | head -n 8000 >&2
echo "cannot write artifact: disk full" >&2
echo >&2
exit 3
"#;
    config.worker_program = script_worker(&dir, script);

    let run = run_supervisor(&config, &Collector::noop()).unwrap();
    assert_eq!(run.outcome, RunOutcome::Failed);
    let wanted = "worker exited with exit status: 3: cannot write artifact: disk full";
    assert_eq!(run.shards[0].last_error.as_deref(), Some(wanted));
    for missing in &run.coverage.missing {
        assert!(missing.reason.ends_with(wanted), "{}", missing.reason);
    }
    // The stderr file lives only as long as its attempt.
    let left: Vec<_> = std::fs::read_dir(&config.artifact_dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .filter(|name| name != "worker.sh")
        .collect();
    assert!(left.is_empty(), "{left:?}");
}

/// Golden-workload recovery: the acceptance bar of the harness. A
/// 200-regime fleet split across worker processes, with a chaos storm
/// (mid-run crash + artifact corruption) injected, must recover to the
/// *pinned* digest — the same constant the in-process golden test pins
/// — proving 1 host ≡ N processes byte-for-byte even under failures.
fn golden_recovery(v2: bool, pinned_digest: u64) {
    let shard_count = 2;
    let seed = find_chaos_seed(crash_and_corrupt_storm(shard_count));
    let workload = Workload {
        v2,
        ..Workload::new(2026, WorkloadKind::Golden200)
    };
    let dir = temp_dir(if v2 { "golden_v2" } else { "golden" });
    let mut config = SupervisorConfig::new(worker_bin(), workload, shard_count);
    config.artifact_dir = dir.0.clone();
    config.backoff_base = Duration::from_millis(5);
    config.chaos_seed = Some(seed);

    let collector = Collector::recording();
    let run = run_supervisor(&config, &collector).unwrap();
    assert_eq!(run.outcome, RunOutcome::Complete);
    assert!(run.coverage.is_complete());
    assert_eq!(run.coverage.covered.len(), 200);
    let digest = solar_trace::hash::fnv1a(&run.scorecard.unwrap().to_json_string());
    assert_eq!(
        digest, pinned_digest,
        "supervised multi-process recovery drifted off the golden digest"
    );
}

#[test]
fn golden_200_regime_recovery_lands_the_pinned_digest() {
    golden_recovery(false, 0xf6f8_c0ad_9b38_dde4);
}

#[test]
fn golden_200_regime_v2_recovery_lands_the_pinned_digest() {
    golden_recovery(true, 0x99ac_0ff1_d550_4088);
}

/// A small valid artifact to mutate: built once, reused across the
/// proptest cases.
fn valid_artifact_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let payload = br#"{"schema": "fleet-shard-run/1", "shard_index": 0}"#;
        fleet_harness::artifact::envelope(fleet_harness::worker::SHARD_RUN_KIND, payload)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Parse hardening: any single-byte edit, bit flip, or truncation
    /// of a valid artifact either reproduces the original bytes (the
    /// identity edit) or is rejected with a typed error — never a
    /// panic, never a false accept.
    #[test]
    fn mutated_artifacts_never_parse_as_valid(
        edit_pos in 0usize..177,
        edit_byte in 0u8..=255,
        truncate_to in 0usize..177,
        pick in 0u8..3,
    ) {
        let original = valid_artifact_bytes();
        let mut mutated = original.to_vec();
        match pick {
            0 => {
                let pos = edit_pos % mutated.len();
                mutated[pos] = edit_byte;
            }
            1 => {
                let pos = edit_pos % mutated.len();
                mutated[pos] ^= 1 << (edit_byte % 8);
            }
            _ => mutated.truncate(truncate_to % mutated.len()),
        }

        let dir = temp_dir("proptest");
        let path = dir.0.join(format!("mut_{}.artifact", std::process::id()));
        std::fs::write(&path, &mutated).unwrap();
        let result = fleet_harness::artifact::read_artifact(
            &path,
            fleet_harness::worker::SHARD_RUN_KIND,
        );
        match result {
            Ok(artifact) => prop_assert_eq!(
                &mutated[..],
                original,
                "a mutated artifact parsed as valid: payload {:?}",
                artifact.payload
            ),
            Err(error) => {
                // Typed, displayable, names the file.
                let text = error.to_string();
                prop_assert!(text.contains("artifact"), "{}", text);
            }
        }
    }
}
