//! Reduction of job outcomes into a ranked, regression-friendly
//! scorecard — monolithic or sharded.
//!
//! Ranking uses a single *service score* per (predictor, manager) combo
//! (lower is better):
//!
//! ```text
//! score = 2·brownout_rate + (1 − utilization) + 0.5·MAPE
//! ```
//!
//! Brownouts dominate (missed service is the failure mode harvested
//! systems are provisioned against), wasted energy comes second, and raw
//! prediction error acts as a tiebreaker that rewards accuracy even when
//! a policy masks it. Per-scenario tables rank combos within each
//! scenario; the overall table averages the per-scenario metrics
//! (unweighted, so short harsh scenarios count) via
//! [`pred_metrics::SummaryAggregate`] and re-ranks.
//!
//! **Denominator semantics:** brownout/utilization/duty are averaged
//! over *all* of a combo's scenarios, while MAPE averages only the
//! scenarios with protocol-passing predictions (via
//! [`SummaryAggregate`], which skips zero-count runs — a polar-night
//! scenario that the ROI filters empty carries management signal but no
//! accuracy signal). Every entry carries its `predictions` count so a
//! zero-evidence MAPE is distinguishable from a perfect one; renderers
//! show `--` for it.
//!
//! # Shards
//!
//! A matrix too large for one JSON document ships as a
//! [`ShardManifest`] plus one [`ScorecardShard`] per scenario subset.
//! Because the overall table is a pure function of the per-scenario
//! rankings (one shared code path, [`Scorecard::build`] uses it too),
//! [`Scorecard::merge_shards`] reproduces the monolithic scorecard
//! **byte-for-byte** from shards in any order — pinned by tests across
//! thread counts and shard orderings.
//!
//! JSON output is deterministic: entries carry explicit ranks, object
//! keys have fixed order, and floats use shortest-round-trip formatting
//! — byte-identical across runs and thread counts for the same inputs.
//! Cost accounting follows the [`pred_metrics::CostAggregate`] split: per-entry
//! `peak_candidates` is spec-derived and appears in JSON; peak trace
//! memory varies with cache policy and appears **only** in
//! [`Scorecard::render_text`] (in the JSON it would break the
//! byte-identity contract between full and incremental re-scoring).

use crate::engine::JobOutcome;
use crate::json::Json;
use crate::matrix::FleetMatrix;
use crate::parallel::{ordered_map, ALL_CORES};
use pred_metrics::{CostAggregate, ErrorSummary, SummaryAggregate};
use std::collections::BTreeMap;

const BROWNOUT_WEIGHT: f64 = 2.0;
const WASTE_WEIGHT: f64 = 1.0;
const MAPE_WEIGHT: f64 = 0.5;

/// One ranked row: a (predictor, manager) combo's metrics, either within
/// one scenario or aggregated across all of them.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreEntry {
    /// Rank within its table (1 = best).
    pub rank: usize,
    /// Predictor label.
    pub predictor: String,
    /// Manager label.
    pub manager: String,
    /// Composite service score (lower is better).
    pub score: f64,
    /// Number of protocol-passing predictions behind `mape` (0 means
    /// the ROI filtered every slot — e.g. polar night — and `mape`
    /// carries no information; renderers show `--`).
    pub predictions: usize,
    /// Largest per-slot candidate count any of the combo's jobs paid
    /// (1 for fixed predictors, `|α| · K_max` for dynamic selectors) —
    /// the deterministic half of the tuning-cost accounting.
    pub peak_candidates: usize,
    /// MAPE (fraction) — per-scenario value or unweighted mean.
    pub mape: f64,
    /// Worst per-scenario MAPE (equals `mape` in per-scenario tables).
    pub worst_mape: f64,
    /// Brownout rate — per-scenario value or unweighted mean.
    pub brownout_rate: f64,
    /// Utilization — per-scenario value or unweighted mean.
    pub utilization: f64,
    /// Mean planned duty.
    pub mean_duty: f64,
}

impl ScoreEntry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rank", Json::Num(self.rank as f64)),
            ("predictor", Json::Str(self.predictor.clone())),
            ("manager", Json::Str(self.manager.clone())),
            ("score", Json::Num(self.score)),
            ("predictions", Json::Num(self.predictions as f64)),
            ("peak_candidates", Json::Num(self.peak_candidates as f64)),
            ("mape", Json::Num(self.mape)),
            ("worst_mape", Json::Num(self.worst_mape)),
            ("brownout_rate", Json::Num(self.brownout_rate)),
            ("utilization", Json::Num(self.utilization)),
            ("mean_duty", Json::Num(self.mean_duty)),
        ])
    }

    fn from_json(value: &Json) -> Result<ScoreEntry, String> {
        Ok(ScoreEntry {
            rank: value.req_index("rank")? as usize,
            predictor: value.req_str("predictor")?.to_string(),
            manager: value.req_str("manager")?.to_string(),
            score: value.req_num("score")?,
            predictions: value.req_index("predictions")? as usize,
            peak_candidates: value.req_index("peak_candidates")? as usize,
            mape: value.req_num("mape")?,
            worst_mape: value.req_num("worst_mape")?,
            brownout_rate: value.req_num("brownout_rate")?,
            utilization: value.req_num("utilization")?,
            mean_duty: value.req_num("mean_duty")?,
        })
    }
}

/// The ranking of every combo within one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRanking {
    /// Scenario name.
    pub scenario: String,
    /// Entries sorted best-first.
    pub entries: Vec<ScoreEntry>,
}

impl ScenarioRanking {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            (
                "entries",
                Json::Arr(self.entries.iter().map(ScoreEntry::to_json).collect()),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<ScenarioRanking, String> {
        Ok(ScenarioRanking {
            scenario: value.req_str("scenario")?.to_string(),
            entries: value
                .req("entries")?
                .as_arr()
                .ok_or("entries must be an array")?
                .iter()
                .map(ScoreEntry::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// The reduced fleet result.
#[derive(Clone, Debug, PartialEq)]
pub struct Scorecard {
    /// The engine's master seed (recorded for reproducibility).
    pub master_seed: u64,
    /// Per-scenario rankings, in matrix scenario order.
    pub per_scenario: Vec<ScenarioRanking>,
    /// Overall ranking across scenarios, best-first.
    pub overall: Vec<ScoreEntry>,
    /// Aggregated cost of evaluating every job in the matrix once.
    /// **Cumulative across cache reuse**: a job served from a warm
    /// [`crate::FleetCache`] still counts, so a mostly-cached run
    /// reports what the results *cost to obtain*, not what this re-run
    /// spent (use [`crate::FleetResult::cached_jobs`] for the split).
    /// Peak trace memory varies with cache policy and is rendered by
    /// [`Scorecard::render_text`] only — never into the byte-pinned
    /// JSON.
    pub cost: CostAggregate,
}

fn service_score(brownout_rate: f64, utilization: f64, mape: f64) -> f64 {
    BROWNOUT_WEIGHT * brownout_rate + WASTE_WEIGHT * (1.0 - utilization) + MAPE_WEIGHT * mape
}

/// Total-order sort and 1-based rank assignment (ties broken by labels,
/// so output order never depends on input order or float caprice).
fn rank(entries: &mut [ScoreEntry]) {
    entries.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.predictor.cmp(&b.predictor))
            .then_with(|| a.manager.cmp(&b.manager))
    });
    for (index, entry) in entries.iter_mut().enumerate() {
        entry.rank = index + 1;
    }
}

impl Scorecard {
    /// Reduces job outcomes (any order; they are re-sorted by matrix
    /// coordinates internally).
    pub fn build(matrix: &FleetMatrix, outcomes: &[JobOutcome], master_seed: u64) -> Scorecard {
        Self::from_rankings(
            master_seed,
            Self::per_scenario_rankings(matrix, outcomes),
            // Sums and maxes of integers: order-insensitive, no sort
            // needed.
            CostAggregate::of(outcomes.iter().map(|o| o.cost)),
        )
    }

    /// The scorecard over finished per-scenario tables — the one
    /// constructor behind [`Scorecard::build`] and both merges.
    fn from_rankings(
        master_seed: u64,
        per_scenario: Vec<ScenarioRanking>,
        cost: CostAggregate,
    ) -> Scorecard {
        let overall = Self::overall_from_per_scenario(&per_scenario);
        Scorecard {
            master_seed,
            per_scenario,
            overall,
            cost,
        }
    }

    /// Cuts the scorecard into the shards `manifest` assigns: each
    /// per-scenario table moves to its shard, keeping matrix order, and
    /// each shard's cost aggregates the outcomes of its scenarios. The
    /// one source of shard tables, so a shard is always a slice of the
    /// run's scorecard.
    pub(crate) fn into_shards(
        self,
        manifest: &ShardManifest,
        outcomes: &[JobOutcome],
    ) -> Vec<ScorecardShard> {
        let mut shards: Vec<ScorecardShard> = (0..manifest.shard_count)
            .map(|shard_index| ScorecardShard {
                shard_index,
                master_seed: self.master_seed,
                per_scenario: Vec::new(),
                cost: CostAggregate::default(),
            })
            .collect();
        for (ranking, (_, shard)) in self.per_scenario.into_iter().zip(&manifest.scenarios) {
            shards[*shard].per_scenario.push(ranking);
        }
        for outcome in outcomes {
            let shard = manifest.scenarios[outcome.spec.scenario_idx].1;
            shards[shard].cost.add(outcome.cost);
        }
        shards
    }

    /// The per-scenario ranking tables of a matrix's outcomes, in matrix
    /// scenario order. One pass groups the sorted outcomes by scenario;
    /// a scenario without outcomes gets an empty table, and an outcome
    /// whose scenario index lies outside the matrix is skipped.
    fn per_scenario_rankings(
        matrix: &FleetMatrix,
        outcomes: &[JobOutcome],
    ) -> Vec<ScenarioRanking> {
        let mut sorted: Vec<&JobOutcome> = outcomes.iter().collect();
        sorted.sort_by_key(|o| {
            (
                o.spec.scenario_idx,
                o.spec.predictor_idx,
                o.spec.manager_idx,
            )
        });
        let mut tables: Vec<Vec<ScoreEntry>> = vec![Vec::new(); matrix.scenarios.len()];
        for outcome in sorted {
            let Some(entries) = tables.get_mut(outcome.spec.scenario_idx) else {
                continue;
            };
            let brownout = outcome.report.brownout_rate();
            let utilization = outcome.report.utilization;
            let mape = outcome.summary.mape;
            entries.push(ScoreEntry {
                rank: 0,
                predictor: outcome.predictor.clone(),
                manager: outcome.manager.clone(),
                score: service_score(brownout, utilization, mape),
                predictions: outcome.summary.count,
                peak_candidates: outcome.cost.peak_candidates,
                mape,
                worst_mape: mape,
                brownout_rate: brownout,
                utilization,
                mean_duty: outcome.report.mean_duty,
            });
        }
        matrix
            .scenarios
            .iter()
            .zip(tables)
            .map(|(scenario, mut entries)| {
                rank(&mut entries);
                ScenarioRanking {
                    scenario: scenario.name.clone(),
                    entries,
                }
            })
            .collect()
    }

    /// The overall table as a pure function of the per-scenario tables —
    /// the shared reduction behind both [`Scorecard::build`] and
    /// [`Scorecard::merge_shards`], which is what makes merged output
    /// byte-identical to monolithic output.
    ///
    /// An engine-built matrix is a full cross product (every combo in
    /// every scenario table); a hand-assembled partial outcome set is
    /// still handled gracefully — each combo aggregates over the
    /// scenarios it appears in, like the pre-sharding reduction did.
    fn overall_from_per_scenario(per_scenario: &[ScenarioRanking]) -> Vec<ScoreEntry> {
        let mut overall = Vec::new();
        // Union of combos across all scenario tables, first-seen order
        // (for full products this is exactly the first table's set).
        let mut combos: Vec<(&str, &str)> = Vec::new();
        for ranking in per_scenario {
            for entry in &ranking.entries {
                let key = (entry.predictor.as_str(), entry.manager.as_str());
                if !combos.contains(&key) {
                    combos.push(key);
                }
            }
        }
        for (predictor, manager) in combos {
            // Collect the combo's per-scenario entries in scenario order
            // (the same accumulation order the per-outcome reduction
            // used, so float sums are bit-identical).
            let rows: Vec<&ScoreEntry> = per_scenario
                .iter()
                .filter_map(|ranking| {
                    ranking
                        .entries
                        .iter()
                        .find(|e| e.predictor == predictor && e.manager == manager)
                })
                .collect();
            // Per-scenario MAPE entries reduce through the same
            // aggregator as raw summaries (only mape/count feed the
            // overall table's fields).
            let summaries: Vec<ErrorSummary> = rows
                .iter()
                .map(|e| ErrorSummary {
                    mape: e.mape,
                    count: e.predictions,
                    ..Default::default()
                })
                .collect();
            let aggregate = SummaryAggregate::of(&summaries);
            let runs = rows.len() as f64;
            let brownout = rows.iter().map(|e| e.brownout_rate).sum::<f64>() / runs;
            let utilization = rows.iter().map(|e| e.utilization).sum::<f64>() / runs;
            let mean_duty = rows.iter().map(|e| e.mean_duty).sum::<f64>() / runs;
            overall.push(ScoreEntry {
                rank: 0,
                predictor: predictor.to_string(),
                manager: manager.to_string(),
                score: service_score(brownout, utilization, aggregate.mean_mape),
                predictions: aggregate.predictions,
                peak_candidates: rows.iter().map(|e| e.peak_candidates).max().unwrap_or(0),
                mape: aggregate.mean_mape,
                worst_mape: aggregate.worst_mape,
                brownout_rate: brownout,
                utilization,
                mean_duty,
            });
        }
        rank(&mut overall);
        overall
    }

    /// Reassembles the monolithic scorecard from shards (any order).
    ///
    /// The output is byte-identical to what [`Scorecard::build`] over
    /// the full outcome set produces: per-scenario tables are
    /// concatenated in manifest order — empty (quarantined) tables
    /// included — and the overall table re-derives through the shared
    /// reduction.
    ///
    /// # Errors
    ///
    /// Rejects missing/duplicate/foreign shards, seed mismatches,
    /// shards whose scenario lists disagree with the manifest, and
    /// tables that rank different combo sets.
    pub fn merge_shards(
        manifest: &ShardManifest,
        shards: &[ScorecardShard],
    ) -> Result<Scorecard, String> {
        if shards.len() != manifest.shard_count {
            return Err(format!(
                "manifest expects {} shards, got {}",
                manifest.shard_count,
                shards.len()
            ));
        }
        let (tables, cost) = Self::walk_shards(manifest, shards, &BTreeMap::new())?;
        // `shard_count` shards with distinct in-range indices: every
        // manifest scenario found its table.
        let per_scenario = tables
            .into_iter()
            .map(|table| table.expect("every shard is present").clone())
            .collect();
        Ok(Self::from_rankings(
            manifest.master_seed,
            per_scenario,
            cost,
        ))
    }

    /// Merges whatever shards survived, reporting the holes.
    ///
    /// This is the graceful-degradation counterpart of
    /// [`Scorecard::merge_shards`]: shards may be missing (a worker
    /// exhausted its retry budget) and present shards may carry empty
    /// ranking tables (a scenario quarantined in-process). The merged
    /// scorecard contains only the covered scenarios' tables, and the
    /// returned [`CoverageManifest`] names every missing scenario with
    /// a reason — an honest partial answer, never a silently wrong
    /// one. With every shard present and no empty tables, the output
    /// scorecard is byte-identical to [`Scorecard::merge_shards`] and
    /// the coverage manifest is complete (a test pins this), which is
    /// why the multi-process harness merges every run through here and
    /// reads its outcome off the coverage.
    ///
    /// `shard_reasons` explains absent shard indices;
    /// `scenario_reasons` annotates scenarios whose tables came back
    /// empty (e.g. quarantine errors from the worker artifact).
    ///
    /// # Errors
    ///
    /// Present shards are validated as strictly as the complete merge:
    /// foreign seeds, duplicate or out-of-range indices, scenario-name
    /// mismatches, and combo-set disagreement all fail. A shard both
    /// present and listed in `shard_reasons` is a caller bug and
    /// fails too.
    pub fn merge_shards_partial(
        manifest: &ShardManifest,
        shards: &[ScorecardShard],
        shard_reasons: &BTreeMap<usize, String>,
        scenario_reasons: &BTreeMap<String, String>,
    ) -> Result<(Scorecard, CoverageManifest), String> {
        let (tables, cost) = Self::walk_shards(manifest, shards, shard_reasons)?;
        let mut per_scenario = Vec::new();
        let mut coverage = CoverageManifest::default();
        for ((name, shard_idx), table) in manifest.scenarios.iter().zip(tables) {
            let reason = match table {
                None => shard_reasons
                    .get(shard_idx)
                    .cloned()
                    .unwrap_or_else(|| format!("shard {shard_idx} missing")),
                Some(ranking) if ranking.entries.is_empty() => scenario_reasons
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| "scenario produced no outcomes".to_string()),
                Some(ranking) => {
                    coverage.covered.push(name.clone());
                    per_scenario.push(ranking.clone());
                    continue;
                }
            };
            coverage.missing.push(MissingCoverage {
                scenario: name.clone(),
                reason,
            });
        }
        Ok((
            Self::from_rankings(manifest.master_seed, per_scenario, cost),
            coverage,
        ))
    }

    /// The one walk behind both merges: validates the present shards
    /// against `manifest`, then returns each manifest scenario's table
    /// in manifest order (`None` where its shard is absent) and the
    /// present shards' merged cost.
    ///
    /// Every non-empty table must rank the same combo set — shards from
    /// runs over different predictor/manager axes (same seed, same
    /// scenario names) would otherwise corrupt the overall reduction.
    /// Empty (quarantined) tables rank no combos and are skipped.
    fn walk_shards<'a>(
        manifest: &ShardManifest,
        shards: &'a [ScorecardShard],
        absent: &BTreeMap<usize, String>,
    ) -> Result<(Vec<Option<&'a ScenarioRanking>>, CostAggregate), String> {
        let mut by_index: Vec<Option<&ScorecardShard>> = vec![None; manifest.shard_count];
        for shard in shards {
            if shard.master_seed != manifest.master_seed {
                return Err(format!(
                    "shard {} carries seed {}, manifest has {}",
                    shard.shard_index, shard.master_seed, manifest.master_seed
                ));
            }
            let slot = by_index
                .get_mut(shard.shard_index)
                .ok_or_else(|| format!("shard index {} out of range", shard.shard_index))?;
            if slot.is_some() {
                return Err(format!("duplicate shard index {}", shard.shard_index));
            }
            if absent.contains_key(&shard.shard_index) {
                return Err(format!(
                    "shard {} is both present and declared missing",
                    shard.shard_index
                ));
            }
            *slot = Some(shard);
        }
        // Walk the manifest's global scenario order, consuming each
        // shard's rankings positionally (names double-checked).
        let mut cursors = vec![0usize; manifest.shard_count];
        let mut tables = Vec::with_capacity(manifest.scenarios.len());
        for (name, shard_idx) in &manifest.scenarios {
            // The manifest may come from untrusted JSON: its shard
            // indices are not pre-validated.
            let Some(slot) = by_index.get(*shard_idx) else {
                return Err(format!(
                    "manifest names shard {shard_idx}, which is out of range"
                ));
            };
            let Some(shard) = slot else {
                tables.push(None);
                continue;
            };
            let ranking = shard
                .per_scenario
                .get(cursors[*shard_idx])
                .ok_or_else(|| format!("shard {shard_idx} is short a scenario"))?;
            cursors[*shard_idx] += 1;
            if &ranking.scenario != name {
                return Err(format!(
                    "shard {shard_idx} has scenario {:?} where manifest expects {name:?}",
                    ranking.scenario
                ));
            }
            tables.push(Some(ranking));
        }
        let mut cost = CostAggregate::default();
        for (idx, shard) in by_index.iter().enumerate() {
            let Some(shard) = shard else { continue };
            if cursors[idx] != shard.per_scenario.len() {
                return Err(format!("shard {idx} has scenarios the manifest lacks"));
            }
            cost.merge(&shard.cost);
        }
        let combo_set = |ranking: &ScenarioRanking| {
            let mut combos: Vec<(String, String)> = ranking
                .entries
                .iter()
                .map(|e| (e.predictor.clone(), e.manager.clone()))
                .collect();
            combos.sort();
            combos
        };
        let mut ranked = tables.iter().flatten().filter(|r| !r.entries.is_empty());
        if let Some(first) = ranked.next() {
            let reference = combo_set(first);
            if let Some(ranking) = ranked.find(|r| combo_set(r) != reference) {
                return Err(format!(
                    "scenario {:?} ranks a different combo set than {:?} — \
                     shards come from different matrices",
                    ranking.scenario, first.scenario
                ));
            }
        }
        Ok((tables, cost))
    }

    /// The best overall combo.
    pub fn winner(&self) -> Option<&ScoreEntry> {
        self.overall.first()
    }

    /// JSON form (deterministic; see module docs).
    ///
    /// `master_seed` is carried as a decimal *string*: JSON numbers are
    /// doubles, which would silently corrupt seeds ≥ 2⁵³ — the one
    /// field whose whole purpose is exact replay.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("master_seed", Json::Str(self.master_seed.to_string())),
            (
                "per_scenario",
                Json::Arr(
                    self.per_scenario
                        .iter()
                        .map(ScenarioRanking::to_json)
                        .collect(),
                ),
            ),
            (
                "overall",
                Json::Arr(self.overall.iter().map(ScoreEntry::to_json).collect()),
            ),
        ])
    }

    /// Pretty-printed deterministic JSON document: byte for byte
    /// `self.to_json().render_pretty()`, with the per-scenario tables
    /// rendered in parallel on all available cores and spliced into
    /// the document.
    pub fn to_json_string(&self) -> String {
        self.to_json_string_on(ALL_CORES)
    }

    /// [`Scorecard::to_json_string`] with the tables rendered on
    /// `threads` workers.
    fn to_json_string_on(&self, threads: usize) -> String {
        // Each table sits two containers deep: the root object, then the
        // `per_scenario` array.
        let tables = ordered_map(&self.per_scenario, threads, |ranking| {
            ranking.to_json().render_pretty_at(2)
        });
        let overall = Json::Arr(self.overall.iter().map(ScoreEntry::to_json).collect());
        let mut out = String::with_capacity(tables.iter().map(|t| t.len() + 6).sum::<usize>());
        out.push_str("{\n  \"master_seed\": ");
        out.push_str(&Json::Str(self.master_seed.to_string()).render());
        out.push_str(",\n  \"per_scenario\": ");
        if tables.is_empty() {
            out.push_str("[]");
        } else {
            for (i, table) in tables.iter().enumerate() {
                out.push_str(if i == 0 { "[\n    " } else { ",\n    " });
                out.push_str(table);
            }
            out.push_str("\n  ]");
        }
        out.push_str(",\n  \"overall\": ");
        out.push_str(&overall.render_pretty_at(1));
        out.push_str("\n}\n");
        out
    }

    /// A plain-text ranking table for terminals.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<4}{:<51}{:<22}{:>8}{:>9}{:>11}{:>8}{:>8}{:>7}",
            "#", "predictor", "manager", "score", "MAPE%", "brownout%", "util%", "duty", "cand"
        );
        for entry in &self.overall {
            let mape = if entry.predictions == 0 {
                "--".to_string()
            } else {
                format!("{:.2}", entry.mape * 100.0)
            };
            let _ = writeln!(
                out,
                "{:<4}{:<51}{:<22}{:>8.3}{:>9}{:>11.2}{:>8.1}{:>8.3}{:>7}",
                entry.rank,
                entry.predictor,
                entry.manager,
                entry.score,
                mape,
                entry.brownout_rate * 100.0,
                entry.utilization * 100.0,
                entry.mean_duty,
                entry.peak_candidates,
            );
        }
        let _ = writeln!(out, "evaluation cost (incl. cached work): {}", self.cost);
        out
    }
}

/// One shard of a sharded scorecard: the per-scenario ranking tables of
/// a scenario subset. Produced by
/// [`FleetEngine::run_sharded`](crate::FleetEngine::run_sharded);
/// reassembled by [`Scorecard::merge_shards`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScorecardShard {
    /// This shard's index in `0..shard_count`.
    pub shard_index: usize,
    /// The engine's master seed (merge refuses foreign shards).
    pub master_seed: u64,
    /// Rankings of this shard's scenarios, in global matrix order.
    pub per_scenario: Vec<ScenarioRanking>,
    /// Cost of this shard's jobs. Trace memory never enters shard
    /// JSON (it varies with cache policy); only the deterministic
    /// `jobs`/`peak_candidates` fields round-trip.
    pub cost: CostAggregate,
}

impl ScorecardShard {
    /// Deterministic JSON form (no trace memory).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shard_index", Json::Num(self.shard_index as f64)),
            ("master_seed", Json::Str(self.master_seed.to_string())),
            (
                "per_scenario",
                Json::Arr(
                    self.per_scenario
                        .iter()
                        .map(ScenarioRanking::to_json)
                        .collect(),
                ),
            ),
            ("jobs", Json::Num(self.cost.jobs as f64)),
            (
                "peak_candidates",
                Json::Num(self.cost.peak_candidates as f64),
            ),
        ])
    }

    /// Parses the JSON form. Trace memory is not serialized and parses
    /// back as zero.
    pub fn from_json(value: &Json) -> Result<ScorecardShard, String> {
        Ok(ScorecardShard {
            shard_index: value.req_index("shard_index")? as usize,
            master_seed: value
                .req_str("master_seed")?
                .parse()
                .map_err(|e| format!("bad master_seed: {e}"))?,
            per_scenario: value
                .req("per_scenario")?
                .as_arr()
                .ok_or("per_scenario must be an array")?
                .iter()
                .map(ScenarioRanking::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            cost: CostAggregate {
                jobs: value.req_index("jobs")? as usize,
                peak_candidates: value.req_index("peak_candidates")? as usize,
                ..Default::default()
            },
        })
    }

    /// Parses a shard from JSON text.
    pub fn from_json_str(text: &str) -> Result<ScorecardShard, String> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// The index document of a sharded scorecard: which scenario lives in
/// which shard, in global matrix order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// The engine's master seed.
    pub master_seed: u64,
    /// Total shard count.
    pub shard_count: usize,
    /// `(scenario name, shard index)` in matrix scenario order.
    pub scenarios: Vec<(String, usize)>,
}

impl ShardManifest {
    /// The round-robin split of `matrix` into `shard_count` shards:
    /// scenario `idx` lives in shard `idx % shard_count`, so multi-year
    /// entries spread across shards. The one split rule behind the
    /// in-process sharded reduction and the multi-process harness.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is 0.
    pub fn round_robin(matrix: &FleetMatrix, master_seed: u64, shard_count: usize) -> Self {
        ShardManifest {
            master_seed,
            shard_count,
            scenarios: matrix
                .scenarios
                .iter()
                .enumerate()
                .map(|(idx, s)| (s.name.clone(), idx % shard_count))
                .collect(),
        }
    }

    /// Deterministic JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("master_seed", Json::Str(self.master_seed.to_string())),
            ("shard_count", Json::Num(self.shard_count as f64)),
            (
                "scenarios",
                Json::Arr(
                    self.scenarios
                        .iter()
                        .map(|(name, shard)| {
                            Json::obj([
                                ("scenario", Json::Str(name.clone())),
                                ("shard", Json::Num(*shard as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the JSON form.
    pub fn from_json(value: &Json) -> Result<ShardManifest, String> {
        Ok(ShardManifest {
            master_seed: value
                .req_str("master_seed")?
                .parse()
                .map_err(|e| format!("bad master_seed: {e}"))?,
            shard_count: value.req_index("shard_count")? as usize,
            scenarios: value
                .req("scenarios")?
                .as_arr()
                .ok_or("scenarios must be an array")?
                .iter()
                .map(|entry| {
                    Ok((
                        entry.req_str("scenario")?.to_string(),
                        entry.req_index("shard")? as usize,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?,
        })
    }
}

/// One scenario a degraded run could not score, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingCoverage {
    /// The unscored scenario's name.
    pub scenario: String,
    /// Why it is missing (retry exhaustion, quarantine error, …).
    pub reason: String,
}

/// What a (possibly partial) merged scorecard actually covers.
///
/// Produced by [`Scorecard::merge_shards_partial`]: `covered` lists
/// the scenarios whose ranking tables made it into the scorecard, in
/// manifest (global matrix) order; `missing` names each hole with the
/// reason it exists. A complete run has an empty `missing` list. The
/// harness attaches this to every supervised scorecard and derives the
/// run's outcome from it, so a partial answer is explicit, never
/// mistaken for a full one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageManifest {
    /// Scenarios present in the merged scorecard, manifest order.
    pub covered: Vec<String>,
    /// Scenarios absent from the merged scorecard, manifest order.
    pub missing: Vec<MissingCoverage>,
}

/// Schema tag for [`CoverageManifest`] JSON.
const COVERAGE_SCHEMA: &str = "fleet-coverage/1";

impl CoverageManifest {
    /// Whether every scenario is covered.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// Deterministic JSON form: `{schema, covered, missing}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(COVERAGE_SCHEMA.to_string())),
            (
                "covered",
                Json::Arr(
                    self.covered
                        .iter()
                        .map(|name| Json::Str(name.clone()))
                        .collect(),
                ),
            ),
            (
                "missing",
                Json::Arr(
                    self.missing
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("scenario", Json::Str(m.scenario.clone())),
                                ("reason", Json::Str(m.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the JSON form.
    pub fn from_json(value: &Json) -> Result<CoverageManifest, String> {
        let schema = value.req_str("schema")?;
        if schema != COVERAGE_SCHEMA {
            return Err(format!("unsupported coverage schema {schema:?}"));
        }
        Ok(CoverageManifest {
            covered: value
                .req("covered")?
                .as_arr()
                .ok_or("covered must be an array")?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "covered entries must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            missing: value
                .req("missing")?
                .as_arr()
                .ok_or("missing must be an array")?
                .iter()
                .map(|item| {
                    Ok(MissingCoverage {
                        scenario: item.req_str("scenario")?.to_string(),
                        reason: item.req_str("reason")?.to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        })
    }

    /// A terminal summary: one line per hole, or a completeness note.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_complete() {
            let _ = writeln!(out, "coverage: complete ({} scenarios)", self.covered.len());
            return out;
        }
        let _ = writeln!(
            out,
            "coverage: DEGRADED — {} of {} scenarios missing",
            self.missing.len(),
            self.covered.len() + self.missing.len()
        );
        for m in &self.missing {
            let _ = writeln!(out, "  missing {:<32} {}", m.scenario, m.reason);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::engine::FleetEngine;
    use crate::matrix::{FleetMatrix, PredictorSpec};
    use crate::ManagerSpec;

    fn run() -> (FleetMatrix, Scorecard) {
        let matrix = FleetMatrix::new(
            vec![
                PredictorSpec::Wcma {
                    alpha: 0.7,
                    days: 10,
                    k: 2,
                },
                PredictorSpec::Persistence,
            ],
            vec![
                ManagerSpec::EnergyNeutral {
                    target_soc: 0.5,
                    gain: 0.25,
                },
                ManagerSpec::Greedy,
            ],
            vec![
                Catalog::builtin().get("desert-clear-sky").unwrap().clone(),
                Catalog::builtin().get("marine-fog").unwrap().clone(),
            ],
        )
        .unwrap();
        let scorecard = FleetEngine::new(11).run(&matrix).unwrap().scorecard;
        (matrix, scorecard)
    }

    #[test]
    fn ranks_are_dense_and_sorted() {
        let (_, scorecard) = run();
        assert_eq!(scorecard.overall.len(), 4);
        for (index, entry) in scorecard.overall.iter().enumerate() {
            assert_eq!(entry.rank, index + 1);
            if index > 0 {
                assert!(entry.score >= scorecard.overall[index - 1].score);
            }
        }
        for ranking in &scorecard.per_scenario {
            assert_eq!(ranking.entries.len(), 4);
            assert_eq!(ranking.entries[0].rank, 1);
        }
    }

    #[test]
    fn managed_wcma_beats_greedy_overall() {
        let (_, scorecard) = run();
        let winner = scorecard.winner().unwrap();
        assert!(
            winner.manager.starts_with("neutral"),
            "expected a managed policy to win, got {winner:?}"
        );
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let (_, a) = run();
        let (_, b) = run();
        let ja = a.to_json_string();
        let jb = b.to_json_string();
        assert_eq!(ja, jb);
        let parsed = crate::json::Json::parse(&ja).unwrap();
        assert_eq!(parsed.req_str("master_seed").unwrap(), "11");
        assert_eq!(parsed.req("overall").unwrap().as_arr().unwrap().len(), 4);
        assert!(!a.render_text().is_empty());
    }

    #[test]
    fn spliced_json_string_equals_the_whole_document_render() {
        let (_, full) = run();
        let mut empty_table = full.clone();
        empty_table.per_scenario[1].entries.clear();
        let mut bare = full.clone();
        bare.per_scenario.clear();
        bare.overall.clear();
        let mut one = full.clone();
        one.per_scenario.truncate(1);
        one.master_seed = u64::MAX;
        for scorecard in [full, empty_table, bare, one] {
            let whole = scorecard.to_json().render_pretty();
            for threads in [1, 3] {
                assert_eq!(scorecard.to_json_string_on(threads), whole);
            }
        }
    }

    #[test]
    fn cost_shows_in_text_but_wall_time_never_reaches_json() {
        let (_, scorecard) = run();
        assert_eq!(scorecard.cost.jobs, scorecard.overall.len() * 2);
        assert!(scorecard.cost.peak_trace_bytes > 0);
        assert!(scorecard.render_text().contains("evaluation cost"));
        let json = scorecard.to_json_string();
        assert!(!json.contains("wall"), "wall time is non-deterministic");
        assert!(
            !json.contains("trace_bytes"),
            "trace memory varies with cache policy"
        );
        // Candidate counts are deterministic and do reach JSON.
        assert!(json.contains("\"peak_candidates\""));
    }

    #[test]
    fn huge_seeds_survive_json_exactly() {
        // Above 2^53: a float field would silently round this.
        let seed = u64::MAX - 1;
        let (matrix, _) = run();
        let result = FleetEngine::new(seed).run(&matrix).unwrap();
        let text = result.scorecard.to_json_string();
        let parsed = crate::json::Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .req_str("master_seed")
                .unwrap()
                .parse::<u64>()
                .unwrap(),
            seed
        );
    }

    #[test]
    fn shard_and_manifest_json_round_trip() {
        let (matrix, _) = run();
        let sharded = FleetEngine::new(11).run_sharded(&matrix, 2).unwrap();
        assert_eq!(sharded.shards.len(), 2);
        for shard in &sharded.shards {
            let text = shard.to_json().render_pretty();
            assert!(!text.contains("wall"), "shard JSON must stay deterministic");
            let back = ScorecardShard::from_json_str(&text).unwrap();
            assert_eq!(back.shard_index, shard.shard_index);
            assert_eq!(back.per_scenario, shard.per_scenario);
            assert_eq!(back.cost.jobs, shard.cost.jobs);
        }
        let manifest_text = sharded.manifest.to_json().render_pretty();
        let manifest_back =
            ShardManifest::from_json(&Json::parse(&manifest_text).unwrap()).unwrap();
        assert_eq!(manifest_back, sharded.manifest);
    }

    #[test]
    fn partial_outcome_sets_build_without_panicking() {
        // Scorecard::build is public API: a filtered outcome slice
        // (missing jobs, even a whole scenario) must degrade to
        // aggregating what is present, not panic.
        let (matrix, _) = run();
        let full = FleetEngine::new(11).run(&matrix).unwrap();
        // Drop one job of scenario 0.
        let partial: Vec<_> = full.outcomes.iter().skip(1).cloned().collect();
        let card = Scorecard::build(&matrix, &partial, 11);
        assert_eq!(card.overall.len(), 4, "all combos still appear");
        // Drop ALL of scenario 0's jobs: combos come from scenario 1.
        let tail: Vec<_> = full
            .outcomes
            .iter()
            .filter(|o| o.spec.scenario_idx == 1)
            .cloned()
            .collect();
        let card = Scorecard::build(&matrix, &tail, 11);
        assert!(card.per_scenario[0].entries.is_empty());
        assert_eq!(card.overall.len(), 4);
        assert!(card.overall.iter().all(|e| e.score.is_finite()));
    }

    #[test]
    fn build_is_independent_of_outcome_order() {
        let matrix = three_scenario_matrix();
        let full = FleetEngine::new(11).run(&matrix).unwrap().outcomes;
        let without_middle: Vec<_> = full
            .iter()
            .filter(|o| o.spec.scenario_idx != 1)
            .cloned()
            .collect();
        for (outcomes, middle_is_empty) in [(full, false), (without_middle, true)] {
            let in_job_order = Scorecard::build(&matrix, &outcomes, 11);
            let reversed: Vec<_> = outcomes.iter().rev().cloned().collect();
            assert_eq!(
                Scorecard::build(&matrix, &reversed, 11).to_json_string(),
                in_job_order.to_json_string(),
            );
            // Every matrix scenario keeps its table, in matrix order; a
            // scenario without outcomes keeps an empty one.
            let tables: Vec<_> = in_job_order
                .per_scenario
                .iter()
                .map(|r| (r.scenario.as_str(), r.entries.is_empty()))
                .collect();
            assert_eq!(
                tables,
                [
                    ("desert-clear-sky", false),
                    ("marine-fog", middle_is_empty),
                    ("continental-storms", false),
                ]
            );
            // An outcome outside the matrix reaches no table.
            let mut stray = outcomes[0].clone();
            stray.spec.scenario_idx = matrix.scenarios.len();
            let with_stray: Vec<_> = reversed.into_iter().chain([stray]).collect();
            assert_eq!(
                Scorecard::build(&matrix, &with_stray, 11).per_scenario,
                in_job_order.per_scenario
            );
        }
    }

    fn three_scenario_matrix() -> FleetMatrix {
        FleetMatrix::new(
            vec![
                PredictorSpec::Wcma {
                    alpha: 0.7,
                    days: 10,
                    k: 2,
                },
                PredictorSpec::Persistence,
            ],
            vec![ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: 0.25,
            }],
            vec![
                Catalog::builtin().get("desert-clear-sky").unwrap().clone(),
                Catalog::builtin().get("marine-fog").unwrap().clone(),
                Catalog::builtin()
                    .get("continental-storms")
                    .unwrap()
                    .clone(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn merge_rejects_inconsistent_shards() {
        let (matrix, _) = run();
        let sharded = FleetEngine::new(11).run_sharded(&matrix, 2).unwrap();
        // Missing shard.
        assert!(Scorecard::merge_shards(&sharded.manifest, &sharded.shards[..1]).is_err());
        // Duplicate shard.
        let dupes = vec![sharded.shards[0].clone(), sharded.shards[0].clone()];
        assert!(Scorecard::merge_shards(&sharded.manifest, &dupes).is_err());
        // Foreign seed.
        let mut foreign = sharded.shards.clone();
        foreign[0].master_seed ^= 1;
        assert!(Scorecard::merge_shards(&sharded.manifest, &foreign).is_err());
        // Scenario-name mismatch.
        let mut renamed = sharded.shards.clone();
        renamed[0].per_scenario[0].scenario = "not-a-scenario".into();
        assert!(Scorecard::merge_shards(&sharded.manifest, &renamed).is_err());
        // Out-of-range shard index in a (possibly hand-edited) manifest
        // must be an error, not a panic.
        let mut bad_manifest = sharded.manifest.clone();
        bad_manifest.scenarios[0].1 = 9;
        assert!(Scorecard::merge_shards(&bad_manifest, &sharded.shards).is_err());
        // Shards from a different matrix (same seed, same scenario
        // names, different combo set) are rejected.
        let mut foreign_matrix = sharded.shards.clone();
        foreign_matrix[0].per_scenario[0].entries.pop();
        assert!(Scorecard::merge_shards(&sharded.manifest, &foreign_matrix).is_err());
    }

    #[test]
    fn partial_merge_with_everything_present_matches_complete_merge() {
        use std::collections::BTreeMap;
        let matrix = three_scenario_matrix();
        let sharded = FleetEngine::new(11).run_sharded(&matrix, 2).unwrap();
        let complete = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
        let (partial, coverage) = Scorecard::merge_shards_partial(
            &sharded.manifest,
            &sharded.shards,
            &BTreeMap::new(),
            &BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(partial.to_json_string(), complete.to_json_string());
        assert!(coverage.is_complete());
        assert_eq!(coverage.covered.len(), 3);
    }

    #[test]
    fn partial_merge_reports_missing_shards_and_empty_tables() {
        use std::collections::BTreeMap;
        let matrix = three_scenario_matrix();
        let sharded = FleetEngine::new(11).run_sharded(&matrix, 3).unwrap();
        // Drop shard 1 (retry exhaustion) and empty shard 2's table
        // (in-process quarantine).
        let mut shards = vec![sharded.shards[0].clone(), sharded.shards[2].clone()];
        let quarantined_scenario = shards[1].per_scenario[0].scenario.clone();
        shards[1].per_scenario[0].entries.clear();
        let shard_reasons: BTreeMap<usize, String> =
            [(1usize, "retry budget exhausted".to_string())].into();
        let scenario_reasons: BTreeMap<String, String> = [(
            quarantined_scenario.clone(),
            "work unit panicked".to_string(),
        )]
        .into();
        let (partial, coverage) = Scorecard::merge_shards_partial(
            &sharded.manifest,
            &shards,
            &shard_reasons,
            &scenario_reasons,
        )
        .unwrap();
        assert_eq!(coverage.covered.len(), 1);
        assert_eq!(coverage.missing.len(), 2);
        assert_eq!(partial.per_scenario.len(), 1);
        assert!(!partial.overall.is_empty());
        let reasons: Vec<&str> = coverage.missing.iter().map(|m| m.reason.as_str()).collect();
        assert!(reasons.contains(&"retry budget exhausted"), "{reasons:?}");
        assert!(reasons.contains(&"work unit panicked"), "{reasons:?}");
        assert!(coverage
            .missing
            .iter()
            .any(|m| m.scenario == quarantined_scenario));
        // The coverage manifest round-trips through its JSON form.
        let back =
            CoverageManifest::from_json(&Json::parse(&coverage.to_json().render_pretty()).unwrap())
                .unwrap();
        assert_eq!(back, coverage);
        assert!(coverage.render_text().contains("DEGRADED"));

        // Contradiction (shard both present and declared missing) and
        // strict validation of present shards still hold.
        let all_reasons: BTreeMap<usize, String> = [(0usize, "x".to_string())].into();
        assert!(Scorecard::merge_shards_partial(
            &sharded.manifest,
            &shards,
            &all_reasons,
            &BTreeMap::new(),
        )
        .is_err());
        let mut foreign = shards.clone();
        foreign[0].master_seed ^= 1;
        assert!(Scorecard::merge_shards_partial(
            &sharded.manifest,
            &foreign,
            &shard_reasons,
            &BTreeMap::new(),
        )
        .is_err());
    }
}
