//! The job plane as structure-of-arrays lanes: [`NodeLanes`].

use crate::manager::{energy_neutral_duty, ManagerSpec, PowerManager};
use crate::node::{NodeConfig, NodeReport};
use crate::stream::{absorb, check_slotting, finish_report, slot_context};

/// One lane's state between days.
#[derive(Clone, Debug)]
struct Lane {
    manager: ManagerSpec,
    level_j: f64,
    planned_duty: f64,
    duty_sum: f64,
    consumed_j: f64,
    charge_waste_j: f64,
    discharge_loss_j: f64,
    leaked_j: f64,
    brownouts: usize,
}

/// Many nodes of one [`NodeConfig`] stepped together a day at a time,
/// one lane per node, each planning with its own [`ManagerSpec`].
///
/// A fleet scenario runs every (predictor, manager) job on one node
/// under one corrupted harvest; the jobs differ only in the predictions
/// they plan with and in their manager. Each job is one lane: its
/// storage level, planned duty, report accumulators and manager.
/// [`NodeLanes::run_day`] takes a day's harvests and every lane's
/// predictions and walks the lanes through the day in blocks of up to
/// sixteen, each block's state held in fixed-width `f64` arrays (locals
/// for the whole day) that LLVM vectorizes. A sixteen-lane block is
/// four vectors whose division chains (four per lane per slot) overlap
/// within each slot; a block of fewer lanes takes the narrowest width
/// that holds them (1, 4 or 8), so a one-job unit pays for one lane.
///
/// Each lane runs exactly the ops of
/// [`NodeSimulation::absorb_corrupted`](crate::NodeSimulation::absorb_corrupted)
/// and [`NodeSimulation::plan_with`](crate::NodeSimulation::plan_with), in
/// the same order — both call the same value functions for the storage
/// step and the energy-neutral rule — so lane `i` reports exactly what
/// a [`NodeSimulation`](crate::NodeSimulation) with manager `managers[i]`
/// reports when fed the same harvests and lane `i`'s predictions
/// (property-tested bit for bit).
///
/// `Clone`, and a clone taken between days is a checkpoint: fed the
/// remaining days, it reports exactly what the uninterrupted lanes
/// report.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use harvest_sim::{EnergyStorage, Load, ManagerSpec, NodeConfig, NodeLanes, SolarPanel};
///
/// let config = NodeConfig {
///     panel: SolarPanel::new(0.01, 0.15)?,
///     storage: EnergyStorage::new(200.0, 100.0)?,
///     load: Load::new(0.05, 0.0001)?,
/// };
/// let managers = [
///     ManagerSpec::EnergyNeutral { target_soc: 0.5, gain: 0.25 },
///     ManagerSpec::Greedy,
/// ];
/// let mut lanes = NodeLanes::new(&config, managers, 3600.0, 24);
/// let harvest: Vec<f64> = (0..24).map(|h| if (6..18).contains(&h) { 30.0 } else { 0.0 }).collect();
/// // Slot-major: both lanes' predictions for slot 0, then slot 1, …
/// let predicted: Vec<f64> = harvest.iter().flat_map(|&h| [h * 50.0, h * 50.0]).collect();
/// lanes.run_day(&harvest, &predicted);
/// let greedy = lanes.report(1);
/// assert_eq!(greedy.slots, 24);
/// assert_eq!(greedy.mean_duty, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NodeLanes {
    /// The shared node; its storage's level is every lane's initial one.
    config: NodeConfig,
    slot_s: f64,
    /// Every lane absorbs the same harvests, so one total serves all.
    harvested_j: f64,
    slots: usize,
    lanes: Vec<Lane>,
}

impl NodeLanes {
    /// One lane per manager, each starting from `config`'s storage level,
    /// at slot duration `slot_seconds` for predictions made at
    /// `slots_per_day` slots per day.
    ///
    /// # Panics
    ///
    /// Panics where [`NodeSimulation::with_external_predictions`] does.
    ///
    /// [`NodeSimulation::with_external_predictions`]: crate::NodeSimulation::with_external_predictions
    pub fn new(
        config: &NodeConfig,
        managers: impl IntoIterator<Item = ManagerSpec>,
        slot_seconds: f64,
        slots_per_day: usize,
    ) -> Self {
        check_slotting(slot_seconds, slots_per_day);
        let level_j = config.storage.level_j();
        let lanes = managers
            .into_iter()
            .map(|manager| Lane {
                manager,
                level_j,
                planned_duty: 0.0,
                duty_sum: 0.0,
                consumed_j: 0.0,
                charge_waste_j: 0.0,
                discharge_loss_j: 0.0,
                leaked_j: 0.0,
                brownouts: 0,
            })
            .collect();
        NodeLanes {
            config: config.clone(),
            slot_s: slot_seconds,
            harvested_j: 0.0,
            slots: 0,
            lanes,
        }
    }

    /// The number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether there are no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Advances every lane over a run of slots — a day, for checkpoints
    /// to fall on day boundaries. Slot `t` harvests `harvest_j[t]`
    /// (already fault-hooked, as [`NodeSimulation::absorb_corrupted`]
    /// takes it), and lane `i` then plans from `predicted[t × len + i]`.
    ///
    /// # Panics
    ///
    /// Panics if `predicted` does not hold `len` predictions per slot,
    /// and — after the run, like [`NodeSimulation::plan_with`] at the first
    /// offending slot — if any lane planned a duty outside `[0, 1]`.
    ///
    /// [`NodeSimulation::absorb_corrupted`]: crate::NodeSimulation::absorb_corrupted
    /// [`NodeSimulation::plan_with`]: crate::NodeSimulation::plan_with
    pub fn run_day(&mut self, harvest_j: &[f64], predicted: &[f64]) {
        assert_eq!(
            predicted.len(),
            harvest_j.len() * self.lanes.len(),
            "need one prediction per lane per slot"
        );
        for &harvest in harvest_j {
            self.harvested_j += harvest.max(0.0);
        }
        self.slots += harvest_j.len();
        let (config, slot_s, stride) = (&self.config, self.slot_s, self.lanes.len());
        let mut offender = None;
        for (b, lanes) in self.lanes.chunks_mut(BLOCK).enumerate() {
            let first = b * BLOCK;
            let run = Run {
                config,
                slot_s,
                harvest_j,
                predicted,
                stride,
                first,
            };
            // The narrowest block that holds the lanes: a one-job unit
            // pays for one lane, not sixteen.
            let bad = match lanes.len() {
                1 => run.walk::<1>(lanes),
                2..=4 => run.walk::<4>(lanes),
                5..=8 => run.walk::<8>(lanes),
                _ => run.walk::<BLOCK>(lanes),
            };
            offender = offender.or(bad.map(|i| first + i));
        }
        if let Some(lane) = offender {
            panic!(
                "lane {lane}: manager {} planned a duty outside [0, 1]",
                self.lanes[lane].manager.name()
            );
        }
    }

    /// Lane `lane`'s report so far, as [`NodeSimulation::finish`] would
    /// return it. The lanes keep running.
    ///
    /// [`NodeSimulation::finish`]: crate::NodeSimulation::finish
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn report(&self, lane: usize) -> NodeReport {
        let lane = &self.lanes[lane];
        let report = NodeReport {
            slots: self.slots,
            harvested_j: self.harvested_j,
            consumed_j: lane.consumed_j,
            charge_waste_j: lane.charge_waste_j,
            discharge_loss_j: lane.discharge_loss_j,
            leaked_j: lane.leaked_j,
            brownouts: lane.brownouts,
            ..NodeReport::default()
        };
        let stored_delta_j = lane.level_j - self.config.storage.level_j();
        finish_report(report, stored_delta_j, lane.duty_sum)
    }
}

/// The widest block: sixteen lanes are four 4-wide vectors, whose
/// division chains overlap within each slot.
const BLOCK: usize = 16;

/// One day's inputs, shared by the day's blocks.
struct Run<'a> {
    config: &'a NodeConfig,
    slot_s: f64,
    harvest_j: &'a [f64],
    /// Slot-major predictions, `stride` per slot.
    predicted: &'a [f64],
    stride: usize,
    /// The index of the block's first lane.
    first: usize,
}

impl Run<'_> {
    /// Walks `lanes` (at most `W`) through the day as one block held in
    /// locals; returns the first lane that planned a duty outside
    /// `[0, 1]`, if any.
    fn walk<const W: usize>(&self, lanes: &mut [Lane]) -> Option<usize> {
        let mut block = Block::<W>::gather(lanes);
        // A local copy: the block's stores cannot alias it, so its
        // parameters stay in registers.
        let config = self.config.clone();
        for (slot, &harvest_j) in self.harvest_j.iter().enumerate() {
            let row = &self.predicted[slot * self.stride + self.first..][..lanes.len()];
            // Padding lanes plan from 0; element by element, so a
            // partial block costs no memset and memcpy calls per slot.
            let prediction: [f64; W] = std::array::from_fn(|i| row.get(i).copied().unwrap_or(0.0));
            block.step(&config, self.slot_s, harvest_j.max(0.0), &prediction);
        }
        block.scatter(lanes)
    }
}

/// Up to `W` lanes laid out as arrays, one per field, for the day's
/// slot loop. Lanes past the last real one are inert padding.
#[derive(Clone, Copy)]
struct Block<const W: usize> {
    /// The manager as data every lane runs through: energy-neutral lanes
    /// take the clamped rule, the rest their fixed duty (1 for greedy).
    neutral: [bool; W],
    target_soc: [f64; W],
    gain: [f64; W],
    fixed: [f64; W],
    level_j: [f64; W],
    duty: [f64; W],
    duty_sum: [f64; W],
    consumed_j: [f64; W],
    charge_waste_j: [f64; W],
    discharge_loss_j: [f64; W],
    leaked_j: [f64; W],
    brownouts: [usize; W],
    /// Whether the lane planned a duty outside `[0, 1]` this day.
    out_of_range: [bool; W],
}

impl<const W: usize> Block<W> {
    fn gather(lanes: &[Lane]) -> Self {
        let mut block = Block {
            neutral: [false; W],
            target_soc: [0.0; W],
            gain: [0.0; W],
            fixed: [0.0; W],
            level_j: [0.0; W],
            duty: [0.0; W],
            duty_sum: [0.0; W],
            consumed_j: [0.0; W],
            charge_waste_j: [0.0; W],
            discharge_loss_j: [0.0; W],
            leaked_j: [0.0; W],
            brownouts: [0; W],
            out_of_range: [false; W],
        };
        for (i, lane) in lanes.iter().enumerate() {
            match lane.manager {
                ManagerSpec::EnergyNeutral { target_soc, gain } => {
                    block.neutral[i] = true;
                    block.target_soc[i] = target_soc;
                    block.gain[i] = gain;
                }
                ManagerSpec::Greedy => block.fixed[i] = 1.0,
                ManagerSpec::FixedDuty { duty } => block.fixed[i] = duty,
            }
            block.level_j[i] = lane.level_j;
            block.duty[i] = lane.planned_duty;
            block.duty_sum[i] = lane.duty_sum;
            block.consumed_j[i] = lane.consumed_j;
            block.charge_waste_j[i] = lane.charge_waste_j;
            block.discharge_loss_j[i] = lane.discharge_loss_j;
            block.leaked_j[i] = lane.leaked_j;
            block.brownouts[i] = lane.brownouts;
        }
        block
    }

    /// Writes the block's state back to its lanes; returns the first
    /// lane that planned a duty outside `[0, 1]`, if any.
    fn scatter(&self, lanes: &mut [Lane]) -> Option<usize> {
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane.level_j = self.level_j[i];
            lane.planned_duty = self.duty[i];
            lane.duty_sum = self.duty_sum[i];
            lane.consumed_j = self.consumed_j[i];
            lane.charge_waste_j = self.charge_waste_j[i];
            lane.discharge_loss_j = self.discharge_loss_j[i];
            lane.leaked_j = self.leaked_j[i];
            lane.brownouts = self.brownouts[i];
        }
        self.out_of_range[..lanes.len()].iter().position(|&bad| bad)
    }

    /// One slot for every lane: `absorb_corrupted` with the
    /// (non-negative) `harvest_j`, then `plan_with` each lane's
    /// prediction. Branch-free per lane, so the loop vectorizes.
    #[inline(always)]
    fn step(&mut self, config: &NodeConfig, slot_s: f64, harvest_j: f64, prediction: &[f64; W]) {
        for (i, &predicted) in prediction.iter().enumerate() {
            let (level_j, flows) = absorb(config, slot_s, self.level_j[i], self.duty[i], harvest_j);
            self.charge_waste_j[i] += flows.charge_waste_j;
            self.consumed_j[i] += flows.consumed_j;
            self.discharge_loss_j[i] += flows.discharge_loss_j;
            self.brownouts[i] += usize::from(flows.brownout);
            self.leaked_j[i] += flows.leaked_j;
            let ctx = slot_context(config, slot_s, level_j, predicted);
            // Every lane computes the rule, so the choice is a select,
            // not a branch around its three divisions.
            let neutral = energy_neutral_duty(self.target_soc[i], self.gain[i], &ctx);
            let duty = if self.neutral[i] {
                neutral
            } else {
                self.fixed[i]
            };
            self.out_of_range[i] |= !(0.0..=1.0).contains(&duty);
            self.duty_sum[i] += duty;
            self.duty[i] = duty;
            self.level_j[i] = level_j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NoFaults;
    use crate::load::Load;
    use crate::panel::SolarPanel;
    use crate::storage::EnergyStorage;
    use crate::NodeSimulation;
    use proptest::prelude::*;

    const SLOTS: usize = 24;
    const SLOT_S: f64 = 3600.0;

    /// SplitMix64: the draws one case needs, from one proptest seed.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.unit() * (hi - lo)
        }

        fn pick(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// An efficiency: ideal half the time, lossy otherwise.
        fn efficiency(&mut self) -> f64 {
            if self.pick(2) == 0 {
                1.0
            } else {
                self.range(0.5, 1.0)
            }
        }
    }

    /// A node, and whether its charger is lossless (so any charge waste
    /// is overflow from a full store).
    fn config(draws: &mut Draws) -> (NodeConfig, bool) {
        let capacity = draws.range(5.0, 500.0);
        let leakage = if draws.pick(2) == 0 {
            0.0
        } else {
            draws.range(0.0, 0.01)
        };
        let active = draws.range(0.01, 0.2);
        let (charge, discharge) = (draws.efficiency(), draws.efficiency());
        let config = NodeConfig {
            panel: SolarPanel::new(0.01, 0.15).unwrap(),
            storage: EnergyStorage::with_losses(
                capacity,
                draws.range(0.0, capacity),
                charge,
                discharge,
                leakage,
            )
            .unwrap(),
            load: Load::new(active, draws.range(0.0, active / 10.0)).unwrap(),
        };
        (config, charge == 1.0)
    }

    /// A manager, with the edges drawn often: a fixed duty of exactly 0
    /// or 1, and an energy-neutral gain of 0 (no storage correction).
    fn manager(draws: &mut Draws) -> ManagerSpec {
        match draws.pick(5) {
            0 => ManagerSpec::Greedy,
            1 => ManagerSpec::FixedDuty {
                duty: draws.range(0.0, 1.0),
            },
            2 => ManagerSpec::FixedDuty {
                duty: draws.pick(2) as f64,
            },
            3 => ManagerSpec::EnergyNeutral {
                target_soc: draws.unit(),
                gain: 0.0,
            },
            _ => ManagerSpec::EnergyNeutral {
                target_soc: draws.unit(),
                gain: draws.range(0.0, 2.0),
            },
        }
    }

    /// A slot's fault-hooked harvest in joules: nothing, a negative
    /// (which the store must ignore), a trickle, or enough to overflow
    /// any store.
    fn harvest(draws: &mut Draws) -> f64 {
        match draws.pick(5) {
            0 => 0.0,
            1 => -draws.range(0.0, 50.0),
            2 => draws.range(0.0, 20.0),
            _ => draws.range(0.0, 2000.0),
        }
    }

    /// A prediction in W/m²: zero, negative, or anything up to full sun.
    fn prediction(draws: &mut Draws) -> f64 {
        match draws.pick(4) {
            0 => 0.0,
            1 => -draws.range(0.0, 300.0),
            _ => draws.range(0.0, 1200.0),
        }
    }

    /// Every field of a report, as bits.
    fn bits(report: &NodeReport) -> [u64; 10] {
        [
            report.slots as u64,
            report.harvested_j.to_bits(),
            report.consumed_j.to_bits(),
            report.charge_waste_j.to_bits(),
            report.discharge_loss_j.to_bits(),
            report.leaked_j.to_bits(),
            report.stored_delta_j.to_bits(),
            report.brownouts as u64,
            report.mean_duty.to_bits(),
            report.utilization.to_bits(),
        ]
    }

    /// `days` days of harvests and slot-major predictions for `lanes`
    /// lanes.
    fn days(draws: &mut Draws, days: usize, lanes: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        (0..days)
            .map(|_| {
                let harvest = (0..SLOTS).map(|_| harvest(draws)).collect();
                let predicted = (0..SLOTS * lanes).map(|_| prediction(draws)).collect();
                (harvest, predicted)
            })
            .collect()
    }

    /// One machine per manager, fed the same days slot by slot.
    fn machine_reports(
        config: &NodeConfig,
        managers: &[ManagerSpec],
        days: &[(Vec<f64>, Vec<f64>)],
    ) -> Vec<NodeReport> {
        let n = managers.len();
        let mut owned: Vec<(ManagerSpec, NoFaults)> = managers
            .iter()
            .map(|manager| (manager.clone(), NoFaults))
            .collect();
        let mut machines: Vec<_> = owned
            .iter_mut()
            .map(|(manager, hook)| {
                NodeSimulation::with_external_predictions(manager, config, hook, SLOT_S, SLOTS)
            })
            .collect();
        for (harvest, predicted) in days {
            for (slot, &harvest_j) in harvest.iter().enumerate() {
                for (lane, machine) in machines.iter_mut().enumerate() {
                    machine.absorb_corrupted(harvest_j);
                    machine.plan_with(predicted[slot * n + lane]);
                }
            }
        }
        machines.into_iter().map(NodeSimulation::finish).collect()
    }

    fn lane_reports(lanes: &NodeLanes) -> Vec<NodeReport> {
        (0..lanes.len()).map(|lane| lanes.report(lane)).collect()
    }

    fn assert_bit_equal(lanes: &[NodeReport], machines: &[NodeReport]) {
        assert_eq!(lanes.len(), machines.len());
        for (lane, (got, want)) in lanes.iter().zip(machines).enumerate() {
            assert_eq!(bits(got), bits(want), "lane {lane}: {got:?} vs {want:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn lanes_match_machines_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut draws = Draws(seed);
            let (mut brownouts, mut overflows) = (0, 0);
            for count in [1, 3, 8, 9, 15, 16, 17] {
                let (config, ideal_charger) = config(&mut draws);
                let managers: Vec<ManagerSpec> = (0..count).map(|_| manager(&mut draws)).collect();
                let days = days(&mut draws, 3, count);
                let mut lanes = NodeLanes::new(&config, managers.clone(), SLOT_S, SLOTS);
                for (harvest, predicted) in &days {
                    lanes.run_day(harvest, predicted);
                }
                let machines = machine_reports(&config, &managers, &days);
                assert_bit_equal(&lane_reports(&lanes), &machines);
                brownouts += machines.iter().filter(|r| r.brownouts > 0).count();
                if ideal_charger {
                    overflows += machines.iter().filter(|r| r.charge_waste_j > 0.0).count();
                }
            }
            // Every case drives some store empty and some store full.
            prop_assert!(brownouts > 0, "no lane browned out");
            prop_assert!(overflows > 0, "no lossless store overflowed");
        }

        #[test]
        fn a_clone_between_days_resumes_bit_identically(seed in 0u64..u64::MAX) {
            let mut draws = Draws(seed);
            let count = [1, 9, 15, 17][draws.pick(4) as usize];
            let (config, _) = config(&mut draws);
            let managers: Vec<ManagerSpec> = (0..count).map(|_| manager(&mut draws)).collect();
            let days = days(&mut draws, 4, count);
            let mut uninterrupted = NodeLanes::new(&config, managers.clone(), SLOT_S, SLOTS);
            for (harvest, predicted) in &days {
                uninterrupted.run_day(harvest, predicted);
            }
            let mut original = NodeLanes::new(&config, managers.clone(), SLOT_S, SLOTS);
            for (harvest, predicted) in &days[..2] {
                original.run_day(harvest, predicted);
            }
            let mut checkpoint = original.clone();
            for (harvest, predicted) in &days[2..] {
                original.run_day(harvest, predicted);
                checkpoint.run_day(harvest, predicted);
            }
            let expected = lane_reports(&uninterrupted);
            assert_bit_equal(&lane_reports(&original), &expected);
            assert_bit_equal(&lane_reports(&checkpoint), &expected);
            assert_bit_equal(&expected, &machine_reports(&config, &managers, &days));
        }
    }

    fn plain_config() -> NodeConfig {
        NodeConfig {
            panel: SolarPanel::new(0.01, 0.15).unwrap(),
            storage: EnergyStorage::new(200.0, 100.0).unwrap(),
            load: Load::new(0.05, 0.0001).unwrap(),
        }
    }

    #[test]
    #[should_panic(expected = "lane 2: manager fixed-duty planned a duty outside [0, 1]")]
    fn an_out_of_range_duty_fails_the_day() {
        let managers = [
            ManagerSpec::Greedy,
            ManagerSpec::FixedDuty { duty: 0.5 },
            ManagerSpec::FixedDuty { duty: 1.5 },
        ];
        let mut lanes = NodeLanes::new(&plain_config(), managers, SLOT_S, SLOTS);
        lanes.run_day(&[1.0; SLOTS], &[100.0; 3 * SLOTS]);
    }

    #[test]
    fn no_slots_report_like_a_fresh_machine() {
        let lanes = NodeLanes::new(&plain_config(), [ManagerSpec::Greedy], SLOT_S, SLOTS);
        let (mut manager, mut hook) = (ManagerSpec::Greedy, NoFaults);
        let machine = NodeSimulation::with_external_predictions(
            &mut manager,
            &plain_config(),
            &mut hook,
            SLOT_S,
            SLOTS,
        );
        assert_eq!(bits(&lanes.report(0)), bits(&machine.finish()));
        assert!(!lanes.is_empty());
    }
}
