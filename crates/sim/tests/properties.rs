//! Property tests for the node simulator: storage invariants and energy
//! conservation under arbitrary operation sequences and configurations.

use harvest_sim::{simulate_node, EnergyStorage, Load, ManagerSpec, NodeConfig, SolarPanel};
use proptest::prelude::*;
use solar_predict::PersistencePredictor;
use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

#[derive(Clone, Debug)]
enum StorageOp {
    Charge(f64),
    Discharge(f64),
}

fn op_strategy() -> impl Strategy<Value = StorageOp> {
    prop_oneof![
        (0.0f64..500.0).prop_map(StorageOp::Charge),
        (0.0f64..500.0).prop_map(StorageOp::Discharge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn storage_level_stays_in_bounds(
        capacity in 10.0f64..5000.0,
        initial_frac in 0.0f64..=1.0,
        charge_eff in 0.5f64..=1.0,
        discharge_eff in 0.5f64..=1.0,
        leakage in 0.0f64..0.01,
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut storage = EnergyStorage::with_losses(
            capacity,
            initial_frac * capacity,
            charge_eff,
            discharge_eff,
            leakage,
        )
        .unwrap();
        for op in ops {
            match op {
                StorageOp::Charge(j) => {
                    let out = storage.charge(j);
                    prop_assert!(out.stored_j >= 0.0 && out.wasted_j >= -1e-12);
                    prop_assert!(out.stored_j + out.wasted_j <= j + 1e-9);
                }
                StorageOp::Discharge(j) => {
                    let delivered = storage.discharge(j);
                    prop_assert!(delivered >= 0.0 && delivered <= j + 1e-9);
                }
            }
            prop_assert!(storage.level_j() >= -1e-9);
            prop_assert!(storage.level_j() <= capacity + 1e-9);
        }
    }

    #[test]
    fn node_simulation_conserves_energy(
        days in 2usize..6,
        day_power in 10.0f64..1000.0,
        capacity in 100.0f64..5000.0,
        duty in 0.0f64..=1.0,
        charge_eff in 0.6f64..=1.0,
        discharge_eff in 0.6f64..=1.0,
    ) {
        let n = 12usize;
        let samples: Vec<f64> = (0..days * n)
            .map(|i| if (3..9).contains(&(i % n)) { day_power } else { 0.0 })
            .collect();
        let trace = PowerTrace::new(
            "prop",
            Resolution::from_seconds(86_400 / n as u32).unwrap(),
            samples,
        )
        .unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let config = NodeConfig {
            panel: SolarPanel::new(0.01, 0.15).unwrap(),
            storage: EnergyStorage::with_losses(
                capacity,
                capacity / 2.0,
                charge_eff,
                discharge_eff,
                0.001,
            )
            .unwrap(),
            load: Load::new(0.05, 0.0001).unwrap(),
        };
        let mut predictor = PersistencePredictor::new(n);
        let mut manager = ManagerSpec::FixedDuty { duty };
        let report = simulate_node(&view, &mut predictor, &mut manager, &config);
        prop_assert!(
            report.energy_balance_error_j() < 1e-6 * report.harvested_j.max(1.0),
            "residual {}",
            report.energy_balance_error_j()
        );
        prop_assert!((report.mean_duty - duty).abs() < 1e-9);
        prop_assert!(report.utilization >= 0.0 && report.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn energy_neutral_duty_is_always_valid(
        predicted in 0.0f64..5.0,
        level_frac in 0.0f64..=1.0,
        gain in 0.0f64..1.0,
        target in 0.0f64..=1.0,
    ) {
        use harvest_sim::{PowerManager, SlotContext};
        let mut manager = ManagerSpec::EnergyNeutral {
            target_soc: target,
            gain,
        };
        let ctx = SlotContext {
            predicted_harvest_w: predicted,
            storage_level_j: level_frac * 1000.0,
            storage_capacity_j: 1000.0,
            slot_seconds: 1800.0,
            load_active_w: 0.05,
            load_sleep_w: 0.001,
        };
        let duty = manager.plan_duty(&ctx);
        prop_assert!((0.0..=1.0).contains(&duty), "duty {duty}");
    }
}
