//! One module per paper artifact; [`ALL`] is the index `repro list`
//! prints.

pub mod baselines;
pub mod diurnal;
pub mod dynamic_causal;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fixedpoint;
pub mod kpolicy;
pub mod memory;
pub mod sim_impact;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod tradeoff;

use crate::context::{Context, ExperimentOutput};

/// What runs one experiment.
type Run = fn(&Context) -> ExperimentOutput;

/// Every experiment's id and the function that runs it, in the order
/// `repro all` runs them.
pub const ALL: [(&str, Run); 16] = [
    ("table1", table1::run),
    ("fig2", fig2::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig7", fig7::run),
    ("table4", table4::run),
    ("fig6", fig6::run),
    ("table5", table5::run),
    ("baselines", baselines::run),
    ("fixedpoint", fixedpoint::run),
    ("dynamic-causal", dynamic_causal::run),
    ("kpolicy", kpolicy::run),
    ("memory", memory::run),
    ("diurnal", diurnal::run),
    ("tradeoff", tradeoff::run),
    ("sim-impact", sim_impact::run),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_runs() {
        let ctx = Context::with_days(30);
        for (id, run) in ALL {
            let out = run(&ctx);
            assert_eq!(out.id, id);
            assert!(!out.tables.is_empty(), "{id} produced no tables");
        }
    }
}
