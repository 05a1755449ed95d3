//! The golden-file helper (`tests/common/mod.rs`) names what moved.
//!
//! These tests drive its pure half, `flatten` and `diff`, on a real
//! `ServingReport`; they read and write no files.

mod common;

use common::{diff, flatten};
use papi::core::{DesignKind, ServingEngine, ServingReport, SessionTuning, SystemConfig};
use papi::llm::ModelPreset;
use papi::sched::Placement;
use papi::types::Energy;
use papi::workload::{DatasetKind, ServingWorkload};

/// A short PAPI serving run with well over 64 iterations, so its
/// placement and RLP series flatten to digest lines.
fn report() -> ServingReport {
    ServingEngine::new(SystemConfig::build(
        DesignKind::Papi,
        ModelPreset::Llama65B.config(),
    ))
    .with_tuning(SessionTuning::new().with_max_batch(8))
    .run(&ServingWorkload::poisson(DatasetKind::GeneralQa, 4.0, 12).with_seed(3))
}

#[test]
fn equal_reports_produce_no_diff() {
    let (a, b) = (report(), report());
    assert_eq!(diff(&flatten(&a), &flatten(&b)), Vec::<String>::new());
}

#[test]
fn a_one_ulp_energy_nudge_names_energy() {
    let old = report();
    let mut new = old.clone();
    new.energy = Energy::new(f64::from_bits(old.energy.value().to_bits() + 1));
    assert_eq!(
        diff(&flatten(&old), &flatten(&new)),
        [format!(
            "energy: {:?} → {:?}",
            old.energy.value(),
            new.energy.value()
        )]
    );
}

#[test]
fn a_flipped_placement_names_the_digested_series() {
    let old = report();
    let flat = flatten(&old);
    let line = flat
        .lines()
        .find(|line| line.starts_with("placements = "))
        .expect("a placements line");
    assert!(
        line.starts_with(&format!("placements = [{} items, fnv1a 0x", old.iterations)),
        "{line}"
    );

    let mut new = old.clone();
    let middle = old.placements.len() / 2;
    new.placements = old
        .placements
        .iter()
        .enumerate()
        .map(|(i, &p)| match (i == middle, p) {
            (false, p) => p,
            (true, Placement::Pu) => Placement::FcPim,
            (true, Placement::FcPim) => Placement::Pu,
        })
        .collect();
    let moved = diff(&flat, &flatten(&new));
    assert_eq!(moved.len(), 1, "{moved:?}");
    assert!(moved[0].starts_with("placements: ["), "{moved:?}");
}

#[test]
fn a_dropped_record_names_its_paths() {
    let old = report();
    let mut new = old.clone();
    new.records.pop();
    let last = old.records.len() - 1;
    let moved = diff(&flatten(&old), &flatten(&new));
    assert!(!moved.is_empty());
    assert!(
        moved.iter().all(
            |line| line.starts_with(&format!("records[{last}].")) && line.ends_with("(absent)")
        ),
        "{moved:?}"
    );
}
