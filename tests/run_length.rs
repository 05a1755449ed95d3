//! Model test for `RunLength`, the run-length series a report keeps
//! its per-iteration FC placements and RLP in: every observable must
//! match a plain `Vec` holding the same pushes (one at a time or `n` at
//! once), its runs must stay canonical, and its JSON must be the
//! `Vec`'s JSON byte for byte.

use papi::core::RunLength;
use papi::sched::Placement;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

/// Expands `(value, length)` segments into the model sequence. Adjacent
/// segments may repeat a value, so the series must merge across them.
fn expand<T: Clone>(segments: &[(T, usize)]) -> Vec<T> {
    segments
        .iter()
        .flat_map(|(value, len)| std::iter::repeat_n(value.clone(), *len))
        .collect()
}

fn placement(pick: u8) -> Placement {
    if pick == 0 {
        Placement::Pu
    } else {
        Placement::FcPim
    }
}

/// Builds the series by pushing `model` one element at a time and
/// checks it against the model.
fn check_against_model<T>(model: &[T]) -> RunLength<T>
where
    T: Clone + PartialEq + Debug + Serialize + Deserialize,
{
    let mut series = RunLength::default();
    for value in model {
        series.push(value.clone());
    }
    check_against_series(&series, model);

    // Collecting builds the same series as pushing.
    let collected: RunLength<T> = model.iter().cloned().collect();
    assert_eq!(collected, series);
    series
}

/// Checks every observable of `series` against `model`.
fn check_against_series<T>(series: &RunLength<T>, model: &[T])
where
    T: PartialEq + Debug + Serialize + Deserialize,
{
    assert_eq!(series.len(), model.len());
    assert_eq!(series.is_empty(), model.is_empty());
    assert_eq!(series.first(), model.first());
    assert_eq!(series.last(), model.last());
    assert!(series.iter().eq(model.iter()));
    assert!(series.into_iter().eq(model.iter()));

    // Canonical: no zero counts, no equal neighbours, counts sum to len.
    let runs = series.runs();
    assert!(runs.iter().all(|(_, count)| *count > 0), "{runs:?}");
    assert!(runs.windows(2).all(|w| w[0].0 != w[1].0), "{runs:?}");
    let total: u64 = runs.iter().map(|(_, count)| count).sum();
    assert_eq!(total, model.len() as u64);
    let changes = model.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(runs.len(), if model.is_empty() { 0 } else { changes + 1 });

    // JSON is the expanded array, byte for byte, and parses back.
    let json = serde_json::to_string(series).expect("serialize series");
    assert_eq!(json, serde_json::to_string(model).expect("serialize vec"));
    let back: RunLength<T> = serde_json::from_str(&json).expect("parse series");
    assert_eq!(&back, series);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// RLP values in long runs whose neighbours may share a value, and
    /// the same values one element each.
    #[test]
    fn rlp_series_matches_its_vec_model(
        segments in proptest::collection::vec((0u64..4, 1usize..300), 0..12),
    ) {
        check_against_model(&expand(&segments));
        let singles: Vec<u64> = segments.iter().map(|&(value, _)| value).collect();
        check_against_model(&singles);
    }

    /// Placements in runs of any length, and strict alternations.
    #[test]
    fn placement_series_matches_its_vec_model(
        picks in proptest::collection::vec((0u8..2, 1usize..200), 0..40),
    ) {
        let segments: Vec<(Placement, usize)> =
            picks.iter().map(|&(p, len)| (placement(p), len)).collect();
        check_against_model(&expand(&segments));
        let alternating: Vec<Placement> =
            picks.iter().enumerate().map(|(i, _)| placement((i % 2) as u8)).collect();
        check_against_model(&alternating);
    }

    /// Segments appended with `push_n`, zero-length ones among them,
    /// build the series that pushing their expansion one element at a
    /// time builds; equal neighbours merge into one run.
    #[test]
    fn push_n_matches_its_vec_model(
        segments in proptest::collection::vec((0u64..3, 0usize..50), 0..16),
    ) {
        let model = expand(&segments);
        let expected = check_against_model(&model);
        let mut series = RunLength::default();
        for &(value, n) in &segments {
            series.push_n(value, n as u64);
        }
        check_against_series(&series, &model);
        prop_assert_eq!(series, expected);
    }

    /// `==` holds exactly when the model sequences are equal. The
    /// alphabet and lengths are small so equal pairs occur often, and
    /// the two sides are split into segments differently.
    #[test]
    fn equality_is_sequence_equality(
        a in proptest::collection::vec((0u64..2, 1usize..3), 0..4),
        b in proptest::collection::vec((0u64..2, 1usize..3), 0..4),
    ) {
        let (model_a, model_b) = (expand(&a), expand(&b));
        let series_a: RunLength<u64> = model_a.iter().copied().collect();
        let series_b: RunLength<u64> = model_b.iter().copied().collect();
        prop_assert_eq!(series_a == series_b, model_a == model_b);
    }
}

#[test]
fn empty_series_prints_an_empty_array() {
    let series: RunLength<Placement> = check_against_model(&[]);
    assert!(series.runs().is_empty());
    assert_eq!(serde_json::to_string(&series).unwrap(), "[]");
}

#[test]
fn non_array_json_is_rejected() {
    assert!(serde_json::from_str::<RunLength<u64>>("{}").is_err());
    assert!(serde_json::from_str::<RunLength<u64>>("[1,\"x\"]").is_err());
}
