//! FC-kernel placement: the PAPI α-threshold rule and the paper's two
//! static baselines.

use crate::estimator::AiEstimator;
use serde::{Deserialize, Serialize};

/// Where an FC kernel executes this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// The high-performance processor's processing units (GPU tensor
    /// cores).
    Pu,
    /// The FC-PIM devices.
    FcPim,
}

impl core::fmt::Display for Placement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Placement::Pu => f.write_str("PU"),
            Placement::FcPim => f.write_str("FC-PIM"),
        }
    }
}

/// Decision statistics a scheduler accumulates over a decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Placement decisions made.
    pub decisions: u64,
    /// Times the placement changed from the previous iteration — each
    /// one is a runtime rescheduling event (paper Fig. 5(d)).
    pub switches: u64,
    /// Decisions that chose the PU.
    pub pu_decisions: u64,
    /// Decisions that chose FC-PIM.
    pub fc_pim_decisions: u64,
}

/// Which FC-placement policy the system runs.
///
/// Attention placement is not part of the policy: in every system the
/// paper evaluates, attention runs on whatever memory-side device holds
/// the KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// PAPI's dynamic α-threshold policy (paper §5.2): estimate
    /// `AI ≈ RLP × TLP` and place on the PU when it exceeds `alpha`.
    PapiDynamic {
        /// The calibrated memory-boundedness threshold (from
        /// [`calibrate_alpha`](crate::calibrate_alpha)).
        alpha: f64,
    },
    /// FC always on the GPU (AttAcc-style static mapping).
    FcOnGpu,
    /// FC always on PIM (IANUS / PIM-only mapping).
    FcOnPim,
}

impl SchedulerKind {
    /// Instantiates a fresh stateful scheduler for one decode.
    ///
    /// # Panics
    ///
    /// Panics if a [`PapiDynamic`](Self::PapiDynamic) `alpha` is not
    /// positive and finite.
    #[track_caller]
    pub fn build(&self) -> FcScheduler {
        if let SchedulerKind::PapiDynamic { alpha } = *self {
            assert!(
                alpha.is_finite() && alpha > 0.0,
                "alpha must be positive and finite"
            );
        }
        FcScheduler {
            kind: *self,
            last: None,
            stats: SchedulerStats::default(),
        }
    }
}

/// One decode's FC scheduler: the [`SchedulerKind`] rule plus the
/// [`SchedulerStats`] it has accumulated.
#[derive(Debug, Clone)]
pub struct FcScheduler {
    kind: SchedulerKind,
    last: Option<Placement>,
    stats: SchedulerStats,
}

impl FcScheduler {
    /// Decides the placement for an iteration at `(rlp, tlp)`.
    pub fn decide(&mut self, rlp: u64, tlp: u64) -> Placement {
        let placement = match self.kind {
            SchedulerKind::PapiDynamic { alpha } => {
                if AiEstimator::estimate(rlp, tlp) > alpha {
                    Placement::Pu
                } else {
                    Placement::FcPim
                }
            }
            SchedulerKind::FcOnGpu => Placement::Pu,
            SchedulerKind::FcOnPim => Placement::FcPim,
        };
        self.stats.decisions += 1;
        match placement {
            Placement::Pu => self.stats.pu_decisions += 1,
            Placement::FcPim => self.stats.fc_pim_decisions += 1,
        }
        if self.last.is_some_and(|last| last != placement) {
            self.stats.switches += 1;
        }
        self.last = Some(placement);
        placement
    }

    /// Statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn papi(alpha: f64) -> FcScheduler {
        SchedulerKind::PapiDynamic { alpha }.build()
    }

    #[test]
    fn papi_scheduler_thresholds_on_tokens() {
        let mut s = papi(24.0);
        assert_eq!(s.decide(4, 1), Placement::FcPim); // 4 ≤ 24
        assert_eq!(s.decide(16, 1), Placement::FcPim); // 16 ≤ 24
        assert_eq!(s.decide(16, 2), Placement::Pu); // 32 > 24
        assert_eq!(s.decide(64, 4), Placement::Pu);
        let stats = s.stats();
        assert_eq!(stats.decisions, 4);
        assert_eq!(stats.pu_decisions, 2);
        assert_eq!(stats.fc_pim_decisions, 2);
        assert_eq!(stats.switches, 1);
    }

    #[test]
    fn papi_scheduler_reproduces_fig5d_rescheduling() {
        // Fig. 5(d): as requests finish, RLP decays 5→4→4→3→2 and the FC
        // kernel migrates PU → PIM once RLP×TLP crosses α.
        let mut s = papi(3.5);
        let placements: Vec<Placement> = [5u64, 4, 4, 3, 2]
            .iter()
            .map(|&rlp| s.decide(rlp, 1))
            .collect();
        assert_eq!(
            placements,
            [
                Placement::Pu,
                Placement::Pu,
                Placement::Pu,
                Placement::FcPim,
                Placement::FcPim
            ]
        );
        assert_eq!(s.stats().switches, 1);
    }

    #[test]
    fn static_schedulers_never_switch() {
        let mut attacc = SchedulerKind::FcOnGpu.build();
        let mut pim = SchedulerKind::FcOnPim.build();
        for rlp in [1u64, 128, 2, 64] {
            assert_eq!(attacc.decide(rlp, 8), Placement::Pu);
            assert_eq!(pim.decide(rlp, 8), Placement::FcPim);
        }
        assert_eq!(attacc.stats().switches, 0);
        assert_eq!(pim.stats().switches, 0);
        assert_eq!(attacc.stats().pu_decisions, 4);
        assert_eq!(pim.stats().fc_pim_decisions, 4);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        papi(0.0);
    }
}
