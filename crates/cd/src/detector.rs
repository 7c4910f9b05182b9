//! A configurable detector covering every class of Figure 1.

use crate::class::{Accuracy, CdClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wan_sim::{CdAdvice, CollisionDetector, Round, TransmissionEntry};

/// How a [`ClassDetector`] behaves where its class leaves it free: the
/// class obligations pin advice down only in the "must report" and "must
/// stay silent" regions; everything else is implementation slack, and the
/// lower bounds of Section 8 live exactly in that slack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FreedomPolicy {
    /// Report `null` whenever allowed — the friendliest member of the class.
    Quiet,
    /// Report `±` whenever allowed — the maximally noisy member (e.g. a
    /// `maj-AC` detector that screams on *any* loss, or an eventually
    /// accurate detector producing false positives every round before
    /// `r_acc`).
    Noisy,
    /// Report `±` with probability `p` whenever allowed — a realistic noisy
    /// channel. Deterministic given the detector seed.
    Random {
        /// Probability of reporting a collision in an unconstrained slot.
        p: f64,
    },
}

/// A collision detector belonging to a declared [`CdClass`].
///
/// Obligations (completeness / accuracy) are always honoured; unconstrained
/// slots follow the [`FreedomPolicy`]. For `Eventual` accuracy the detector
/// carries an explicit accuracy horizon `r_acc` (default: round 1, i.e.
/// accurate from the start — use [`ClassDetector::accurate_from`] to move
/// it).
///
/// # Examples
///
/// A perfect detector (complete and accurate) is fully determined:
///
/// ```
/// use wan_cd::{CdClass, ClassDetector, FreedomPolicy};
/// use wan_sim::testing::advise_cd;
/// use wan_sim::{CdAdvice, Round, TransmissionEntry};
///
/// let mut d = ClassDetector::perfect();
/// let tx = TransmissionEntry { sent_count: 2, received: vec![2, 1] };
/// assert_eq!(
///     advise_cd(&mut d, Round(1), &tx),
///     vec![CdAdvice::Null, CdAdvice::Collision],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ClassDetector {
    class: CdClass,
    policy: FreedomPolicy,
    r_acc: Round,
    rng: StdRng,
}

impl ClassDetector {
    /// A detector of the given class and freedom policy. The seed matters
    /// only for [`FreedomPolicy::Random`].
    pub fn new(class: CdClass, policy: FreedomPolicy, seed: u64) -> Self {
        ClassDetector {
            class,
            policy,
            r_acc: Round::FIRST,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The perfect detector of the total collision model literature:
    /// complete, accurate, no slack.
    pub fn perfect() -> Self {
        ClassDetector::new(CdClass::AC, FreedomPolicy::Quiet, 0)
    }

    /// Sets the accuracy horizon `r_acc` (meaningful for classes with
    /// [`Accuracy::Eventual`]): before this round, a `Noisy`/`Random` policy
    /// may emit false positives even on loss-free rounds.
    #[must_use]
    pub fn accurate_from(mut self, r_acc: Round) -> Self {
        self.r_acc = r_acc;
        self
    }

    /// The declared class.
    pub fn class(&self) -> CdClass {
        self.class
    }

    fn free_choice(&mut self) -> CdAdvice {
        match self.policy {
            FreedomPolicy::Quiet => CdAdvice::Null,
            FreedomPolicy::Noisy => CdAdvice::Collision,
            FreedomPolicy::Random { p } => {
                if self.rng.random_bool(p) {
                    CdAdvice::Collision
                } else {
                    CdAdvice::Null
                }
            }
        }
    }
}

impl CollisionDetector for ClassDetector {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        assert_eq!(out.len(), tx.received.len(), "advice arity");
        let c = tx.sent_count;
        // Per-receiver draws in index order: the RNG stream of the Random
        // policy is pinned by the determinism tests.
        for (slot, &t) in out.iter_mut().zip(tx.received.iter()) {
            *slot = if self.class.completeness.must_report(c, t) {
                CdAdvice::Collision
            } else if self
                .class
                .accuracy
                .must_stay_silent(round, self.r_acc, c, t)
            {
                CdAdvice::Null
            } else {
                self.free_choice()
            };
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        match self.class.accuracy {
            Accuracy::Accurate => Some(Round::FIRST),
            Accuracy::Eventual => Some(self.r_acc),
            Accuracy::Never => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Completeness;
    use wan_sim::testing::advise_cd;

    fn tx(c: usize, t: Vec<usize>) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: c,
            received: t,
        }
    }

    #[test]
    fn perfect_detector_is_exact() {
        let mut d = ClassDetector::perfect();
        let advice = advise_cd(&mut d, Round(1), &tx(3, vec![3, 2, 0]));
        assert_eq!(
            advice,
            vec![CdAdvice::Null, CdAdvice::Collision, CdAdvice::Collision]
        );
        assert_eq!(d.accuracy_from(), Some(Round::FIRST));
    }

    #[test]
    fn zero_complete_quiet_only_reports_total_loss() {
        let mut d = ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, 0);
        let advice = advise_cd(&mut d, Round(1), &tx(3, vec![3, 1, 0]));
        assert_eq!(
            advice,
            vec![CdAdvice::Null, CdAdvice::Null, CdAdvice::Collision]
        );
    }

    #[test]
    fn zero_complete_noisy_reports_everywhere_allowed() {
        let mut d = ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Noisy, 0)
            .accurate_from(Round(10));
        // Before r_acc: even a process that received everything gets ±.
        let advice = advise_cd(&mut d, Round(1), &tx(2, vec![2, 1]));
        assert_eq!(advice, vec![CdAdvice::Collision, CdAdvice::Collision]);
        // From r_acc on: accuracy kicks in for the full receiver.
        let advice = advise_cd(&mut d, Round(10), &tx(2, vec![2, 1]));
        assert_eq!(advice[0], CdAdvice::Null);
        assert_eq!(advice[1], CdAdvice::Collision, "still free to report");
        assert_eq!(d.accuracy_from(), Some(Round(10)));
    }

    #[test]
    fn majority_vs_half_gap() {
        // 2 of 4 received: maj must report, half (quiet) stays silent.
        let mut maj = ClassDetector::new(CdClass::MAJ_AC, FreedomPolicy::Quiet, 0);
        let mut half = ClassDetector::new(CdClass::HALF_AC, FreedomPolicy::Quiet, 0);
        assert_eq!(
            advise_cd(&mut maj, Round(1), &tx(4, vec![2]))[0],
            CdAdvice::Collision
        );
        assert_eq!(
            advise_cd(&mut half, Round(1), &tx(4, vec![2]))[0],
            CdAdvice::Null
        );
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let mk = || {
            ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Random { p: 0.5 }, 11)
                .accurate_from(Round(1000))
        };
        let (mut a, mut b) = (mk(), mk());
        for r in 1..50u64 {
            assert_eq!(
                advise_cd(&mut a, Round(r), &tx(2, vec![2, 1, 0])),
                advise_cd(&mut b, Round(r), &tx(2, vec![2, 1, 0]))
            );
        }
    }

    #[test]
    fn no_accuracy_class_declares_no_horizon() {
        let d = ClassDetector::new(CdClass::NO_ACC, FreedomPolicy::Noisy, 0);
        assert_eq!(d.accuracy_from(), None);
        assert_eq!(d.class().completeness, Completeness::Complete);
    }
}
