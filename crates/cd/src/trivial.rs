//! The trivial `NOCD` detector of Section 5.3.

use wan_sim::{CdAdvice, CollisionDetector, Round, TransmissionEntry};

/// The trivial detector `NOCD_P`: returns `±` to every process in every
/// round, carrying zero information.
///
/// It vacuously satisfies *every* completeness property and no accuracy
/// property, so it is a member of `NoACC` — Lemma 1. Theorem 4 shows
/// consensus is unsolvable with it even under eventual collision freedom and
/// a leader election service; `wan_adversary::theorems::t4_no_cd` runs that
/// construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCdDetector;

impl CollisionDetector for NoCdDetector {
    fn advise_into(&mut self, _round: Round, _tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        out.fill(CdAdvice::Collision);
    }

    fn accuracy_from(&self) -> Option<Round> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::CdClass;
    use wan_sim::testing::advise_cd;

    #[test]
    fn always_collision() {
        let mut d = NoCdDetector;
        let tx = TransmissionEntry {
            sent_count: 0,
            received: vec![0, 0, 0],
        };
        assert_eq!(
            advise_cd(&mut d, Round(1), &tx),
            vec![CdAdvice::Collision; 3]
        );
        assert_eq!(d.accuracy_from(), None);
    }

    #[test]
    fn is_a_member_of_no_acc() {
        // Lemma 1: the constant-± behaviour is admissible for NoACC in every
        // situation.
        for c in 0..5usize {
            for t in 0..=c {
                assert!(CdClass::NO_ACC.admits(Round(1), Round(1), c, t, true));
            }
        }
    }
}
