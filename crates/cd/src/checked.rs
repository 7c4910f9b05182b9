//! A wrapper that certifies detector advice against a class's obligations.

use crate::class::CdClass;
use std::fmt;
use wan_sim::{CdAdvice, CollisionDetector, ProcessId, Round, TransmissionEntry};

/// Which obligation a piece of advice violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Completeness required `±` but the detector returned `null`.
    MissedCollision,
    /// Accuracy required `null` but the detector returned `±`
    /// (a forbidden false positive).
    FalsePositive,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::MissedCollision => write!(f, "missed collision (completeness)"),
            ViolationKind::FalsePositive => write!(f, "false positive (accuracy)"),
        }
    }
}

/// One recorded class-obligation violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The round of the offending advice.
    pub round: Round,
    /// The process that received it.
    pub process: ProcessId,
    /// Which obligation was broken.
    pub kind: ViolationKind,
    /// Messages sent that round (`c`).
    pub sent: usize,
    /// Messages this process received (`T(i)`).
    pub received: usize,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} for {}: c={}, T(i)={}",
            self.kind, self.round, self.process, self.sent, self.received
        )
    }
}

/// Wraps a detector and checks, every round, that its advice is admissible
/// for `class` (via [`CdClass::admits`]) — i.e. that the wrapped behaviour is
/// one of the behaviours of the maximal detector `MAXCD(class)` of
/// Definition 15.
///
/// With `panic_on_violation` (the default in tests via
/// [`CheckedDetector::strict`]), a violation aborts immediately; otherwise
/// violations accumulate for later inspection — used by the experiment
/// harness to *measure* how often a realistic (e.g. physical-layer) detector
/// deviates from a class.
pub struct CheckedDetector<D> {
    inner: D,
    class: CdClass,
    r_acc: Round,
    strict: bool,
    violations: Vec<Violation>,
}

impl<D: CollisionDetector> CheckedDetector<D> {
    /// Wraps `inner`, checking against `class`.
    ///
    /// The accuracy horizon used for `Eventual` classes is the inner
    /// detector's declared [`CollisionDetector::accuracy_from`]; if it
    /// declares none, accuracy violations before the end of time cannot be
    /// established and only completeness is checked.
    pub fn new(inner: D, class: CdClass) -> Self {
        let r_acc = inner.accuracy_from().unwrap_or(Round(u64::MAX));
        CheckedDetector {
            inner,
            class,
            r_acc,
            strict: false,
            violations: Vec::new(),
        }
    }

    /// Panic on the first violation instead of recording it.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Violations recorded so far (empty in strict mode, which panics).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The class being checked against.
    pub fn class(&self) -> CdClass {
        self.class
    }
}

impl<D: CollisionDetector> CollisionDetector for CheckedDetector<D> {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        assert_eq!(out.len(), tx.received.len(), "advice arity");
        self.inner.advise_into(round, tx, out);
        let c = tx.sent_count;
        for (i, (&t, &a)) in tx.received.iter().zip(out.iter()).enumerate() {
            assert!(
                t <= c,
                "invalid transmission entry at {round}: T({i})={t} > c={c}"
            );
            let collision = a.is_collision();
            if !self.class.admits(round, self.r_acc, c, t, collision) {
                let kind = if collision {
                    ViolationKind::FalsePositive
                } else {
                    ViolationKind::MissedCollision
                };
                let v = Violation {
                    round,
                    process: ProcessId(i),
                    kind,
                    sent: c,
                    received: t,
                };
                if self.strict {
                    panic!("collision detector violated {}: {v}", self.class);
                }
                self.violations.push(v);
            }
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        self.inner.accuracy_from()
    }

    fn apply_event(&mut self, round: Round, event: wan_sim::ScenarioEvent) {
        self.inner.apply_event(round, event);
    }
}

impl<D> fmt::Debug for CheckedDetector<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckedDetector")
            .field("class", &self.class)
            .field("violations", &self.violations.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{ClassDetector, FreedomPolicy};
    use crate::scripted::ScriptedDetector;
    use crate::trivial::NoCdDetector;
    use proptest::prelude::*;
    use wan_sim::testing::advise_cd;

    fn tx(c: usize, t: Vec<usize>) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: c,
            received: t,
        }
    }

    #[test]
    fn clean_detector_produces_no_violations() {
        let mut d = CheckedDetector::new(ClassDetector::perfect(), CdClass::AC).strict();
        for r in 1..10u64 {
            advise_cd(&mut d, Round(r), &tx(3, vec![3, 2, 0]));
        }
        assert!(d.violations().is_empty());
    }

    #[test]
    fn missed_collision_is_caught() {
        // A script that stays silent on total loss violates zero
        // completeness.
        let script = vec![vec![CdAdvice::Null]];
        let mut d = CheckedDetector::new(
            ScriptedDetector::new(script, Box::new(ClassDetector::perfect())),
            CdClass::ZERO_AC,
        );
        advise_cd(&mut d, Round(1), &tx(2, vec![0]));
        assert_eq!(d.violations().len(), 1);
        assert_eq!(d.violations()[0].kind, ViolationKind::MissedCollision);
        let msg = d.violations()[0].to_string();
        assert!(msg.contains("missed collision"), "{msg}");
    }

    #[test]
    fn false_positive_is_caught_for_accurate_class() {
        let mut d = CheckedDetector::new(NoCdDetector, CdClass::ZERO_AC);
        // NoCD reports ± even though everyone received everything.
        advise_cd(&mut d, Round(1), &tx(1, vec![1, 1]));
        assert_eq!(d.violations().len(), 2);
        assert!(d
            .violations()
            .iter()
            .all(|v| v.kind == ViolationKind::FalsePositive));
    }

    #[test]
    fn nocd_is_admissible_for_no_acc() {
        // Lemma 1: the trivial detector never violates NoACC.
        let mut d = CheckedDetector::new(NoCdDetector, CdClass::NO_ACC).strict();
        for c in 0..4usize {
            advise_cd(&mut d, Round(1), &tx(c, vec![c.min(1); 3]));
        }
        assert!(d.violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "violated")]
    fn strict_mode_panics() {
        let mut d = CheckedDetector::new(NoCdDetector, CdClass::AC).strict();
        advise_cd(&mut d, Round(1), &tx(0, vec![0]));
    }

    proptest! {
        /// ClassDetector never violates its own class, for any class, policy
        /// and traffic — the central well-formedness property of this crate.
        #[test]
        fn class_detector_respects_class(
            class_idx in 0usize..8,
            policy_idx in 0usize..3,
            r_acc in 1u64..12,
            seed in 0u64..100,
            rounds in proptest::collection::vec((0usize..5, 0usize..5), 1..12),
        ) {
            let class = CdClass::FIGURE_1[class_idx];
            let policy = match policy_idx {
                0 => FreedomPolicy::Quiet,
                1 => FreedomPolicy::Noisy,
                _ => FreedomPolicy::Random { p: 0.5 },
            };
            let inner = ClassDetector::new(class, policy, seed)
                .accurate_from(Round(r_acc));
            let mut d = CheckedDetector::new(inner, class).strict();
            for (r, (c, t_raw)) in rounds.into_iter().enumerate() {
                let t = t_raw.min(c);
                advise_cd(&mut d, Round(r as u64 + 1), &tx(c, vec![t]));
            }
            prop_assert!(d.violations().is_empty());
        }

        /// Monotonicity end-to-end: a detector checked clean against a class
        /// is also clean against any containing class.
        #[test]
        fn checked_monotone(
            inner_idx in 0usize..8,
            outer_idx in 0usize..8,
            rounds in proptest::collection::vec((0usize..5, 0usize..5), 1..10),
        ) {
            let inner_class = CdClass::FIGURE_1[inner_idx];
            let outer_class = CdClass::FIGURE_1[outer_idx];
            prop_assume!(outer_class.contains(inner_class));
            let det = ClassDetector::new(inner_class, FreedomPolicy::Noisy, 3);
            let mut checked = CheckedDetector::new(det, outer_class);
            for (r, (c, t_raw)) in rounds.into_iter().enumerate() {
                let t = t_raw.min(c);
                advise_cd(&mut checked, Round(r as u64 + 1), &tx(c, vec![t]));
            }
            prop_assert!(checked.violations().is_empty());
        }
    }
}
