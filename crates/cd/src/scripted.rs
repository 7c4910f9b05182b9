//! A detector that replays explicit advice — the instrument with which the
//! Section 8 lower bounds "choose" detector behaviour inside a class.

use wan_sim::{CdAdvice, CollisionDetector, Round, TransmissionEntry};

/// Replays a fixed per-round advice schedule, then falls back to another
/// detector once the script is exhausted.
///
/// The composition construction of Lemma 23 builds an execution `γ` in which
/// the collision detector returns, to each group, exactly the advice that
/// group saw in its solo alpha execution. That advice must be certified to
/// lie within the class (wrap in [`crate::CheckedDetector`]), which is the
/// executable form of "the advice is a behaviour of `MAXCD(class)`".
pub struct ScriptedDetector {
    script: Vec<Vec<CdAdvice>>,
    fallback: Box<dyn CollisionDetector>,
    declared_accuracy_from: Option<Round>,
}

impl std::fmt::Debug for ScriptedDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedDetector")
            .field("script_len", &self.script.len())
            .field("declared_accuracy_from", &self.declared_accuracy_from)
            .finish_non_exhaustive()
    }
}

impl ScriptedDetector {
    /// A detector that replays `script[r]` for trace index `r`, then behaves
    /// like `fallback`.
    pub fn new(script: Vec<Vec<CdAdvice>>, fallback: Box<dyn CollisionDetector>) -> Self {
        let declared_accuracy_from = fallback.accuracy_from();
        ScriptedDetector {
            script,
            fallback,
            declared_accuracy_from,
        }
    }

    /// Declares the accuracy horizon reported by
    /// [`CollisionDetector::accuracy_from`]. Lower-bound constructions place
    /// `r_acc` *after* the scripted prefix so that any false positives in the
    /// script are admissible for eventually-accurate classes.
    #[must_use]
    pub fn declaring_accuracy_from(mut self, r_acc: Option<Round>) -> Self {
        self.declared_accuracy_from = r_acc;
        self
    }

    /// Number of scripted rounds.
    pub fn script_len(&self) -> usize {
        self.script.len()
    }
}

impl CollisionDetector for ScriptedDetector {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        match self.script.get(round.trace_index()) {
            Some(advice) => {
                assert_eq!(
                    advice.len(),
                    tx.received.len(),
                    "scripted advice arity mismatch at {round}"
                );
                out.copy_from_slice(advice);
            }
            None => self.fallback.advise_into(round, tx, out),
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        self.declared_accuracy_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::ClassDetector;
    use wan_sim::testing::advise_cd;

    fn tx(c: usize, t: Vec<usize>) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: c,
            received: t,
        }
    }

    #[test]
    fn replays_script_then_falls_back() {
        let script = vec![
            vec![CdAdvice::Collision, CdAdvice::Null],
            vec![CdAdvice::Null, CdAdvice::Collision],
        ];
        let mut d = ScriptedDetector::new(script, Box::new(ClassDetector::perfect()));
        assert_eq!(d.script_len(), 2);
        assert_eq!(
            advise_cd(&mut d, Round(1), &tx(0, vec![0, 0])),
            vec![CdAdvice::Collision, CdAdvice::Null]
        );
        assert_eq!(
            advise_cd(&mut d, Round(2), &tx(0, vec![0, 0])),
            vec![CdAdvice::Null, CdAdvice::Collision]
        );
        // Past the script: perfect-detector behaviour.
        assert_eq!(
            advise_cd(&mut d, Round(3), &tx(2, vec![2, 1])),
            vec![CdAdvice::Null, CdAdvice::Collision]
        );
    }

    #[test]
    fn declared_accuracy_defaults_to_fallback_and_can_be_overridden() {
        let d = ScriptedDetector::new(vec![], Box::new(ClassDetector::perfect()));
        assert_eq!(d.accuracy_from(), Some(Round::FIRST));
        let d = d.declaring_accuracy_from(Some(Round(9)));
        assert_eq!(d.accuracy_from(), Some(Round(9)));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut d = ScriptedDetector::new(
            vec![vec![CdAdvice::Null]],
            Box::new(ClassDetector::perfect()),
        );
        let _ = advise_cd(&mut d, Round(1), &tx(0, vec![0, 0]));
    }
}
