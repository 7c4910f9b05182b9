//! A collision detector whose *quality* changes mid-run: a stage list plus
//! a scenario-timeline switch.
//!
//! The paper's classes are static — a detector is in `maj-⋄AC` or `0-⋄AC`
//! for the whole execution. [`Degrading`] models the robustness question
//! instead: the environment starts with one detector, and a scheduled
//! [`ScenarioEvent::CdSwitch`] degrades (or upgrades) it to another
//! configured stage at a chosen round. Stages are built up front, each with
//! its own class, policy, and RNG stream, so a switch is a constant-time
//! index change — no allocation, no re-seeding, and the unused stages'
//! streams simply stay where they are.

use wan_sim::{CdAdvice, CollisionDetector, Round, ScenarioEvent, TransmissionEntry};

/// A stage-switching detector wrapper (see the module docs). Starts at
/// stage 0; a scheduled [`ScenarioEvent::CdSwitch`]`{ slot }` makes stage
/// `slot` active from its round on. Other events are forwarded to the
/// active stage.
///
/// The declared accuracy round ([`CollisionDetector::accuracy_from`]) is
/// the *conservative* one: the latest declaration over all stages (or
/// `None` if any stage declines) — whatever the switch schedule does, no
/// stage promises accuracy it cannot keep.
#[derive(Debug, Clone)]
pub struct Degrading<D> {
    stages: Vec<D>,
    active: usize,
}

impl<D> Degrading<D> {
    /// A degrading detector over the given stages, starting at stage 0.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<D>) -> Self {
        assert!(!stages.is_empty(), "a degrading detector needs a stage");
        Degrading { stages, active: 0 }
    }

    /// Index of the currently active stage.
    pub fn active_stage(&self) -> usize {
        self.active
    }

    /// The configured stages.
    pub fn stages(&self) -> &[D] {
        &self.stages
    }
}

impl<D: CollisionDetector> CollisionDetector for Degrading<D> {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        self.stages[self.active].advise_into(round, tx, out);
    }

    fn accuracy_from(&self) -> Option<Round> {
        let mut worst = Round::FIRST;
        for stage in &self.stages {
            worst = worst.max(stage.accuracy_from()?);
        }
        Some(worst)
    }

    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        match event {
            ScenarioEvent::CdSwitch { slot } => {
                assert!(
                    (slot as usize) < self.stages.len(),
                    "CdSwitch slot {slot} out of range: {} stages configured",
                    self.stages.len()
                );
                self.active = slot as usize;
            }
            other => self.stages[self.active].apply_event(round, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::CdClass;
    use crate::detector::{ClassDetector, FreedomPolicy};
    use wan_sim::testing::advise_cd;

    fn stages() -> Vec<ClassDetector> {
        vec![
            ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 1).accurate_from(Round(6)),
            ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Quiet, 2)
                .accurate_from(Round(9)),
        ]
    }

    fn tx(sent: usize, received: Vec<usize>) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: sent,
            received,
        }
    }

    #[test]
    fn switch_changes_the_advising_stage() {
        let mut cd = Degrading::new(stages());
        assert_eq!(cd.active_stage(), 0);
        // Majority-complete stage must report when a majority was lost...
        let advice = advise_cd(&mut cd, Round(1), &tx(3, vec![1, 1]));
        assert!(advice.iter().all(|a| a.is_collision()));
        // ...the zero-complete stage is only obliged when everything is.
        cd.apply_event(Round(2), ScenarioEvent::CdSwitch { slot: 1 });
        assert_eq!(cd.active_stage(), 1);
        let advice = advise_cd(&mut cd, Round(2), &tx(3, vec![1, 1]));
        assert!(advice.iter().all(|a| !a.is_collision()));
        // Switching back upgrades again.
        cd.apply_event(Round(3), ScenarioEvent::CdSwitch { slot: 0 });
        assert_eq!(cd.active_stage(), 0);
    }

    #[test]
    fn declared_accuracy_is_the_conservative_maximum() {
        let cd = Degrading::new(stages());
        assert_eq!(cd.accuracy_from(), Some(Round(9)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_switch_rejected() {
        let mut cd = Degrading::new(stages());
        cd.apply_event(Round(1), ScenarioEvent::CdSwitch { slot: 5 });
    }

    #[test]
    fn non_switch_events_forward_to_the_active_stage() {
        let mut cd = Degrading::new(stages());
        // ClassDetector ignores loss events; this must simply not panic.
        cd.apply_event(Round(1), ScenarioEvent::SetLossRate { p: 0.5 });
    }
}
