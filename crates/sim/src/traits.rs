//! Environment component traits: collision detectors (Definition 6),
//! contention managers (Definition 8), message-loss adversaries (the
//! unconstrained receive behaviour of Definition 11), and crash adversaries
//! (Section 3.3).
//!
//! ## The writer-API convention
//!
//! Every component trait has exactly one required method, a writer that
//! resolves one round into a caller-provided buffer (`advise_into`,
//! `deliver_into`, `crashes_into`). The engine reuses its round buffers, so
//! a steady-state round is allocation-free. The remaining methods are
//! optional hooks with `None`/no-op defaults. A component that implements
//! only the hooks does not compile:
//!
//! ```compile_fail,E0046
//! use wan_sim::{CollisionDetector, Round};
//!
//! struct HooksOnly;
//! impl CollisionDetector for HooksOnly {
//!     fn accuracy_from(&self) -> Option<Round> {
//!         Some(Round(1))
//!     }
//! }
//! ```
//!
//! Tests that want a round's output as an owned value use the allocating
//! drivers in [`crate::testing`].
//!
//! The `Box<dyn …>` adapters forward the writer and every hook, so dynamic
//! dispatch behaves exactly like the boxed component.

use crate::advice::{CdAdvice, CmAdvice};
use crate::ids::{ProcessId, Round};
use crate::scenario::ScenarioEvent;
use crate::trace::TransmissionEntry;

pub use crate::matrix::DeliveryMatrix;

/// A collision detector (Definition 6): a function from per-round
/// transmission information to per-process advice.
///
/// Per the definition, a detector sees only the transmission-trace entry
/// `(c, T)` — how many processes broadcast and how many messages each process
/// received — never sender identities or message contents. Class obligations
/// (completeness/accuracy, Properties 4–9) are defined and enforced in
/// `wan-cd`.
pub trait CollisionDetector {
    /// Fills `out` (length `tx.received.len()`) with every process's advice
    /// for round `round`, given the round's transmission entry, overwriting
    /// every slot.
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]);

    /// The round `r_acc` from which this detector guarantees accuracy
    /// (Property 9), if it declares one. Used by the harness to compute the
    /// communication stabilization time (Definition 20). `None` means the
    /// detector makes no declared accuracy promise (or it must be measured).
    fn accuracy_from(&self) -> Option<Round> {
        None
    }

    /// A scheduled scenario event addressed to the detector (see
    /// [`crate::scenario`]), applied at the start of its round, before any
    /// advice is produced. Detectors that do not understand the event
    /// ignore it (the default). Must not allocate — the untraced round
    /// path is gated at zero allocations.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

impl CollisionDetector for Box<dyn CollisionDetector> {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        (**self).advise_into(round, tx, out)
    }
    fn accuracy_from(&self) -> Option<Round> {
        (**self).accuracy_from()
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        (**self).apply_event(round, event)
    }
}

/// What a contention manager may look at when producing advice.
///
/// The paper's formal contention managers (Definition 8) are *oblivious* —
/// they are just sets of advice traces — and implementations of that kind
/// ignore this view entirely. Practical managers (the backoff manager of
/// `wan-cm`, which the paper says one could imagine "actively monitoring the
/// channel") use the channel feedback passed to
/// [`ContentionManager::observe`]; *fair* managers used in upper-bound
/// experiments additionally use `alive`/`contending` as an oracle so they
/// never stabilize on a halted process (see DESIGN.md, "Known subtleties").
#[derive(Debug, Clone, Copy)]
pub struct CmView<'a> {
    /// Number of process indices in the system.
    pub n: usize,
    /// Which processes have not crashed.
    pub alive: &'a [bool],
    /// Which processes are alive *and* still contending
    /// ([`crate::Automaton::is_contending`]).
    pub contending: &'a [bool],
}

/// A contention manager (Definition 8): a source of per-round
/// `active`/`passive` advice. Wake-up and leader-election service properties
/// (Properties 2–3) live in `wan-cm`.
pub trait ContentionManager {
    /// Fills `out` (length `view.n`) with every process's advice for round
    /// `round`, overwriting every slot.
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]);

    /// Channel feedback after the round completes: the transmission entry
    /// and which processes broadcast. Formal managers ignore this;
    /// backoff-style managers use it to adapt (a real MAC learns the winner
    /// of an uncontended round by decoding its frame).
    fn observe(&mut self, _round: Round, _tx: &TransmissionEntry, _senders: &[ProcessId]) {}

    /// The round `r_wake` from which the manager guarantees a single active
    /// process per round (Property 2), if declared. Managers whose
    /// stabilization is emergent (backoff) return `None` and are measured
    /// from the trace instead.
    fn stabilized_from(&self) -> Option<Round> {
        None
    }

    /// A scheduled scenario event addressed to the manager (see
    /// [`crate::scenario`]), applied at the start of its round, before
    /// advice. Ignored by default; must not allocate.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

impl ContentionManager for Box<dyn ContentionManager> {
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        (**self).advise_into(round, view, out)
    }
    fn observe(&mut self, round: Round, tx: &TransmissionEntry, senders: &[ProcessId]) {
        (**self).observe(round, tx, senders)
    }
    fn stabilized_from(&self) -> Option<Round> {
        (**self).stabilized_from()
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        (**self).apply_event(round, event)
    }
}

/// A message-loss adversary: decides, every round, which broadcasts reach
/// which receivers.
///
/// The formal model leaves receive behaviour almost entirely unconstrained
/// ("any process can lose any arbitrary subset of messages sent by other
/// processes during any round"); an implementation of this trait *is* that
/// nondeterminism, resolved. Concrete adversaries (no loss, the total
/// collision model, partitions, random loss, scripts, and the eventual
/// collision freedom wrapper of Property 1) live in [`crate::loss`].
pub trait LossAdversary {
    /// Resolves round `round`, given which processes broadcast, into `out`,
    /// whose previous contents are arbitrary (typically the last round's
    /// matrix). Implementations must start with
    /// [`DeliveryMatrix::clear_and_resize`]`(senders, n)` and may only mark
    /// deliveries from the given senders. The engine forces self-delivery
    /// afterwards, so adversaries need not handle constraint 5 themselves.
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    );

    /// The round `r_cf` from which the adversary guarantees eventual
    /// collision freedom (Property 1: solo broadcasts are delivered to
    /// everyone), if declared. Used for CST computation (Definition 20).
    fn collision_free_from(&self) -> Option<Round> {
        None
    }

    /// A scheduled scenario event addressed to the loss adversary (see
    /// [`crate::scenario`]), applied at the start of its round, before
    /// deliveries are resolved. Ignored by default; must not allocate.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

impl LossAdversary for Box<dyn LossAdversary> {
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        (**self).deliver_into(round, senders, n, out)
    }
    fn collision_free_from(&self) -> Option<Round> {
        (**self).collision_free_from()
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        (**self).apply_event(round, event)
    }
}

/// A crash adversary (Section 3.3): decides which processes crash each round.
///
/// Crashes take effect at the *start* of the round: a process crashed in
/// round `r` does not broadcast in `r` and never transitions again. (The
/// formal model crashes at the transition instead — i.e. the dying process's
/// round-`r` broadcast still happens; composing our start-of-round crashes
/// with the unconstrained loss adversary recovers that behaviour, see
/// DESIGN.md "Known subtleties".)
pub trait CrashAdversary {
    /// *Appends* the processes to crash at the start of `round` to `out`
    /// (the engine clears the buffer between rounds). Crashing an
    /// already-crashed process is a no-op.
    fn crashes_into(&mut self, round: Round, alive: &[bool], out: &mut Vec<ProcessId>);

    /// A scheduled scenario event addressed to the crash adversary (see
    /// [`crate::scenario`]), applied at the start of its round, before the
    /// round's crashes are selected. Ignored by default; must not allocate.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

impl CrashAdversary for Box<dyn CrashAdversary> {
    fn crashes_into(&mut self, round: Round, alive: &[bool], out: &mut Vec<ProcessId>) {
        (**self).crashes_into(round, alive, out)
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        (**self).apply_event(round, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A component that logs every method reaching it and answers each
    /// hook with a non-default value, so a test can tell a forwarded call
    /// from the boxed adapter falling back to the trait default.
    struct Logged(Rc<RefCell<Vec<&'static str>>>);

    impl Logged {
        fn log(&self, call: &'static str) {
            self.0.borrow_mut().push(call);
        }
    }

    impl CollisionDetector for Logged {
        fn advise_into(&mut self, _round: Round, _tx: &TransmissionEntry, out: &mut [CdAdvice]) {
            self.log("advise_into");
            out.fill(CdAdvice::Collision);
        }
        fn accuracy_from(&self) -> Option<Round> {
            self.log("accuracy_from");
            Some(Round(7))
        }
        fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {
            self.log("apply_event");
        }
    }

    impl ContentionManager for Logged {
        fn advise_into(&mut self, _round: Round, _view: &CmView<'_>, out: &mut [CmAdvice]) {
            self.log("advise_into");
            out.fill(CmAdvice::Active);
        }
        fn observe(&mut self, _round: Round, _tx: &TransmissionEntry, _senders: &[ProcessId]) {
            self.log("observe");
        }
        fn stabilized_from(&self) -> Option<Round> {
            self.log("stabilized_from");
            Some(Round(7))
        }
        fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {
            self.log("apply_event");
        }
    }

    impl LossAdversary for Logged {
        fn deliver_into(
            &mut self,
            _round: Round,
            senders: &[ProcessId],
            n: usize,
            out: &mut DeliveryMatrix,
        ) {
            self.log("deliver_into");
            *out = DeliveryMatrix::full(senders, n);
        }
        fn collision_free_from(&self) -> Option<Round> {
            self.log("collision_free_from");
            Some(Round(7))
        }
        fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {
            self.log("apply_event");
        }
    }

    impl CrashAdversary for Logged {
        fn crashes_into(&mut self, _round: Round, _alive: &[bool], out: &mut Vec<ProcessId>) {
            self.log("crashes_into");
            out.push(ProcessId(0));
        }
        fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {
            self.log("apply_event");
        }
    }

    const EVENT: ScenarioEvent = ScenarioEvent::Heal;

    fn tx() -> TransmissionEntry {
        TransmissionEntry {
            sent_count: 1,
            received: vec![1, 1],
        }
    }

    // Each test drives the component through a generic bound, so the
    // `Box<dyn …>` impl itself runs (not auto-deref to the inner type).

    #[test]
    fn boxed_detector_forwards_the_writer_and_every_hook() {
        fn drive<D: CollisionDetector>(d: &mut D) -> (Vec<CdAdvice>, Option<Round>) {
            d.apply_event(Round(1), EVENT);
            let mut out = vec![CdAdvice::Null; 2];
            d.advise_into(Round(1), &tx(), &mut out);
            (out, d.accuracy_from())
        }
        let log = Rc::default();
        let mut boxed: Box<dyn CollisionDetector> = Box::new(Logged(Rc::clone(&log)));
        let (out, accuracy) = drive(&mut boxed);
        assert_eq!(out, vec![CdAdvice::Collision; 2]);
        assert_eq!(accuracy, Some(Round(7)));
        assert_eq!(
            *log.borrow(),
            ["apply_event", "advise_into", "accuracy_from"]
        );
    }

    #[test]
    fn boxed_manager_forwards_the_writer_and_every_hook() {
        fn drive<M: ContentionManager>(m: &mut M) -> (Vec<CmAdvice>, Option<Round>) {
            let alive = [true; 2];
            let view = CmView {
                n: 2,
                alive: &alive,
                contending: &alive,
            };
            m.apply_event(Round(1), EVENT);
            let mut out = vec![CmAdvice::Passive; 2];
            m.advise_into(Round(1), &view, &mut out);
            m.observe(Round(1), &tx(), &[ProcessId(0)]);
            (out, m.stabilized_from())
        }
        let log = Rc::default();
        let mut boxed: Box<dyn ContentionManager> = Box::new(Logged(Rc::clone(&log)));
        let (out, stabilized) = drive(&mut boxed);
        assert_eq!(out, vec![CmAdvice::Active; 2]);
        assert_eq!(stabilized, Some(Round(7)));
        assert_eq!(
            *log.borrow(),
            ["apply_event", "advise_into", "observe", "stabilized_from"]
        );
    }

    #[test]
    fn boxed_loss_forwards_the_writer_and_every_hook() {
        fn drive<L: LossAdversary>(l: &mut L) -> (DeliveryMatrix, Option<Round>) {
            l.apply_event(Round(1), EVENT);
            let mut out = DeliveryMatrix::empty();
            l.deliver_into(Round(1), &[ProcessId(0)], 2, &mut out);
            (out, l.collision_free_from())
        }
        let log = Rc::default();
        let mut boxed: Box<dyn LossAdversary> = Box::new(Logged(Rc::clone(&log)));
        let (out, collision_free) = drive(&mut boxed);
        assert!(out == DeliveryMatrix::full(&[ProcessId(0)], 2));
        assert_eq!(collision_free, Some(Round(7)));
        assert_eq!(
            *log.borrow(),
            ["apply_event", "deliver_into", "collision_free_from"]
        );
    }

    #[test]
    fn boxed_crash_forwards_the_writer_and_every_hook() {
        fn drive<C: CrashAdversary>(c: &mut C) -> Vec<ProcessId> {
            c.apply_event(Round(1), EVENT);
            let mut out = vec![ProcessId(9)];
            c.crashes_into(Round(1), &[true; 2], &mut out);
            out
        }
        let log = Rc::default();
        let mut boxed: Box<dyn CrashAdversary> = Box::new(Logged(Rc::clone(&log)));
        assert_eq!(drive(&mut boxed), [ProcessId(9), ProcessId(0)]);
        assert_eq!(*log.borrow(), ["apply_event", "crashes_into"]);
    }
}
