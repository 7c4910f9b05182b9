//! One-shot drivers for the component traits: each runs one round of a
//! component's writer method into a fresh buffer and returns it.
//!
//! These allocate per call, so the engine never uses them — it reuses its
//! round buffers. They exist for tests and examples that want a round's
//! output as an owned value.

use crate::advice::{CdAdvice, CmAdvice};
use crate::ids::{ProcessId, Round};
use crate::trace::TransmissionEntry;
use crate::traits::{
    CmView, CollisionDetector, ContentionManager, CrashAdversary, DeliveryMatrix, LossAdversary,
};

/// The detector's advice for `round`, one entry per process of `tx`.
pub fn advise_cd<D: CollisionDetector + ?Sized>(
    detector: &mut D,
    round: Round,
    tx: &TransmissionEntry,
) -> Vec<CdAdvice> {
    let mut out = vec![CdAdvice::Null; tx.received.len()];
    detector.advise_into(round, tx, &mut out);
    out
}

/// The manager's advice for `round`, one entry per process of `view`.
pub fn advise_cm<M: ContentionManager + ?Sized>(
    manager: &mut M,
    round: Round,
    view: &CmView<'_>,
) -> Vec<CmAdvice> {
    let mut out = vec![CmAdvice::Passive; view.n];
    manager.advise_into(round, view, &mut out);
    out
}

/// The adversary's delivery matrix for `round`, given which processes
/// broadcast.
pub fn deliver<L: LossAdversary + ?Sized>(
    loss: &mut L,
    round: Round,
    senders: &[ProcessId],
    n: usize,
) -> DeliveryMatrix {
    let mut out = DeliveryMatrix::empty();
    loss.deliver_into(round, senders, n, &mut out);
    out
}

/// The processes the adversary crashes at the start of `round`.
pub fn crashes<C: CrashAdversary + ?Sized>(
    crash: &mut C,
    round: Round,
    alive: &[bool],
) -> Vec<ProcessId> {
    let mut out = Vec::new();
    crash.crashes_into(round, alive, &mut out);
    out
}
