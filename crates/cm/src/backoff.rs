//! A randomized backoff contention manager — the concrete implementation the
//! paper's abstraction deliberately hides (Section 1.3: "One could imagine,
//! for example, such a service being implemented in a real system by a
//! backoff protocol").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wan_sim::{CmAdvice, CmView, ContentionManager, ProcessId, Round, TransmissionEntry};

/// Maximum contention window, like 802.11's `CWmax`: without a cap, channel
/// traffic that is *not* contention (e.g. the propose-phase broadcast storms
/// of Algorithm 2, which every process sends regardless of advice) would
/// double the window forever and starve the prepare phase — a livelock we
/// reproduce in `uncapped_window_starves` below.
const MAX_WINDOW: u64 = 256;

/// A window-estimation backoff manager with solo-winner lock-in:
///
/// * While no leader is locked in, every *contending* process is advised
///   `Active` independently with probability `1/window`.
/// * On channel feedback: a collision (`sent_count ≥ 2`) doubles the window;
///   silence halves it; a **solo broadcast locks its sender in as leader**
///   (a real MAC decodes the winner's frame).
/// * The locked-in leader is the unique active process until it crashes or
///   stops contending, at which point contention reopens.
///
/// With high probability this stabilizes to a single active process in
/// O(log n) rounds — the paper encapsulates exactly this behaviour as the
/// *wake-up service* and proves bounds relative to its stabilization round;
/// experiment E13 measures the stabilization-time distribution, validating
/// the encapsulation. Note the stabilization is probabilistic: only
/// *liveness* of the consensus algorithms depends on it, never safety
/// (the paper's safety/liveness separation).
#[derive(Debug, Clone)]
pub struct BackoffCm {
    window: u64,
    leader: Option<ProcessId>,
    /// Advice handed out this round, so `observe` can tell whether a solo
    /// sender was an active process (lock-in) or noise.
    last_advice: Vec<CmAdvice>,
    rng: StdRng,
}

impl BackoffCm {
    /// A backoff manager with the given seed.
    pub fn new(seed: u64) -> Self {
        BackoffCm {
            window: 1,
            leader: None,
            last_advice: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The currently locked-in leader, if any.
    pub fn leader(&self) -> Option<ProcessId> {
        self.leader
    }

    /// The current contention window.
    pub fn window(&self) -> u64 {
        self.window
    }
}

impl ContentionManager for BackoffCm {
    fn advise_into(&mut self, _round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        // A leader that died or stopped contending re-opens contention.
        if let Some(l) = self.leader {
            if !view.alive[l.index()] || !view.contending[l.index()] {
                self.leader = None;
                self.window = 1;
            }
        }
        match self.leader {
            Some(l) => {
                out.fill(CmAdvice::Passive);
                out[l.index()] = CmAdvice::Active;
            }
            None => {
                // One draw per contending process in index order (the
                // short-circuit matches the seed-era stream).
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = if view.contending[i]
                        && self.rng.random_ratio(1, self.window.max(1) as u32)
                    {
                        CmAdvice::Active
                    } else {
                        CmAdvice::Passive
                    };
                }
            }
        }
        self.last_advice.clear();
        self.last_advice.extend_from_slice(out);
    }

    fn observe(&mut self, _round: Round, tx: &TransmissionEntry, senders: &[ProcessId]) {
        if self.leader.is_some() {
            return;
        }
        // Adapt only on rounds where this manager actually granted access:
        // rounds it sat out carry protocol traffic (processes broadcast in
        // many rounds regardless of advice, e.g. Algorithm 2's propose
        // phase), which is not evidence about contention.
        let granted = self.last_advice.iter().any(|a| a.is_active());
        if !granted {
            return;
        }
        match tx.sent_count {
            0 => self.window = (self.window / 2).max(1),
            1 => {
                let winner = senders[0];
                // Lock in only a winner we advised active (a process may
                // broadcast against advice; that must not capture the MAC).
                if self
                    .last_advice
                    .get(winner.index())
                    .is_some_and(|a| a.is_active())
                {
                    self.leader = Some(winner);
                } else {
                    self.window = (self.window * 2).min(MAX_WINDOW);
                }
            }
            _ => self.window = (self.window * 2).min(MAX_WINDOW),
        }
    }

    fn stabilized_from(&self) -> Option<Round> {
        // Emergent stabilization: measure it from the trace
        // (`ExecutionTrace::observed_wakeup_round`) instead.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wan_sim::testing::advise_cm;

    fn all_true(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    /// Round `r`'s advice with every process in `alive` also contending.
    fn advise(cm: &mut BackoffCm, r: u64, alive: &[bool]) -> Vec<CmAdvice> {
        let n = alive.len();
        let view = CmView {
            n,
            alive,
            contending: alive,
        };
        advise_cm(cm, Round(r), &view)
    }

    /// The processes advised active.
    fn actives(advice: &[CmAdvice]) -> Vec<ProcessId> {
        let active = advice.iter().enumerate().filter(|(_, a)| a.is_active());
        active.map(|(i, _)| ProcessId(i)).collect()
    }

    fn tx(c: usize, n: usize) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: c,
            received: vec![0; n],
        }
    }

    /// Drive the manager against a faithful channel: every advised-active
    /// process broadcasts.
    fn drive_to_leader(n: usize, seed: u64, max_rounds: u64) -> Option<(ProcessId, u64)> {
        let mut cm = BackoffCm::new(seed);
        let alive = all_true(n);
        for r in 1..=max_rounds {
            let advice = advise(&mut cm, r, &alive);
            let senders = actives(&advice);
            cm.observe(Round(r), &tx(senders.len(), n), &senders);
            if let Some(l) = cm.leader() {
                return Some((l, r));
            }
        }
        None
    }

    #[test]
    fn locks_in_a_leader_quickly() {
        for seed in 0..20 {
            let res = drive_to_leader(8, seed, 200);
            assert!(res.is_some(), "no leader after 200 rounds (seed {seed})");
            let (_, round) = res.unwrap();
            assert!(round <= 100, "took {round} rounds (seed {seed})");
        }
    }

    #[test]
    fn leader_is_stable_while_contending() {
        let n = 4;
        let mut cm = BackoffCm::new(3);
        let alive = all_true(n);
        let mut locked = None;
        for r in 1..200u64 {
            let advice = advise(&mut cm, r, &alive);
            let senders = actives(&advice);
            cm.observe(Round(r), &tx(senders.len(), n), &senders);
            if let Some(l) = cm.leader() {
                if let Some(prev) = locked {
                    assert_eq!(prev, l, "leader changed while contending");
                    assert_eq!(senders, vec![l], "leader is the unique active");
                }
                locked = Some(l);
            }
        }
        assert!(locked.is_some());
    }

    #[test]
    fn dead_leader_reopens_contention() {
        let n = 3;
        let mut cm = BackoffCm::new(1);
        let alive = all_true(n);
        // Force a lock-in.
        let (leader, _) = {
            let mut r = 1u64;
            loop {
                let advice = advise(&mut cm, r, &alive);
                let senders = actives(&advice);
                cm.observe(Round(r), &tx(senders.len(), n), &senders);
                if let Some(l) = cm.leader() {
                    break (l, r);
                }
                r += 1;
            }
        };
        // Kill the leader; the next advise must not select it.
        let mut now_alive = all_true(n);
        now_alive[leader.index()] = false;
        let advice = advise(&mut cm, 1000, &now_alive);
        assert!(!advice[leader.index()].is_active());
        assert_eq!(cm.leader(), None);
    }

    #[test]
    fn protocol_storms_do_not_inflate_the_window() {
        // Rounds where the manager advised nobody carry protocol traffic;
        // they must not move the window (the livelock guard).
        let n = 4;
        let mut cm = BackoffCm::new(5);
        let alive = all_true(n);
        // Force a round where (by chance of the window) nobody is advised.
        let mut quiet_round_seen = false;
        for r in 1..300u64 {
            let advice = advise(&mut cm, r, &alive);
            if cm.leader().is_some() {
                break;
            }
            if advice.iter().all(|a| !a.is_active()) {
                quiet_round_seen = true;
                let before = cm.window();
                // A full protocol storm in a round the CM sat out.
                let everyone: Vec<ProcessId> = (0..n).map(ProcessId).collect();
                cm.observe(Round(r), &tx(n, n), &everyone);
                assert_eq!(cm.window(), before, "storm moved the window");
            } else {
                let senders = actives(&advice);
                cm.observe(Round(r), &tx(senders.len(), n), &senders);
            }
        }
        assert!(quiet_round_seen || cm.leader().is_some());
    }

    #[test]
    fn window_is_capped() {
        let n = 2;
        let mut cm = BackoffCm::new(0);
        let alive = all_true(n);
        for r in 1..2000u64 {
            let advice = advise(&mut cm, r, &alive);
            if advice.iter().any(|a| a.is_active()) {
                // Always report a collision: adversarial channel.
                let everyone: Vec<ProcessId> = (0..n).map(ProcessId).collect();
                cm.observe(Round(r), &tx(n, n), &everyone);
            }
            assert!(cm.window() <= 256, "window {} exceeds cap", cm.window());
        }
    }

    #[test]
    fn uninvited_broadcaster_is_not_locked_in() {
        let n = 2;
        let mut cm = BackoffCm::new(0);
        let alive = all_true(n);
        let advice = advise(&mut cm, 1, &alive);
        // Suppose a process broadcast against passive advice.
        if let Some(passive) = advice.iter().position(|a| !a.is_active()) {
            cm.observe(Round(1), &tx(1, n), &[ProcessId(passive)]);
            assert_eq!(cm.leader(), None);
        }
    }
}
