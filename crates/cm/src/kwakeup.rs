//! The k-wake-up service of Section 4.1.
//!
//! The paper sketches a strengthening of the wake-up service: a *k-wake-up
//! service* "guarantees all processes k rounds of being the only active
//! process in the system", and observes that some problems — counting the
//! number of anonymous processes is its example — are solvable with a
//! k-wake-up service but **impossible** with a leader election service
//! (and hence with a plain wake-up service): a leader election service may
//! keep every process but one silent forever, so silent processes are
//! invisible to anonymous algorithms.
//!
//! [`KWakeUp`] implements the one-shot schedule: process `i` is the unique
//! active process during rounds `[offset + i·k + 1, offset + (i+1)·k]`, and
//! after every process has had its block, everyone is passive forever. The
//! trailing all-passive suffix is what lets counting algorithms *detect the
//! end of the roster* (a truly silent round after the blocks). See
//! `ccwan_core::counting` for the matching algorithm.

use wan_sim::{CmAdvice, CmView, ContentionManager, Round};

/// A one-shot k-wake-up service: each process index, in order, gets `k`
/// consecutive rounds as the sole active process; afterwards all advice is
/// passive.
///
/// Note this is *not* a wake-up service in the Property 2 sense — after the
/// roster completes, zero (not one) processes are active. It is a different
/// point in the contention-manager design space, which is exactly the
/// paper's point: service properties determine problem solvability.
#[derive(Debug, Clone, Copy)]
pub struct KWakeUp {
    k: u64,
    /// Rounds before the first block starts.
    offset: u64,
}

impl KWakeUp {
    /// A k-wake-up service whose first block starts at round `offset + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64, offset: u64) -> Self {
        assert!(k >= 1, "blocks must be at least one round");
        KWakeUp { k, offset }
    }

    /// Block length `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The round after which every process has had its block, for a system
    /// of `n` processes.
    pub fn roster_end(&self, n: usize) -> Round {
        Round(self.offset + self.k * n as u64)
    }
}

impl ContentionManager for KWakeUp {
    fn advise_into(&mut self, round: Round, _view: &CmView<'_>, out: &mut [CmAdvice]) {
        out.fill(CmAdvice::Passive);
        if round.0 > self.offset {
            let slot = (round.0 - self.offset - 1) / self.k;
            if let Some(a) = out.get_mut(slot as usize) {
                *a = CmAdvice::Active;
            }
        }
    }

    fn stabilized_from(&self) -> Option<Round> {
        // Not a Property-2 wake-up service (see type docs).
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wan_sim::testing::advise_cm;

    fn actives(advice: &[CmAdvice]) -> Vec<usize> {
        advice
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_active().then_some(i))
            .collect()
    }

    #[test]
    fn blocks_rotate_once_then_silence() {
        let mut cm = KWakeUp::new(2, 0);
        let alive = [true; 3];
        let view = CmView {
            n: 3,
            alive: &alive,
            contending: &alive,
        };
        let expected: Vec<Vec<usize>> = vec![
            vec![0],
            vec![0],
            vec![1],
            vec![1],
            vec![2],
            vec![2],
            vec![],
            vec![],
        ];
        for (r, want) in expected.into_iter().enumerate() {
            assert_eq!(
                actives(&advise_cm(&mut cm, Round(r as u64 + 1), &view)),
                want,
                "round {}",
                r + 1
            );
        }
        assert_eq!(cm.roster_end(3), Round(6));
    }

    #[test]
    fn offset_delays_the_roster() {
        let mut cm = KWakeUp::new(1, 5);
        let alive = [true; 2];
        let view = CmView {
            n: 2,
            alive: &alive,
            contending: &alive,
        };
        for r in 1..=5u64 {
            assert!(actives(&advise_cm(&mut cm, Round(r), &view)).is_empty());
        }
        assert_eq!(actives(&advise_cm(&mut cm, Round(6), &view)), vec![0]);
        assert_eq!(actives(&advise_cm(&mut cm, Round(7), &view)), vec![1]);
        assert!(actives(&advise_cm(&mut cm, Round(8), &view)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_k_rejected() {
        let _ = KWakeUp::new(0, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The roster invariants, for arbitrary (n, k, offset): at most
            /// one process active per round; each process active in exactly
            /// k rounds; all of a process's rounds are consecutive; silence
            /// before the offset and after the roster end.
            #[test]
            fn roster_invariants(n in 1usize..12, k in 1u64..5, offset in 0u64..7) {
                let mut cm = KWakeUp::new(k, offset);
                let alive = vec![true; n];
                let view = CmView { n, alive: &alive, contending: &alive };
                let horizon = offset + k * n as u64 + 2 * k;
                let mut active_rounds: Vec<Vec<u64>> = vec![Vec::new(); n];
                for r in 1..=horizon {
                    let advice = advise_cm(&mut cm, Round(r), &view);
                    let act = actives(&advice);
                    prop_assert!(act.len() <= 1, "two active at round {r}");
                    if let Some(&i) = act.first() {
                        prop_assert!(r > offset, "active before the offset");
                        prop_assert!(
                            Round(r) <= cm.roster_end(n),
                            "active after roster end"
                        );
                        active_rounds[i].push(r);
                    }
                }
                for (i, rounds) in active_rounds.iter().enumerate() {
                    prop_assert_eq!(rounds.len() as u64, k, "process {} block size", i);
                    prop_assert!(
                        rounds.windows(2).all(|w| w[1] == w[0] + 1),
                        "process {} block not consecutive", i
                    );
                }
                // Blocks are ordered by index.
                for w in active_rounds.windows(2) {
                    prop_assert!(w[0].last() < w[1].first());
                }
            }
        }
    }
}
