//! Rebuilds a registry cell from the product's public constructors.
//!
//! `ScenarioSpec::run_cell` builds its cells privately; the traced run
//! needs the parts (components, processes, schedule) to wrap them, so it
//! repeats that construction here from public items only. Whether the
//! rebuild is faithful is not assumed: the traced run compares every
//! rebuilt cell's metric row and trace fingerprint with the product's and
//! reports the cells that differ as uncovered.

use ccwan_core::ValueDomain;
use ccwan_core::{alg1, alg2, alg3, alg4, ConsensusAutomaton, Cst, IdSpace, Uid, Value};
use wan_bench::sweep::{Algorithm, EnvironmentPlan};
use wan_bench::ScenarioSpec;
use wan_cd::{CheckedDetector, ClassDetector, Degrading, FreedomPolicy};
use wan_cm::{BackoffCm, FairWakeUp, NoCm, PreStabilization};
use wan_mac::{mac_components, MacConfig};
use wan_phy::{phy_components, PhyConfig};
use wan_sim::crash::{NoCrashes, ScheduledCrashes, TimelineCrashes};
use wan_sim::loss::{Ecf, RandomLoss, TimelineLoss};
use wan_sim::{CompiledSchedule, Components, CrashAdversary, ProcessId, Round, StaggeredJoin};

/// Everything but the processes: the environment, the compiled timeline,
/// and the measurement reference round.
pub struct Parts {
    /// The boxed environment components.
    pub components: Components,
    /// The compiled timeline (`None` for static specs).
    pub schedule: Option<CompiledSchedule>,
    /// The measurement reference round.
    pub reference: u64,
}

/// The algorithm-generic continuation of [`with_cell`].
pub trait Visit {
    /// What the visit returns.
    type Out;
    /// Receives the rebuilt cell.
    fn visit<A: ConsensusAutomaton>(self, procs: Vec<A>, parts: Parts) -> Self::Out;
}

/// Rebuilds cell `case` of `spec` and hands it to `visitor`.
pub fn with_cell<V: Visit>(spec: &ScenarioSpec, case: u64, visitor: V) -> V::Out {
    let seed = spec.cell_seed(case);
    let (components, reference) = components(spec, seed);
    let schedule = (!spec.timeline.is_empty()).then(|| spec.timeline.compile());
    let parts = Parts {
        components,
        schedule,
        reference,
    };
    let values = spec.initial_values(case);
    let domain = ValueDomain::new(spec.v_size);
    match spec.algorithm {
        Algorithm::Alg1 => visitor.visit(alg1::processes(domain, &values), parts),
        Algorithm::Alg2 => visitor.visit(alg2::processes(domain, &values), parts),
        Algorithm::Alg3 { id_bits } => {
            let ids = IdSpace::new(1 << id_bits);
            let assignments = unique_assignments(&values, ids, seed);
            visitor.visit(alg3::processes(ids, domain, &assignments, seed), parts)
        }
        Algorithm::Alg4 => visitor.visit(alg4::processes(domain, &values), parts),
    }
}

fn components(spec: &ScenarioSpec, seed: u64) -> (Components, u64) {
    let crash: Box<dyn CrashAdversary> = match spec.crash {
        None => Box::new(NoCrashes),
        Some(plan) => {
            Box::new(ScheduledCrashes::new().crash(ProcessId(plan.process), Round(plan.round)))
        }
    };
    match spec.env {
        EnvironmentPlan::Ecf(plan) => {
            let components = plan.components_with_crash(spec.class, seed, crash);
            let reference = declared_cst(&components);
            (components, reference)
        }
        EnvironmentPlan::Nocf => {
            let components = Components {
                detector: Box::new(ClassDetector::new(spec.class, FreedomPolicy::Quiet, seed)),
                manager: Box::new(NoCm),
                loss: Box::new(RandomLoss::new(1.0, seed)),
                crash,
            };
            (components, spec.crash.map_or(0, |plan| plan.round))
        }
        EnvironmentPlan::Phy => {
            let (loss, detector) = phy_components(PhyConfig::new(spec.n, seed));
            let components = Components {
                detector: Box::new(CheckedDetector::new(detector, spec.class)),
                manager: Box::new(BackoffCm::new(seed ^ 0xBAC0)),
                loss: Box::new(Ecf::new(loss, Round(1))),
                crash,
            };
            (components, 1)
        }
        EnvironmentPlan::Churn(plan) => {
            let policy = if plan.noise > 0.0 {
                FreedomPolicy::Random { p: plan.noise }
            } else {
                FreedomPolicy::Quiet
            };
            let stages = vec![
                ClassDetector::new(spec.class, policy, seed ^ 0xCD)
                    .accurate_from(Round(plan.r_acc)),
                ClassDetector::new(plan.degraded, policy, seed ^ 0xDE)
                    .accurate_from(Round(plan.r_acc)),
            ];
            let components = Components {
                detector: Box::new(Degrading::new(stages)),
                manager: Box::new(StaggeredJoin::new(
                    FairWakeUp::new(
                        Round(plan.r_wake),
                        PreStabilization::Random { p: 0.4 },
                        seed ^ 0xC3,
                    ),
                    plan.join_admit.min(spec.n),
                )),
                loss: Box::new(Ecf::new(
                    TimelineLoss::new(plan.loss, seed ^ 0x10),
                    Round(plan.r_cf),
                )),
                crash: Box::new(TimelineCrashes::over(crash)),
            };
            let reference = declared_cst(&components);
            (components, reference)
        }
        EnvironmentPlan::AbsMac(plan) => {
            let (channel, detector) = mac_components(MacConfig {
                f_ack: plan.f_ack,
                f_prog: plan.f_prog,
                policy: plan.policy,
                seed,
            });
            let components = Components {
                detector: Box::new(CheckedDetector::new(detector, spec.class)),
                manager: Box::new(NoCm),
                loss: Box::new(channel),
                crash: Box::new(TimelineCrashes::over(crash)),
            };
            (components, plan.f_ack)
        }
    }
}

fn declared_cst(components: &Components) -> u64 {
    Cst::from_components(components)
        .value()
        .expect("ECF-style components declare a CST")
        .0
}

/// The Section 7.3 UID assignment: distinct ids derived from the cell
/// seed, probing linearly around collisions.
fn unique_assignments(values: &[Value], ids: IdSpace, seed: u64) -> Vec<(Uid, Value)> {
    let mut seen = std::collections::BTreeSet::new();
    values
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            let mut u = Uid(mix(seed ^ (j as u64).wrapping_add(0x1D)) % ids.size());
            while !seen.insert(u) {
                u = Uid((u.0 + 1) % ids.size());
            }
            (u, v)
        })
        .collect()
}

/// SplitMix64 finalizer, as the sweep mixes its seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
