//! The benchmark's workloads: which specs each one runs, the reference
//! its results are checked against, and the per-pass correctness check.

use std::path::PathBuf;

use wan_bench::experiments::helpers::EnvPlan;
use wan_bench::sweep::{scan_safety, Algorithm, EnvironmentPlan, SweepSummary};
use wan_bench::{MetricId, ProbeManifest, Registry, ResultsFrame, Scale, ScenarioSpec};
use wan_cd::CdClass;
use wan_sim::ScenarioTimeline;

/// The seed whose generated results are recorded under `reference/`, and
/// at which the registry runs under its committed names.
pub const DEFAULT_SEED: u64 = 0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The standard full registry, as committed: what users run.
    Registry,
    /// Generated ECF specs at n ∈ {32, 64}, outcome-only (untraced).
    LargeN,
    /// Generated SINR-radio specs at n ∈ {16, 32}, traced.
    PhyRadio,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Registry, Workload::LargeN, Workload::PhyRadio];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Registry => "registry",
            Workload::LargeN => "large_n",
            Workload::PhyRadio => "phy_radio",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's specs at `seed`. Cell seeds derive from spec names,
    /// so the seed enters through the names: generated names carry it,
    /// and non-default seeds salt the registry's names.
    pub fn specs(self, seed: u64) -> Vec<ScenarioSpec> {
        match self {
            Workload::Registry => {
                let mut specs = Registry::standard(Scale::Full).specs().to_vec();
                if seed != DEFAULT_SEED {
                    for spec in &mut specs {
                        spec.name = format!("{}~s{seed}", spec.name);
                    }
                }
                specs
            }
            Workload::LargeN => {
                let mut specs = Vec::new();
                for n in [32usize, 64] {
                    for (tag, algorithm, class) in [
                        ("maj", Algorithm::Alg1, CdClass::MAJ_EV_AC),
                        ("zero", Algorithm::Alg2, CdClass::ZERO_EV_AC),
                    ] {
                        specs.push(ScenarioSpec {
                            name: format!("large_n/n{n}-{tag}-s{seed}"),
                            algorithm,
                            class,
                            env: EnvironmentPlan::Ecf(EnvPlan {
                                loss: 0.3,
                                ..EnvPlan::chaos(40)
                            }),
                            crash: None,
                            timeline: ScenarioTimeline::new(),
                            n,
                            v_size: 4096,
                            fixed_values: None,
                            seeds: 10,
                            cap: 2000,
                            probes: ProbeManifest::outcome_only(),
                        });
                    }
                }
                specs
            }
            Workload::PhyRadio => [16usize, 32]
                .into_iter()
                .map(|n| ScenarioSpec {
                    name: format!("phy_radio/n{n}-s{seed}"),
                    algorithm: Algorithm::Alg2,
                    class: CdClass::ZERO_EV_AC,
                    env: EnvironmentPlan::Phy,
                    crash: None,
                    timeline: ScenarioTimeline::new(),
                    n,
                    v_size: 16,
                    fixed_values: None,
                    // Cell lengths are heavy-tailed on the radio (12 to
                    // ~600 rounds), so many cells keep a pass's size
                    // steady across seeds.
                    seeds: 1000,
                    cap: 3000,
                    probes: ProbeManifest::standard(),
                })
                .collect(),
        }
    }
}

/// The committed golden summary of the full registry.
pub fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../golden/sweeps/registry_full.json"
    ))
}

/// Where a generated workload's default-seed summary and frame
/// fingerprint are recorded.
pub fn reference_paths(workload: Workload) -> (PathBuf, PathBuf) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/reference"));
    (
        dir.join(format!("{}.json", workload.name())),
        dir.join(format!("{}.fingerprint", workload.name())),
    )
}

/// What a workload's passes are checked against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The committed registry golden (loaded for every registry run; at
    /// non-default seeds it gates one pass of the committed names).
    pub golden: Option<SweepSummary>,
    /// Expected per-spec summary rows of the workload's own specs.
    pub expected: Option<SweepSummary>,
    /// Expected `ResultsFrame::fingerprint` of one pass.
    pub fingerprint: Option<u64>,
}

/// Loads the reference for `workload` at `seed`. Generated workloads
/// have recorded results at [`DEFAULT_SEED`] only; at other seeds their
/// passes are checked against the run's own first and serial passes.
pub fn load_reference(workload: Workload, seed: u64) -> Result<Reference, String> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    match workload {
        Workload::Registry => {
            let golden = SweepSummary::parse(&read(golden_path())?)?;
            Ok(Reference {
                expected: (seed == DEFAULT_SEED).then(|| golden.clone()),
                golden: Some(golden),
                fingerprint: None,
            })
        }
        Workload::LargeN | Workload::PhyRadio if seed == DEFAULT_SEED => {
            let (summary, fingerprint) = reference_paths(workload);
            let text = read(fingerprint)?;
            let fingerprint = u64::from_str_radix(text.trim(), 16)
                .map_err(|e| format!("bad recorded fingerprint {:?}: {e}", text.trim()))?;
            Ok(Reference {
                golden: None,
                expected: Some(SweepSummary::parse(&read(summary)?)?),
                fingerprint: Some(fingerprint),
            })
        }
        Workload::LargeN | Workload::PhyRadio => Ok(Reference {
            golden: None,
            expected: None,
            fingerprint: None,
        }),
    }
}

/// The outcome of checking one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassCheck {
    /// Cells the pass ran.
    pub cells: u64,
    /// Cells that failed: unsafe, in a spec whose result differs from the
    /// reference or from the run's first pass.
    pub failed: u64,
    /// Rounds the pass executed.
    pub rounds: u64,
    /// Human-readable reasons, empty when the pass is clean.
    pub drift: Vec<String>,
}

/// Checks one pass: the golden-gate work `check` does (summary, safety
/// scan, diff against `expected`), plus equality with the run's first
/// pass and the recorded frame fingerprint.
pub fn check_pass(
    specs: &[ScenarioSpec],
    frame: &ResultsFrame,
    expected: Option<&SweepSummary>,
    first: Option<&ResultsFrame>,
    fingerprint: Option<u64>,
) -> PassCheck {
    let summary = SweepSummary::from_results(Scale::Full, specs, frame);
    let violations = scan_safety(specs, frame);
    let mut drift = expected.map_or_else(Vec::new, |e| e.diff(&summary));
    let mut bad: Vec<bool> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            !drift.is_empty()
                && expected.is_some_and(|e| {
                    e.specs.iter().find(|row| row.name == spec.name) != Some(&summary.specs[i])
                })
        })
        .collect();
    // Drift no observed row explains (a spec missing from this run, a
    // scale mismatch) fails the whole pass.
    if !drift.is_empty() && !bad.contains(&true) {
        bad.fill(true);
    }
    if let Some(first) = first {
        if first != frame {
            for (i, flag) in bad.iter_mut().enumerate() {
                if first.spec(i) != frame.spec(i) {
                    *flag = true;
                    drift.push(format!(
                        "spec {:?} differs from the first pass",
                        specs[i].name
                    ));
                }
            }
        }
    }
    if let Some(want) = fingerprint {
        let got = frame.fingerprint();
        if got != want {
            drift.push(format!(
                "frame fingerprint {got:016x}, recorded {want:016x}"
            ));
            if !bad.contains(&true) {
                bad.fill(true);
            }
        }
    }
    for v in &violations {
        drift.push(format!("unsafe cell: {v}"));
    }
    let mut failed = 0;
    for (i, spec) in specs.iter().enumerate() {
        failed += if bad[i] {
            frame.spec(i).len() as u64
        } else {
            violations.iter().filter(|v| v.spec == spec.name).count() as u64
        };
    }
    PassCheck {
        cells: frame.cell_count() as u64,
        failed,
        rounds: rounds_of(frame),
        drift,
    }
}

/// Rounds executed across every cell of a frame.
pub fn rounds_of(frame: &ResultsFrame) -> u64 {
    frame
        .specs()
        .iter()
        .filter_map(|s| s.column(MetricId::RoundsExecuted))
        .map(|c| c.sum() as u64)
        .sum()
}
