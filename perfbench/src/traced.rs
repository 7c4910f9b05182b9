//! The traced run: per-layer cost of a workload's cells.
//!
//! Each pass rebuilds every cell ([`crate::cells`]) and runs it three
//! ways on the product's own engine path (traced with counts detail when
//! the spec's probe manifest reads the trace, untraced otherwise):
//!
//! * **plain** — the product's components and automata, unwrapped, timed
//!   only as a whole (set-up, run, probes): the untimed round time;
//! * **timed** — every component and automaton in a timing adapter, each
//!   round timed, every wrapped call a span;
//! * **timed, untraced** — the same on the untraced path, for cells whose
//!   product path is traced: the difference is the trace-append cost.
//!
//! The first pass also proves identity (each rebuilt cell's metric row
//! equals `ScenarioSpec::run_cell`'s, and its full trace fingerprint
//! equals `ScenarioSpec::trace_reference_fingerprints`), makes the exact
//! counts, and writes the per-round spans out at the end. Runner passes
//! interleave with cell passes and time the sweep's own thread pool,
//! frame assembly and golden check.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ccwan_core::{ConsensusAutomaton, ConsensusOutcome, ConsensusRun};
use wan_bench::sweep::{CellEnd, CellRow, MetricRow};
use wan_bench::{ProbeManifest, ProbeSet, ResultsFrame, ScenarioSpec, SweepRunner};
use wan_sim::{Components, ExecutionTrace, Round};

use crate::alloc;
use crate::cells::{self, Parts, Visit};
use crate::e2e::{forge, Tally};
use crate::layers::{
    calibrate, count_flow, take_round, Layer, TimedAlg, TimedCd, TimedCm, TimedCrash, TimedLoss,
    TimerCost, LAYERS, ROUND_LAYERS,
};
use crate::stats::{median, percentile};
use crate::workload::{check_pass, load_reference, Workload};

/// Fewest cell passes and runner passes a traced run makes.
const MIN_PASSES: usize = 3;

/// The per-layer figures of one traced run, in report order.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// `(name, value, unit)` per metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Checked cells over every runner pass.
    pub attempted: u64,
    /// Failed cells among them.
    pub failed: u64,
    /// Failure reasons.
    pub drift: Vec<String>,
    /// Cells whose rebuild matched the product's, and those that did not.
    pub covered_cells: u64,
    /// Cells the benchmark could not rebuild identically.
    pub uncovered_cells: u64,
    /// Where the per-round spans were written.
    pub spans_path: Option<PathBuf>,
}

/// One timed execution of a cell.
#[derive(Debug, Clone, Default)]
struct RunTiming {
    rounds: u64,
    /// Σ per-round wall time.
    round_ns: u64,
    /// Σ raw span time per layer, and span counts.
    raw: [u64; LAYERS],
    calls: [u64; LAYERS],
    /// Allocations and bytes per layer during the round loop.
    allocs: [u64; LAYERS],
    bytes: [u64; LAYERS],
}

impl RunTiming {
    fn spans(&self) -> u64 {
        ROUND_LAYERS.iter().map(|&l| self.calls[l as usize]).sum()
    }

    fn raw_total(&self) -> u64 {
        ROUND_LAYERS.iter().map(|&l| self.raw[l as usize]).sum()
    }

    /// Round time minus every wrapped call and the timer cost outside
    /// the spans.
    fn engine_self_ns(&self, cost: TimerCost) -> f64 {
        self.round_ns as f64
            - self.raw_total() as f64
            - self.spans() as f64 * (cost.outer_ns - cost.inner_ns)
    }

    /// A layer's raw span time less the timer cost inside its spans.
    fn layer_self_ns(&self, layer: Layer, cost: TimerCost) -> f64 {
        self.raw[layer as usize] as f64 - self.calls[layer as usize] as f64 * cost.inner_ns
    }
}

/// One per-round span record, written out after the run.
struct RoundSpan {
    cell: u32,
    round: u32,
    round_ns: u64,
    layer_ns: [u64; 6],
}

/// The plain run of a cell: set-up, run and probes timed as wholes, with
/// exactly the calls `ScenarioSpec::run_cell` makes.
struct Plain<'a> {
    manifest: &'a ProbeManifest,
    checkpoints: &'a [u64],
    traced: bool,
    cap: u64,
    t0: Instant,
}

struct PlainOut {
    setup_ns: u64,
    run_ns: u64,
    probe_ns: u64,
    rounds: u64,
    row: MetricRow,
}

impl Visit for Plain<'_> {
    type Out = PlainOut;
    fn visit<A: ConsensusAutomaton>(self, procs: Vec<A>, parts: Parts) -> PlainOut {
        let mut run = ConsensusRun::new(procs, parts.components)
            .with_counts_only()
            .with_schedule(parts.schedule);
        let setup_ns = self.t0.elapsed().as_nanos() as u64;
        alloc::set_owner(Layer::Engine);
        let t0 = Instant::now();
        let outcome = if self.traced {
            run.run_to_completion(Round(self.cap))
        } else {
            run.run_to_completion_untraced(Round(self.cap))
        };
        let run_ns = t0.elapsed().as_nanos() as u64;
        alloc::set_owner(Layer::Other);
        let trace = trace_of(run, self.traced);
        let t0 = Instant::now();
        let row = probe_row(
            trace.as_ref(),
            &outcome,
            parts.reference,
            self.manifest,
            self.checkpoints,
        );
        let probe_ns = t0.elapsed().as_nanos() as u64;
        PlainOut {
            setup_ns,
            run_ns,
            probe_ns,
            rounds: outcome.rounds_executed.0,
            row,
        }
    }
}

/// What `ScenarioSpec::run_cell` does after the round loop: build the
/// manifest's probes, drive them over the trace (traced path only), and
/// fold the judged outcome into a row.
fn probe_row<M: Ord>(
    trace: Option<&ExecutionTrace<M>>,
    outcome: &ConsensusOutcome,
    reference: u64,
    manifest: &ProbeManifest,
    checkpoints: &[u64],
) -> MetricRow {
    let end = CellEnd {
        reference,
        last_decision: outcome.last_decision().map(|r| r.0),
        terminated: outcome.terminated,
        safe: outcome.is_safe(),
        rounds_executed: outcome.rounds_executed.0,
    };
    let mut probes: ProbeSet<M> = ProbeSet::from_manifest_at(manifest, checkpoints);
    let mut row = MetricRow::new();
    probes.reset();
    if let Some(trace) = trace {
        probes.observe_trace(trace);
    }
    probes.finish(&end, &mut row);
    row
}

/// The run's trace on the traced path; the run itself is dropped first,
/// so its teardown lands in no measured interval.
fn trace_of<A: ConsensusAutomaton>(
    run: ConsensusRun<A>,
    traced: bool,
) -> Option<ExecutionTrace<A::Msg>> {
    traced.then(|| run.into_parts().1)
}

fn wrap(c: Components) -> Components {
    Components {
        detector: Box::new(TimedCd(c.detector)),
        manager: Box::new(TimedCm(c.manager)),
        loss: Box::new(TimedLoss(c.loss)),
        crash: Box::new(TimedCrash(c.crash)),
    }
}

/// The timed run of a cell: wrapped components and automata, each round
/// timed. Records per-round spans into `spans` when given.
struct Timed<'a> {
    manifest: &'a ProbeManifest,
    checkpoints: &'a [u64],
    traced: bool,
    cap: u64,
    cell: u32,
    spans: Option<&'a mut Vec<RoundSpan>>,
}

impl Visit for Timed<'_> {
    type Out = (RunTiming, MetricRow);
    fn visit<A: ConsensusAutomaton>(self, procs: Vec<A>, parts: Parts) -> Self::Out {
        let procs: Vec<TimedAlg<A>> = procs.into_iter().map(TimedAlg).collect();
        let mut run = ConsensusRun::new(procs, wrap(parts.components))
            .with_counts_only()
            .with_schedule(parts.schedule);
        let mut timing = RunTiming::default();
        let mut spans = self.spans;
        take_round();
        let (a0, b0) = alloc::snapshot();
        alloc::set_owner(Layer::Engine);
        while !run.all_correct_decided() && run.sim().current_round() < Round(self.cap) {
            let t0 = Instant::now();
            if self.traced {
                run.step();
            } else {
                run.step_untraced();
            }
            let ns = t0.elapsed().as_nanos() as u64;
            let acc = take_round();
            timing.rounds += 1;
            timing.round_ns += ns;
            for l in 0..LAYERS {
                timing.raw[l] += acc.ns[l];
                timing.calls[l] += acc.calls[l];
            }
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(RoundSpan {
                    cell: self.cell,
                    round: timing.rounds as u32,
                    round_ns: ns,
                    layer_ns: ROUND_LAYERS.map(|l| acc.ns[l as usize]),
                });
            }
        }
        alloc::set_owner(Layer::Other);
        let (a1, b1) = alloc::snapshot();
        for l in 0..LAYERS {
            timing.allocs[l] = a1[l] - a0[l];
            timing.bytes[l] = b1[l] - b0[l];
        }
        let outcome = run.outcome();
        let trace = trace_of(run, self.traced);
        let row = probe_row(
            trace.as_ref(),
            &outcome,
            parts.reference,
            self.manifest,
            self.checkpoints,
        );
        (timing, row)
    }
}

/// The identity run: wrapped, full trace detail, flow counting on.
/// Returns the trace fingerprint and the flow counts.
struct Identity {
    cap: u64,
}

impl Visit for Identity {
    type Out = (u64, crate::layers::RoundAcc);
    fn visit<A: ConsensusAutomaton>(self, procs: Vec<A>, parts: Parts) -> Self::Out {
        let procs: Vec<TimedAlg<A>> = procs.into_iter().map(TimedAlg).collect();
        let mut run =
            ConsensusRun::new(procs, wrap(parts.components)).with_schedule(parts.schedule);
        take_round();
        count_flow(true);
        run.run_to_completion(Round(self.cap));
        count_flow(false);
        let flow = take_round();
        let (_, trace) = run.into_parts();
        (trace.fingerprint(), flow)
    }
}

/// Per-pass sums over the covered cells.
#[derive(Debug, Clone)]
struct CellPass {
    /// The timer cost calibrated at the start of this pass (machine speed
    /// drifts over a run, so each pass is corrected by its own).
    cost: TimerCost,
    cells: u64,
    rounds: u64,
    setup_ns: u64,
    untimed_ns: u64,
    /// Cells whose timed round time, less the calibrated timer cost of
    /// their spans, lands within that cost of their untimed time.
    closed_cells: u64,
    probe_ns: u64,
    timed: RunTiming,
    /// Engine self time of traced cells on the traced and untraced paths.
    traced_self_ns: f64,
    untraced_self_ns: f64,
    /// Engine bytes of traced cells on the traced and untraced paths.
    traced_bytes: u64,
    untraced_bytes: u64,
    setup_allocs: u64,
}

/// Counts made once, on the first pass.
#[derive(Debug, Clone, Default)]
struct Flow {
    deliveries: u64,
    delivered_pairs: u64,
    possible_pairs: u64,
    solo: u64,
}

/// Per-pass figures of the sweep's own thread pool, frame and gate.
struct RunnerPass {
    busy_ratio: f64,
    cell_us_p50: f64,
    cell_us_p99: f64,
    frame_ms: f64,
    golden_ms: f64,
}

struct Cell<'a> {
    index: u32,
    spec_index: usize,
    spec: &'a ScenarioSpec,
    case: u64,
    checkpoints: Vec<u64>,
}

/// Runs one cell pass over `cells`; on the first pass (`identity` set)
/// also proves identity, counts flow, and records spans.
fn cell_pass(
    cells: &[Cell<'_>],
    covered: &mut [bool],
    mut identity: Option<(&mut Flow, &mut Vec<RoundSpan>, &mut u64)>,
) -> CellPass {
    let cost = calibrate();
    let mut pass = CellPass {
        cost,
        cells: 0,
        rounds: 0,
        setup_ns: 0,
        untimed_ns: 0,
        closed_cells: 0,
        probe_ns: 0,
        timed: RunTiming::default(),
        traced_self_ns: 0.0,
        untraced_self_ns: 0.0,
        traced_bytes: 0,
        untraced_bytes: 0,
        setup_allocs: 0,
    };
    for (cell, covered) in cells.iter().zip(covered.iter_mut()) {
        if !*covered {
            continue;
        }
        let spec = cell.spec;
        let traced = spec.probes.needs_trace();
        let manifest = &spec.probes;
        let checkpoints = &cell.checkpoints[..];

        let (a0, _) = alloc::snapshot();
        alloc::set_owner(Layer::Setup);
        let plain = cells::with_cell(
            spec,
            cell.case,
            Plain {
                manifest,
                checkpoints,
                traced,
                cap: spec.cap,
                t0: Instant::now(),
            },
        );
        let (timed, row) = cells::with_cell(
            spec,
            cell.case,
            Timed {
                manifest,
                checkpoints,
                traced,
                cap: spec.cap,
                cell: cell.index,
                spans: identity.as_mut().map(|(_, spans, _)| &mut **spans),
            },
        );
        let untraced = traced.then(|| {
            cells::with_cell(
                spec,
                cell.case,
                Timed {
                    manifest,
                    checkpoints,
                    traced: false,
                    cap: spec.cap,
                    cell: cell.index,
                    spans: None,
                },
            )
            .0
        });

        if let Some((flow, _, uncovered_rounds)) = identity.as_mut() {
            let product = spec.run_cell(cell.spec_index, cell.case);
            let (fingerprint, acc) = cells::with_cell(spec, cell.case, Identity { cap: spec.cap });
            let same_row = |metrics: &MetricRow| {
                product
                    == CellRow {
                        spec_index: cell.spec_index,
                        case: cell.case,
                        cell_seed: spec.cell_seed(cell.case),
                        metrics: metrics.clone(),
                    }
            };
            let same = same_row(&plain.row)
                && same_row(&row)
                && fingerprint == spec.trace_reference_fingerprints(cell.case).0;
            if !same {
                *covered = false;
                **uncovered_rounds += plain.rounds;
                continue;
            }
            flow.deliveries += acc.deliveries;
            flow.delivered_pairs += acc.delivered_pairs;
            flow.possible_pairs += acc.possible_pairs;
            flow.solo += acc.solo;
        }
        let (a1, _) = alloc::snapshot();
        // Set-up allocations are those the plain run made before its
        // round loop; everything else it allocated belongs to other owners.
        pass.setup_allocs += a1[Layer::Setup as usize] - a0[Layer::Setup as usize];

        pass.cells += 1;
        pass.rounds += plain.rounds;
        pass.setup_ns += plain.setup_ns;
        pass.untimed_ns += plain.run_ns;
        let timer_ns = timed.spans() as f64 * cost.outer_ns;
        let residual = timed.round_ns as f64 - timer_ns - plain.run_ns as f64;
        pass.closed_cells += u64::from(residual.abs() <= timer_ns);
        pass.probe_ns += plain.probe_ns;
        if let Some(untraced) = &untraced {
            pass.traced_self_ns += timed.engine_self_ns(cost);
            pass.untraced_self_ns += untraced.engine_self_ns(cost);
            pass.traced_bytes += timed.bytes[Layer::Engine as usize];
            pass.untraced_bytes += untraced.bytes[Layer::Engine as usize];
        }
        let t = &mut pass.timed;
        t.rounds += timed.rounds;
        t.round_ns += timed.round_ns;
        for l in 0..LAYERS {
            t.raw[l] += timed.raw[l];
            t.calls[l] += timed.calls[l];
            t.allocs[l] += timed.allocs[l];
            t.bytes[l] += timed.bytes[l];
        }
    }
    pass
}

fn runner_pass(
    specs: &[ScenarioSpec],
    cells: &[Cell<'_>],
    runner: &SweepRunner,
    check: impl FnOnce(&ResultsFrame) -> crate::workload::PassCheck,
    tally: &mut Tally,
) -> (RunnerPass, ResultsFrame) {
    let t0 = Instant::now();
    let timed: Vec<(CellRow, u64)> = runner.map_described(
        cells.len(),
        |idx| {
            let cell = &cells[idx];
            let t = Instant::now();
            let row = cell.spec.run_cell(cell.spec_index, cell.case);
            (row, t.elapsed().as_nanos() as u64)
        },
        |idx| format!("spec `{}` case {}", cells[idx].spec.name, cells[idx].case),
    );
    let wall = t0.elapsed().as_nanos() as f64;
    let (rows, durations): (Vec<CellRow>, Vec<u64>) = timed.into_iter().unzip();
    let t1 = Instant::now();
    let frame = ResultsFrame::from_rows(specs, rows);
    let frame_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let checked = check(&frame);
    let golden_ms = t2.elapsed().as_secs_f64() * 1e3;
    tally.add(checked);
    let busy: u64 = durations.iter().sum();
    let mut us: Vec<f64> = durations.iter().map(|&d| d as f64 / 1e3).collect();
    (
        RunnerPass {
            busy_ratio: busy as f64 / (runner.threads() as f64 * wall),
            cell_us_p50: percentile(&mut us, 50.0),
            cell_us_p99: percentile(&mut us, 99.0),
            frame_ms,
            golden_ms,
        },
        frame,
    )
}

/// Runs the traced run of `workload` for about `seconds`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    threads: usize,
    forged: bool,
) -> Result<LayerResult, String> {
    alloc::enable_counting();
    let specs = workload.specs(seed);
    let mut reference = load_reference(workload, seed)?;
    if forged {
        forge(&mut reference);
    }
    let cells: Vec<Cell<'_>> = specs
        .iter()
        .enumerate()
        .flat_map(|(spec_index, spec)| {
            let checkpoints = spec.timeline.event_rounds();
            (0..spec.seeds).map(move |case| (spec_index, spec, case, checkpoints.clone()))
        })
        .enumerate()
        .map(|(index, (spec_index, spec, case, checkpoints))| Cell {
            index: index as u32,
            spec_index,
            spec,
            case,
            checkpoints,
        })
        .collect();
    let runner = SweepRunner::with_threads(threads);
    let mut tally = Tally::default();

    // First pass: identity, exact counts, spans.
    let mut covered = vec![true; cells.len()];
    let mut flow = Flow::default();
    let mut spans = Vec::new();
    let mut uncovered_rounds = 0u64;
    let first_pass = cell_pass(
        &cells,
        &mut covered,
        Some((&mut flow, &mut spans, &mut uncovered_rounds)),
    );
    let (first_runner, first_frame) = runner_pass(
        &specs,
        &cells,
        &runner,
        |frame| {
            check_pass(
                &specs,
                frame,
                reference.expected.as_ref(),
                None,
                reference.fingerprint,
            )
        },
        &mut tally,
    );
    let mut cell_passes = vec![first_pass.clone()];
    let mut runner_passes = vec![first_runner];

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while cell_passes.len() < MIN_PASSES || start.elapsed() < budget {
        cell_passes.push(cell_pass(&cells, &mut covered, None));
        let (pass, _) = runner_pass(
            &specs,
            &cells,
            &runner,
            |frame| {
                check_pass(
                    &specs,
                    frame,
                    reference.expected.as_ref(),
                    Some(&first_frame),
                    reference.fingerprint,
                )
            },
            &mut tally,
        );
        runner_passes.push(pass);
    }

    let spans_path = write_spans(workload, seed, &spans, &cells)
        .map_err(|e| eprintln!("perfbench: writing per-round spans failed: {e}"))
        .ok();
    let covered_cells = covered.iter().filter(|&&c| c).count() as u64;
    let uncovered_cells = cells.len() as u64 - covered_cells;
    let total_rounds = first_pass.rounds + uncovered_rounds;

    let med = |f: &dyn Fn(&CellPass) -> f64| -> f64 {
        let mut v: Vec<f64> = cell_passes.iter().map(f).collect();
        median(&mut v)
    };
    let med_runner = |f: &dyn Fn(&RunnerPass) -> f64| -> f64 {
        let mut v: Vec<f64> = runner_passes.iter().map(f).collect();
        median(&mut v)
    };
    let per_round = |p: &CellPass, x: f64| x / p.rounds.max(1) as f64;
    let layer = |l: Layer| move |p: &CellPass| per_round(p, p.timed.layer_self_ns(l, p.cost));
    let f = &first_pass;
    let rounds = f.rounds.max(1) as f64;
    let alloc_of = |l: Layer| f.timed.allocs[l as usize] as f64;

    let metrics = vec![
        (
            "spec.setup_us_per_cell",
            med(&|p| p.setup_ns as f64 / 1e3 / p.cells.max(1) as f64),
            "us",
        ),
        (
            "spec.setup_allocs_per_cell",
            f.setup_allocs as f64 / f.cells.max(1) as f64,
            "count",
        ),
        ("runner.busy_ratio", med_runner(&|r| r.busy_ratio), "ratio"),
        ("runner.cell_us_p50", med_runner(&|r| r.cell_us_p50), "us"),
        ("runner.cell_us_p99", med_runner(&|r| r.cell_us_p99), "us"),
        (
            "alg.message_ns_per_round",
            med(&layer(Layer::AlgMessage)),
            "ns",
        ),
        (
            "alg.transition_ns_per_round",
            med(&layer(Layer::AlgTransition)),
            "ns",
        ),
        (
            "alg.allocs_per_round",
            (alloc_of(Layer::AlgMessage) + alloc_of(Layer::AlgTransition)) / rounds,
            "count",
        ),
        (
            "engine.self_ns_per_round",
            med(&|p| per_round(p, p.timed.engine_self_ns(p.cost))),
            "ns",
        ),
        (
            "engine.deliveries_per_round",
            flow.deliveries as f64 / rounds,
            "count",
        ),
        (
            "engine.ns_per_delivery",
            med(&|p| p.timed.engine_self_ns(p.cost) / flow.deliveries.max(1) as f64),
            "ns",
        ),
        (
            "engine.allocs_per_round",
            alloc_of(Layer::Engine) / rounds,
            "count",
        ),
        ("loss.ns_per_round", med(&layer(Layer::Loss)), "ns"),
        (
            "loss.delivery_ratio",
            flow.delivered_pairs as f64 / flow.possible_pairs.max(1) as f64,
            "ratio",
        ),
        ("cd.ns_per_round", med(&layer(Layer::Cd)), "ns"),
        ("cm.ns_per_round", med(&layer(Layer::Cm)), "ns"),
        ("cm.solo_round_ratio", flow.solo as f64 / rounds, "ratio"),
        ("crash.ns_per_round", med(&layer(Layer::Crash)), "ns"),
        (
            "trace.append_ns_per_round",
            med(&|p| per_round(p, p.traced_self_ns - p.untraced_self_ns)),
            "ns",
        ),
        (
            "trace.bytes_per_round",
            (f.traced_bytes as f64 - f.untraced_bytes as f64) / rounds,
            "B",
        ),
        (
            "probe.ns_per_cell",
            med(&|p| p.probe_ns as f64 / p.cells.max(1) as f64),
            "ns",
        ),
        ("frame.assemble_ms", med_runner(&|r| r.frame_ms), "ms"),
        ("golden.check_ms", med_runner(&|r| r.golden_ms), "ms"),
        (
            "timing.overhead_ratio",
            med(&|p| p.timed.round_ns as f64 / p.untimed_ns.max(1) as f64),
            "ratio",
        ),
        ("timing.span_ns", med(&|p| p.cost.outer_ns), "ns"),
        (
            "timing.residual_ns_per_round",
            med(&|p| {
                per_round(
                    p,
                    p.timed.round_ns as f64
                        - p.timed.spans() as f64 * p.cost.outer_ns
                        - p.untimed_ns as f64,
                )
            }),
            "ns",
        ),
        (
            "timing.closed_cell_share",
            med(&|p| p.closed_cells as f64 / p.cells.max(1) as f64),
            "ratio",
        ),
        (
            "coverage.uncovered_round_share",
            uncovered_rounds as f64 / total_rounds.max(1) as f64,
            "ratio",
        ),
    ];
    Ok(LayerResult {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        drift: tally.drift,
        covered_cells,
        uncovered_cells,
        spans_path,
    })
}

/// Writes the first pass's per-round spans as TSV under `target/perfbench/`.
fn write_spans(
    workload: Workload,
    seed: u64,
    spans: &[RoundSpan],
    cells: &[Cell<'_>],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../target/perfbench"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-s{seed}.tsv", workload.name()));
    let mut out = String::from("spec\tcase\tround\tround_ns");
    for l in ROUND_LAYERS {
        let _ = write!(out, "\t{}_ns", l.name());
    }
    out.push('\n');
    for s in spans {
        let cell = &cells[s.cell as usize];
        let _ = write!(
            out,
            "{}\t{}\t{}\t{}",
            cell.spec.name, cell.case, s.round, s.round_ns
        );
        for ns in s.layer_ns {
            let _ = write!(out, "\t{ns}");
        }
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}
