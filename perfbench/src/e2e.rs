//! The end-to-end run: warm passes over a workload's cells through the
//! product's public sweep entry points, with no per-layer timing.

use std::time::{Duration, Instant};

use wan_bench::{ResultsFrame, ScenarioSpec, SweepRunner};

use crate::stats::{median, peak_rss_mb, percentile};
use crate::workload::{check_pass, load_reference, PassCheck, Reference, Workload, DEFAULT_SEED};

/// Fewest and most set-ups a run makes; `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (9, 99);
/// Share of the run's time budget spent on repeated set-ups.
const SETUP_SHARE: f64 = 0.1;
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 5;

/// The end-to-end figures of one run.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Median wall seconds of one warm pass.
    pub sweep_s: f64,
    /// Executed rounds per pass ÷ `sweep_s`.
    pub rounds_per_s: f64,
    /// Cells per pass ÷ `sweep_s`.
    pub cells_per_s: f64,
    /// Median wall seconds from workload start to the end of its first,
    /// cold pass.
    pub setup_s: f64,
    /// Peak resident memory of the process.
    pub peak_rss_mb: f64,
    /// Timed passes made.
    pub passes: usize,
    /// The highest pass-time percentile with at least ten passes beyond
    /// it, and its value in seconds.
    pub tail: (f64, f64),
    /// Cells and rounds of one pass.
    pub cells_per_pass: u64,
    /// Rounds executed by one pass.
    pub rounds_per_pass: u64,
    /// Every checked cell, over every pass of the run.
    pub attempted: u64,
    /// Failed cells among them.
    pub failed: u64,
    /// Reasons for the failures (empty when clean).
    pub drift: Vec<String>,
}

/// Tallies checked passes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checked cells.
    pub attempted: u64,
    /// Failed cells.
    pub failed: u64,
    /// First few failure reasons.
    pub drift: Vec<String>,
}

impl Tally {
    /// Adds one pass's check.
    pub fn add(&mut self, check: PassCheck) {
        self.attempted += check.cells;
        self.failed += check.failed;
        let room = 20usize.saturating_sub(self.drift.len());
        self.drift.extend(check.drift.into_iter().take(room));
    }
}

/// Flips one digest of the loaded reference, so a run must report
/// failed cells (the benchmark's test of its own correctness gate).
pub fn forge(reference: &mut Reference) {
    for summary in [&mut reference.golden, &mut reference.expected]
        .into_iter()
        .flatten()
    {
        if let Some(row) = summary.specs.first_mut() {
            row.digest ^= 1;
        }
    }
    if let Some(fp) = reference.fingerprint.as_mut() {
        *fp ^= 1;
    }
}

/// One set-up of a workload, as a single `check` invocation pays it:
/// spec generation, reference loading, and one cold checked pass.
pub struct Setup {
    /// The workload's specs.
    pub specs: Vec<ScenarioSpec>,
    /// The loaded (possibly forged) reference.
    pub reference: Reference,
    /// The first pass's frame; later passes must equal it.
    pub first: ResultsFrame,
    /// The first pass's check.
    pub check: PassCheck,
}

/// Sets `workload` up once.
pub fn set_up(
    workload: Workload,
    seed: u64,
    runner: &SweepRunner,
    forged: bool,
) -> Result<Setup, String> {
    let specs = workload.specs(seed);
    let mut reference = load_reference(workload, seed)?;
    if forged {
        forge(&mut reference);
    }
    let first = runner.run_fresh(&specs);
    let check = check_pass(
        &specs,
        &first,
        reference.expected.as_ref(),
        None,
        reference.fingerprint,
    );
    Ok(Setup {
        specs,
        reference,
        first,
        check,
    })
}

/// The checks made once per run, outside every timed interval: a serial
/// pass must equal the parallel first pass, and at non-default seeds the
/// registry's committed names are gated against the golden.
pub fn once_per_run(
    setup: &Setup,
    workload: Workload,
    seed: u64,
    runner: &SweepRunner,
    tally: &mut Tally,
) {
    let serial = SweepRunner::serial().run_fresh(&setup.specs);
    tally.add(check_pass(
        &setup.specs,
        &serial,
        setup.reference.expected.as_ref(),
        Some(&setup.first),
        setup.reference.fingerprint,
    ));
    if workload == Workload::Registry && seed != DEFAULT_SEED {
        let committed = workload.specs(DEFAULT_SEED);
        let frame = runner.run_fresh(&committed);
        tally.add(check_pass(
            &committed,
            &frame,
            setup.reference.golden.as_ref(),
            None,
            None,
        ));
    }
}

/// Runs `workload` end to end for about `seconds` of timed passes.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    threads: usize,
    forged: bool,
) -> Result<E2eResult, String> {
    let runner = SweepRunner::with_threads(threads);
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let setup = set_up(workload, seed, &runner, forged)?;
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];
    tally.add(setup.check.clone());
    once_per_run(&setup, workload, seed, &runner, &mut tally);

    // Timed passes fill the run; further set-ups are spread evenly across
    // it, so both medians sample the same stretch of machine time.
    let budget = Duration::from_secs(seconds);
    let reps = ((budget.as_secs_f64() * SETUP_SHARE / setup_times[0]) as usize)
        .clamp(SETUP_REPS.0, SETUP_REPS.1);
    let start = Instant::now();
    let mut pass_times = Vec::new();
    let mut rounds_per_pass = setup.check.rounds;
    while pass_times.len() < MIN_PASSES || setup_times.len() < reps || start.elapsed() < budget {
        let due = budget.mul_f64(setup_times.len() as f64 / reps as f64);
        if setup_times.len() < reps && start.elapsed() >= due {
            let t0 = Instant::now();
            let again = set_up(workload, seed, &runner, forged)?;
            setup_times.push(t0.elapsed().as_secs_f64());
            tally.add(again.check);
            continue;
        }
        let t0 = Instant::now();
        let frame = runner.run_fresh(&setup.specs);
        let check = check_pass(
            &setup.specs,
            &frame,
            setup.reference.expected.as_ref(),
            Some(&setup.first),
            setup.reference.fingerprint,
        );
        pass_times.push(t0.elapsed().as_secs_f64());
        rounds_per_pass = check.rounds;
        tally.add(check);
    }
    let sweep_s = median(&mut pass_times);
    let tail_pct = 100.0 * (1.0 - 10.0 / pass_times.len() as f64).max(0.5);
    let tail = (tail_pct, percentile(&mut pass_times, tail_pct));
    let cells_per_pass = setup.first.cell_count() as u64;
    Ok(E2eResult {
        sweep_s,
        rounds_per_s: rounds_per_pass as f64 / sweep_s,
        cells_per_s: cells_per_pass as f64 / sweep_s,
        setup_s: median(&mut setup_times),
        peak_rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        passes: pass_times.len(),
        tail,
        cells_per_pass,
        rounds_per_pass,
        attempted: tally.attempted,
        failed: tally.failed,
        drift: tally.drift,
    })
}
