//! `engine_dispatch`: static vs. boxed engine dispatch on the per-round
//! hot path — 1000-round runs through both forms of the same component
//! stack.
//!
//! Two stacks are measured:
//!
//! * `storm` — trivial components (`AlwaysNull`/`AllActive`/`NoLoss`/
//!   `NoCrashes`), where per-component work is nil and the dispatch
//!   mechanism itself dominates: the upper bound on what static dispatch
//!   can buy.
//! * `ecf` — a realistic experiment stack (in-class detector, fair
//!   wake-up, ECF-wrapped random loss), where component work dilutes the
//!   dispatch win: the realistic figure.
//!
//! Each stack runs at two system sizes: `n = 4` (dispatch-dominated — the
//! per-round payload is a handful of small allocations, so the virtual
//! calls and lost inlining of the boxed path are a visible fraction) and
//! `n = 50` (payload-dominated — 50 broadcasters mean thousands of
//! multiset insertions per round, so *any* dispatch mechanism is noise;
//! reported faithfully all the same).
//!
//! The headline speedup figure uses *interleaved paired sampling*: static
//! and boxed samples alternate back-to-back and the reported speedup is
//! the median of per-pair ratios. On a shared machine, sequential
//! benchmarking puts minutes between the two variants' samples and
//! scheduling noise swamps a few-percent dispatch effect; pairing cancels
//! the drift.
//!
//! The process also runs under a **counting global allocator** and reports
//! steady-state allocations/round and bytes/round for traced vs. untraced
//! runs of both stacks, plus allocations/call of the SINR radio's
//! `resolve_into` and allocations per `RadioChannel::new`. Four allocation
//! gates make the bench exit nonzero (which is what the CI bench-smoke
//! step gates on):
//!
//! * the untraced hot path must be exactly zero-allocation after warm-up
//!   (the synthetic stacks, plus the SINR-radio stack as the `phy/*`
//!   sweep arms assemble it);
//! * the *traced* path must stay O(1) amortized — arena growth only,
//!   gated at < 1 allocation/round in the steady-state window;
//! * `RadioChannel::resolve_into` into a reused `PhyRound` must be
//!   exactly zero-allocation after warm-up;
//! * `RadioChannel::new` must make a constant number of allocations (at
//!   most 3, the same at n = 8 and n = 64): the gain build is O(n²)
//!   arithmetic, never O(n²) allocator calls.
//!
//! Besides the stdout report, the bench writes machine-readable results to
//! `BENCH_engine.json` at the workspace root. Run with:
//!
//! ```text
//! cargo bench -p wan-bench --bench engine_dispatch          # full
//! CCWAN_BENCH_QUICK=1 cargo bench -p wan-bench --bench engine_dispatch
//! ```

use criterion::{black_box, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use wan_bench::sweep::{CellEnd, MetricRow, ProbeManifest, ProbeSet};
use wan_cd::{CdClass, CheckedDetector, ClassDetector, Degrading, FreedomPolicy};
use wan_cm::{BackoffCm, FairWakeUp};
use wan_mac::{mac_components, MacConfig, MacDelayPolicy};
use wan_phy::{phy_components, PhyConfig, PhyRound, RadioChannel};
use wan_sim::crash::{NoCrashes, TimelineCrashes};
use wan_sim::loss::{Ecf, NoLoss, RandomLoss, TimelineLoss};
use wan_sim::ProcessId;
use wan_sim::{
    AllActive, AlwaysNull, Automaton, CmAdvice, Components, Engine, Round, RoundInput,
    ScenarioEvent, ScenarioTimeline, Simulation, StaggeredJoin, TraceDetail,
};

const ROUNDS: u64 = 1000;

/// A pass-through allocator that counts allocation events and bytes, so the
/// zero-allocation claim of the round engine's untraced hot path is
/// machine-checkable rather than asserted by inspection. Deallocations are
/// not counted: the claim is about allocator *pressure* per round.
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn alloc_snapshot() -> (u64, u64) {
    (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Steady-state allocator pressure of `run(rounds)`: warm the system up
/// (buffers reach capacity, traces reach their growth plateau), then
/// measure a long window and average per round.
fn steady_state_allocs(mut run: impl FnMut(u64)) -> (f64, f64) {
    const WARMUP: u64 = 200;
    const MEASURE: u64 = 800;
    run(WARMUP);
    let (calls0, bytes0) = alloc_snapshot();
    run(MEASURE);
    let (calls1, bytes1) = alloc_snapshot();
    (
        (calls1 - calls0) as f64 / MEASURE as f64,
        (bytes1 - bytes0) as f64 / MEASURE as f64,
    )
}

/// Broadcasts its id every round and folds what it hears into a checksum:
/// per-round automaton work is a few adds, so the engine (and its dispatch
/// mechanism) dominates the profile.
struct Beacon {
    id: usize,
    checksum: u64,
}

impl Automaton for Beacon {
    type Msg = u64;
    fn message(&self, cm: CmAdvice) -> Option<u64> {
        cm.is_active().then_some(self.id as u64)
    }
    fn transition(&mut self, input: RoundInput<'_, u64>) {
        self.checksum = self
            .checksum
            .wrapping_add(input.received.total() as u64)
            .wrapping_add(input.round.0);
    }
}

fn beacons(n: usize) -> Vec<Beacon> {
    (0..n).map(|id| Beacon { id, checksum: 0 }).collect()
}

fn ecf_parts(seed: u64) -> (ClassDetector, FairWakeUp, Ecf<RandomLoss>, NoCrashes) {
    (
        ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, seed).accurate_from(Round(8)),
        FairWakeUp::immediate(),
        Ecf::new(RandomLoss::new(0.3, seed), Round(8)),
        NoCrashes,
    )
}

fn checksum(procs: &[Beacon]) -> u64 {
    procs.iter().fold(0u64, |a, p| a.wrapping_add(p.checksum))
}

fn run_static_storm<const N: usize>() -> u64 {
    let mut engine = Engine::from_parts(beacons(N), AlwaysNull, AllActive, NoLoss, NoCrashes)
        .with_detail(TraceDetail::Counts);
    engine.run_untraced(ROUNDS);
    checksum(engine.processes())
}

fn run_boxed_storm<const N: usize>() -> u64 {
    // `black_box` keeps the component types opaque, as they are in real
    // registry-driven sweeps — otherwise LTO devirtualizes the boxed path
    // and the comparison measures nothing.
    let mut engine = Simulation::new(
        beacons(N),
        black_box(Components {
            detector: Box::new(AlwaysNull),
            manager: Box::new(AllActive),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        }),
    )
    .with_detail(TraceDetail::Counts);
    engine.run_untraced(ROUNDS);
    checksum(engine.processes())
}

fn run_static_ecf<const N: usize>() -> u64 {
    let (cd, cm, loss, crash) = ecf_parts(7);
    let mut engine =
        Engine::from_parts(beacons(N), cd, cm, loss, crash).with_detail(TraceDetail::Counts);
    engine.run_untraced(ROUNDS);
    checksum(engine.processes())
}

fn run_boxed_ecf<const N: usize>() -> u64 {
    let (cd, cm, loss, crash) = ecf_parts(7);
    let mut engine = Simulation::new(
        beacons(N),
        black_box(Components {
            detector: Box::new(cd),
            manager: Box::new(cm),
            loss: Box::new(loss),
            crash: Box::new(crash),
        }),
    )
    .with_detail(TraceDetail::Counts);
    engine.run_untraced(ROUNDS);
    checksum(engine.processes())
}

fn run_static_ecf_traced<const N: usize>() -> u64 {
    let (cd, cm, loss, crash) = ecf_parts(7);
    let mut engine =
        Engine::from_parts(beacons(N), cd, cm, loss, crash).with_detail(TraceDetail::Counts);
    engine.run(ROUNDS);
    checksum(engine.processes())
}

fn run_static_storm_traced<const N: usize>() -> u64 {
    let mut engine = Engine::from_parts(beacons(N), AlwaysNull, AllActive, NoLoss, NoCrashes)
        .with_detail(TraceDetail::Counts);
    engine.run(ROUNDS);
    checksum(engine.processes())
}

/// Broadcasts in one `ROUNDS`-round run of the storm stack (for the
/// messages/sec figure): counted off a recorded trace, not assumed.
fn broadcasts_storm<const N: usize>() -> u64 {
    let mut engine = Engine::from_parts(beacons(N), AlwaysNull, AllActive, NoLoss, NoCrashes)
        .with_detail(TraceDetail::Counts);
    engine.run(ROUNDS);
    engine
        .trace()
        .rounds()
        .map(|v| v.senders().len() as u64)
        .sum()
}

/// Broadcasts in one `ROUNDS`-round run of the ECF stack.
fn broadcasts_ecf<const N: usize>() -> u64 {
    let (cd, cm, loss, crash) = ecf_parts(7);
    let mut engine =
        Engine::from_parts(beacons(N), cd, cm, loss, crash).with_detail(TraceDetail::Counts);
    engine.run(ROUNDS);
    engine
        .trace()
        .rounds()
        .map(|v| v.senders().len() as u64)
        .sum()
}

/// Nanoseconds per run, over `iters` back-to-back runs under one timer.
fn time_ns(f: fn() -> u64, iters: u64) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Interleaved paired comparison: alternates static/boxed samples and
/// returns (median speedup, static median ns, boxed median ns).
fn paired_speedup(static_f: fn() -> u64, boxed_f: fn() -> u64) -> (f64, f64, f64) {
    let quick = std::env::var_os("CCWAN_BENCH_QUICK").is_some();
    let pairs = if quick { 7 } else { 21 };
    // Calibrate so one sample costs ~60 ms.
    let once = time_ns(static_f, 1);
    let iters = ((60_000_000.0 / once) as u64).max(1);
    // Warm both paths.
    time_ns(static_f, iters);
    time_ns(boxed_f, iters);
    let mut ratios = Vec::with_capacity(pairs);
    let mut static_ns = Vec::with_capacity(pairs);
    let mut boxed_ns = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let s = time_ns(static_f, iters);
        let b = time_ns(boxed_f, iters);
        ratios.push(b / s);
        static_ns.push(s);
        boxed_ns.push(b);
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        xs[xs.len() / 2]
    };
    (
        median(&mut ratios),
        median(&mut static_ns),
        median(&mut boxed_ns),
    )
}

fn main() {
    let mut c = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400));

    // Sanity: both dispatch paths execute the identical system.
    assert_eq!(run_static_storm::<4>(), run_boxed_storm::<4>());
    assert_eq!(run_static_ecf::<50>(), run_boxed_ecf::<50>());

    // Per-variant figures (sequential, criterion-style), at n = 50.
    let mut group = c.benchmark_group("engine_dispatch");
    group.bench_function("storm/static/n50", |b| {
        b.iter(|| black_box(run_static_storm::<50>()))
    });
    group.bench_function("storm/boxed/n50", |b| {
        b.iter(|| black_box(run_boxed_storm::<50>()))
    });
    group.bench_function("ecf/static/n50", |b| {
        b.iter(|| black_box(run_static_ecf::<50>()))
    });
    group.bench_function("ecf/boxed/n50", |b| {
        b.iter(|| black_box(run_boxed_ecf::<50>()))
    });
    group.finish();

    // Headline speedups (interleaved paired sampling), both system sizes.
    type Cell = (&'static str, usize, fn() -> u64, fn() -> u64);
    let cells: [Cell; 4] = [
        ("storm", 4, run_static_storm::<4>, run_boxed_storm::<4>),
        ("ecf", 4, run_static_ecf::<4>, run_boxed_ecf::<4>),
        ("storm", 50, run_static_storm::<50>, run_boxed_storm::<50>),
        ("ecf", 50, run_static_ecf::<50>, run_boxed_ecf::<50>),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"engine_dispatch\",");
    let _ = writeln!(json, "  \"rounds_per_run\": {ROUNDS},");
    let _ = writeln!(
        json,
        "  \"method\": \"interleaved paired sampling; speedup = median of per-pair boxed/static ratios\","
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    let count = cells.len();
    for (i, (stack, n, static_f, boxed_f)) in cells.into_iter().enumerate() {
        let (speedup, static_ns, boxed_ns) = paired_speedup(static_f, boxed_f);
        println!(
            "paired {stack:<6} n={n:<3} static {static_ns:>14.1} ns/run  boxed {boxed_ns:>14.1} \
             ns/run  speedup {speedup:.3}x"
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"static_ns_per_run\": {static_ns:.1},");
        let _ = writeln!(json, "      \"boxed_ns_per_run\": {boxed_ns:.1},");
        let _ = writeln!(
            json,
            "      \"static_ns_per_round\": {:.2},",
            static_ns / ROUNDS as f64
        );
        let _ = writeln!(
            json,
            "      \"boxed_ns_per_round\": {:.2},",
            boxed_ns / ROUNDS as f64
        );
        let _ = writeln!(json, "      \"speedup_static_over_boxed\": {speedup:.3}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // The engine's sweep fast path: running untraced vs. recording a
    // counts-detail trace. This is the robust engine win of the generic
    // refactor — per-round record assembly gone entirely.
    type TraceCell = (&'static str, usize, fn() -> u64, fn() -> u64);
    let trace_cells: [TraceCell; 2] = [
        (
            "storm",
            4,
            run_static_storm::<4>,
            run_static_storm_traced::<4>,
        ),
        ("ecf", 50, run_static_ecf::<50>, run_static_ecf_traced::<50>),
    ];
    let _ = writeln!(json, "  \"trace_overhead\": [");
    let count = trace_cells.len();
    for (i, (stack, n, untraced_f, traced_f)) in trace_cells.into_iter().enumerate() {
        let (speedup, untraced_ns, traced_ns) = paired_speedup(untraced_f, traced_f);
        println!(
            "paired {stack:<6} n={n:<3} untraced {untraced_ns:>12.1} ns/run  traced \
             {traced_ns:>14.1} ns/run  speedup {speedup:.3}x"
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"untraced_ns_per_run\": {untraced_ns:.1},");
        let _ = writeln!(json, "      \"traced_ns_per_run\": {traced_ns:.1},");
        let _ = writeln!(json, "      \"speedup_untraced_over_traced\": {speedup:.3}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // Throughput of the untraced static engine — the figure sweep scaling
    // actually buys rounds with: simulated rounds/sec and delivered-side
    // messages (broadcasts)/sec per stack. Message counts come off one
    // recorded trace of the identical run, not an assumption about the
    // contention manager.
    type ThroughputCell = (&'static str, usize, fn() -> u64, fn() -> u64);
    let throughput_cells: [ThroughputCell; 4] = [
        ("storm", 4, run_static_storm::<4>, broadcasts_storm::<4>),
        ("ecf", 4, run_static_ecf::<4>, broadcasts_ecf::<4>),
        ("storm", 50, run_static_storm::<50>, broadcasts_storm::<50>),
        ("ecf", 50, run_static_ecf::<50>, broadcasts_ecf::<50>),
    ];
    let quick = std::env::var_os("CCWAN_BENCH_QUICK").is_some();
    let _ = writeln!(json, "  \"throughput\": [");
    let count = throughput_cells.len();
    for (i, (stack, n, run_f, broadcasts_f)) in throughput_cells.into_iter().enumerate() {
        let messages = broadcasts_f();
        // Calibrate to ~40 ms per sample, take the median of several.
        let once = time_ns(run_f, 1);
        let iters = ((40_000_000.0 / once) as u64).max(1);
        time_ns(run_f, iters); // warm
        let samples = if quick { 5 } else { 11 };
        let mut ns: Vec<f64> = (0..samples).map(|_| time_ns(run_f, iters)).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let ns_per_run = ns[ns.len() / 2];
        let rounds_per_sec = ROUNDS as f64 * 1e9 / ns_per_run;
        let messages_per_sec = messages as f64 * 1e9 / ns_per_run;
        println!(
            "thru   {stack:<6} n={n:<3} {rounds_per_sec:>14.0} rounds/sec  \
             {messages_per_sec:>14.0} messages/sec  ({messages} msgs/run)"
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"ns_per_run\": {ns_per_run:.1},");
        let _ = writeln!(json, "      \"messages_per_run\": {messages},");
        let _ = writeln!(json, "      \"rounds_per_sec\": {rounds_per_sec:.0},");
        let _ = writeln!(json, "      \"messages_per_sec\": {messages_per_sec:.0}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // Steady-state allocator pressure per round, via the counting global
    // allocator: the zero-allocation property of the untraced hot path
    // (asserted below — this is the CI gate), with the traced cost
    // alongside for the contrast.
    type AllocRun = Box<dyn FnMut(u64)>;
    let alloc_cells: Vec<(&'static str, usize, &'static str, &'static str, AllocRun)> = vec![
        ("storm", 4, "static", "untraced", {
            let mut e = Engine::from_parts(beacons(4), AlwaysNull, AllActive, NoLoss, NoCrashes)
                .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        ("storm", 50, "static", "untraced", {
            let mut e = Engine::from_parts(beacons(50), AlwaysNull, AllActive, NoLoss, NoCrashes)
                .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        ("ecf", 4, "static", "untraced", {
            let (cd, cm, loss, crash) = ecf_parts(7);
            let mut e = Engine::from_parts(beacons(4), cd, cm, loss, crash)
                .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        ("ecf", 50, "static", "untraced", {
            let (cd, cm, loss, crash) = ecf_parts(7);
            let mut e = Engine::from_parts(beacons(50), cd, cm, loss, crash)
                .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        ("storm", 50, "boxed", "untraced", {
            let mut e = Simulation::new(
                beacons(50),
                black_box(Components {
                    detector: Box::new(AlwaysNull),
                    manager: Box::new(AllActive),
                    loss: Box::new(NoLoss),
                    crash: Box::new(NoCrashes),
                }),
            )
            .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        ("ecf", 50, "boxed", "untraced", {
            let (cd, cm, loss, crash) = ecf_parts(7);
            let mut e = Simulation::new(
                beacons(50),
                black_box(Components {
                    detector: Box::new(cd),
                    manager: Box::new(cm),
                    loss: Box::new(loss),
                    crash: Box::new(crash),
                }),
            )
            .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        // The full churn stack with a compiled scenario schedule
        // installed: the per-round timeline hook, the timeline-aware
        // components, *and* mid-window event application (`SetLossRate` /
        // `CdSwitch` fire inside the measured steady state, after the
        // crash burst and wake wave land during warm-up) must all stay on
        // the zero-allocation untraced path.
        ("churn", 50, "static", "untraced", {
            let timeline = ScenarioTimeline::new()
                .at_round(Round(4), ScenarioEvent::WakeWave { count: 25 })
                .at_round(Round(10), ScenarioEvent::CrashBurst { count: 1 })
                .at_round(Round(12), ScenarioEvent::SetLossRate { p: 0.6 })
                .at_round(Round(12), ScenarioEvent::CdSwitch { slot: 1 })
                .at_round(Round(450), ScenarioEvent::CdSwitch { slot: 0 })
                .at_round(Round(600), ScenarioEvent::SetLossRate { p: 0.3 });
            let detector = Degrading::new(vec![
                ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 7)
                    .accurate_from(Round(8)),
                ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Quiet, 8)
                    .accurate_from(Round(8)),
            ]);
            let manager = StaggeredJoin::new(FairWakeUp::immediate(), 25);
            let loss = Ecf::new(TimelineLoss::new(0.3, 7), Round(8));
            let mut e = Engine::from_parts(
                beacons(50),
                detector,
                manager,
                loss,
                TimelineCrashes::over(NoCrashes),
            )
            .with_detail(TraceDetail::Counts)
            .with_schedule(timeline.compile());
            Box::new(move |r| e.run_untraced(r))
        }),
        // The abstract MAC stack exactly as the `absmac/mac-…` sweep arms
        // assemble it (acknowledged-broadcast channel resolving every
        // round, its bookkeeping detector under the strict in-class wrap,
        // no contention manager): the pending/attempt tracking and the
        // per-round three-pass resolve must reuse their buffers — the
        // untraced MAC round is gated at exactly zero allocations.
        ("absmac", 50, "static", "untraced", {
            let (channel, detector) = mac_components(MacConfig {
                f_ack: 6,
                f_prog: 2,
                policy: MacDelayPolicy::Random { defer: 0.3 },
                seed: 7,
            });
            let mut e = Engine::from_parts(
                beacons(50),
                CheckedDetector::new(detector, CdClass::ZERO_EV_AC),
                AllActive,
                channel,
                TimelineCrashes::over(NoCrashes),
            )
            .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        // The SINR-radio stack exactly as the `phy/*` sweep arms assemble
        // it (boxed components: the radio's carrier-sense detector under
        // the in-class wrap, the backoff manager, the radio loss under the
        // r_cf = 1 ECF wrap): the per-round resolve and the word-wise
        // hand-off into the engine's delivery matrix reuse their buffers.
        ("phy", 32, "boxed", "untraced", {
            let seed = 7;
            let (loss, detector) = phy_components(PhyConfig::new(32, seed));
            let mut e = Simulation::new(
                beacons(32),
                black_box(Components {
                    detector: Box::new(CheckedDetector::new(detector, CdClass::ZERO_EV_AC)),
                    manager: Box::new(BackoffCm::new(seed ^ 0xBAC0)),
                    loss: Box::new(Ecf::new(loss, Round(1))),
                    crash: Box::new(NoCrashes),
                }),
            )
            .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run_untraced(r))
        }),
        ("storm", 4, "static", "traced", {
            let mut e = Engine::from_parts(beacons(4), AlwaysNull, AllActive, NoLoss, NoCrashes)
                .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run(r))
        }),
        ("storm", 50, "static", "traced", {
            let mut e = Engine::from_parts(beacons(50), AlwaysNull, AllActive, NoLoss, NoCrashes)
                .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run(r))
        }),
        ("ecf", 50, "static", "traced", {
            let (cd, cm, loss, crash) = ecf_parts(7);
            let mut e = Engine::from_parts(beacons(50), cd, cm, loss, crash)
                .with_detail(TraceDetail::Counts);
            Box::new(move |r| e.run(r))
        }),
        ("ecf", 50, "static", "traced-full", {
            let (cd, cm, loss, crash) = ecf_parts(7);
            let mut e =
                Engine::from_parts(beacons(50), cd, cm, loss, crash).with_detail(TraceDetail::Full);
            Box::new(move |r| e.run(r))
        }),
    ];

    let _ = writeln!(json, "  \"allocation\": [");
    let count = alloc_cells.len();
    let mut alloc_violations: Vec<String> = Vec::new();
    for (i, (stack, n, dispatch, mode, run)) in alloc_cells.into_iter().enumerate() {
        let (allocs, bytes) = steady_state_allocs(run);
        println!(
            "allocs {stack:<6} n={n:<3} {dispatch:<6} {mode:<8} {allocs:>10.3} allocs/round  \
             {bytes:>12.1} bytes/round"
        );
        if mode == "untraced" && allocs != 0.0 {
            alloc_violations.push(format!(
                "untraced {stack}/{dispatch}/n{n}: {allocs} allocs/round ({bytes} bytes/round)"
            ));
        }
        // The traced arena may grow (amortized doubling), so the gate is
        // O(1) amortized rather than exactly zero: averaged over the
        // steady-state window, appending a round must cost less than one
        // allocation.
        if mode.starts_with("traced") && allocs >= 1.0 {
            alloc_violations.push(format!(
                "traced {stack}/{dispatch}/n{n} ({mode}): {allocs} allocs/round — \
                 trace appends are no longer arena-growth-only"
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"dispatch\": \"{dispatch}\",");
        let _ = writeln!(json, "      \"mode\": \"{mode}\",");
        let _ = writeln!(json, "      \"allocs_per_round\": {allocs:.3},");
        let _ = writeln!(json, "      \"bytes_per_round\": {bytes:.1}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // The SINR radio: `resolve_into` into a reused `PhyRound` must be
    // allocation-free in steady state (the scratch buffers and the round's
    // output buffers all keep their storage). Every batched lane — up to
    // the n = 128 wide-system cell — is gated at exactly 0 allocs/call.
    let _ = writeln!(json, "  \"phy_resolve\": [");
    let phy_cells: [(usize, usize); 4] = [(8, 4), (32, 16), (64, 32), (128, 64)];
    let count = phy_cells.len();
    for (i, (n, contenders)) in phy_cells.into_iter().enumerate() {
        let channel = RadioChannel::new(PhyConfig::new(n, 11));
        let senders: Vec<ProcessId> = (0..contenders).map(ProcessId).collect();
        let mut out = PhyRound::new();
        let mut next_round = 1u64;
        let mut resolve_rounds = |count: u64| {
            for _ in 0..count {
                channel.resolve_into(Round(next_round), &senders, &mut out);
                next_round += 1;
            }
        };
        let (allocs, bytes) = steady_state_allocs(&mut resolve_rounds);
        // Median of calibrated samples (like the throughput section): a
        // single short window is too noisy to gate a speedup target on.
        let mut sample_ns = |iters: u64| {
            let start = std::time::Instant::now();
            resolve_rounds(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        };
        let once = sample_ns(20);
        let iters = ((30_000_000.0 / once) as u64).clamp(50, 20_000);
        let samples = if quick { 5 } else { 9 };
        let mut ns: Vec<f64> = (0..samples).map(|_| sample_ns(iters)).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let ns_per_call = ns[ns.len() / 2];
        println!(
            "phy    n={n:<3} senders={contenders:<3} {allocs:>10.3} allocs/call  \
             {bytes:>12.1} bytes/call  {ns_per_call:>10.1} ns/call"
        );
        if allocs != 0.0 {
            alloc_violations.push(format!(
                "phy resolve n={n} senders={contenders}: {allocs} allocs/call"
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {n},");
        let _ = writeln!(json, "      \"senders\": {contenders},");
        let _ = writeln!(json, "      \"allocs_per_call\": {allocs:.3},");
        let _ = writeln!(json, "      \"bytes_per_call\": {bytes:.1},");
        let _ = writeln!(json, "      \"ns_per_call\": {ns_per_call:.1}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // Building the radio: positions and the gain matrix are its only heap
    // storage, so `RadioChannel::new` makes a constant number of
    // allocations however many O(n²) gain entries it fills.
    const PHY_BUILD_MAX_ALLOCS: u64 = 3;
    let _ = writeln!(json, "  \"phy_build\": [");
    let build_sizes = [8usize, 64];
    let mut build_allocs = Vec::with_capacity(build_sizes.len());
    for (i, n) in build_sizes.into_iter().enumerate() {
        let (calls0, bytes0) = alloc_snapshot();
        let channel = black_box(RadioChannel::new(PhyConfig::new(n, 11)));
        let (calls1, bytes1) = alloc_snapshot();
        drop(channel);
        let (allocs, bytes) = (calls1 - calls0, bytes1 - bytes0);
        println!("phy    n={n:<3} build            {allocs:>10} allocs/new  {bytes:>12} bytes/new");
        if allocs > PHY_BUILD_MAX_ALLOCS {
            alloc_violations.push(format!(
                "phy build n={n}: {allocs} allocs/new (gate: at most {PHY_BUILD_MAX_ALLOCS})"
            ));
        }
        build_allocs.push(allocs);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {n},");
        let _ = writeln!(json, "      \"allocs_per_new\": {allocs},");
        let _ = writeln!(json, "      \"bytes_per_new\": {bytes}");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < build_sizes.len() { "," } else { "" }
        );
    }
    if build_allocs.windows(2).any(|w| w[0] != w[1]) {
        alloc_violations.push(format!(
            "phy build: allocs/new vary with n ({build_allocs:?}) — the gain build allocates per entry"
        ));
    }
    let _ = writeln!(json, "  ],");

    // The probe path: the full built-in probe set observing recorded
    // rounds (the traced-by-default sweep's per-round analysis cost). The
    // set and the metric row are reused across cells, exactly as the
    // sweep reuses them, so steady-state observation — including the
    // per-cell reset/finish — must be *exactly* zero-allocation.
    let _ = writeln!(json, "  \"probe_path\": [");
    let probe_cells: [(&str, usize); 2] = [("storm", 4), ("ecf", 50)];
    let count = probe_cells.len();
    for (i, (stack, n)) in probe_cells.into_iter().enumerate() {
        let components = match stack {
            "storm" => Components {
                detector: Box::new(AlwaysNull),
                manager: Box::new(AllActive),
                loss: Box::new(NoLoss),
                crash: Box::new(NoCrashes),
            },
            _ => {
                let (cd, cm, loss, crash) = ecf_parts(7);
                Components {
                    detector: Box::new(cd),
                    manager: Box::new(cm),
                    loss: Box::new(loss),
                    crash: Box::new(crash),
                }
            }
        };
        let trace = {
            let mut e = Simulation::new(beacons(n), components).with_detail(TraceDetail::Counts);
            e.run(ROUNDS);
            e.into_parts().1
        };
        let mut probes: ProbeSet<u64> = ProbeSet::from_manifest(&ProbeManifest::standard());
        let mut row = MetricRow::new();
        let end = CellEnd {
            reference: 8,
            last_decision: Some(ROUNDS),
            terminated: true,
            safe: true,
            rounds_executed: ROUNDS,
        };
        let mut observe_rounds = |count: u64| {
            let mut remaining = count;
            while remaining > 0 {
                probes.reset();
                for view in trace.rounds() {
                    if remaining == 0 {
                        break;
                    }
                    probes.observe(&view);
                    remaining -= 1;
                }
                probes.finish(&end, &mut row);
                black_box(row.len());
            }
        };
        let (allocs, bytes) = steady_state_allocs(&mut observe_rounds);
        println!(
            "probes {stack:<6} n={n:<3} full set        {allocs:>10.3} allocs/round  \
             {bytes:>12.1} bytes/round"
        );
        if allocs != 0.0 {
            alloc_violations.push(format!(
                "probe path {stack}/n{n}: {allocs} allocs/round — \
                 steady-state probe observation must not allocate"
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"allocs_per_round\": {allocs:.3},");
        let _ = writeln!(json, "      \"bytes_per_round\": {bytes:.1}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(out, &json).expect("write BENCH_engine.json");
    println!("\nwrote {out}:\n{json}");

    // The CI gates: the untraced hot path and phy resolve must be
    // allocation-free in steady state, the traced path O(1) amortized
    // (arena growth only), and the radio build a constant allocation
    // count. (Checked after the JSON is written so a
    // regression still leaves the numbers on disk.)
    assert!(
        alloc_violations.is_empty(),
        "allocation gates failed:\n  {}",
        alloc_violations.join("\n  ")
    );
}
