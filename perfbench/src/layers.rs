//! Per-layer spans around the calls a cell makes into each layer's public
//! trait, and the timing adapters that record them.
//!
//! Every adapter implements the same public trait as the component or
//! automaton it wraps and forwards each call unchanged, so a wrapped cell
//! executes exactly as the product's (the traced run proves this per
//! cell). Spans accumulate into thread-local per-layer totals that the
//! timed round loop reads and resets after every round.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use ccwan_core::{ConsensusAutomaton, Value};
use wan_sim::{
    Automaton, CdAdvice, CmAdvice, CmView, CollisionDetector, ContentionManager, CrashAdversary,
    DeliveryMatrix, LossAdversary, ProcessId, Round, RoundInput, ScenarioEvent, TransmissionEntry,
};

use crate::alloc;

/// The layers a cell crosses. `Engine` owns everything the round loop
/// does outside a wrapped call (receive assembly, multiset, decision
/// bookkeeping, and trace append on traced rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Code outside any span (the benchmark's own bookkeeping).
    Other = 0,
    /// `wan-sim` engine round loop, outside the wrapped calls.
    Engine,
    /// `wan-sim::crash` adversary.
    Crash,
    /// `wan-cm` contention manager (advice, observation, events).
    Cm,
    /// `wan-sim::loss` / `wan-phy` / `wan-mac` channel.
    Loss,
    /// `wan-cd` / phy / mac collision detector.
    Cd,
    /// `ccwan-core` automaton `message`.
    AlgMessage,
    /// `ccwan-core` automaton `transition`.
    AlgTransition,
    /// Cell setup: components, processes, values, timeline compile,
    /// engine construction.
    Setup,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 9;

/// The layers wrapped by spans inside a round.
pub const ROUND_LAYERS: [Layer; 6] = [
    Layer::Crash,
    Layer::Cm,
    Layer::Loss,
    Layer::Cd,
    Layer::AlgMessage,
    Layer::AlgTransition,
];

impl Layer {
    /// Every layer, indexed by discriminant.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Other,
        Layer::Engine,
        Layer::Crash,
        Layer::Cm,
        Layer::Loss,
        Layer::Cd,
        Layer::AlgMessage,
        Layer::AlgTransition,
        Layer::Setup,
    ];

    /// Column name in the written span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Other => "other",
            Layer::Engine => "engine",
            Layer::Crash => "crash",
            Layer::Cm => "cm",
            Layer::Loss => "loss",
            Layer::Cd => "cd",
            Layer::AlgMessage => "alg.message",
            Layer::AlgTransition => "alg.transition",
            Layer::Setup => "setup",
        }
    }
}

/// Totals the adapters accumulate within one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundAcc {
    /// Raw span nanoseconds per layer.
    pub ns: [u64; LAYERS],
    /// Span count per layer.
    pub calls: [u64; LAYERS],
    /// Receiver-side deliveries (sum of receive counts) seen by the CD.
    pub deliveries: u64,
    /// Delivered (sender, receiver) pairs the loss layer granted.
    pub delivered_pairs: u64,
    /// Possible pairs: senders × n.
    pub possible_pairs: u64,
    /// 1 when the contention manager advised exactly one process active.
    pub solo: u64,
}

impl RoundAcc {
    const ZERO: RoundAcc = RoundAcc {
        ns: [0; LAYERS],
        calls: [0; LAYERS],
        deliveries: 0,
        delivered_pairs: 0,
        possible_pairs: 0,
        solo: 0,
    };
}

thread_local! {
    static ACC: RefCell<RoundAcc> = const { RefCell::new(RoundAcc::ZERO) };
    static FLOW: Cell<bool> = const { Cell::new(false) };
}

/// Takes the totals accumulated since the last call and resets them.
pub fn take_round() -> RoundAcc {
    ACC.with(|a| a.replace(RoundAcc::ZERO))
}

/// Turns the adapters' flow counts (deliveries, delivered pairs, solo
/// rounds) on or off. They are counted on an untimed run only, so their
/// bookkeeping never lands inside a timed round.
pub fn count_flow(on: bool) {
    FLOW.with(|f| f.set(on));
}

fn counting_flow() -> bool {
    FLOW.with(Cell::get)
}

#[inline(always)]
fn update(f: impl FnOnce(&mut RoundAcc)) {
    ACC.with(|a| f(&mut a.borrow_mut()));
}

/// Runs `f` as one span of `layer`: times it and attributes its
/// allocations to the layer.
#[inline(always)]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let prev = alloc::set_owner(layer);
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    alloc::set_owner(prev);
    update(|acc| {
        acc.ns[layer as usize] += ns;
        acc.calls[layer as usize] += 1;
    });
    out
}

/// The measured cost of an empty span.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// What an empty span reads as its own duration (ns).
    pub inner_ns: f64,
    /// What an empty span adds to the code around it (ns).
    pub outer_ns: f64,
}

/// Calibrates [`span`] on this machine: medians over batches of empty
/// spans, so a preempted batch does not skew the result.
pub fn calibrate() -> TimerCost {
    const BATCH: u32 = 2000;
    let mut inner = Vec::new();
    let mut outer = Vec::new();
    for _ in 0..51 {
        take_round();
        let t0 = Instant::now();
        for _ in 0..BATCH {
            span(Layer::Other, || std::hint::black_box(()));
        }
        let total = t0.elapsed().as_nanos() as f64;
        let acc = take_round();
        inner.push(acc.ns[Layer::Other as usize] as f64 / f64::from(BATCH));
        outer.push(total / f64::from(BATCH));
    }
    TimerCost {
        inner_ns: crate::stats::median(&mut inner),
        outer_ns: crate::stats::median(&mut outer),
    }
}

/// Timing adapter around a collision detector; also counts deliveries
/// (the engine's receive-assembly inserts) from the transmission entry it
/// is handed.
pub struct TimedCd(pub Box<dyn CollisionDetector>);

impl CollisionDetector for TimedCd {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        span(Layer::Cd, || self.0.advise_into(round, tx, out));
        if counting_flow() {
            let deliveries = tx.received.iter().sum::<usize>() as u64;
            update(|acc| acc.deliveries += deliveries);
        }
    }
    fn accuracy_from(&self) -> Option<Round> {
        self.0.accuracy_from()
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        span(Layer::Cd, || self.0.apply_event(round, event));
    }
}

/// Timing adapter around a contention manager; also counts rounds in
/// which exactly one process was advised active.
pub struct TimedCm(pub Box<dyn ContentionManager>);

impl ContentionManager for TimedCm {
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        span(Layer::Cm, || self.0.advise_into(round, view, out));
        if counting_flow() {
            let active = out.iter().filter(|a| a.is_active()).count();
            update(|acc| acc.solo += u64::from(active == 1));
        }
    }
    fn observe(&mut self, round: Round, tx: &TransmissionEntry, senders: &[ProcessId]) {
        span(Layer::Cm, || self.0.observe(round, tx, senders));
    }
    fn stabilized_from(&self) -> Option<Round> {
        self.0.stabilized_from()
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        span(Layer::Cm, || self.0.apply_event(round, event));
    }
}

/// Timing adapter around a loss adversary or channel; also counts the
/// (sender, receiver) pairs it delivers.
pub struct TimedLoss(pub Box<dyn LossAdversary>);

impl LossAdversary for TimedLoss {
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        span(Layer::Loss, || self.0.deliver_into(round, senders, n, out));
        if counting_flow() {
            let delivered = (0..out.n())
                .map(|r| out.received_count(ProcessId(r)))
                .sum::<usize>() as u64;
            let possible = (senders.len() * n) as u64;
            update(|acc| {
                acc.delivered_pairs += delivered;
                acc.possible_pairs += possible;
            });
        }
    }
    fn collision_free_from(&self) -> Option<Round> {
        self.0.collision_free_from()
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        span(Layer::Loss, || self.0.apply_event(round, event));
    }
}

/// Timing adapter around a crash adversary.
pub struct TimedCrash(pub Box<dyn CrashAdversary>);

impl CrashAdversary for TimedCrash {
    fn crashes_into(&mut self, round: Round, alive: &[bool], out: &mut Vec<ProcessId>) {
        span(Layer::Crash, || self.0.crashes_into(round, alive, out));
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        span(Layer::Crash, || self.0.apply_event(round, event));
    }
}

/// Timing adapter around one consensus automaton. `is_contending`,
/// `decision` and `initial_value` are forwarded untimed: they are
/// field reads the engine's bookkeeping makes, so they count as engine
/// self time.
#[derive(Debug)]
pub struct TimedAlg<A>(pub A);

impl<A: Automaton> Automaton for TimedAlg<A> {
    type Msg = A::Msg;

    fn message(&self, cm: CmAdvice) -> Option<A::Msg> {
        span(Layer::AlgMessage, || self.0.message(cm))
    }
    fn transition(&mut self, input: RoundInput<'_, A::Msg>) {
        span(Layer::AlgTransition, || self.0.transition(input));
    }
    fn is_contending(&self) -> bool {
        self.0.is_contending()
    }
}

impl<A: ConsensusAutomaton> ConsensusAutomaton for TimedAlg<A> {
    fn initial_value(&self) -> Value {
        self.0.initial_value()
    }
    fn decision(&self) -> Option<Value> {
        self.0.decision()
    }
    fn halted(&self) -> bool {
        self.0.halted()
    }
}
