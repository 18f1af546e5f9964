//! Iterative-deepening exhaustive exploration with counterexample traces.
//!
//! [`check`] explores every interleaving of a [`World`] up to a depth
//! bound. Deepening runs in increments: each pass re-explores from the
//! root with a *fresh* depth-aware memo, so the first violation found is
//! found at the smallest depth bound that exposes it and its trace is a
//! shortest counterexample. If a pass completes without once hitting its
//! depth bound, the state space has been explored **completely** — every
//! path reached a terminal — and deeper passes are skipped
//! ([`CheckReport::complete`] records this, turning a bounded search into
//! an actual proof for the finite spaces the retry-bounded protocols
//! generate).
//!
//! The memo maps canonical states to the largest remaining depth they were
//! explored under: a revisit with no more depth budget than before cannot
//! reach anything new and is pruned ([`CheckStats::dedup_hits`]). Cycle
//! detection is on-path: because the canonical state embeds monotone
//! progress counters, revisiting a state on the current path means a
//! progress-free control-frame cycle — a livelock. Memo and path hold each
//! state as a flat byte key, encoded and hashed once per visit; keys are
//! equal exactly when the canonical states are, so the encoding never
//! changes what the search finds.
//!
//! # Reductions
//!
//! With [`CheckConfig::reduce`] the explorer layers three sound state-space
//! reductions on the same search; the unreduced configuration stays
//! bit-for-bit identical to the historical explorer and serves as the
//! oracle the reduced runs are validated against:
//!
//! * **Partial-order (sleep sets).** Two enabled events commute when their
//!   hearing-closure footprints are disjoint, their deadlines coincide,
//!   and at most one spends adversary budget ([`World::independent`]).
//!   After exploring event `a`, every later sibling `b` independent of `a`
//!   carries `a` in its *sleep set*: re-exploring `a` below `b` would
//!   reach exactly the states already covered below `a`, so it is skipped
//!   ([`CheckStats::sleep_skips`]). The memo stores each state's sleep set
//!   (in canonical labels); a revisit is covered only if the stored set is
//!   a subset of the current one, otherwise the state is re-entered with
//!   the intersection so no interleaving is lost.
//! * **Symmetry.** Topologies declare a station-permutation group
//!   ([`crate::SymPerm`]); canonical states are normalized to the
//!   lexicographically-least image under the group before memo lookup, so
//!   states that differ only by a relabeling of indistinguishable stations
//!   dedup against each other. Sleep sets cross the quotient through the
//!   same permutation.
//! * **Reception-order (Foata).** Receivers of one flight that cannot hear
//!   each other react to the delivery without interacting; only the
//!   ascending-sorted representative of each commutation class of delivery
//!   orders is enumerated ([`World::choices_reduced`]).
//!
//! # Parallel exploration
//!
//! [`check_fan`] splits each deepening pass at a fixed shallow depth
//! ([`CheckConfig::split_depth`]): the serial expansion phase explores to
//! that depth, memo-deduping split-frontier states, and emits one job per
//! surviving subtree. Jobs run through a caller-supplied fan (the bench
//! crate passes `macaw_core::Executor`, the shared-cursor pool) and merge
//! in job-index order — stats are summed over *all* jobs and the first
//! violating job supplies the counterexample, so the report is bitwise
//! identical for any worker count. The one behavioral seam: a
//! progress-free cycle that crosses the split boundary is caught one full
//! cycle later, inside the job's own path set, which can require one extra
//! `depth_step` of bound — the same for every worker count.

use std::fmt;
use std::sync::Arc;

use macaw_mac::config::TIMEOUT_MARGIN;
use macaw_mac::context::MacFeedback;
use macaw_mac::harness::Action;
use macaw_mac::{MacInvariantViolation, MacProtocol, MacSnapshot};
use macaw_sim::{SimDuration, SimTime, TieBand};

use crate::key::{KeyMap, StateKey};
use crate::topology::Topology;
use crate::world::{CanonBufs, FaultClass, World, WorldEvent};

/// What the terminal states must satisfy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expectation {
    /// Every offered packet is delivered to its receiver (and resolved at
    /// its sender). The right demand for protocols with a reliable
    /// exchange on topologies where every flow can physically complete.
    DeliverAll,
    /// Every offered packet is resolved at its sender (sent or cleanly
    /// dropped), but delivery is not demanded. The right demand for CSMA —
    /// whose collisions are silent, the paper's core criticism — and for
    /// asymmetric links where no exchange can complete.
    ResolveAll,
}

/// Concurrency window: deadlines within this epsilon of the earliest one
/// are explored in every order. Half the MAC's [`TIMEOUT_MARGIN`], so
/// strictly inside it: the margin exists precisely so that a response
/// arriving on time is processed before the timeout that guards it, so
/// deadlines a full margin apart are ordered even on real hardware —
/// while anything closer (and in particular exact ties, like two stations
/// drawing the same contention slot) is fair game for reordering.
pub const TIE_EPSILON: SimDuration = SimDuration::from_nanos(TIMEOUT_MARGIN.as_nanos() / 2);

/// Exploration parameters.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// The fault adversary active during exploration.
    pub fault: FaultClass,
    /// Base RNG seed; station `i` draws from `seed ^ class(i) * φ64`,
    /// where `class(i)` is `i`'s symmetry orbit representative (the
    /// station index itself on topologies without declared symmetry).
    pub seed: u64,
    /// Final depth bound of the deepening schedule.
    pub max_depth: u32,
    /// Deepening increment.
    pub depth_step: u32,
    /// Terminal-state demand.
    pub expectation: Expectation,
    /// Enable the sound reductions (sleep-set partial order, symmetry
    /// quotient, reception-order filtering). `false` is the historical
    /// explorer, kept bit-identical as the validation oracle.
    pub reduce: bool,
    /// When non-zero, [`check_fan`] splits each pass deeper than this
    /// value at exactly this depth and fans the subtrees out as jobs.
    /// Zero means fully serial. The report is identical for any worker
    /// count at a fixed `split_depth`; changing `split_depth` changes
    /// per-job memo locality and hence the stats.
    pub split_depth: u32,
    /// Abort the search once this many transitions have been applied,
    /// marking the report [`CheckReport::exhausted`]. A serial-oracle
    /// knob: the bench uses it to bound the unreduced baseline and record
    /// "infeasible under budget" instead of hanging. With `split_depth`
    /// jobs the budget is applied per subtree, not globally.
    pub state_budget: Option<u64>,
}

impl CheckConfig {
    /// Defaults: seed 1, depth 64 in steps of 8, reductions off, serial,
    /// unbounded.
    pub fn new(fault: FaultClass, expectation: Expectation) -> Self {
        CheckConfig {
            fault,
            seed: 1,
            max_depth: 64,
            depth_step: 8,
            expectation,
            reduce: false,
            split_depth: 0,
            state_budget: None,
        }
    }

    /// The same check with all reductions enabled.
    pub fn reduced(mut self) -> Self {
        self.reduce = true;
        self
    }
}

/// Why a run was rejected.
#[derive(Clone, Debug)]
pub enum ViolationKind {
    /// Quiescent world (no timers, nothing on the air) with unresolved
    /// packets: nothing can ever happen again.
    Deadlock { resolved: u32, offered: u32 },
    /// A station wedged in a state it cannot leave.
    StuckWait { station: usize, detail: String },
    /// A progress-free cycle of control-frame exchanges.
    Livelock,
    /// Terminal state with undelivered packets under
    /// [`Expectation::DeliverAll`].
    Undelivered { delivered: u32, offered: u32 },
    /// A MAC state machine broke one of its own invariants.
    Invariant(MacInvariantViolation),
}

/// One step of a counterexample: the chosen event, when it happened, what
/// the stations did in response, and every station's state afterwards.
#[derive(Clone, Debug)]
pub struct TraceStep {
    pub at: SimTime,
    pub event: WorldEvent,
    pub actions: Vec<(usize, Action)>,
    pub states: Vec<&'static str>,
}

/// A property violation with its minimal counterexample trace (the exact
/// event sequence from the initial state).
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    pub trace: Vec<TraceStep>,
}

/// Exploration statistics, accumulated over all deepening passes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckStats {
    /// Transitions applied.
    pub states_explored: u64,
    /// Revisits pruned by the canonical-state memo.
    pub dedup_hits: u64,
    /// Terminal (quiescent) states checked.
    pub terminals: u64,
    /// The best delivery count seen at any terminal: `best_delivered ==
    /// offered` proves full delivery is *reachable* even when an
    /// adversarial interleaving can prevent it (collision cascades can
    /// exhaust any finite retry budget, so `DeliverAll` is unprovable on
    /// collision-prone topologies — but a protocol that can never deliver
    /// is worse than one that merely can be starved).
    pub best_delivered: u32,
    /// Paths cut short by the depth bound.
    pub bound_hits: u64,
    /// Deepest path actually followed.
    pub max_depth_reached: u32,
    /// Deepening passes run.
    pub iterations: u32,
    /// Events skipped because they were in the sleep set (already covered
    /// below an independent sibling). Zero when reductions are off.
    pub sleep_skips: u64,
}

impl CheckStats {
    /// Fold a subtree's statistics into this accumulator: counters sum,
    /// `best_delivered` maxes, and the subtree's depth-relative
    /// `max_depth_reached` is rebased by `depth_offset` (the length of the
    /// prefix that led to the subtree root). `iterations` is owned by the
    /// deepening driver and is not merged.
    pub fn absorb(&mut self, o: &CheckStats, depth_offset: u32) {
        self.states_explored += o.states_explored;
        self.dedup_hits += o.dedup_hits;
        self.terminals += o.terminals;
        self.best_delivered = self.best_delivered.max(o.best_delivered);
        self.bound_hits += o.bound_hits;
        self.max_depth_reached = self
            .max_depth_reached
            .max(o.max_depth_reached + depth_offset);
        self.sleep_skips += o.sleep_skips;
    }
}

/// The outcome of checking one protocol on one topology.
#[derive(Clone, Debug)]
pub struct CheckReport {
    pub protocol: String,
    pub topology: &'static str,
    pub fault: FaultClass,
    pub expectation: Expectation,
    /// `None` — all properties hold up to the bound.
    pub violation: Option<Violation>,
    pub stats: CheckStats,
    /// `true` iff some pass explored every path to a terminal without
    /// hitting its depth bound: the verdict is exhaustive, not bounded.
    pub complete: bool,
    /// `true` iff the search was cut off by [`CheckConfig::state_budget`]
    /// — the space is infeasible under that budget and the verdict is
    /// only "no violation within the explored prefix".
    pub exhausted: bool,
}

impl CheckReport {
    /// No violation found.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// The result of exploring one split subtree: opaque to callers, produced
/// and merged by [`check_fan`], transported by the caller's fan function.
pub struct SubtreeOut {
    stats: CheckStats,
    violation: Option<Violation>,
    pass_bound_hits: u64,
    exhausted: bool,
}

/// Explore `topo` under `cfg` for the protocol built by `make` (one
/// instance per station index), fully serially. Deterministic: identical
/// inputs give an identical report, down to the states-explored count.
pub fn check<P>(
    protocol: &str,
    topo: &Topology,
    cfg: &CheckConfig,
    make: impl Fn(usize) -> P,
) -> CheckReport
where
    P: MacProtocol + MacSnapshot + Clone + Sync,
{
    check_fan(protocol, topo, cfg, make, |n, f| (0..n).map(f).collect())
}

/// [`check`] with a caller-supplied fan for the split-frontier jobs. `fan`
/// receives the job count and a job runner and must return exactly one
/// output per job, **in job-index order** — any execution strategy with
/// that contract (serial loop, `macaw_core::Executor` in the bench crate)
/// yields a bitwise-identical report. With [`CheckConfig::split_depth`]
/// zero the fan is never invoked.
pub fn check_fan<P, F>(
    protocol: &str,
    topo: &Topology,
    cfg: &CheckConfig,
    make: impl Fn(usize) -> P,
    fan: F,
) -> CheckReport
where
    P: MacProtocol + MacSnapshot + Clone + Sync,
    F: Fn(usize, &(dyn Fn(usize) -> SubtreeOut + Sync)) -> Vec<SubtreeOut>,
{
    let band = TieBand::new(TIE_EPSILON);
    let mut stats = CheckStats::default();
    let mut violation = None;
    let mut complete = false;
    let mut exhausted = false;
    let topo = Arc::new(topo.clone());

    let mut depth = cfg.depth_step.max(1);
    loop {
        depth = depth.min(cfg.max_depth);
        stats.iterations += 1;
        let split_at = (cfg.split_depth > 0 && depth > cfg.split_depth)
            .then_some(cfg.split_depth);

        let mut root = World::new(Arc::clone(&topo), cfg.fault, band, cfg.seed, &make);
        let mut dfs = Dfs::new(&mut stats, cfg, split_at);
        let outcome = match root.inject() {
            Err(v) => Err(dfs.violation(ViolationKind::Invariant(v))),
            Ok(()) => dfs.visit(&root, depth, Vec::new()),
        };
        let mut pass_bound_hits = dfs.bound_hits_this_pass;
        exhausted |= dfs.exhausted;
        let jobs = std::mem::take(&mut dfs.jobs);
        drop(dfs);
        if let Err(v) = outcome {
            violation = Some(v);
            break;
        }

        if !jobs.is_empty() {
            let job_cfg = *cfg;
            let runner = |i: usize| run_job(&jobs[i], &job_cfg);
            let outs = fan(jobs.len(), &runner);
            assert_eq!(
                outs.len(),
                jobs.len(),
                "fan must return one output per job"
            );
            // Merge in job-index order, absorbing every job's stats even
            // past a violation (the fan ran them all), so the counts do
            // not depend on worker scheduling.
            for (job, out) in jobs.iter().zip(&outs) {
                stats.absorb(&out.stats, job.prefix.len() as u32);
                pass_bound_hits += out.pass_bound_hits;
                exhausted |= out.exhausted;
            }
            if let Some((job, out)) = jobs
                .iter()
                .zip(&outs)
                .find(|(_, out)| out.violation.is_some())
            {
                let v = out.violation.clone().expect("found violating job");
                violation = Some(Violation {
                    kind: v.kind,
                    trace: job.prefix.iter().cloned().chain(v.trace).collect(),
                });
                break;
            }
        }

        if exhausted {
            break;
        }
        if pass_bound_hits == 0 {
            complete = true;
            break;
        }
        if depth >= cfg.max_depth {
            break;
        }
        depth += cfg.depth_step.max(1);
    }

    CheckReport {
        protocol: protocol.to_string(),
        topology: topo.name,
        fault: cfg.fault,
        expectation: cfg.expectation,
        violation,
        stats,
        complete,
        exhausted,
    }
}

/// One split-frontier subtree: the world at the split node, the sleep set
/// it was reached with, the remaining depth, and the trace prefix that
/// led there (rebases job-local counterexamples and depths).
struct Job<P: MacProtocol + MacSnapshot> {
    world: World<P>,
    sleep: Vec<WorldEvent>,
    depth_left: u32,
    prefix: Vec<TraceStep>,
}

fn run_job<P>(job: &Job<P>, cfg: &CheckConfig) -> SubtreeOut
where
    P: MacProtocol + MacSnapshot + Clone,
{
    let mut stats = CheckStats::default();
    let mut dfs = Dfs::new(&mut stats, cfg, None);
    let outcome = dfs.visit(&job.world, job.depth_left, job.sleep.clone());
    let pass_bound_hits = dfs.bound_hits_this_pass;
    let exhausted = dfs.exhausted;
    drop(dfs);
    SubtreeOut {
        stats,
        violation: outcome.err(),
        pass_bound_hits,
        exhausted,
    }
}

/// Memo value: the remaining depth a canonical state was explored under
/// and the sleep set (canonical labels, sorted) it was explored *with*.
/// The state's outgoing events not in that sleep set are covered to that
/// depth; a revisit is prunable only if its own sleep set would skip at
/// most what the stored visit skipped.
struct MemoEntry {
    depth: u32,
    sleep: Vec<WorldEvent>,
}

struct Dfs<'a, P: MacProtocol + MacSnapshot> {
    memo: KeyMap<MemoEntry>,
    /// Keys of the states on the current path, root first. At most one
    /// per level of the depth bound; a scan compares stored hashes first.
    path: Vec<StateKey>,
    /// Encoding buffer reused by every [`StateKey::new`].
    scratch: Vec<u8>,
    /// Canonical-state buffers every visit refills.
    canon: CanonBufs<P::Snap>,
    /// Spare child worlds, one per depth below the visit in progress: a
    /// visit pops one, refills it from its own world with `clone_from`
    /// for each choice, and pushes it back, so each depth keeps reusing
    /// the same buffers.
    spare: Vec<World<P>>,
    trace: Vec<TraceStep>,
    stats: &'a mut CheckStats,
    expectation: Expectation,
    reduce: bool,
    bound_hits_this_pass: u64,
    split_at: Option<u32>,
    jobs: Vec<Job<P>>,
    state_budget: Option<u64>,
    exhausted: bool,
}

/// `a ⊆ b` for sorted, deduplicated event lists.
fn subset(a: &[WorldEvent], b: &[WorldEvent]) -> bool {
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// `a ∩ b` for sorted event lists.
fn intersect(a: &[WorldEvent], b: &[WorldEvent]) -> Vec<WorldEvent> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl<'a, P> Dfs<'a, P>
where
    P: MacProtocol + MacSnapshot + Clone,
{
    fn new(stats: &'a mut CheckStats, cfg: &CheckConfig, split_at: Option<u32>) -> Self {
        Dfs {
            memo: KeyMap::default(),
            path: Vec::new(),
            scratch: Vec::new(),
            canon: CanonBufs::default(),
            spare: Vec::new(),
            trace: Vec::new(),
            stats,
            expectation: cfg.expectation,
            reduce: cfg.reduce,
            bound_hits_this_pass: 0,
            split_at,
            jobs: Vec::new(),
            state_budget: cfg.state_budget,
            exhausted: false,
        }
    }

    /// Explore `w` with `depth_left` remaining depth. `sleep` is the
    /// sleep set in the world's own station labels: events already covered
    /// below an independent sibling of the path that led here.
    fn visit(
        &mut self,
        w: &World<P>,
        depth_left: u32,
        sleep: Vec<WorldEvent>,
    ) -> Result<(), Violation> {
        if self.exhausted {
            self.bound_hits_this_pass += 1;
            self.stats.bound_hits += 1;
            return Ok(());
        }
        if let Some((station, detail)) = w.stuck() {
            return Err(self.violation(ViolationKind::StuckWait { station, detail }));
        }
        let choices = if self.reduce {
            w.choices_reduced()
        } else {
            w.choices()
        };
        if choices.is_empty() {
            self.stats.terminals += 1;
            self.stats.best_delivered = self.stats.best_delivered.max(w.delivered);
            if w.resolved < w.offered {
                return Err(self.violation(ViolationKind::Deadlock {
                    resolved: w.resolved,
                    offered: w.offered,
                }));
            }
            if self.expectation == Expectation::DeliverAll && w.delivered < w.offered {
                return Err(self.violation(ViolationKind::Undelivered {
                    delivered: w.delivered,
                    offered: w.offered,
                }));
            }
            return Ok(());
        }
        if depth_left == 0 {
            self.bound_hits_this_pass += 1;
            self.stats.bound_hits += 1;
            return Ok(());
        }

        // Canonical state: symmetry-minimal when reducing (with `pi` the
        // minimizing group element, through which sleep sets are mapped
        // into canonical labels), plain otherwise.
        let pi = if self.reduce {
            w.canon_min_into(&mut self.canon)
        } else {
            w.canon_into(&mut self.canon.min);
            0
        };
        let key = StateKey::new(&self.canon.min, &mut self.scratch);
        if self.path.contains(&key) {
            return Err(self.violation(ViolationKind::Livelock));
        }

        let mut sleep_key: Vec<WorldEvent> = if self.reduce {
            let p = &w.topology().sym[pi];
            sleep.iter().map(|e| e.relabel(p)).collect()
        } else {
            sleep.clone()
        };
        sleep_key.sort();

        // In the world's own labels, the events this visit may skip.
        let mut effective_sleep = sleep;
        // In canonical labels, what the memo will claim was skipped.
        let mut store_sleep = sleep_key;
        match self.memo.get(&key) {
            Some(entry) if entry.depth >= depth_left => {
                if subset(&entry.sleep, &store_sleep) {
                    // The stored visit skipped at most what we would skip:
                    // everything we would explore is already covered.
                    self.stats.dedup_hits += 1;
                    return Ok(());
                }
                // Partially covered: re-enter sleeping only on events both
                // visits agree to skip, and record that (conservatively at
                // this visit's depth — a single entry cannot express
                // mixed-depth coverage).
                let inter = intersect(&entry.sleep, &store_sleep);
                effective_sleep = if self.reduce {
                    let inv = w.topology().sym[pi].inverse();
                    inter.iter().map(|e| e.relabel(&inv)).collect()
                } else {
                    inter.clone()
                };
                store_sleep = inter;
            }
            _ => {}
        }

        // Split node: hand the subtree to a job instead of descending.
        // The memo entry dedups later expansion paths into this state;
        // the job re-explores with its own fresh memo and path, so a
        // cycle crossing the boundary is still caught (one lap later).
        if let Some(split) = self.split_at {
            if self.trace.len() as u32 == split {
                self.memo.insert(
                    key,
                    MemoEntry {
                        depth: depth_left,
                        sleep: store_sleep,
                    },
                );
                self.jobs.push(Job {
                    world: w.clone(),
                    sleep: effective_sleep,
                    depth_left,
                    prefix: self.trace.clone(),
                });
                return Ok(());
            }
        }

        self.path.push(key);

        let mut result = Ok(());
        let mut done: Vec<WorldEvent> = Vec::new();
        let mut child = self.spare.pop().unwrap_or_else(|| w.clone());
        for ev in choices {
            if self.reduce && effective_sleep.contains(&ev) {
                self.stats.sleep_skips += 1;
                continue;
            }
            let child_sleep = if self.reduce {
                effective_sleep
                    .iter()
                    .chain(done.iter())
                    .filter(|f| w.independent(f, &ev))
                    .cloned()
                    .collect()
            } else {
                Vec::new()
            };
            child.clone_from(w);
            match child.apply(&ev) {
                Err(v) => {
                    self.trace.push(TraceStep {
                        at: child.clock(),
                        event: ev,
                        actions: Vec::new(),
                        states: child.state_kinds(),
                    });
                    result = Err(self.violation(ViolationKind::Invariant(v)));
                    break;
                }
                Ok(actions) => {
                    self.stats.states_explored += 1;
                    if let Some(budget) = self.state_budget {
                        if self.stats.states_explored >= budget {
                            self.exhausted = true;
                        }
                    }
                    self.trace.push(TraceStep {
                        at: child.clock(),
                        event: ev.clone(),
                        actions,
                        states: child.state_kinds(),
                    });
                    self.stats.max_depth_reached =
                        self.stats.max_depth_reached.max(self.trace.len() as u32);
                    let r = self.visit(&child, depth_left - 1, child_sleep);
                    self.trace.pop();
                    if r.is_err() {
                        result = r;
                        break;
                    }
                    if self.reduce {
                        done.push(ev);
                    }
                }
            }
        }
        self.spare.push(child);

        let key = self.path.pop().expect("this visit's key tops the path");
        if result.is_ok() && !self.exhausted {
            self.memo.insert(
                key,
                MemoEntry {
                    depth: depth_left,
                    sleep: store_sleep,
                },
            );
        }
        result
    }

    fn violation(&self, kind: ViolationKind) -> Violation {
        Violation {
            kind,
            trace: self.trace.clone(),
        }
    }
}

impl fmt::Display for WorldEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldEvent::Fire { station, blind } => {
                write!(f, "timer fires at station {station}")?;
                if *blind {
                    write!(f, " (carrier sense blinded)")?;
                }
                Ok(())
            }
            WorldEvent::FlightEnd {
                src,
                order,
                lost,
                noise,
            } => {
                write!(f, "station {src}'s transmission ends")?;
                if *noise {
                    write!(f, " (corrupted by noise)")?;
                } else if order.is_empty() && lost.is_empty() {
                    write!(f, " (no clean receiver)")?;
                } else if !order.is_empty() {
                    write!(f, ", received by {order:?}")?;
                }
                if !lost.is_empty() {
                    write!(f, ", lost at {lost:?}")?;
                }
                Ok(())
            }
        }
    }
}

fn fmt_action(f: &mut fmt::Formatter<'_>, station: usize, a: &Action) -> fmt::Result {
    match a {
        Action::Transmit(frame) => writeln!(
            f,
            "      station {station}: transmit {:?} {:?} -> {:?}",
            frame.kind, frame.src, frame.dst
        ),
        Action::DeliverUp { src, sdu } => writeln!(
            f,
            "      station {station}: deliver seq {} from {src:?}",
            sdu.transport_seq
        ),
        Action::Feedback(fb) => {
            let (what, seq) = match fb {
                MacFeedback::Sent { transport_seq, .. } => ("sent", transport_seq),
                MacFeedback::Dropped { transport_seq, .. } => ("dropped", transport_seq),
                MacFeedback::Refused { transport_seq, .. } => ("refused", transport_seq),
            };
            writeln!(f, "      station {station}: packet seq {seq} {what}")
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Deadlock { resolved, offered } => write!(
                f,
                "deadlock: world is quiescent with {resolved}/{offered} packets resolved"
            ),
            ViolationKind::StuckWait { station, detail } => {
                write!(f, "stuck wait at station {station}: {detail}")
            }
            ViolationKind::Livelock => write!(f, "livelock: progress-free cycle revisits a state"),
            ViolationKind::Undelivered { delivered, offered } => write!(
                f,
                "terminal state delivered only {delivered}/{offered} packets"
            ),
            ViolationKind::Invariant(v) => write!(f, "invariant violation: {v}"),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.kind)?;
        writeln!(f, "counterexample ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            // SimTime's Debug form already carries the "t=" prefix.
            writeln!(
                f,
                "  {:>3}. {:>12} {}  => [{}]",
                i + 1,
                format!("{:?}", step.at),
                step.event,
                step.states.join(", ")
            )?;
            for (station, a) in &step.actions {
                fmt_action(f, *station, a)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} under {:?} ({:?}): ",
            self.protocol, self.topology, self.fault, self.expectation
        )?;
        match &self.violation {
            None => write!(
                f,
                "{} — {} states, {} dedup hits, {} sleep skips, {} terminals, depth {}",
                if self.complete {
                    "proved (exhaustive)"
                } else if self.exhausted {
                    "state budget exhausted"
                } else {
                    "no violation up to bound"
                },
                self.stats.states_explored,
                self.stats.dedup_hits,
                self.stats.sleep_skips,
                self.stats.terminals,
                self.stats.max_depth_reached,
            ),
            Some(v) => write!(f, "VIOLATION\n{v}"),
        }
    }
}
