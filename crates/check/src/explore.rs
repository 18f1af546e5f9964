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
//! state as a flat byte key, encoded and hashed in one walk per visit into
//! the memo's arena; keys are equal exactly when the canonical states are,
//! so the encoding never changes what the search finds.
//!
//! The search keeps its choices and sleep sets in per-depth buffers and
//! remembers only which event it chose at each depth. A violation's trace
//! is rebuilt by replaying those events from the pass root, so no step
//! records actions or state names until a counterexample needs them.
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
//! violating job supplies the counterexample (replayed through the job's
//! prefix, the events from the pass root to its split node), so the
//! report is bitwise identical for any worker count. The one behavioral
//! seam: a progress-free cycle that crosses the split boundary is caught
//! one full cycle later, inside the job's own path set, which can require
//! one extra `depth_step` of bound — the same for every worker count.

use std::fmt;
use std::sync::Arc;

use macaw_mac::config::TIMEOUT_MARGIN;
use macaw_mac::context::MacFeedback;
use macaw_mac::harness::Action;
use macaw_mac::{MacInvariantViolation, MacProtocol, MacSnapshot};
use macaw_sim::{SimDuration, SimTime, TieBand};

use crate::key::{KeyMap, StateKey};
use crate::topology::Topology;
use crate::world::{CanonBufs, EventBuf, FaultClass, World, WorldEvent};

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
    violation: Option<Found>,
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
            Err(v) => Err(Found {
                kind: ViolationKind::Invariant(v),
                events: Vec::new(),
            }),
            Ok(()) => dfs.search(&root, depth, &[]),
        };
        let mut pass_bound_hits = dfs.bound_hits_this_pass;
        exhausted |= dfs.exhausted;
        let jobs = std::mem::take(&mut dfs.jobs);
        drop(dfs);
        if let Err(found) = outcome {
            violation = Some(replay(&root, found.kind, &found.events));
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
            if let Some((job, found)) = jobs
                .iter()
                .zip(outs)
                .find_map(|(job, out)| Some((job, out.violation?)))
            {
                let events: Vec<WorldEvent> =
                    job.prefix.iter().cloned().chain(found.events).collect();
                violation = Some(replay(&root, found.kind, &events));
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
/// it was reached with, the remaining depth, and the events that led there
/// from the pass root (rebases job-local depths and counterexamples).
struct Job<P: MacProtocol + MacSnapshot> {
    world: World<P>,
    sleep: Vec<WorldEvent>,
    depth_left: u32,
    prefix: Vec<WorldEvent>,
}

fn run_job<P>(job: &Job<P>, cfg: &CheckConfig) -> SubtreeOut
where
    P: MacProtocol + MacSnapshot + Clone,
{
    let mut stats = CheckStats::default();
    let mut dfs = Dfs::new(&mut stats, cfg, None);
    let outcome = dfs.search(&job.world, job.depth_left, &job.sleep);
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

/// A violation as a search finds it: its kind and the events that lead to
/// it from the search's root. [`replay`] turns it into a [`Violation`].
struct Found {
    kind: ViolationKind,
    events: Vec<WorldEvent>,
}

/// Rebuild a counterexample by replaying `events` from `root`: each step
/// records its time, the stations' actions and their states after it. A
/// transition that breaks a MAC invariant ends the trace with no actions
/// and the states the failure left.
fn replay<P>(root: &World<P>, kind: ViolationKind, events: &[WorldEvent]) -> Violation
where
    P: MacProtocol + MacSnapshot + Clone,
{
    let mut w = root.clone();
    let mut trace = Vec::with_capacity(events.len());
    for event in events {
        let mut actions = Vec::new();
        let applied = w.apply(event, |s, a| actions.push((s, *a)));
        if applied.is_err() {
            actions.clear();
        }
        trace.push(TraceStep {
            at: w.clock(),
            event: event.clone(),
            actions,
            states: w.state_kinds(),
        });
        if applied.is_err() {
            break;
        }
    }
    Violation { kind, trace }
}

/// Memo value: the remaining depth a canonical state was explored under
/// and the sleep set (canonical labels, sorted) it was explored *with*.
/// The state's outgoing events not in that sleep set are covered to that
/// depth; a revisit is prunable only if its own sleep set would skip at
/// most what the stored visit skipped. An empty set owns no heap block.
struct MemoEntry {
    depth: u32,
    sleep: Box<[WorldEvent]>,
}

/// The buffers of one search depth, refilled by every visit at that
/// depth and left alone below it.
#[derive(Default)]
struct Level {
    /// The visit's enabled events.
    choices: EventBuf,
    /// The index in `choices` of the event explored below this depth.
    chosen: usize,
    /// The sleep set the visit arrived with, in the world's own labels
    /// (the parent fills it); after a partially covering memo hit, the
    /// events this visit may skip.
    sleep: EventBuf,
    /// In canonical labels and sorted, what the memo will claim was
    /// skipped.
    key: EventBuf,
    /// The events already explored from this visit.
    done: EventBuf,
}

struct Dfs<'a, P: MacProtocol + MacSnapshot> {
    /// The memo; its arena also holds the keys on the path.
    memo: KeyMap<MemoEntry>,
    /// Keys of the states on the current path, root first. At most one
    /// per level of the depth bound; a scan compares stored hashes first.
    path: Vec<StateKey>,
    /// Canonical-state buffers every visit refills.
    canon: CanonBufs<P::Snap>,
    /// Spare child worlds, one per depth below the visit in progress: a
    /// visit pops one, refills it from its own world with `clone_from`
    /// for each choice, and pushes it back, so each depth keeps reusing
    /// the same buffers.
    spare: Vec<World<P>>,
    /// Per-depth choices and sleep sets, indexed by the visit's depth
    /// below the search root. The chosen events of `levels[..d]` are the
    /// path to a visit at depth `d`.
    levels: Vec<Level>,
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

/// `a ∩ b` for sorted event lists, refilled into `out`.
fn intersect(a: &[WorldEvent], b: &[WorldEvent], out: &mut EventBuf) {
    let (mut i, mut j) = (0, 0);
    out.clear();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push_clone(&a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

impl<'a, P> Dfs<'a, P>
where
    P: MacProtocol + MacSnapshot + Clone,
{
    fn new(stats: &'a mut CheckStats, cfg: &CheckConfig, split_at: Option<u32>) -> Self {
        Dfs {
            memo: KeyMap::default(),
            path: Vec::new(),
            canon: CanonBufs::default(),
            spare: Vec::new(),
            levels: vec![Level::default()],
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

    /// Explore `root` with `depth_left` remaining depth, reached with the
    /// sleep set `sleep` (world labels).
    fn search(
        &mut self,
        root: &World<P>,
        depth_left: u32,
        sleep: &[WorldEvent],
    ) -> Result<(), Found> {
        let first = &mut self.levels[0].sleep;
        first.clear();
        for e in sleep {
            first.push_clone(e);
        }
        self.visit(root, depth_left, 0)
    }

    /// Explore `w`, `d` transitions below the search root, with
    /// `depth_left` remaining depth. `levels[d].sleep` holds the sleep set
    /// in the world's own station labels: events already covered below an
    /// independent sibling of the path that led here.
    fn visit(&mut self, w: &World<P>, depth_left: u32, d: usize) -> Result<(), Found> {
        if self.exhausted {
            self.bound_hits_this_pass += 1;
            self.stats.bound_hits += 1;
            return Ok(());
        }
        if let Some((station, detail)) = w.stuck() {
            return Err(self.found(ViolationKind::StuckWait { station, detail }, d));
        }
        if self.levels.len() < d + 2 {
            self.levels.resize_with(d + 2, Level::default);
        }
        w.choices_into(self.reduce, &mut self.levels[d].choices);
        if self.levels[d].choices.as_slice().is_empty() {
            self.stats.terminals += 1;
            self.stats.best_delivered = self.stats.best_delivered.max(w.delivered);
            if w.resolved < w.offered {
                return Err(self.found(
                    ViolationKind::Deadlock {
                        resolved: w.resolved,
                        offered: w.offered,
                    },
                    d,
                ));
            }
            if self.expectation == Expectation::DeliverAll && w.delivered < w.offered {
                return Err(self.found(
                    ViolationKind::Undelivered {
                        delivered: w.delivered,
                        offered: w.offered,
                    },
                    d,
                ));
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
        // into canonical labels), plain otherwise. Without reduction every
        // sleep set is empty.
        let pi = if self.reduce {
            w.canon_min_into(&mut self.canon)
        } else {
            w.canon_into(&mut self.canon.min);
            0
        };
        let mut key = self.memo.encode(&self.canon.min);
        if self.path.iter().any(|&k| self.memo.same(k, key)) {
            return Err(self.found(ViolationKind::Livelock, d));
        }

        let to_canon = &w.topology().sym[pi].station;
        let level = &mut self.levels[d];
        level.key.clear();
        for e in level.sleep.as_slice() {
            level.key.push_relabeled(e, to_canon);
        }
        level.key.sort();
        if let Some((stored, entry)) = self.memo.get(key) {
            if entry.depth >= depth_left {
                if subset(&entry.sleep, level.key.as_slice()) {
                    // The stored visit skipped at most what we would skip:
                    // everything we would explore is already covered.
                    self.stats.dedup_hits += 1;
                    self.memo.release(key);
                    return Ok(());
                }
                // Partially covered: re-enter sleeping only on events both
                // visits agree to skip, and record that (conservatively at
                // this visit's depth — a single entry cannot express
                // mixed-depth coverage).
                intersect(&entry.sleep, level.key.as_slice(), &mut level.sleep);
                std::mem::swap(&mut level.key, &mut level.sleep);
                let mut to_world = [0; 64];
                for (i, &j) in to_canon.iter().enumerate() {
                    to_world[j] = i;
                }
                level.sleep.clear();
                for e in level.key.as_slice() {
                    level.sleep.push_relabeled(e, &to_world);
                }
            }
            // The state is stored: use the stored bytes.
            self.memo.release(key);
            key = stored;
        }

        // Split node: hand the subtree to a job instead of descending.
        // The memo entry dedups later expansion paths into this state;
        // the job re-explores with its own fresh memo and path, so a
        // cycle crossing the boundary is still caught (one lap later).
        if self.split_at == Some(d as u32) {
            let level = &self.levels[d];
            let sleep = level.key.as_slice().into();
            let job_sleep = level.sleep.as_slice().to_vec();
            self.memo.insert(
                key,
                MemoEntry {
                    depth: depth_left,
                    sleep,
                },
            );
            let prefix = self.path_events(d);
            self.jobs.push(Job {
                world: w.clone(),
                sleep: job_sleep,
                depth_left,
                prefix,
            });
            return Ok(());
        }

        self.path.push(key);

        let mut result = Ok(());
        self.levels[d].done.clear();
        let mut child = self.spare.pop().unwrap_or_else(|| w.clone());
        for i in 0..self.levels[d].choices.as_slice().len() {
            let (upper, lower) = self.levels.split_at_mut(d + 1);
            let level = &mut upper[d];
            let ev = &level.choices.as_slice()[i];
            if self.reduce && level.sleep.as_slice().contains(ev) {
                self.stats.sleep_skips += 1;
                continue;
            }
            let child_sleep = &mut lower[0].sleep;
            child_sleep.clear();
            if self.reduce {
                for f in level.sleep.as_slice().iter().chain(level.done.as_slice()) {
                    if w.independent(f, ev) {
                        child_sleep.push_clone(f);
                    }
                }
            }
            level.chosen = i;
            child.clone_from(w);
            if let Err(v) = child.apply(ev, |_, _| {}) {
                result = Err(self.found(ViolationKind::Invariant(v), d + 1));
                break;
            }
            self.stats.states_explored += 1;
            if let Some(budget) = self.state_budget {
                if self.stats.states_explored >= budget {
                    self.exhausted = true;
                }
            }
            self.stats.max_depth_reached = self.stats.max_depth_reached.max(d as u32 + 1);
            let r = self.visit(&child, depth_left - 1, d + 1);
            if r.is_err() {
                result = r;
                break;
            }
            if self.reduce {
                let level = &mut self.levels[d];
                level.done.push_clone(&level.choices.as_slice()[i]);
            }
        }
        self.spare.push(child);

        let key = self.path.pop().expect("this visit's key tops the path");
        if result.is_ok() && !self.exhausted {
            let sleep = self.levels[d].key.as_slice().into();
            self.memo.insert(
                key,
                MemoEntry {
                    depth: depth_left,
                    sleep,
                },
            );
        }
        result
    }

    /// The events chosen on the path to a visit at depth `d`.
    fn path_events(&self, d: usize) -> Vec<WorldEvent> {
        self.levels[..d]
            .iter()
            .map(|l| l.choices.as_slice()[l.chosen].clone())
            .collect()
    }

    /// A violation at a visit at depth `d` (for an invariant, the depth
    /// the failing transition leads to).
    fn found(&self, kind: ViolationKind, d: usize) -> Found {
        Found {
            kind,
            events: self.path_events(d),
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
