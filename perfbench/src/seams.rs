//! Every seam the benchmark attaches to, in one place.
//!
//! The traced run measures each layer from outside, through public seams
//! that already exist:
//!
//! * the `Medium` trait, via [`TimedMedium`] passed to
//!   `Scenario::build_with_queue::<M, _>`;
//! * the `Fel`/`FelChoice` family, via [`TimedLadder`] (a timing wrapper
//!   around the default ladder backend) passed to the same call;
//! * the checker's generic `P: MacProtocol + MacSnapshot`, via
//!   [`TimedMac`] handed to `macaw_check::check_fan(.., make, ..)`;
//! * the public counters in `RunReport` (`events_processed`,
//!   `mac_stats`), `MediumStats` and `CheckReport`, read after the run.
//!
//! The wrappers keep their counters in a thread-local [`Recorder`], outside
//! the wrapped values: `MacSnapshot::relabel` has no receiver, and the
//! checker clones every MAC per explored state. A clock read costs about as
//! much as a cheap medium call, so each site times a deterministic sample
//! of its calls (every `period`-th one) and scales the sampled self time by
//! the exact call count.
//!
//! [`build_traced`] and [`check_traced`] are the only places that choose
//! the instrumented types; the timed end-to-end run never touches this
//! module.

use std::cell::RefCell;
use std::time::Instant;

use macaw_check::{check_fan, CheckConfig, CheckReport, SubtreeOut, Topology};
use macaw_core::{Network, Scenario, SimError};
use macaw_mac::wmac::MacStats;
use macaw_mac::{Addr, Frame, MacContext, MacProtocol, MacResult, MacSdu, MacSnapshot, Relabeling};
use macaw_phy::{Delivery, Medium, MediumStats, Point, Propagation, SparseMedium, StationId, TxId};
use macaw_sim::{Fel, FelChoice, LadderQueue, SimRng, SimTime};

/// A timed call site: one seam method family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    /// `Fel::push`, `Fel::pop` and `Fel::peek` on the event list.
    FelOp,
    /// `Medium::start_tx`.
    StartTx,
    /// `Medium::end_tx` and `Medium::end_tx_into`.
    EndTx,
    /// `Medium::set_positions` and `Medium::set_position`.
    SetPositions,
    /// `Medium::carrier_busy`.
    CarrierBusy,
    /// The checker's MAC transitions: `enqueue`, `on_receive`, `on_timer`,
    /// `on_tx_end`.
    MacStep,
    /// `MacSnapshot::snapshot`.
    MacSnapshot,
    /// `MacSnapshot::relabel`.
    MacRelabel,
}

impl Site {
    pub const ALL: [Site; 8] = [
        Site::FelOp,
        Site::StartTx,
        Site::EndTx,
        Site::SetPositions,
        Site::CarrierBusy,
        Site::MacStep,
        Site::MacSnapshot,
        Site::MacRelabel,
    ];

    /// Every `period`-th call is timed. A move batch is costly enough to
    /// time every call; the cheap sites are sampled.
    fn period(self) -> u64 {
        match self {
            Site::SetPositions => 1,
            Site::StartTx | Site::EndTx => 4,
            Site::FelOp => 16,
            Site::CarrierBusy | Site::MacStep | Site::MacSnapshot | Site::MacRelabel => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Site::FelOp => "sim.fel",
            Site::StartTx => "phy.start_tx",
            Site::EndTx => "phy.end_tx",
            Site::SetPositions => "phy.set_positions",
            Site::CarrierBusy => "phy.carrier_busy",
            Site::MacStep => "check.mac.step",
            Site::MacSnapshot => "check.mac.snapshot",
            Site::MacRelabel => "check.mac.relabel",
        }
    }
}

/// One timed call, relative to the start of the traced pass.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub site: Site,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Exact counts and sampled spans of one traced pass.
#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    calls: [u64; Site::ALL.len()],
    spans: Vec<Span>,
    fel_pushes: u64,
    fel_pops: u64,
    fel_high_water: usize,
    rx_clean: u64,
    rx_all: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Run `f` as a call of `site`: count it, and time it if it is sampled.
#[inline]
fn timed<R>(site: Site, f: impl FnOnce() -> R) -> R {
    let sampled = REC.with(|r| {
        let mut r = r.borrow_mut();
        let c = &mut r.calls[site as usize];
        *c += 1;
        (*c - 1) % site.period() == 0
    });
    if !sampled {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let origin = *r.origin.get_or_insert(t0);
        r.spans.push(Span {
            site,
            start_ns: t0.saturating_duration_since(origin).as_nanos() as u64,
            dur_ns: (t1 - t0).as_nanos() as u64,
        });
    });
    out
}

/// Per-site totals of one traced pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteTotals {
    /// Exact call count.
    pub calls: u64,
    /// Self time in seconds: the sampled spans' mean duration, less one
    /// clock read, times `calls`.
    pub self_s: f64,
}

/// What one traced pass recorded at the seams.
#[derive(Clone, Debug, Default)]
pub struct TraceTotals {
    pub sites: [SiteTotals; Site::ALL.len()],
    pub fel_pushes: u64,
    pub fel_pops: u64,
    pub fel_high_water: usize,
    pub rx_clean: u64,
    pub rx_all: u64,
}

impl TraceTotals {
    pub fn site(&self, s: Site) -> SiteTotals {
        self.sites[s as usize]
    }
}

/// Clear the recorder before a traced pass.
pub fn trace_begin() {
    REC.with(|r| *r.borrow_mut() = Recorder::default());
}

/// End a traced pass: fold the in-memory spans into per-site self times
/// (each span less `clock_ns`, the cost of one clock read) and hand back
/// the spans themselves for writing out.
pub fn trace_end(clock_ns: f64) -> (TraceTotals, Vec<Span>) {
    let rec = REC.with(|r| std::mem::take(&mut *r.borrow_mut()));
    let mut sampled = [(0u64, 0f64); Site::ALL.len()];
    for s in &rec.spans {
        let e = &mut sampled[s.site as usize];
        e.0 += 1;
        e.1 += (s.dur_ns as f64 - clock_ns).max(0.0);
    }
    let mut totals = TraceTotals {
        fel_pushes: rec.fel_pushes,
        fel_pops: rec.fel_pops,
        fel_high_water: rec.fel_high_water,
        rx_clean: rec.rx_clean,
        rx_all: rec.rx_all,
        ..TraceTotals::default()
    };
    for site in Site::ALL {
        let i = site as usize;
        let (n, ns) = sampled[i];
        let calls = rec.calls[i];
        let self_ns = if n == 0 {
            0.0
        } else {
            ns / n as f64 * calls as f64
        };
        totals.sites[i] = SiteTotals {
            calls,
            self_s: self_ns / 1e9,
        };
    }
    (totals, rec.spans)
}

/// The cost of one clock read in ns: the fastest of many back-to-back
/// read pairs, subtracted from every sampled span.
pub fn clock_cost_ns() -> f64 {
    (0..4096)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as u64
        })
        .min()
        .unwrap_or(0) as f64
}

// ---- Medium ---------------------------------------------------------------

/// A `Medium` that forwards every method, including the provided ones
/// (`set_positions`, `end_tx`, `medium_stats`): inheriting a default would
/// swap an implementation's override for the trait's oracle loop.
pub struct TimedMedium<M>(M);

impl<M: Medium> Medium for TimedMedium<M> {
    fn new(prop: Propagation, rng: SimRng) -> Self {
        TimedMedium(M::new(prop, rng))
    }
    fn propagation(&self) -> &Propagation {
        self.0.propagation()
    }
    fn add_station(&mut self, pos: Point) -> StationId {
        self.0.add_station(pos)
    }
    fn station_count(&self) -> usize {
        self.0.station_count()
    }
    fn position(&self, id: StationId) -> Point {
        self.0.position(id)
    }
    fn set_rx_error_rate(&mut self, id: StationId, p: f64) {
        self.0.set_rx_error_rate(id, p)
    }
    fn set_tx_power(&mut self, id: StationId, power: f64) {
        self.0.set_tx_power(id, power)
    }
    fn hears(&self, to: StationId, from: StationId) -> bool {
        self.0.hears(to, from)
    }
    fn set_link_gain(&mut self, src: StationId, dst: StationId, factor: f64) {
        self.0.set_link_gain(src, dst, factor)
    }
    fn link_gain(&self, src: StationId, dst: StationId) -> f64 {
        self.0.link_gain(src, dst)
    }
    fn add_noise_source(&mut self, pos: Point, power: f64) -> usize {
        self.0.add_noise_source(pos, power)
    }
    fn set_noise_active(&mut self, index: usize, active: bool) {
        self.0.set_noise_active(index, active)
    }
    fn set_position(&mut self, id: StationId, pos: Point) {
        timed(Site::SetPositions, || self.0.set_position(id, pos))
    }
    fn set_positions(&mut self, moves: &[(StationId, Point)]) {
        timed(Site::SetPositions, || self.0.set_positions(moves))
    }
    fn in_range(&self, a: StationId, b: StationId) -> bool {
        self.0.in_range(a, b)
    }
    fn is_transmitting(&self, id: StationId) -> bool {
        self.0.is_transmitting(id)
    }
    fn carrier_busy(&self, id: StationId) -> bool {
        timed(Site::CarrierBusy, || self.0.carrier_busy(id))
    }
    fn active_count(&self) -> usize {
        self.0.active_count()
    }
    fn start_tx(&mut self, source: StationId, now: SimTime) -> TxId {
        timed(Site::StartTx, || self.0.start_tx(source, now))
    }
    fn end_tx(&mut self, tx: TxId, now: SimTime) -> Vec<Delivery> {
        let out = timed(Site::EndTx, || self.0.end_tx(tx, now));
        count_deliveries(&out);
        out
    }
    fn end_tx_into(&mut self, tx: TxId, now: SimTime, out: &mut Vec<Delivery>) {
        timed(Site::EndTx, || self.0.end_tx_into(tx, now, out));
        count_deliveries(out);
    }
    fn tx_start(&self, tx: TxId) -> Option<SimTime> {
        self.0.tx_start(tx)
    }
    fn tx_source(&self, tx: TxId) -> Option<StationId> {
        self.0.tx_source(tx)
    }
    fn memory_footprint(&self) -> usize {
        self.0.memory_footprint()
    }
    fn medium_stats(&self) -> MediumStats {
        self.0.medium_stats()
    }
}

fn count_deliveries(out: &[Delivery]) {
    let clean = out.iter().filter(|d| d.clean).count() as u64;
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.rx_clean += clean;
        r.rx_all += out.len() as u64;
    });
}

// ---- Future-event list ----------------------------------------------------

/// A `Fel` backend that times and counts every operation of `F`.
#[derive(Default)]
pub struct TimedFel<F>(F);

impl<E, F: Fel<E>> Fel<E> for TimedFel<F> {
    fn push(&mut self, time: SimTime, pseq: u64, payload: E) {
        timed(Site::FelOp, || self.0.push(time, pseq, payload));
        let len = self.0.len();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.fel_pushes += 1;
            r.fel_high_water = r.fel_high_water.max(len);
        });
    }
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let out = timed(Site::FelOp, || self.0.pop());
        if out.is_some() {
            REC.with(|r| r.borrow_mut().fel_pops += 1);
        }
        out
    }
    fn peek(&mut self) -> Option<(SimTime, u64)> {
        timed(Site::FelOp, || self.0.peek())
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The `FelChoice` of the traced run: the default ladder backend, timed.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimedLadder;

impl FelChoice for TimedLadder {
    type Fel<E> = TimedFel<LadderQueue<E>>;
}

/// The traced network: the default medium and event list, each behind its
/// timing wrapper.
pub type TracedNetwork = Network<TimedMedium<SparseMedium>, TimedLadder>;

/// Assemble `sc` with every simulator seam instrumented.
pub fn build_traced(sc: Scenario) -> Result<TracedNetwork, SimError> {
    sc.build_with_queue::<TimedMedium<SparseMedium>, TimedLadder>()
}

// ---- Checker MAC ----------------------------------------------------------

/// A MAC that times its transitions, snapshots and relabels.
#[derive(Clone)]
pub struct TimedMac<P>(P);

impl<P: MacProtocol> MacProtocol for TimedMac<P> {
    fn enqueue(&mut self, ctx: &mut dyn MacContext, dst: Addr, sdu: MacSdu) -> MacResult {
        timed(Site::MacStep, || self.0.enqueue(ctx, dst, sdu))
    }
    fn on_receive(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        timed(Site::MacStep, || self.0.on_receive(ctx, frame))
    }
    fn on_timer(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        timed(Site::MacStep, || self.0.on_timer(ctx))
    }
    fn on_tx_end(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        timed(Site::MacStep, || self.0.on_tx_end(ctx))
    }
    fn queued_packets(&self) -> usize {
        self.0.queued_packets()
    }
    fn reset(&mut self, preserve_queues: bool) {
        self.0.reset(preserve_queues)
    }
    fn mac_stats(&self) -> Option<&MacStats> {
        self.0.mac_stats()
    }
}

impl<P: MacSnapshot> MacSnapshot for TimedMac<P> {
    type Snap = P::Snap;

    fn snapshot(&self, now: SimTime) -> P::Snap {
        timed(Site::MacSnapshot, || self.0.snapshot(now))
    }
    fn relabel(snap: &P::Snap, map: &Relabeling<'_>) -> P::Snap {
        timed(Site::MacRelabel, || P::relabel(snap, map))
    }
    fn state_kind(&self) -> &'static str {
        self.0.state_kind()
    }
    fn awaits_timer(&self) -> bool {
        self.0.awaits_timer()
    }
    fn transmitting(&self) -> bool {
        self.0.transmitting()
    }
}

/// `macaw_check::check_fan` with `make`'s MACs behind [`TimedMac`].
pub fn check_traced<P, F>(
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
    check_fan(protocol, topo, cfg, |i| TimedMac(make(i)), fan)
}
