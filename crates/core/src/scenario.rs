//! The scenario builder: declarative construction of a simulated network.
//!
//! A [`Scenario`] collects stations, protocol choices, streams, noise and
//! scheduled actions, then [`Scenario::build`]s a [`Network`] (or
//! [`Scenario::run`]s it directly). Everything is derived deterministically
//! from the scenario seed, so `(Scenario, seed)` fully determines a run.

use macaw_mac::config::MacConfig;
use macaw_mac::context::MacProtocol;
use macaw_mac::csma::{Csma, CsmaConfig};
use macaw_mac::frames::{Addr, StreamId, Timing};
use macaw_mac::wmac::WMac;
use macaw_phy::{
    LinkWindow, Medium, MediumStats, Point, Propagation, PropagationConfig, StationId,
};
use macaw_sim::{SimDuration, SimRng, SimTime};
use macaw_traffic::{Cbr, Poisson, TrafficSource};
use macaw_transport::{TcpConfig, TcpReceiver, TcpSender, Transport, UdpReceiver, UdpSender};

use crate::error::SimError;
use crate::network::{ActionKind, Network, ScheduledAction};
use crate::partition::{Partition, ShardRunStats, ShardStats};
use crate::stats::{RunReport, StreamReport};

/// Which MAC protocol a station runs.
#[derive(Clone, Copy, Debug)]
pub enum MacKind {
    /// Appendix A MACA (RTS-CTS-DATA, BEB, no sharing, single FIFO).
    Maca,
    /// Appendix B MACAW (RTS-CTS-DS-DATA-ACK, RRTS, MILD, per-destination
    /// backoff, per-stream queues).
    Macaw,
    /// Any point in the design space (ablations).
    Custom(MacConfig),
    /// The carrier-sense baseline of §2.2.
    Csma(CsmaConfig),
}

impl MacKind {
    fn build(self, addr: Addr, groups: &[u32]) -> Box<dyn MacProtocol> {
        match self {
            MacKind::Maca => {
                let mut m = WMac::new(addr, MacConfig::maca());
                for g in groups {
                    m.join_group(*g);
                }
                Box::new(m)
            }
            MacKind::Macaw => {
                let mut m = WMac::new(addr, MacConfig::macaw());
                for g in groups {
                    m.join_group(*g);
                }
                Box::new(m)
            }
            MacKind::Custom(cfg) => {
                let mut m = WMac::new(addr, cfg);
                for g in groups {
                    m.join_group(*g);
                }
                Box::new(m)
            }
            MacKind::Csma(cfg) => Box::new(Csma::new(addr, cfg)),
        }
    }

    fn timing(&self) -> Timing {
        match self {
            MacKind::Maca | MacKind::Macaw => Timing::default(),
            MacKind::Custom(cfg) => cfg.timing,
            MacKind::Csma(cfg) => cfg.timing,
        }
    }
}

/// Which transport a stream uses.
#[derive(Clone, Copy, Debug)]
pub enum TransportKind {
    /// Fire-and-forget datagrams (most of the paper's experiments).
    Udp,
    /// The simplified TCP of §3.3.1 (Tables 4 and 11).
    Tcp(TcpConfig),
}

/// The traffic model for a stream.
#[derive(Clone, Copy, Debug)]
pub enum SourceKind {
    /// Constant bit rate at `pps` packets per second (the paper's model).
    Cbr { pps: u64 },
    /// Poisson arrivals with mean `pps` packets per second.
    Poisson { pps: f64 },
}

impl SourceKind {
    /// The smallest Poisson rate a scenario accepts, in packets per
    /// second. A gap is drawn as `-mean * ln(u)` with `u` on a 2^-53 grid,
    /// so one gap is at most about 36.7 mean gaps: at this rate about
    /// 3.7e16 ns (1.2 years), far inside `SimTime`'s ~584 years. Much
    /// smaller rates make the mean gap infinite, or one gap overflow
    /// `u64` nanoseconds, and the run would abort.
    pub const MIN_POISSON_PPS: f64 = 1e-6;
}

/// Where a stream's packets go.
#[derive(Clone, Debug)]
pub enum Dest {
    /// A single receiving station.
    Station(usize),
    /// A multicast group and its member stations (§3.3.4; UDP only).
    Group { group: u32, members: Vec<usize> },
}

/// A declared traffic stream.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Label used in reports (the paper's "P1-B" style).
    pub name: String,
    /// Source station index.
    pub src: usize,
    /// Destination.
    pub dst: Dest,
    /// Transport protocol.
    pub transport: TransportKind,
    /// Traffic model.
    pub source: SourceKind,
    /// Application packet size in bytes (the paper uses 512).
    pub bytes: u32,
    /// Stream start time.
    pub start: SimTime,
    /// Stream stop time (None = runs to the end).
    pub stop: Option<SimTime>,
}

#[derive(Clone, Debug)]
pub(crate) struct StationSpec {
    pub(crate) name: String,
    pub(crate) pos: Point,
    pub(crate) mac: MacKind,
    pub(crate) groups: Vec<u32>,
    pub(crate) rx_error_rate: f64,
    pub(crate) tx_power: f64,
}

/// Declarative scenario description. See the crate docs for an example.
///
/// Builder calls never panic on bad input: the first problem (an unknown
/// station index, a stream to self, …) is recorded and reported as
/// [`SimError::InvalidScenario`] when [`Scenario::build`] or
/// [`Scenario::run`] is called, so misconfiguration surfaces as a typed
/// error instead of a crash mid-construction.
pub struct Scenario {
    pub(crate) seed: u64,
    pub(crate) prop: PropagationConfig,
    pub(crate) stations: Vec<StationSpec>,
    pub(crate) streams: Vec<StreamSpec>,
    pub(crate) noise: Vec<(Point, f64, bool)>,
    pub(crate) actions: Vec<ScheduledAction>,
    /// Flat move table for batched mobility: each
    /// [`ActionKind::MoveBatch`] action names a `start..start + len` slice
    /// of this vector. Kept beside `actions` (not inside them) so the
    /// action enum stays `Copy`; shard projections replicate the whole
    /// table because batch indices are global.
    pub(crate) moves: Vec<(StationId, Point)>,
    pub(crate) windows: Vec<LinkWindow>,
    /// Global stream ids, by position in `streams`. `None` (every
    /// user-built scenario) means stream `i` is `StreamId(i)`; shard
    /// projections override this so a stream keeps its *global* id — and
    /// therefore its RNG fork — when it is rebuilt inside a shard that
    /// holds only a subset of the streams.
    pub(crate) stream_ids: Option<Vec<u32>>,
    /// Precomputed island labels for this scenario's contents. `None`
    /// (every user-built scenario) derives them at build time; shard
    /// projections carry the *global* partition restricted to their rows so
    /// per-island accounting matches the serial run label for label.
    pub(crate) islands: Option<Partition>,
    /// First builder-time problem, reported at build()/run().
    pub(crate) defect: Option<String>,
}

impl Scenario {
    /// Start an empty scenario with the given seed.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            prop: PropagationConfig::default(),
            stations: Vec::new(),
            streams: Vec::new(),
            noise: Vec::new(),
            actions: Vec::new(),
            moves: Vec::new(),
            windows: Vec::new(),
            stream_ids: None,
            islands: None,
            defect: None,
        }
    }

    /// Number of stations declared so far.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// The declared (initial) position of a station, if it exists.
    pub fn station_position(&self, station: usize) -> Option<Point> {
        self.stations.get(station).map(|s| s.pos)
    }

    /// Record the first builder-time problem (later ones add no signal).
    fn note_defect(&mut self, msg: String) {
        if self.defect.is_none() {
            self.defect = Some(msg);
        }
    }

    /// Check a position, recording a defect unless every coordinate is
    /// finite.
    fn check_point(&mut self, p: Point, what: impl std::fmt::Display) -> bool {
        if p.x.is_finite() && p.y.is_finite() && p.z.is_finite() {
            true
        } else {
            self.note_defect(format!(
                "{what}: position ({}, {}, {}) is not finite",
                p.x, p.y, p.z
            ));
            false
        }
    }

    /// Check a station index, recording a defect if it is out of range.
    fn check_station(&mut self, station: usize, what: &str) -> bool {
        if station < self.stations.len() {
            true
        } else {
            self.note_defect(format!(
                "{what}: unknown station index {station} (have {})",
                self.stations.len()
            ));
            false
        }
    }

    /// Override the propagation model (default: the paper's near-field
    /// model with a hard out-of-range cutoff). `gamma` and
    /// `threshold_distance_ft` must be finite and positive, and
    /// `capture_margin_db` finite.
    pub fn propagation(&mut self, cfg: PropagationConfig) -> &mut Self {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !(positive(cfg.gamma)
            && positive(cfg.threshold_distance_ft)
            && cfg.capture_margin_db.is_finite())
        {
            self.note_defect(format!(
                "propagation: gamma {} and threshold_distance_ft {} must be finite and \
                 positive, capture_margin_db {} finite",
                cfg.gamma, cfg.threshold_distance_ft, cfg.capture_margin_db
            ));
        }
        self.prop = cfg;
        self
    }

    /// Add a station; returns its index. Positions are in feet, with
    /// base stations conventionally at z = 6 and pads at z = 0 (the paper's
    /// "pads are 6 feet below the base station height"). Every coordinate
    /// must be finite. A custom or CSMA MAC config must have backoff bounds
    /// `1 <= bo_min <= bo_max`.
    pub fn add_station(&mut self, name: &str, pos: Point, mac: MacKind) -> usize {
        self.check_point(pos, format_args!("add_station '{name}'"));
        let bounds = match mac {
            MacKind::Custom(cfg) => Some((cfg.bo_min, cfg.bo_max)),
            MacKind::Csma(cfg) => Some((cfg.bo_min, cfg.bo_max)),
            MacKind::Maca | MacKind::Macaw => None,
        };
        if let Some((min, max)) = bounds {
            if !(1..=max).contains(&min) {
                self.note_defect(format!(
                    "add_station '{name}': backoff bounds [{min}, {max}] need 1 <= bo_min <= bo_max"
                ));
            }
        }
        self.stations.push(StationSpec {
            name: name.to_string(),
            pos,
            mac,
            groups: Vec::new(),
            rx_error_rate: 0.0,
            tx_power: 1.0,
        });
        self.stations.len() - 1
    }

    /// Subscribe a station to a multicast group.
    pub fn join_group(&mut self, station: usize, group: u32) -> &mut Self {
        if self.check_station(station, "join_group") {
            self.stations[station].groups.push(group);
        }
        self
    }

    /// Set the per-packet noise corruption probability at a station
    /// (§3.3.1's intermittent-noise model).
    pub fn set_rx_error_rate(&mut self, station: usize, p: f64) -> &mut Self {
        if !(0.0..=1.0).contains(&p) {
            self.note_defect(format!("set_rx_error_rate: {p} is not a probability"));
        } else if self.check_station(station, "set_rx_error_rate") {
            self.stations[station].rx_error_rate = p;
        }
        self
    }

    /// Set a station's transmit power multiplier (§4 extension; default
    /// 1.0 — the paper's stations all transmit at the same strength, and
    /// unequal powers break the symmetry the CTS mechanism relies on).
    pub fn set_tx_power(&mut self, station: usize, power: f64) -> &mut Self {
        if !(power.is_finite() && power > 0.0) {
            self.note_defect(format!("set_tx_power: {power} must be finite and positive"));
        } else if self.check_station(station, "set_tx_power") {
            self.stations[station].tx_power = power;
        }
        self
    }

    /// Add a spatial noise emitter; returns its index. Every coordinate of
    /// `pos` must be finite, and `power` finite and non-negative.
    pub fn add_noise_source(&mut self, pos: Point, power: f64, active: bool) -> usize {
        self.check_point(pos, "add_noise_source");
        if !(power.is_finite() && power >= 0.0) {
            self.note_defect(format!(
                "add_noise_source: {power} must be finite and non-negative"
            ));
        }
        self.noise.push((pos, power, active));
        self.noise.len() - 1
    }

    /// Declare a stream (full control). Returns the stream index. A
    /// defective spec is recorded and reported at [`Scenario::build`].
    pub fn add_stream(&mut self, spec: StreamSpec) -> usize {
        if let Err(msg) = self.validate_stream(&spec) {
            self.note_defect(msg);
        }
        self.streams.push(spec);
        self.streams.len() - 1
    }

    /// Sugar: a UDP CBR stream from `src` to `dst` starting at t = 0.
    pub fn add_udp_stream(
        &mut self,
        name: &str,
        src: usize,
        dst: usize,
        pps: u64,
        bytes: u32,
    ) -> usize {
        self.add_stream(StreamSpec {
            name: name.to_string(),
            src,
            dst: Dest::Station(dst),
            transport: TransportKind::Udp,
            source: SourceKind::Cbr { pps },
            bytes,
            start: SimTime::ZERO,
            stop: None,
        })
    }

    /// Sugar: a TCP CBR stream from `src` to `dst` starting at t = 0.
    pub fn add_tcp_stream(
        &mut self,
        name: &str,
        src: usize,
        dst: usize,
        pps: u64,
        bytes: u32,
    ) -> usize {
        self.add_stream(StreamSpec {
            name: name.to_string(),
            src,
            dst: Dest::Station(dst),
            transport: TransportKind::Tcp(TcpConfig::default()),
            source: SourceKind::Cbr { pps },
            bytes,
            start: SimTime::ZERO,
            stop: None,
        })
    }

    /// Schedule a station move (mobility) at time `at`. Every coordinate
    /// of `to` must be finite.
    pub fn move_station_at(&mut self, at: SimTime, station: usize, to: Point) -> &mut Self {
        if self.check_station(station, "move_station_at") && self.check_point(to, "move_station_at")
        {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::Move { station, to },
            });
        }
        self
    }

    /// Schedule a simultaneous move of several stations at time `at`: one
    /// batch, applied through [`macaw_phy::Medium::set_positions`] so the
    /// medium coalesces the interference re-folds across the batch. The
    /// waypoint mobility driver ([`crate::mobility`]) emits one batch per
    /// tick. An empty batch is a no-op; a batch is one event, so all its
    /// stations are coupled into one island by [`Scenario::partition`].
    /// Every coordinate of every target must be finite.
    pub fn move_stations_at(&mut self, at: SimTime, moves: &[(usize, Point)]) -> &mut Self {
        if moves.is_empty() {
            return self;
        }
        for &(station, to) in moves {
            if !(self.check_station(station, "move_stations_at")
                && self.check_point(to, "move_stations_at"))
            {
                return self;
            }
        }
        let start = self.moves.len() as u32;
        self.moves
            .extend(moves.iter().map(|&(s, p)| (StationId(s), p)));
        self.actions.push(ScheduledAction {
            at,
            kind: ActionKind::MoveBatch {
                start,
                len: moves.len() as u32,
            },
        });
        self
    }

    /// Schedule a station power-off at time `at` (the Figure-9 experiment).
    pub fn power_off_at(&mut self, at: SimTime, station: usize) -> &mut Self {
        if self.check_station(station, "power_off_at") {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::PowerOff { station },
            });
        }
        self
    }

    /// Schedule a station power-on at time `at`.
    pub fn power_on_at(&mut self, at: SimTime, station: usize) -> &mut Self {
        if self.check_station(station, "power_on_at") {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::PowerOn { station },
            });
        }
        self
    }

    /// Schedule a noise emitter toggle at time `at`.
    pub fn set_noise_at(&mut self, at: SimTime, index: usize, active: bool) -> &mut Self {
        if index >= self.noise.len() {
            self.note_defect(format!(
                "set_noise_at: unknown noise source {index} (have {})",
                self.noise.len()
            ));
        } else {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::SetNoise { index, active },
            });
        }
        self
    }

    /// Schedule a station crash at time `at`: any frame in flight is
    /// truncated, the MAC's volatile state is wiped, and the station stays
    /// dead until a scheduled [`Scenario::restart_at`]. `preserve_queues`
    /// keeps queued packets across the crash (battery pull vs. clean boot).
    pub fn crash_at(&mut self, at: SimTime, station: usize, preserve_queues: bool) -> &mut Self {
        if self.check_station(station, "crash_at") {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::Crash {
                    station,
                    preserve_queues,
                },
            });
        }
        self
    }

    /// Schedule a crashed station's restart at time `at`.
    pub fn restart_at(&mut self, at: SimTime, station: usize) -> &mut Self {
        if self.check_station(station, "restart_at") {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::Restart { station },
            });
        }
        self
    }

    /// Schedule a change to one directional link's gain at time `at`
    /// (asymmetry fault: `factor` scales what `dst` hears of `src`).
    pub fn set_link_gain_at(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        factor: f64,
    ) -> &mut Self {
        if !(factor.is_finite() && factor >= 0.0) {
            self.note_defect(format!(
                "set_link_gain_at: {factor} must be finite and non-negative"
            ));
        } else if src == dst {
            self.note_defect("set_link_gain_at: src and dst must differ".to_string());
        } else if self.check_station(src, "set_link_gain_at")
            && self.check_station(dst, "set_link_gain_at")
        {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::SetLinkGain { src, dst, factor },
            });
        }
        self
    }

    /// Add a deterministic corruption window: frames from `src` that spend
    /// at least `min_air` on the air inside `[from, until)` arrive dirty at
    /// `dst`. Control frames are short and slip under `min_air`, so this is
    /// the per-link packet-corruption fault of the lossy-channel ablation.
    pub fn corrupt_link(
        &mut self,
        src: usize,
        dst: usize,
        from: SimTime,
        until: SimTime,
        min_air: SimDuration,
    ) -> &mut Self {
        if src == dst {
            self.note_defect("corrupt_link: src and dst must differ".to_string());
        } else if until <= from {
            self.note_defect(format!("corrupt_link: empty window [{from}, {until})"));
        } else if self.check_station(src, "corrupt_link")
            && self.check_station(dst, "corrupt_link")
        {
            self.windows.push(LinkWindow {
                src: StationId(src),
                dst: StationId(dst),
                from,
                until,
                min_air,
            });
        }
        self
    }

    fn validate_stream(&self, spec: &StreamSpec) -> Result<(), String> {
        if spec.src >= self.stations.len() {
            return Err(format!("stream '{}': unknown source station", spec.name));
        }
        match &spec.dst {
            Dest::Station(d) => {
                if *d >= self.stations.len() {
                    return Err(format!("stream '{}': unknown destination station", spec.name));
                }
                if spec.src == *d {
                    return Err(format!("stream '{}': stream to self", spec.name));
                }
            }
            Dest::Group { members, .. } => {
                if !matches!(spec.transport, TransportKind::Udp) {
                    return Err(format!(
                        "stream '{}': multicast streams are UDP only",
                        spec.name
                    ));
                }
                if members.is_empty() {
                    return Err(format!(
                        "stream '{}': multicast stream without members",
                        spec.name
                    ));
                }
                for m in members {
                    if *m >= self.stations.len() {
                        return Err(format!("stream '{}': unknown group member", spec.name));
                    }
                }
            }
        }
        if spec.bytes == 0 {
            return Err(format!("stream '{}': zero-byte packets", spec.name));
        }
        let rate_ok = match spec.source {
            SourceKind::Cbr { pps } => pps > 0,
            SourceKind::Poisson { pps } => pps.is_finite() && pps > 0.0,
        };
        if !rate_ok {
            return Err(format!(
                "stream '{}': rate must be finite and positive",
                spec.name
            ));
        }
        if let SourceKind::Poisson { pps } = spec.source {
            if pps < SourceKind::MIN_POISSON_PPS {
                return Err(format!(
                    "stream '{}': rate must be at least {:e} pps for a Poisson source",
                    spec.name,
                    SourceKind::MIN_POISSON_PPS
                ));
            }
        }
        Ok(())
    }

    /// Assemble the network on the default cube-grid [`Medium`], reporting
    /// the first recorded builder defect (if any) as
    /// [`SimError::InvalidScenario`].
    pub fn build(self) -> Result<Network, SimError> {
        self.build_with()
    }

    /// Assemble the network on any [`Medium`] implementation (with the
    /// default ladder-queue future-event list).
    pub fn build_with<M: Medium>(self) -> Result<Network<M>, SimError> {
        self.build_with_queue::<M, macaw_sim::LadderFel>()
    }

    /// Assemble the network on any [`Medium`] and any future-event-list
    /// family ([`macaw_sim::FelChoice`]). The FEL is unobservable by
    /// construction — every backend pops the same total order — so this
    /// exists for the queue-equivalence tests that prove it and for
    /// perfbench's timed event list.
    pub fn build_with_queue<M: Medium, Q: macaw_sim::FelChoice>(
        mut self,
    ) -> Result<Network<M, Q>, SimError> {
        if let Some(msg) = self.defect.take() {
            return Err(SimError::InvalidScenario(msg));
        }
        // Island labels for the per-island event accounting: precomputed by
        // the sharded runner (the global partition restricted to this
        // projection), derived from the coupling graph otherwise.
        let part = match self.islands.take() {
            Some(p) => p,
            None => crate::partition::compute(&self),
        };
        let root = SimRng::new(self.seed);
        // Multicast group membership comes from both explicit joins and
        // stream declarations.
        for si in 0..self.streams.len() {
            if let Dest::Group { group, members } = &self.streams[si].dst {
                let (g, ms) = (*group, members.clone());
                for m in ms {
                    if !self.stations[m].groups.contains(&g) {
                        self.stations[m].groups.push(g);
                    }
                }
            }
        }

        let timing = self
            .stations
            .first()
            .map(|s| s.mac.timing())
            .unwrap_or_default();
        let mut medium = M::new(Propagation::new(self.prop), root.fork(0xA11CE));
        for (i, s) in self.stations.iter().enumerate() {
            let id = medium.add_station(s.pos);
            debug_assert_eq!(id, StationId(i));
            medium.set_rx_error_rate(id, s.rx_error_rate);
            if s.tx_power != 1.0 {
                medium.set_tx_power(id, s.tx_power);
            }
        }
        for (pos, power, active) in &self.noise {
            let idx = medium.add_noise_source(*pos, *power);
            medium.set_noise_active(idx, *active);
        }
        let mut net = Network::new(medium, timing);

        for (i, s) in self.stations.iter().enumerate() {
            let mac = s.mac.build(Addr::Unicast(i), &s.groups);
            net.add_station(s.name.clone(), mac, root.fork(0x57A7_0000 + i as u64));
        }

        for (i, spec) in self.streams.iter().enumerate() {
            // A shard projection carries global ids so a stream's label and
            // RNG fork are identical to the full (serial) build.
            let gid = match &self.stream_ids {
                Some(ids) => ids[i],
                None => i as u32,
            };
            let id = StreamId(gid);
            let source: Box<dyn TrafficSource> = match spec.source {
                SourceKind::Cbr { pps } => Box::new(Cbr::pps(pps, spec.bytes)),
                SourceKind::Poisson { pps } => Box::new(Poisson::pps(pps, spec.bytes)),
            };
            let rng = root.fork(0x5742_0000 + gid as u64);
            match &spec.dst {
                Dest::Station(dst) => {
                    let (sender, receiver): (Box<dyn Transport>, Box<dyn Transport>) =
                        match spec.transport {
                            TransportKind::Udp => {
                                (Box::new(UdpSender::new()), Box::new(UdpReceiver::new()))
                            }
                            TransportKind::Tcp(cfg) => (
                                Box::new(TcpSender::new(cfg, spec.bytes)),
                                Box::new(TcpReceiver::new(cfg)),
                            ),
                        };
                    net.add_unicast_stream(
                        spec.name.clone(),
                        id,
                        spec.src,
                        *dst,
                        spec.bytes,
                        source,
                        rng,
                        spec.start,
                        spec.stop,
                        sender,
                        receiver,
                    );
                }
                Dest::Group { group, members } => {
                    net.add_multicast_stream(
                        spec.name.clone(),
                        id,
                        spec.src,
                        *group,
                        members.clone(),
                        spec.bytes,
                        source,
                        rng,
                        spec.start,
                        spec.stop,
                        Box::new(UdpSender::new()),
                    );
                }
            }
        }

        net.set_moves(std::mem::take(&mut self.moves));
        for a in self.actions.drain(..) {
            net.schedule_action(a);
        }
        for w in self.windows.drain(..) {
            net.add_corruption_window(w);
        }
        net.set_islands(&part);
        net.prime();
        Ok(net)
    }

    /// The conservative coupling partition of this scenario: the islands
    /// of stations that can ever interact, plus the island of every
    /// stream, action, corruption window and noise emitter. See
    /// [`crate::partition`] for the coupling rules and
    /// [`Scenario::run_with_shards`] for the engine built on top of it.
    pub fn partition(&self) -> Result<Partition, SimError> {
        if let Some(msg) = &self.defect {
            return Err(SimError::InvalidScenario(msg.clone()));
        }
        Ok(crate::partition::compute(self))
    }

    /// Build and run for `duration`, measuring after `warmup`.
    pub fn run(self, duration: SimDuration, warmup: SimDuration) -> Result<RunReport, SimError> {
        self.run_with::<macaw_phy::SparseMedium>(duration, warmup)
    }

    /// Build on any [`Medium`] implementation and run for `duration`,
    /// measuring after `warmup`. On the reference oracle
    /// ([`macaw_phy::ReferenceMedium`]) the [`RunReport`] is bitwise
    /// identical to [`Scenario::run`]'s for the same scenario and seed.
    pub fn run_with<M: Medium>(
        self,
        duration: SimDuration,
        warmup: SimDuration,
    ) -> Result<RunReport, SimError> {
        self.run_with_queue::<M, macaw_sim::LadderFel>(duration, warmup)
    }

    /// [`Scenario::run_with`] on an explicit future-event-list family.
    /// Produces a bitwise-identical [`RunReport`] for the same scenario
    /// and seed whichever FEL backend runs it.
    pub fn run_with_queue<M: Medium, Q: macaw_sim::FelChoice>(
        self,
        duration: SimDuration,
        warmup: SimDuration,
    ) -> Result<RunReport, SimError> {
        if warmup >= duration {
            return Err(SimError::InvalidScenario(
                "warmup must end before the run does".to_string(),
            ));
        }
        let mut net = self.build_with_queue::<M, Q>()?;
        let warmup_end = SimTime::ZERO + warmup;
        let end = SimTime::ZERO + duration;
        net.set_warmup(warmup_end);
        net.run_until(end)?;
        Ok(net.report(end))
    }

    /// Run the scenario **sharded**: decompose it into coupling islands
    /// (see [`crate::partition`]), assign whole islands to `shards` OS
    /// threads, run each shard as an independent event loop, and merge the
    /// per-shard results into a [`RunReport`] that is bitwise identical to
    /// [`Scenario::run`]'s — the serial engine stays the oracle, exactly as
    /// for the reference-vs-sparse media and heap-vs-ladder FELs. Every
    /// shard builds on the default medium and event list, as
    /// [`Scenario::run`] does.
    ///
    /// The model's zero propagation delay leaves zero conservative
    /// lookahead *within* an island and unbounded lookahead *between*
    /// islands, so there are no epochs or cross-shard inboxes to manage:
    /// each shard runs its islands to completion and the only barrier is
    /// the final join (DESIGN.md "Parallel DES" derives this). The
    /// attainable speed-up is therefore bounded by the island structure —
    /// a scenario that is one big island (every paper-table topology) runs
    /// serially whatever the shard count, which the returned
    /// [`ShardRunStats`] makes visible.
    pub fn run_with_shards(
        mut self,
        duration: SimDuration,
        warmup: SimDuration,
        shards: usize,
    ) -> Result<(RunReport, ShardRunStats), SimError> {
        if warmup >= duration {
            return Err(SimError::InvalidScenario(
                "warmup must end before the run does".to_string(),
            ));
        }
        if let Some(msg) = self.defect.take() {
            return Err(SimError::InvalidScenario(msg));
        }
        let part = crate::partition::compute(&self);
        let n_shards = shards.max(1);
        let shard_of = part.assign_shards(n_shards);

        // Project the scenario onto each shard. Every shard replicates ALL
        // stations and noise emitters — so station indices, RNG forks and
        // medium construction are identical to the serial build — but
        // receives only the streams, actions and corruption windows of the
        // islands it owns. Stations outside those islands are inert: a MAC
        // only acts when driven by traffic, a timer or a received frame,
        // and nothing in a foreign island can produce any of the three.
        let mut shard_scs: Vec<Scenario> = (0..n_shards)
            .map(|_| Scenario {
                seed: self.seed,
                prop: self.prop,
                stations: self.stations.clone(),
                streams: Vec::new(),
                noise: self.noise.clone(),
                actions: Vec::new(),
                // The whole move table rides along: batch actions index it
                // globally, and an unreferenced entry is inert.
                moves: self.moves.clone(),
                windows: Vec::new(),
                stream_ids: Some(Vec::new()),
                islands: None,
                defect: None,
            })
            .collect();
        // Global stream ids owned by each shard, in declaration order.
        let mut gids: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        // The global partition restricted to each projection's rows, so
        // per-island accounting in the shard matches the serial labels.
        let mut sub_streams: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        let mut sub_actions: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        let mut sub_windows: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for (i, spec) in self.streams.iter().enumerate() {
            let isl = part.stream_island[i];
            let s = shard_of[isl as usize] as usize;
            shard_scs[s].streams.push(spec.clone());
            gids[s].push(i as u32);
            sub_streams[s].push(isl);
        }
        for (i, a) in self.actions.iter().enumerate() {
            let isl = part.action_island[i];
            let s = shard_of[isl as usize] as usize;
            shard_scs[s].actions.push(*a);
            sub_actions[s].push(isl);
        }
        for (i, w) in self.windows.iter().enumerate() {
            let isl = part.window_island[i];
            let s = shard_of[isl as usize] as usize;
            shard_scs[s].windows.push(*w);
            sub_windows[s].push(isl);
        }
        for (s, sc) in shard_scs.iter_mut().enumerate() {
            sc.stream_ids = Some(gids[s].clone());
            sc.islands = Some(Partition {
                n_islands: part.n_islands,
                station_island: part.station_island.clone(),
                stream_island: std::mem::take(&mut sub_streams[s]),
                action_island: std::mem::take(&mut sub_actions[s]),
                window_island: std::mem::take(&mut sub_windows[s]),
                noise_island: part.noise_island.clone(),
            });
        }

        let warmup_end = SimTime::ZERO + warmup;
        let end = SimTime::ZERO + duration;
        type ShardOutcome = Result<(RunReport, (u64, u64), u64, f64, MediumStats), SimError>;
        let results: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_scs
                .into_iter()
                .map(|sc| {
                    scope.spawn(move || -> ShardOutcome {
                        let t0 = std::time::Instant::now();
                        let mut net = sc.build()?;
                        net.set_warmup(warmup_end);
                        net.run_until(end)?;
                        let report = net.report(end);
                        let air = net.air_totals_ns();
                        let events = net.events_processed();
                        let medium = net.medium().medium_stats();
                        Ok((report, air, events, t0.elapsed().as_secs_f64(), medium))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        let mut reports = Vec::with_capacity(n_shards);
        let mut walls = Vec::with_capacity(n_shards);
        let mut events = Vec::with_capacity(n_shards);
        let (mut data_ns, mut air_ns, mut total_events) = (0u64, 0u64, 0u64);
        let mut medium = MediumStats::default();
        for r in results {
            let (rep, (d, a), ev, wall, med) = r?;
            data_ns += d;
            air_ns += a;
            total_events += ev;
            medium.merge(med);
            events.push(ev);
            walls.push(wall);
            reports.push(rep);
        }

        // Merge, field by field, into exactly what the serial engine
        // reports. Per-stream and per-station rows come verbatim from the
        // owning shard (each shard computed its rates from the same
        // `measured` value below, so the f64s are bit-identical); air
        // totals are summed as integer nanoseconds *before* the single
        // conversion to seconds; queue counters sum because every event
        // belongs to exactly one island, and the high-water field was
        // redefined as an island sum for precisely this reason (see
        // [`Network::queue_stats`](crate::network::Network::queue_stats)).
        let measured = end.saturating_since(warmup_end).as_secs_f64();
        let mut stream_rows: Vec<Option<StreamReport>> = vec![None; self.streams.len()];
        for (s, rep) in reports.iter().enumerate() {
            for (j, &gid) in gids[s].iter().enumerate() {
                stream_rows[gid as usize] = Some(rep.streams[j].clone());
            }
        }
        let streams: Vec<StreamReport> = stream_rows
            .into_iter()
            .map(|r| r.expect("every stream is owned by exactly one shard"))
            .collect();
        let mut mac_stats = Vec::with_capacity(self.stations.len());
        let mut mac_drops = Vec::with_capacity(self.stations.len());
        for (i, &isl) in part.station_island.iter().enumerate() {
            let owner = shard_of[isl as usize] as usize;
            mac_stats.push(reports[owner].mac_stats[i]);
            mac_drops.push(reports[owner].mac_drops[i]);
        }
        let mut queue_stats = macaw_sim::QueueStats::default();
        for rep in &reports {
            queue_stats.scheduled += rep.queue_stats.scheduled;
            queue_stats.popped += rep.queue_stats.popped;
            queue_stats.cancelled += rep.queue_stats.cancelled;
            queue_stats.high_water += rep.queue_stats.high_water;
        }
        let report = RunReport {
            measured_secs: measured,
            streams,
            station_names: reports[0].station_names.clone(),
            mac_stats,
            mac_drops,
            data_air_secs: data_ns as f64 / 1e9,
            total_air_secs: air_ns as f64 / 1e9,
            events_processed: total_events,
            queue_stats,
        };

        let max_wall = walls.iter().cloned().fold(0.0f64, f64::max);
        let barrier_wait_share = if max_wall > 0.0 {
            walls.iter().map(|w| max_wall - w).sum::<f64>() / (n_shards as f64 * max_wall)
        } else {
            0.0
        };
        let sizes = part.island_sizes();
        let per_shard = (0..n_shards)
            .map(|s| ShardStats {
                islands: shard_of.iter().filter(|&&o| o as usize == s).count(),
                stations: part
                    .station_island
                    .iter()
                    .filter(|&&i| shard_of[i as usize] as usize == s)
                    .count(),
                streams: gids[s].len(),
                events: events[s],
                wall_secs: walls[s],
            })
            .collect();
        let stats = ShardRunStats {
            shards: n_shards,
            islands: part.n_islands,
            largest_island: sizes.iter().copied().max().unwrap_or(0),
            barrier_wait_share,
            medium,
            per_shard,
        };
        Ok((report, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macaw_sim::SimDuration;

    fn two_station_scenario() -> (Scenario, usize, usize) {
        let mut sc = Scenario::new(1);
        let a = sc.add_station("A", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
        let b = sc.add_station("B", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
        (sc, a, b)
    }

    #[test]
    fn stream_to_unknown_station_is_rejected() {
        let (mut sc, a, _) = two_station_scenario();
        sc.add_udp_stream("bad", a, 99, 32, 512);
        let err = sc.build().unwrap_err();
        assert!(
            err.to_string().contains("unknown destination"),
            "got: {err}"
        );
    }

    #[test]
    fn stream_to_self_is_rejected() {
        let (mut sc, a, _) = two_station_scenario();
        sc.add_udp_stream("self", a, a, 32, 512);
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("stream to self"), "got: {err}");
    }

    #[test]
    fn bad_rates_and_noise_powers_are_rejected() {
        let sources = [
            SourceKind::Cbr { pps: 0 },
            SourceKind::Poisson { pps: 0.0 },
            SourceKind::Poisson { pps: -3.0 },
            SourceKind::Poisson { pps: f64::NAN },
            SourceKind::Poisson { pps: f64::INFINITY },
            SourceKind::Poisson { pps: 1e-300 },
            SourceKind::Poisson {
                pps: f64::MIN_POSITIVE,
            },
            SourceKind::Poisson {
                pps: SourceKind::MIN_POISSON_PPS.next_down(),
            },
        ];
        for source in sources {
            let (mut sc, a, b) = two_station_scenario();
            sc.add_stream(StreamSpec {
                name: "s".into(),
                src: a,
                dst: Dest::Station(b),
                transport: TransportKind::Udp,
                source,
                bytes: 512,
                start: SimTime::ZERO,
                stop: None,
            });
            let err = sc.build().unwrap_err();
            assert!(
                err.to_string().contains("rate must be"),
                "{source:?}: {err}"
            );
        }
        // Exactly at the floor builds and runs.
        let (mut sc, a, b) = two_station_scenario();
        sc.add_stream(StreamSpec {
            name: "s".into(),
            src: a,
            dst: Dest::Station(b),
            transport: TransportKind::Udp,
            source: SourceKind::Poisson {
                pps: SourceKind::MIN_POISSON_PPS,
            },
            bytes: 512,
            start: SimTime::ZERO,
            stop: None,
        });
        sc.run(SimDuration::from_secs(1), SimDuration::ZERO)
            .unwrap();
        for power in [f64::NAN, -1.0, f64::INFINITY] {
            let (mut sc, _, _) = two_station_scenario();
            sc.add_noise_source(Point::new(1.0, 0.0, 0.0), power, true);
            let err = sc.build().unwrap_err();
            assert!(
                err.to_string().contains("add_noise_source"),
                "{power}: {err}"
            );
        }
    }

    #[test]
    fn tcp_multicast_is_rejected() {
        let (mut sc, a, b) = two_station_scenario();
        sc.add_stream(StreamSpec {
            name: "mc".into(),
            src: a,
            dst: Dest::Group {
                group: 1,
                members: vec![b],
            },
            transport: TransportKind::Tcp(TcpConfig::default()),
            source: SourceKind::Cbr { pps: 1 },
            bytes: 512,
            start: SimTime::ZERO,
            stop: None,
        });
        let err = sc.build().unwrap_err();
        assert!(
            err.to_string().contains("multicast streams are UDP only"),
            "got: {err}"
        );
    }

    #[test]
    fn warmup_longer_than_run_is_rejected() {
        let (mut sc, a, b) = two_station_scenario();
        sc.add_udp_stream("s", a, b, 32, 512);
        let err = sc
            .run(SimDuration::from_secs(5), SimDuration::from_secs(10))
            .unwrap_err();
        assert!(
            err.to_string().contains("warmup must end before"),
            "got: {err}"
        );
    }

    #[test]
    fn first_defect_wins_and_is_kept_across_later_calls() {
        let (mut sc, a, _) = two_station_scenario();
        sc.set_tx_power(99, 2.0); // unknown station
        sc.add_udp_stream("bad", a, 99, 32, 512); // also bad, but second
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("set_tx_power"), "got: {err}");
    }

    #[test]
    fn fault_builders_validate_their_arguments() {
        let (mut sc, a, b) = two_station_scenario();
        sc.crash_at(SimTime::ZERO, 99, true);
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("crash_at"), "got: {err}");

        let (mut sc, ..) = two_station_scenario();
        sc.move_station_at(SimTime::ZERO, 9, Point::new(1.0, 0.0, 0.0));
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("move_station_at"), "got: {err}");

        let (mut sc, ..) = two_station_scenario();
        sc.power_off_at(SimTime::ZERO, 9);
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("power_off_at"), "got: {err}");

        let (mut sc, ..) = two_station_scenario();
        sc.power_on_at(SimTime::ZERO, 9);
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("power_on_at"), "got: {err}");

        let (mut sc, a2, _) = two_station_scenario();
        sc.set_link_gain_at(SimTime::ZERO, a2, a2, 0.5);
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("must differ"), "got: {err}");

        let (mut sc, ..) = two_station_scenario();
        sc.corrupt_link(
            a,
            b,
            SimTime::ZERO + SimDuration::from_secs(2),
            SimTime::ZERO + SimDuration::from_secs(1),
            SimDuration::from_millis(1),
        );
        let err = sc.build().unwrap_err();
        assert!(err.to_string().contains("empty window"), "got: {err}");
    }

    #[test]
    fn bad_propagation_and_backoff_bounds_are_typed_errors() {
        let prop = |f: fn(&mut PropagationConfig)| {
            let mut cfg = PropagationConfig::default();
            f(&mut cfg);
            let (mut sc, a, b) = two_station_scenario();
            sc.propagation(cfg);
            sc.add_udp_stream("s", a, b, 32, 512);
            sc
        };
        let mac = |kind: MacKind| {
            let mut sc = Scenario::new(1);
            let a = sc.add_station("A", Point::new(0.0, 0.0, 6.0), kind);
            let b = sc.add_station("B", Point::new(3.0, 0.0, 0.0), kind);
            sc.add_udp_stream("s", a, b, 32, 512);
            sc
        };
        let cases = [
            ("gamma 0", prop(|c| c.gamma = 0.0)),
            ("gamma NaN", prop(|c| c.gamma = f64::NAN)),
            ("threshold 0", prop(|c| c.threshold_distance_ft = 0.0)),
            (
                "capture margin NaN",
                prop(|c| c.capture_margin_db = f64::NAN),
            ),
            (
                "MacConfig bounds [0, 0]",
                mac(MacKind::Custom(MacConfig {
                    bo_min: 0,
                    bo_max: 0,
                    ..MacConfig::macaw()
                })),
            ),
            (
                "CsmaConfig bo_max 0",
                mac(MacKind::Csma(CsmaConfig {
                    bo_max: 0,
                    ..Default::default()
                })),
            ),
        ];
        for (what, sc) in cases {
            match sc.run(SimDuration::from_secs(5), SimDuration::from_secs(1)) {
                Err(SimError::InvalidScenario(_)) => {}
                other => panic!("{what}: want InvalidScenario, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_positions_are_typed_errors() {
        let nan = Point::new(f64::NAN, 0.0, 0.0);
        // A at (0, 0, 6) and C at `c_at` each send 32 pps to B at (3, 0, 0).
        let floor = |c_at: Point| {
            let mut sc = Scenario::new(1);
            let a = sc.add_station("A", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
            let b = sc.add_station("B", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
            let c = sc.add_station("C", c_at, MacKind::Macaw);
            sc.add_udp_stream("A-B", a, b, 32, 512);
            sc.add_udp_stream("C-B", c, b, 32, 512);
            (sc, c)
        };
        let c_home = Point::new(-3.0, 0.0, 0.0);
        let at_2s = SimTime::ZERO + SimDuration::from_secs(2);
        let cases = [
            ("NaN station", floor(nan).0),
            (
                "infinite station",
                floor(Point::new(f64::INFINITY, 0.0, 0.0)).0,
            ),
            ("NaN single move", {
                let (mut sc, c) = floor(c_home);
                sc.move_station_at(at_2s, c, nan);
                sc
            }),
            ("NaN batch move", {
                let (mut sc, c) = floor(c_home);
                sc.move_stations_at(at_2s, &[(c, nan)]);
                sc
            }),
            ("NaN noise source", {
                let (mut sc, _) = floor(c_home);
                sc.add_noise_source(nan, 1.0, true);
                sc
            }),
        ];
        for (what, sc) in cases {
            match sc.run(SimDuration::from_secs(5), SimDuration::from_secs(1)) {
                Err(SimError::InvalidScenario(msg)) => {
                    assert!(msg.contains("not finite"), "{what}: {msg}")
                }
                other => panic!("{what}: want InvalidScenario, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_stop_time_is_honored() {
        let (mut sc, a, b) = two_station_scenario();
        sc.add_stream(StreamSpec {
            name: "short".into(),
            src: a,
            dst: Dest::Station(b),
            transport: TransportKind::Udp,
            source: SourceKind::Cbr { pps: 32 },
            bytes: 512,
            start: SimTime::ZERO,
            stop: Some(SimTime::ZERO + SimDuration::from_secs(10)),
        });
        let r = sc.run(SimDuration::from_secs(60), SimDuration::ZERO).unwrap();
        // ~10 s of a 32 pps stream, not 60 s worth.
        assert!(r.stream("short").offered <= 10 * 32 + 2);
        assert!(r.stream("short").offered >= 8 * 32);
    }

    #[test]
    fn stream_start_offset_is_honored() {
        let (mut sc, a, b) = two_station_scenario();
        sc.add_stream(StreamSpec {
            name: "late".into(),
            src: a,
            dst: Dest::Station(b),
            transport: TransportKind::Udp,
            source: SourceKind::Cbr { pps: 32 },
            bytes: 512,
            start: SimTime::ZERO + SimDuration::from_secs(30),
            stop: None,
        });
        let r = sc.run(SimDuration::from_secs(60), SimDuration::ZERO).unwrap();
        assert!(r.stream("late").offered <= 30 * 32 + 2);
    }

    #[test]
    fn poisson_source_offers_approximately_its_rate() {
        let (mut sc, a, b) = two_station_scenario();
        sc.add_stream(StreamSpec {
            name: "poisson".into(),
            src: a,
            dst: Dest::Station(b),
            transport: TransportKind::Udp,
            source: SourceKind::Poisson { pps: 20.0 },
            bytes: 512,
            start: SimTime::ZERO,
            stop: None,
        });
        let r = sc.run(SimDuration::from_secs(120), SimDuration::ZERO).unwrap();
        let rate = r.stream("poisson").offered as f64 / 120.0;
        assert!((rate - 20.0).abs() < 3.0, "offered rate = {rate}");
    }

    #[test]
    fn mixed_protocols_in_one_cell_interoperate() {
        // A CSMA station and a MACAW pair share a cell without panics; the
        // MACAW exchange still completes.
        let mut sc = Scenario::new(9);
        let b = sc.add_station("B", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
        let p = sc.add_station("P", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
        let noisy = sc.add_station("N", Point::new(-3.0, 0.0, 0.0), MacKind::Csma(Default::default()));
        sc.add_udp_stream("P-B", p, b, 16, 512);
        sc.add_udp_stream("N-B", noisy, b, 16, 512);
        let r = sc.run(SimDuration::from_secs(60), SimDuration::from_secs(5)).unwrap();
        assert!(r.throughput("P-B") > 5.0);
    }

    #[test]
    fn asymmetric_power_starves_the_quiet_direction() {
        // §4's concern, end to end: a loud base reaches a distant pad, but
        // the pad's CTS/data cannot reach back, so the downlink exchange
        // never completes under MACAW.
        let mut sc = Scenario::new(6);
        let b = sc.add_station("B", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
        let p = sc.add_station("P", Point::new(12.0, 0.0, 0.0), MacKind::Macaw);
        sc.set_tx_power(b, 1000.0);
        sc.add_udp_stream("B-P", b, p, 16, 512);
        let r = sc.run(SimDuration::from_secs(30), SimDuration::from_secs(2)).unwrap();
        assert_eq!(
            r.stream("B-P").delivered,
            0,
            "RTS arrives but the CTS cannot return: no exchange completes"
        );
    }

    #[test]
    fn group_members_are_auto_joined() {
        let mut sc = Scenario::new(2);
        let a = sc.add_station("A", Point::new(0.0, 0.0, 6.0), MacKind::Macaw);
        let b = sc.add_station("B", Point::new(3.0, 0.0, 0.0), MacKind::Macaw);
        let c = sc.add_station("C", Point::new(-3.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_stream(StreamSpec {
            name: "mc".into(),
            src: a,
            dst: Dest::Group {
                group: 7,
                members: vec![b, c],
            },
            transport: TransportKind::Udp,
            source: SourceKind::Cbr { pps: 8 },
            bytes: 512,
            start: SimTime::ZERO,
            stop: None,
        });
        let r = sc.run(SimDuration::from_secs(30), SimDuration::from_secs(2)).unwrap();
        // Two members => up to 2 deliveries per generated packet.
        let s = r.stream("mc");
        assert!(s.delivered > s.offered, "multicast must fan out: {} vs {}", s.delivered, s.offered);
        assert!(s.delivered <= 2 * s.offered);
    }
}
