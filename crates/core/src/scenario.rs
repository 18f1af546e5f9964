//! The scenario builder: declarative construction of a simulated network.
//!
//! A [`Scenario`] collects stations, protocol choices, streams, noise and
//! scheduled actions, then [`Scenario::build`]s a [`Network`] (or
//! [`Scenario::run`]s it directly). Everything is derived deterministically
//! from the scenario seed, so `(Scenario, seed)` fully determines a run.

use macaw_mac::config::MacConfig;
use macaw_mac::context::MacProtocol;
use macaw_mac::csma::{Csma, CsmaConfig};
use macaw_mac::frames::Addr;
use macaw_mac::wmac::{MacStats, WMac};
use macaw_phy::{LinkWindow, Medium, Point, PropagationConfig, StationId, MAX_GAMMA};
use macaw_sim::{SimDuration, SimTime};
pub use macaw_traffic::SourceKind;

use crate::error::SimError;
use crate::network::{ActionKind, Network, ScheduledAction};
use crate::partition::Partition;
use crate::stats::RunReport;

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
    pub(crate) fn build(self, addr: Addr, groups: &[u32]) -> StationMac {
        let cfg = match self {
            MacKind::Maca => MacConfig::maca(),
            MacKind::Macaw => MacConfig::macaw(),
            MacKind::Custom(cfg) => cfg,
            MacKind::Csma(cfg) => return StationMac::Csma(Csma::new(addr, cfg)),
        };
        let mut m = WMac::new(addr, cfg);
        for g in groups {
            m.join_group(*g);
        }
        StationMac::WMac(m)
    }
}

/// A built station MAC, stored in place in the network's MAC table: the
/// closed set [`MacKind`] builds.
#[expect(clippy::large_enum_variant, reason = "WMac is the common variant")]
pub(crate) enum StationMac {
    WMac(WMac),
    Csma(Csma),
}

impl StationMac {
    /// The machine's protocol counters, if it keeps them.
    pub(crate) fn stats(&self) -> Option<MacStats> {
        match self {
            StationMac::WMac(m) => m.mac_stats().copied(),
            StationMac::Csma(m) => m.mac_stats().copied(),
        }
    }
}

/// Which transport a stream uses.
#[derive(Clone, Copy, Debug)]
pub enum TransportKind {
    /// Fire-and-forget datagrams (most of the paper's experiments).
    Udp,
    /// The simplified TCP of §3.3.1 (Tables 4 and 11).
    Tcp,
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
    /// action enum stays `Copy`.
    pub(crate) moves: Vec<(StationId, Point)>,
    pub(crate) windows: Vec<LinkWindow>,
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
    /// model with a hard out-of-range cutoff). `gamma` must be positive and
    /// at most [`MAX_GAMMA`].
    pub fn propagation(&mut self, cfg: PropagationConfig) -> &mut Self {
        if !(cfg.gamma > 0.0 && cfg.gamma <= MAX_GAMMA) {
            self.note_defect(format!(
                "propagation: gamma {} must be positive and at most {MAX_GAMMA}",
                cfg.gamma
            ));
        }
        self.prop = cfg;
        self
    }

    /// Add a station; returns its index. Positions are in feet, with
    /// base stations conventionally at z = 6 and pads at z = 0 (the paper's
    /// "pads are 6 feet below the base station height"). Every coordinate
    /// must be finite. A custom or CSMA MAC config must have backoff bounds
    /// `1 <= bo_min <= bo_max <= u32::MAX / 2`: the MAC sums two estimates
    /// and doubles the upper bound in `u32`.
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
            } else if max > u32::MAX / 2 {
                self.note_defect(format!(
                    "add_station '{name}': bo_max {max} exceeds {}",
                    u32::MAX / 2
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
            transport: TransportKind::Tcp,
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
            self.push_moves(at, &[(station, to)]);
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
        self.push_moves(at, moves);
        self
    }

    /// Schedule checked, non-empty `moves` as one
    /// [`ActionKind::MoveBatch`] at `at`: a single move is a batch of one.
    fn push_moves(&mut self, at: SimTime, moves: &[(usize, Point)]) {
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
    }

    /// Schedule a station power-off at time `at` (the Figure-9 experiment).
    /// A frame in flight finishes on the air, but the station hears
    /// nothing more and its MAC timer is cleared. The power-off is
    /// permanent: a restart at or after it is a defect.
    /// [`Scenario::crash_at`] and [`Scenario::restart_at`] are the power
    /// cycle.
    pub fn power_off_at(&mut self, at: SimTime, station: usize) -> &mut Self {
        if !self.check_station(station, "power_off_at") {
            return self;
        }
        let restarted = self.actions.iter().any(|a| {
            matches!(a.kind, ActionKind::Restart { station: s } if s == station) && a.at >= at
        });
        if restarted {
            self.note_defect(format!(
                "power_off_at: station {station} restarts at or after {at}, but a power-off is permanent"
            ));
        } else {
            self.actions.push(ScheduledAction {
                at,
                kind: ActionKind::PowerOff { station },
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

    /// Schedule a crashed station's restart at time `at`. An earlier
    /// [`Scenario::crash_at`] call must crash `station` strictly before
    /// `at`: the crash truncates the station's frame and resets its MAC,
    /// which the restart's kick relies on. A restart at or after a
    /// [`Scenario::power_off_at`] of the station is a defect too.
    pub fn restart_at(&mut self, at: SimTime, station: usize) -> &mut Self {
        if !self.check_station(station, "restart_at") {
            return self;
        }
        let (mut crashed, mut powered_off) = (false, false);
        for a in &self.actions {
            match a.kind {
                ActionKind::Crash { station: s, .. } if s == station => crashed |= a.at < at,
                ActionKind::PowerOff { station: s } if s == station => powered_off |= a.at <= at,
                _ => {}
            }
        }
        if powered_off {
            self.note_defect(format!(
                "restart_at: station {station} is powered off at or before {at}, and a power-off is permanent"
            ));
        } else if !crashed {
            self.note_defect(format!(
                "restart_at: no earlier crash_at of station {station} before {at}"
            ));
        } else {
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
        self.build_with_queue::<macaw_phy::SparseMedium, macaw_sim::LadderFel>()
    }

    /// Assemble the network on any [`Medium`] and any future-event-list
    /// family ([`macaw_sim::FelChoice`]). The FEL is unobservable by
    /// construction — every backend pops the same total order — so this
    /// exists for the queue-equivalence tests that prove it, for the
    /// reference-medium oracle tests and for perfbench's timed seams.
    pub fn build_with_queue<M: Medium, Q: macaw_sim::FelChoice>(
        mut self,
    ) -> Result<Network<M, Q>, SimError> {
        if let Some(msg) = self.defect.take() {
            return Err(SimError::InvalidScenario(msg));
        }
        // Island labels for the per-island high-water accounting.
        let part = crate::partition::compute(&self);
        Ok(Network::new(self, part))
    }

    /// The conservative coupling partition of this scenario: the islands
    /// of stations that can ever interact, plus the island of every
    /// stream, action and noise emitter. See [`crate::partition`] for the
    /// coupling rules; every build computes it for
    /// [`Network::queue_stats`]' high-water mark.
    pub fn partition(&self) -> Result<Partition, SimError> {
        if let Some(msg) = &self.defect {
            return Err(SimError::InvalidScenario(msg.clone()));
        }
        Ok(crate::partition::compute(self))
    }

    /// Build and run for `duration`, measuring after `warmup`.
    pub fn run(self, duration: SimDuration, warmup: SimDuration) -> Result<RunReport, SimError> {
        self.run_with_queue::<macaw_phy::SparseMedium, macaw_sim::LadderFel>(duration, warmup)
    }

    /// [`Scenario::run`] on any [`Medium`] and any future-event-list
    /// family. On the reference oracle ([`macaw_phy::ReferenceMedium`]) or
    /// the heap FEL ([`macaw_sim::HeapFel`]) the [`RunReport`] is bitwise
    /// identical to [`Scenario::run`]'s for the same scenario and seed.
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
            transport: TransportKind::Tcp,
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

    /// A restart must follow a crash of its station and no power-off. A
    /// powered-off station skips its frame's `on_tx_end`, so its MAC stays
    /// in a send state, and a restart's kick then fired the MAC timer
    /// mid-transmission: the run failed with `MacInvariant`. The crash
    /// truncates the frame and resets the MAC, which the kick relies on.
    #[test]
    fn a_restart_needs_an_earlier_crash_and_no_power_off() {
        let t = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
        // P sends to B at 64 pps; 38.47 ms is half-way through P's fourth
        // frame.
        let cell = || {
            let (mut sc, b, p) = two_station_scenario();
            sc.add_udp_stream("P-B", p, b, 64, 512);
            (sc, p)
        };
        let (off, back) = (t(38_470), t(1_038_470));
        let cases = [
            ("restart after a power-off", "restart_at", {
                let (mut sc, p) = cell();
                sc.power_off_at(off, p).restart_at(back, p);
                sc
            }),
            ("restart declared before its crash", "restart_at", {
                let (mut sc, p) = cell();
                sc.restart_at(back, p).crash_at(off, p, true);
                sc
            }),
            ("restart timed before its crash", "restart_at", {
                let (mut sc, p) = cell();
                sc.crash_at(back, p, true).restart_at(off, p);
                sc
            }),
            ("restart at its crash's instant", "restart_at", {
                let (mut sc, p) = cell();
                sc.crash_at(off, p, true).restart_at(off, p);
                sc
            }),
            ("restart after a cycle then a power-off", "restart_at", {
                let (mut sc, p) = cell();
                sc.crash_at(t(1_000), p, true).restart_at(t(2_000), p);
                sc.power_off_at(off, p).restart_at(back, p);
                sc
            }),
            ("power-off before a declared restart", "power_off_at", {
                let (mut sc, p) = cell();
                sc.crash_at(t(1_000), p, true).restart_at(back, p);
                sc.power_off_at(off, p);
                sc
            }),
        ];
        for (what, builder, sc) in cases {
            match sc.build() {
                Err(SimError::InvalidScenario(msg)) => {
                    assert!(msg.contains(builder), "{what}: {msg}")
                }
                other => panic!("{what}: want InvalidScenario, got {other:?}"),
            }
        }
        let (mut sc, p) = cell();
        sc.crash_at(off, p, true).restart_at(back, p);
        let r = sc
            .run(SimDuration::from_secs(5), SimDuration::ZERO)
            .unwrap();
        assert!(r.stream("P-B").delivered > 100, "{:?}", r.stream("P-B"));
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
            ("gamma 330", prop(|c| c.gamma = 330.0)),
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
            (
                "MacConfig bo_max 2^31",
                mac(MacKind::Custom(MacConfig {
                    bo_max: 1 << 31,
                    ..MacConfig::macaw()
                })),
            ),
        ];
        for (what, sc) in cases {
            match sc.run(SimDuration::from_secs(5), SimDuration::from_secs(1)) {
                Err(SimError::InvalidScenario(_)) => {}
                other => panic!("{what}: want InvalidScenario, got {other:?}"),
            }
        }
        // The largest accepted bounds and γ run without overflow.
        let widest = u32::MAX / 2;
        mac(MacKind::Custom(MacConfig {
            bo_min: widest,
            bo_max: widest,
            ..MacConfig::macaw()
        }))
        .run(SimDuration::from_secs(5), SimDuration::from_secs(1))
        .unwrap();
        prop(|c| c.gamma = MAX_GAMMA)
            .run(SimDuration::from_secs(5), SimDuration::from_secs(1))
            .unwrap();
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

    /// A scenario with no island (no stations) runs, and so does one
    /// whose one island no station can hear (a lone noise emitter).
    #[test]
    fn island_free_and_noise_only_scenarios_run() {
        let (dur, warm) = (SimDuration::from_secs(5), SimDuration::from_secs(1));
        let empty = Scenario::new(4).run(dur, warm).unwrap();
        assert_eq!(empty.events_processed, 0);
        let mut noise_only = Scenario::new(4);
        noise_only.add_noise_source(Point::new(0.0, 0.0, 0.0), 1.0, true);
        noise_only.set_noise_at(SimTime::ZERO + SimDuration::from_secs(2), 0, false);
        // The emitter's toggle is the noise-only run's one event.
        assert_eq!(noise_only.run(dur, warm).unwrap().events_processed, 1);
    }
}
