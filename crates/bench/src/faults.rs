//! Lossy-channel ablation: the paper's protocols under injected faults.
//!
//! Each fault class pits CSMA, MACA (no link ACK) and MACAW (full §3.3
//! exchange) against the same deterministic fault schedule on a paper
//! topology, reporting per-stream goodput. The headline claim is §3.3.1's:
//! on a channel that corrupts DATA frames, MACAW's link-level ACK keeps
//! goodput alive where MACA — which finds out about the loss only from the
//! (absent, UDP) transport — collapses to the clean-air fraction.
//!
//! Five classes, all driven through [`macaw_core::faults`] /
//! [`Scenario`]'s fault builders:
//!
//! * `corruption` — periodic per-link corruption windows (Figure-1 hidden
//!   topology). Control frames slip under `min_air`; DATA dies.
//! * `noise` — a noise emitter beside the base station pulsing on/off,
//!   inaudible to the pads' carrier sense (Figure-2 cell).
//! * `crash` — a pad dies mid-run, restarts later, queues preserved
//!   (Figure-2 cell); the other pad must keep running.
//! * `asymmetry` — a deep one-directional fade silences the pads'
//!   replies for a stretch (Figure-6 two-cell); streams must stall
//!   cleanly and recover, not deadlock.
//! * `chaos` — an [`add_random_faults`] schedule (every fault class at
//!   once) on the Figure-3 six-pad cell.

use macaw_core::prelude::*;
use macaw_core::Executor;

use crate::warm_for;

/// The protocol ladder every fault class is run against.
pub fn protocols() -> Vec<(&'static str, MacKind)> {
    vec![
        ("CSMA", MacKind::Csma(Default::default())),
        ("MACA", MacKind::Maca),
        ("MACAW", MacKind::Macaw),
    ]
}

/// One fault class reproduced across the protocol ladder.
#[derive(Clone, Debug)]
pub struct FaultAblation {
    pub class: &'static str,
    pub topology: &'static str,
    /// The qualitative claim the numbers must support.
    pub claim: &'static str,
    /// Protocol names, in ladder order.
    pub columns: Vec<&'static str>,
    /// Rows: (stream name, goodput in pps per protocol).
    pub rows: Vec<(String, Vec<f64>)>,
    /// Total MAC-level "gave up, reported drop" count per protocol.
    pub mac_drops: Vec<u64>,
}

impl FaultAblation {
    /// Measured goodput totals per protocol.
    pub fn totals(&self) -> Vec<f64> {
        (0..self.columns.len())
            .map(|c| self.rows.iter().map(|(_, m)| m[c]).sum())
            .collect()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "faults/{} — {} topology\n",
            self.class, self.topology
        ));
        out.push_str(&format!("{:<10}", "stream"));
        for c in &self.columns {
            out.push_str(&format!(" | {c:>8}"));
        }
        out.push('\n');
        for (name, meas) in &self.rows {
            out.push_str(&format!("{name:<10}"));
            for m in meas {
                out.push_str(&format!(" | {m:>8.2}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<10}", "total"));
        for t in self.totals() {
            out.push_str(&format!(" | {t:>8.2}"));
        }
        out.push('\n');
        out.push_str(&format!("{:<10}", "mac drops"));
        for d in &self.mac_drops {
            out.push_str(&format!(" | {d:>8}"));
        }
        out.push('\n');
        out.push_str(&format!("claim: {}\n", self.claim));
        out
    }

    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (name, meas) in &self.rows {
            let vals: Vec<String> = meas.iter().map(|m| format!("{m:.3}")).collect();
            rows.push_str(&format!(
                "        {{ \"stream\": \"{name}\", \"goodput_pps\": [{}] }},\n",
                vals.join(", ")
            ));
        }
        rows.pop();
        rows.pop(); // trailing ",\n"
        rows.push('\n');
        let cols: Vec<String> = self.columns.iter().map(|c| format!("\"{c}\"")).collect();
        let drops: Vec<String> = self.mac_drops.iter().map(|d| d.to_string()).collect();
        format!(
            "    {{\n      \"class\": \"{}\",\n      \"topology\": \"{}\",\n      \
             \"claim\": \"{}\",\n      \"protocols\": [{}],\n      \
             \"mac_drops\": [{}],\n      \"rows\": [\n{rows}      ]\n    }}",
            self.class,
            self.topology,
            self.claim,
            cols.join(", "),
            drops.join(", ")
        )
    }
}

/// Figure-1 hidden-terminal cell at a configurable offered load: A → B
/// while C → B, A and C mutually out of range. Low load (8 pps each)
/// leaves clean-air headroom so loss recovery — not raw contention — is
/// what separates the protocols.
fn hidden_cell(mac: MacKind, seed: u64, pps: u64) -> (Scenario, [usize; 3]) {
    let mut sc = Scenario::new(seed);
    let a = sc.add_station("A", Point::new(0.0, 0.0, 0.0), mac);
    let b = sc.add_station("B", Point::new(8.0, 0.0, 0.0), mac);
    let c = sc.add_station("C", Point::new(16.0, 0.0, 0.0), mac);
    sc.add_udp_stream("A-B", a, b, pps, 512);
    sc.add_udp_stream("C-B", c, b, pps, 512);
    (sc, [a, b, c])
}

/// Figure-2 single cell: two pads streaming to the base station.
fn one_cell(mac: MacKind, seed: u64, pps: u64) -> (Scenario, [usize; 3]) {
    let mut sc = Scenario::new(seed);
    let b = sc.add_station("B", Point::new(0.0, 0.0, 6.0), mac);
    let p1 = sc.add_station("P1", Point::new(-3.0, 0.0, 0.0), mac);
    let p2 = sc.add_station("P2", Point::new(3.0, 0.0, 0.0), mac);
    sc.add_udp_stream("P1-B", p1, b, pps, 512);
    sc.add_udp_stream("P2-B", p2, b, pps, 512);
    (sc, [b, p1, p2])
}

/// Figure-6 two-cell topology (base → pad in both cells), reusing the
/// shared builder so the chaos class exercises a multi-cell layout.
fn two_cell(mac: MacKind, seed: u64) -> Scenario {
    figures::figure6(mac, seed)
}

/// A fault class as data: everything needed to build and label one
/// `(class, protocol)` cell independently, so each cell is one executor
/// job.
struct ClassSpec {
    class: &'static str,
    topology: &'static str,
    claim: &'static str,
    /// Stream names in report-row order.
    names: fn() -> Vec<String>,
    /// Build the faulted scenario for one protocol.
    cell: fn(MacKind, u64, SimDuration) -> Result<Scenario, SimError>,
}

/// Every fault class, in report order.
fn classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec {
            class: "corruption",
            topology: "figure1-hidden",
            claim: "MACAW's link ACK keeps goodput alive through corruption windows where MACA collapses to the clean-air fraction",
            names: || vec!["A-B".to_string(), "C-B".to_string()],
            cell: corruption_cell,
        },
        ClassSpec {
            class: "noise",
            topology: "figure2-cell",
            claim: "noise only the receiver can hear: CSMA's carrier sense is deaf to it and collapses; the RTS/CTS probe keeps MACA and MACAW near full rate",
            names: || vec!["P1-B".to_string(), "P2-B".to_string()],
            cell: noise_cell,
        },
        ClassSpec {
            class: "crash",
            topology: "figure2-cell",
            claim: "a pad crash leaves the survivor at full rate and the restarted pad re-contends; nobody wedges",
            names: || vec!["P1-B".to_string(), "P2-B".to_string()],
            cell: crash_cell,
        },
        ClassSpec {
            class: "asymmetry",
            topology: "figure6-two-cell",
            claim: "a one-way fade silences the pads' replies: retries stay bounded, drops are reported, and goodput returns when the fade lifts",
            names: || vec!["B2-P2".to_string(), "B1-P1".to_string()],
            cell: asymmetry_cell,
        },
        ClassSpec {
            class: "chaos",
            topology: "figure3-six-pads",
            claim: "a generated all-class fault schedule replays identically across protocols and never panics or hangs",
            names: || (1..=6).map(|i| format!("P{i}-B")).collect(),
            cell: chaos_cell,
        },
    ]
}

/// Assemble one class's table from its per-protocol reports, in ladder
/// order.
fn assemble(spec: &ClassSpec, per_proto: &[RunReport]) -> FaultAblation {
    let columns = protocols().iter().map(|(n, _)| *n).collect();
    let rows = (spec.names)()
        .into_iter()
        .map(|n| {
            let meas = per_proto.iter().map(|r| r.throughput(&n)).collect();
            (n, meas)
        })
        .collect();
    let mac_drops = per_proto
        .iter()
        .map(|r| r.mac_drops.iter().sum())
        .collect();
    FaultAblation {
        class: spec.class,
        topology: spec.topology,
        claim: spec.claim,
        columns,
        rows,
        mac_drops,
    }
}

/// Periodic corruption windows on both uplinks: 150 ms corrupt / 50 ms
/// clean, `min_air` 2 ms (DATA at 512 B airs for ~16 ms and dies; 30 B
/// control frames air for ~0.9 ms and pass). MACA loses every DATA frame
/// the window touches; MACAW retransmits into the clean gaps.
fn corruption_cell(mac: MacKind, seed: u64, dur: SimDuration) -> Result<Scenario, SimError> {
    let corrupt = SimDuration::from_millis(150);
    let period = SimDuration::from_millis(200);
    let min_air = SimDuration::from_millis(2);
    let (mut sc, [a, b, c]) = hidden_cell(mac, seed, 8);
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + dur;
    while t < end {
        sc.corrupt_link(a, b, t, t + corrupt, min_air);
        sc.corrupt_link(c, b, t, t + corrupt, min_air);
        t += period;
    }
    Ok(sc)
}

/// A *hidden* noise emitter 1.5 ft from the base station pulsing on and
/// off. Its power is tuned to drown everything the base hears while
/// staying below the pads' reception threshold, so carrier sense never
/// notices it — CSMA transmits blindly into bursts and loses every frame
/// they touch. The RTS/CTS probe protects MACA and MACAW: no CTS comes
/// back through a burst, so DATA is simply not sent until the channel is
/// really clear, and the occasional frame a burst onset clips mid-flight
/// surfaces as a reported MAC drop.
fn noise_cell(mac: MacKind, seed: u64, dur: SimDuration) -> Result<Scenario, SimError> {
    // 93 ms on / 134 ms off: the 227 ms period shares no small multiple
    // with the streams' 125 ms CBR interval, so bursts sweep across the
    // packet phase instead of locking onto one sender.
    let on = SimDuration::from_millis(93);
    let period = SimDuration::from_millis(227);
    let (mut sc, _) = one_cell(mac, seed, 8);
    // 0.02 × (10/1.5)^6 ≈ 1.8e3 at the base (deafening); at the
    // pads, 6+ ft away, it lands under the reception threshold and
    // the hard cutoff zeroes it — inaudible to carrier sense.
    let src = sc.add_noise_source(Point::new(1.5, 0.0, 6.0), 0.02, false);
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + dur;
    while t < end {
        sc.set_noise_at(t, src, true);
        sc.set_noise_at(t + on, src, false);
        t += period;
    }
    Ok(sc)
}

/// P1 crashes a third of the way in (queues preserved) and restarts at
/// two thirds. P2 must keep its full rate throughout; P1 must come back
/// and re-contend rather than leaving the cell wedged.
fn crash_cell(mac: MacKind, seed: u64, dur: SimDuration) -> Result<Scenario, SimError> {
    let (mut sc, [_, p1, _]) = one_cell(mac, seed, 8);
    sc.crash_at(SimTime::ZERO + dur / 3, p1, true);
    sc.restart_at(SimTime::ZERO + (dur / 3) * 2, p1);
    Ok(sc)
}

/// §4's asymmetric link, on the Figure-6 two-cell topology: for the
/// middle half of the run each base hears only 2% of its pad's power, so
/// the pads' CTS and ACK replies go silent while the bases' RTS and DATA
/// still arrive. The MACs must stall cleanly (bounded retries, drops
/// reported) and recover when the fade lifts; CSMA never needed the
/// replies and sails through.
fn asymmetry_cell(mac: MacKind, seed: u64, dur: SimDuration) -> Result<Scenario, SimError> {
    // figure6 station order: B1, P1, P2, B2 (streams B1→P1, B2→P2).
    let mut sc = two_cell(mac, seed);
    let from = SimTime::ZERO + dur / 4;
    let until = SimTime::ZERO + dur / 2;
    for (pad, base) in [(1, 0), (2, 3)] {
        sc.set_link_gain_at(from, pad, base, 0.02);
        sc.set_link_gain_at(until, pad, base, 1.0);
    }
    Ok(sc)
}

/// Every fault class at once: an [`add_random_faults`] schedule scaled
/// to the run length, declared identically on each protocol's copy of the
/// Figure-3 six-pad cell. That topology's 7.2 ft pad-base links leave
/// ~2.8 ft of slack against the 10 ft hard cutoff, so position jitters
/// (which quantize to the 1 ft cube grid) degrade links without severing
/// them — unlike Figure 6, whose 9.2 ft links a single jitter can
/// permanently amputate.
fn chaos_cell(mac: MacKind, seed: u64, dur: SimDuration) -> Result<Scenario, SimError> {
    let cfg = FaultPlanConfig {
        duration: dur,
        noise_bursts: 4,
        corruption_windows: 8,
        crashes: 1,
        asymmetries: 4,
        // Caps jitter offsets at 0.75 ft per axis and keeps generated
        // noise emitters inside the cell.
        arena: 3.0,
    };
    let mut sc = figures::figure3(mac, seed);
    add_random_faults(&mut sc, seed, &cfg);
    Ok(sc)
}

/// Every fault class, in report order, on the executor `ex`: every
/// `(class, protocol)` cell is an independent job — 15 independent
/// simulations. Each cell is a pure function of `(class,
/// protocol, seed)`, so the assembled tables are the same whatever the
/// worker count; the first error in input order wins (see
/// `parallel_faults_match_serial` in `tests/determinism.rs`).
/// `Executor::new(1)` runs the cells inline, one after another.
pub fn all_faults_with(
    ex: &Executor,
    seed: u64,
    dur: SimDuration,
) -> Result<Vec<FaultAblation>, SimError> {
    let specs = classes();
    let ladder = protocols();
    let reports = ex.try_run(specs.len() * ladder.len(), |i| {
        let spec = &specs[i / ladder.len()];
        let (_, mac) = ladder[i % ladder.len()];
        (spec.cell)(mac, seed, dur).and_then(|sc| sc.run(dur, warm_for(dur)))
    })?;
    Ok(specs
        .iter()
        .zip(reports.chunks(ladder.len()))
        .map(|(spec, per_proto)| assemble(spec, per_proto))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: SimDuration = SimDuration::from_secs(30);

    #[test]
    fn corruption_separates_macaw_from_maca() {
        let all = all_faults_with(&Executor::new(1), 7, DUR).unwrap();
        let t = all.iter().find(|t| t.class == "corruption").unwrap();
        let totals = t.totals();
        let (maca, macaw) = (totals[1], totals[2]);
        assert!(macaw > 0.0, "MACAW must keep goodput alive: {macaw}");
        assert!(
            macaw > 1.5 * maca,
            "link ACK should dominate on a corrupting channel: MACAW {macaw:.2} vs MACA {maca:.2}"
        );
    }

    #[test]
    fn every_class_runs_and_stays_finite() {
        for t in all_faults_with(&Executor::new(1), 3, SimDuration::from_secs(10)).unwrap() {
            for total in t.totals() {
                assert!(
                    total.is_finite() && total >= 0.0,
                    "{}: non-finite goodput",
                    t.class
                );
            }
            assert_eq!(t.columns.len(), 3);
            assert_eq!(t.mac_drops.len(), 3);
        }
    }
}
