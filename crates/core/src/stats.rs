//! Run statistics: per-stream throughput, fairness and utilization.
//!
//! Every table in the paper reports per-stream throughput in packets per
//! second over the post-warm-up window ("Simulations are typically run
//! between 500 and 2000 seconds, with a warmup period of 50 seconds").
//! [`RunReport`] carries exactly those numbers, plus Jain's fairness index
//! (the standard quantification of the paper's informal "fair allocation"
//! criterion) and channel utilization.

use macaw_mac::wmac::MacStats;
use macaw_sim::QueueStats;

/// Per-stream measurements over the post-warm-up window.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Stream label (e.g. "P1-B").
    pub name: String,
    /// Source station name.
    pub src: String,
    /// Destination station name (or `mcast:<group>`).
    pub dst: String,
    /// Application packets generated in the window.
    pub offered: u64,
    /// Application packets delivered at the sink in the window.
    pub delivered: u64,
    /// Offered load in packets per second.
    pub offered_pps: f64,
    /// Delivered throughput in packets per second — the paper's metric.
    pub throughput_pps: f64,
    /// Delivered payload bytes in the window.
    pub delivered_bytes: u64,
}

/// The result of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Length of the measurement window in seconds.
    pub measured_secs: f64,
    /// Per-stream results, in stream declaration order.
    pub streams: Vec<StreamReport>,
    /// Station names, by station index.
    pub station_names: Vec<String>,
    /// Per-station MAC counters (None for MACs without them).
    pub mac_stats: Vec<Option<MacStats>>,
    /// Per-station count of packets the MAC gave up on after exhausting
    /// its retries (the "give up and report the drop" terminal path).
    pub mac_drops: Vec<u64>,
    /// Seconds of post-warm-up air time occupied by DATA frames.
    pub data_air_secs: f64,
    /// Seconds of post-warm-up air time occupied by all frames.
    pub total_air_secs: f64,
    /// Total simulation events processed over the whole run (including
    /// warm-up) — the numerator of engine events-per-second throughput.
    pub events_processed: u64,
    /// Future-event-list operation counters (schedules, pops, an
    /// always-zero cancellation count, depth high-water mark). Pure
    /// functions of the event trajectory, so they are identical across FEL
    /// backends — the queue-equivalence tests compare them bitwise along
    /// with everything else. The high-water mark is the **sum of per-island
    /// high-water marks** over the coupling partition (see
    /// `Network::queue_stats`).
    pub queue_stats: QueueStats,
}

impl RunReport {
    /// Throughput of the stream named `name`, in packets per second.
    ///
    /// # Panics
    /// Panics if no stream has that name (a typo in an experiment is a bug
    /// worth failing loudly on).
    pub fn throughput(&self, name: &str) -> f64 {
        self.stream(name).throughput_pps
    }

    /// The full report for the stream named `name`.
    pub fn stream(&self, name: &str) -> &StreamReport {
        self.streams
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no stream named {name:?}"))
    }

    /// Sum of all stream throughputs, in packets per second.
    pub fn total_throughput(&self) -> f64 {
        self.streams.iter().map(|s| s.throughput_pps).sum()
    }

    /// Jain's fairness index over all streams:
    /// `(Σx)² / (n · Σx²)` — 1.0 is perfectly fair, 1/n is a single winner.
    pub fn jain_fairness(&self) -> f64 {
        jain(&self
            .streams
            .iter()
            .map(|s| s.throughput_pps)
            .collect::<Vec<_>>())
    }

    /// Jain's fairness index over a named subset of streams.
    pub fn jain_fairness_of(&self, names: &[&str]) -> f64 {
        jain(&names
            .iter()
            .map(|n| self.throughput(n))
            .collect::<Vec<_>>())
    }

    /// Fraction of the measurement window occupied by DATA frames
    /// (the paper's "channel capacity" percentages in §3.5).
    pub fn data_utilization(&self) -> f64 {
        if self.measured_secs > 0.0 {
            self.data_air_secs / self.measured_secs
        } else {
            0.0
        }
    }

    /// Render the per-stream table as aligned text (the format the benches
    /// print next to the paper's numbers).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12}\n",
            "stream", "offered/s", "delivered/s", "delivered"
        ));
        for s in &self.streams {
            out.push_str(&format!(
                "{:<12} {:>12.2} {:>12.2} {:>12}\n",
                s.name, s.offered_pps, s.throughput_pps, s.delivered
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>12.2} {:>12.2}\n",
            "TOTAL",
            self.streams.iter().map(|s| s.offered_pps).sum::<f64>(),
            self.total_throughput()
        ));
        out
    }
}

/// Escape a name for the one-token-per-field canonical text.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            _ => out.push(c),
        }
    }
    out
}

/// First line of the canonical text, naming its format.
const CACHE_FORMAT: &str = "macaw-runreport v3";

impl RunReport {
    /// The canonical text of a report: one line per record, every field
    /// present, every f64 printed as its shortest round-trippable decimal
    /// (Rust's `{:?}`), so changing any field changes the text.
    /// perfbench's output digests hash these bytes, so any change to the
    /// format changes its expected digests.
    pub fn to_cache_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CACHE_FORMAT);
        out.push('\n');
        out.push_str(&format!("measured_secs {:?}\n", self.measured_secs));
        for s in &self.streams {
            out.push_str(&format!(
                "stream {} {} {} {} {} {:?} {:?} {}\n",
                esc(&s.name),
                esc(&s.src),
                esc(&s.dst),
                s.offered,
                s.delivered,
                s.offered_pps,
                s.throughput_pps,
                s.delivered_bytes
            ));
        }
        for n in &self.station_names {
            out.push_str(&format!("station {}\n", esc(n)));
        }
        for m in &self.mac_stats {
            match m {
                None => out.push_str("macstat -\n"),
                Some(m) => out.push_str(&format!(
                    "macstat {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                    m.enqueued,
                    m.refused,
                    m.rts_sent,
                    m.cts_sent,
                    m.ds_sent,
                    m.data_sent,
                    m.ack_sent,
                    m.rrts_sent,
                    m.nack_sent,
                    m.rts_timeouts,
                    m.ack_timeouts,
                    m.data_delivered,
                    m.packets_sent_ok,
                    m.packets_dropped
                )),
            }
        }
        out.push_str("mac_drops");
        for d in &self.mac_drops {
            out.push_str(&format!(" {d}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "air {:?} {:?}\n",
            self.data_air_secs, self.total_air_secs
        ));
        out.push_str(&format!("events {}\n", self.events_processed));
        out.push_str(&format!(
            "queue {} {} {} {}\n",
            self.queue_stats.scheduled,
            self.queue_stats.popped,
            self.queue_stats.cancelled,
            self.queue_stats.high_water
        ));
        out.push_str("end\n");
        out
    }
}

/// Jain's fairness index of a throughput vector.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        // All-zero allocation: degenerate but conventionally "fair".
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_of_equal_allocation_is_one() {
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_of_single_winner_is_one_over_n() {
        let j = jain(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_handles_edge_cases() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[7.5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = jain(&[1.0, 2.0, 3.0]);
        let b = jain(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    fn report_with(tputs: &[(&str, f64)]) -> RunReport {
        RunReport {
            measured_secs: 10.0,
            streams: tputs
                .iter()
                .map(|(n, t)| StreamReport {
                    name: n.to_string(),
                    src: "s".into(),
                    dst: "d".into(),
                    offered: 0,
                    delivered: (t * 10.0) as u64,
                    offered_pps: 64.0,
                    throughput_pps: *t,
                    delivered_bytes: 0,
                })
                .collect(),
            station_names: vec![],
            mac_stats: vec![],
            mac_drops: vec![],
            data_air_secs: 4.0,
            total_air_secs: 5.0,
            events_processed: 0,
            queue_stats: QueueStats::default(),
        }
    }

    #[test]
    fn report_lookup_and_totals() {
        let r = report_with(&[("a", 20.0), ("b", 30.0)]);
        assert_eq!(r.throughput("a"), 20.0);
        assert_eq!(r.total_throughput(), 50.0);
        assert!((r.jain_fairness_of(&["a", "b"]) - jain(&[20.0, 30.0])).abs() < 1e-12);
        assert!((r.data_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no stream named")]
    fn unknown_stream_name_panics() {
        let r = report_with(&[("a", 20.0)]);
        let _ = r.throughput("nope");
    }

    /// A report with every field set, each to a value no other field
    /// holds.
    fn full_report() -> RunReport {
        let stream = |i: u64| StreamReport {
            name: format!("P{i}-B"),
            src: format!("P {i}"),
            dst: "B".into(),
            offered: 100 + i,
            delivered: 90 + i,
            offered_pps: 32.0 + 1.0 / 3.0,
            throughput_pps: 23.82 + i as f64,
            delivered_bytes: 46_080 + i,
        };
        let mac = |i: u64| MacStats {
            enqueued: 1 + i,
            refused: 2 + i,
            rts_sent: 3 + i,
            cts_sent: 4 + i,
            ds_sent: 5 + i,
            data_sent: 6 + i,
            ack_sent: 7 + i,
            rrts_sent: 8 + i,
            nack_sent: 9 + i,
            rts_timeouts: 10 + i,
            ack_timeouts: 11 + i,
            data_delivered: 12 + i,
            packets_sent_ok: 13 + i,
            packets_dropped: 14 + i,
        };
        RunReport {
            measured_secs: 450.0,
            streams: vec![stream(1), stream(2)],
            station_names: vec!["B".into(), "P 1".into()],
            mac_stats: vec![Some(mac(0)), Some(mac(100))],
            mac_drops: vec![3, 7],
            data_air_secs: 0.1 + 0.2,
            total_air_secs: 1.0 / 7.0,
            events_processed: 123_456,
            queue_stats: QueueStats {
                scheduled: 9,
                popped: 8,
                cancelled: 7,
                high_water: 6,
            },
        }
    }

    #[test]
    fn cache_text_changes_with_every_field() {
        fn ulp(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() + 1);
        }
        fn mac(r: &mut RunReport) -> &mut MacStats {
            r.mac_stats[1]
                .as_mut()
                .expect("full_report sets every MAC row")
        }
        type Edit = (&'static str, fn(&mut RunReport));
        let edits: [Edit; 33] = [
            ("measured_secs", |r| ulp(&mut r.measured_secs)),
            ("stream name", |r| r.streams[1].name.push('x')),
            ("stream src", |r| r.streams[1].src.push('x')),
            ("stream dst", |r| r.streams[1].dst.push('x')),
            ("offered", |r| r.streams[1].offered += 1),
            ("delivered", |r| r.streams[1].delivered += 1),
            ("offered_pps", |r| ulp(&mut r.streams[1].offered_pps)),
            ("throughput_pps", |r| ulp(&mut r.streams[1].throughput_pps)),
            ("delivered_bytes", |r| r.streams[1].delivered_bytes += 1),
            ("station name", |r| r.station_names[1].push('x')),
            ("MAC row Some to None", |r| r.mac_stats[1] = None),
            ("enqueued", |r| mac(r).enqueued += 1),
            ("refused", |r| mac(r).refused += 1),
            ("rts_sent", |r| mac(r).rts_sent += 1),
            ("cts_sent", |r| mac(r).cts_sent += 1),
            ("ds_sent", |r| mac(r).ds_sent += 1),
            ("data_sent", |r| mac(r).data_sent += 1),
            ("ack_sent", |r| mac(r).ack_sent += 1),
            ("rrts_sent", |r| mac(r).rrts_sent += 1),
            ("nack_sent", |r| mac(r).nack_sent += 1),
            ("rts_timeouts", |r| mac(r).rts_timeouts += 1),
            ("ack_timeouts", |r| mac(r).ack_timeouts += 1),
            ("data_delivered", |r| mac(r).data_delivered += 1),
            ("packets_sent_ok", |r| mac(r).packets_sent_ok += 1),
            ("packets_dropped", |r| mac(r).packets_dropped += 1),
            ("mac_drops", |r| r.mac_drops[1] += 1),
            ("data_air_secs", |r| ulp(&mut r.data_air_secs)),
            ("total_air_secs", |r| ulp(&mut r.total_air_secs)),
            ("events_processed", |r| r.events_processed += 1),
            ("queue scheduled", |r| r.queue_stats.scheduled += 1),
            ("queue popped", |r| r.queue_stats.popped += 1),
            ("queue cancelled", |r| r.queue_stats.cancelled += 1),
            ("queue high_water", |r| r.queue_stats.high_water += 1),
        ];
        let base = full_report();
        let text = base.to_cache_text();
        for (what, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(changed, base, "{what}: the edit must change the report");
            assert_ne!(
                changed.to_cache_text(),
                text,
                "{what}: the canonical text must change with the field"
            );
        }
    }

    #[test]
    fn table_renders_all_streams() {
        let r = report_with(&[("a", 20.0), ("b", 30.0)]);
        let t = r.table();
        assert!(t.contains("a") && t.contains("b") && t.contains("TOTAL"));
    }
}
