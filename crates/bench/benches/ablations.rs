//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `backoff_grid` — every (algorithm × sharing) combination on the six-pad
//!   cell (Figure 3), printing total throughput and Jain fairness.
//! * `exchange_ladder` — RTS-CTS-DATA → +ACK → +DS → +RRTS, one feature at
//!   a time, on the topology where each matters.
//! * `gamma_sensitivity` — the near-field decay exponent swept over the
//!   three-cell scenario (Figure 10), with hard vs physical cutoff.
//! * `fig8_leakage` — the backoff-leakage configuration of §3.4 (Figure 8):
//!   single shared counter vs per-destination backoff across two cells with
//!   different congestion levels.
//! * `recovery_ladder` — transport-only vs link NACK vs link ACK recovery
//!   over a noisy channel (Table-4 setup).

use macaw_core::prelude::*;
use macaw_mac::BackoffSharing;

const SECS: u64 = 30;
const WARM: u64 = 5;

fn run(sc: Scenario) -> RunReport {
    sc.run(
        SimDuration::from_secs(SECS),
        SimDuration::from_secs(WARM),
    )
    .expect("ablation scenario failed")
}

fn backoff_grid() {
    println!("== ablation: backoff algorithm x sharing (Figure 3, 6 pads) ==");
    for algo in [BackoffAlgo::Beb, BackoffAlgo::Mild] {
        for sharing in [
            BackoffSharing::None,
            BackoffSharing::Copy,
            BackoffSharing::PerDestination,
        ] {
            let mut cfg = MacConfig::maca();
            cfg.backoff_algo = algo;
            cfg.backoff_sharing = sharing;
            let r = run(figures::figure3(MacKind::Custom(cfg), 1));
            println!(
                "  {algo:?} + {sharing:?}: total {:6.2} pps, Jain {:.3}",
                r.total_throughput(),
                r.jain_fairness()
            );
        }
    }
}

fn exchange_ladder() {
    println!("== ablation: message-exchange ladder ==");
    let steps: [(&str, bool, bool, bool, bool); 5] = [
        ("RTS-CTS-DATA", false, false, false, false),
        ("+ACK", true, false, false, false),
        ("+DS", true, true, false, false),
        ("+RRTS", true, true, true, false),
        // §3.3.2's alternative to DS: carrier sense instead of the packet.
        ("ACK+carrier", true, false, false, true),
    ];
    for (name, ack, ds, rrts, cs) in steps {
        let mut cfg = MacConfig::maca();
        cfg.backoff_algo = BackoffAlgo::Mild;
        cfg.backoff_sharing = BackoffSharing::Copy;
        cfg.queues = QueueMode::PerStream;
        cfg.use_ack = ack;
        cfg.use_ds = ds;
        cfg.use_rrts = rrts;
        cfg.use_carrier_sense = cs;
        let mac = MacKind::Custom(cfg);
        let f5 = run(figures::figure5(mac, 1));
        let f6 = run(figures::figure6(mac, 1));
        println!(
            "  {name:<13}: fig5 total {:5.2} (jain {:.2}) | fig6 total {:5.2} (jain {:.2})",
            f5.total_throughput(),
            f5.jain_fairness(),
            f6.total_throughput(),
            f6.jain_fairness()
        );
    }
}

fn gamma_sensitivity() {
    println!("== ablation: near-field decay exponent (Figure 10) ==");
    for gamma in [3.0, 4.0, 5.0, 6.0, 8.0] {
        for cutoff in [CutoffMode::Hard, CutoffMode::Physical] {
            let mut sc = figures::figure10(MacKind::Macaw, 1);
            sc.propagation(PropagationConfig { gamma, cutoff });
            let r = run(sc);
            println!(
                "  gamma {gamma:>3} {cutoff:?}: total {:6.2} pps, Jain {:.3}",
                r.total_throughput(),
                r.jain_fairness()
            );
        }
    }
}

fn fig8_leakage() {
    println!("== ablation: backoff leakage across cells (Figure 8) ==");
    for sharing in [BackoffSharing::Copy, BackoffSharing::PerDestination] {
        let mut cfg = MacConfig::macaw();
        cfg.backoff_sharing = sharing;
        let r = run(figures::figure8(MacKind::Custom(cfg), 1));
        let c2: f64 = r.throughput("P5-B2") + r.throughput("P6-B2");
        let c1: f64 = r.total_throughput() - c2;
        println!(
            "  {sharing:?}: congested C1 {:5.2} pps, quiet C2 {:5.2} pps (C2 should not starve)",
            c1, c2
        );
    }
}

fn recovery_ladder() {
    println!("== ablation: loss recovery (TCP over 5% noise, Table-4 setup) ==");
    let variants: [(&str, bool, bool); 3] = [
        ("transport-only", false, false),
        ("link NACK (§4)", false, true),
        ("link ACK", true, false),
    ];
    for (name, ack, nack) in variants {
        let mut cfg = MacConfig::maca();
        cfg.backoff_algo = BackoffAlgo::Mild;
        cfg.backoff_sharing = BackoffSharing::Copy;
        cfg.queues = QueueMode::PerStream;
        cfg.use_ack = ack;
        cfg.use_nack = nack;
        let r = run(figures::table4(MacKind::Custom(cfg), 1, 0.05));
        println!("  {name:<15}: {:6.2} pps", r.throughput("P-B"));
    }
}

fn main() {
    backoff_grid();
    exchange_ladder();
    gamma_sensitivity();
    fig8_leakage();
    recovery_ladder();
}
