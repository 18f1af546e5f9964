//! Property tests over the checker itself: for arbitrary seeds and fault
//! budgets, exploration is deterministic and the proved theorems keep
//! holding. The checker is the auditor of the protocol crates — this file
//! audits the auditor.

use macaw_check::{check, proof_wmac, CheckConfig, Expectation, FaultClass, Topology};
use macaw_mac::{Addr, MacConfig, WMac};
use proptest::prelude::*;

fn macaw_cfg() -> MacConfig {
    proof_wmac(MacConfig::macaw())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed, same everything: the full statistics vector is a pure
    /// function of the inputs.
    #[test]
    fn exploration_is_deterministic_for_any_seed(seed in 0u64..1 << 48) {
        let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
        cfg.seed = seed;
        cfg.max_depth = 96;
        let a = check("macaw", &Topology::shared_cell(2), &cfg, |i| {
            WMac::new(Addr::Unicast(i), macaw_cfg())
        });
        let b = check("macaw", &Topology::shared_cell(2), &cfg, |i| {
            WMac::new(Addr::Unicast(i), macaw_cfg())
        });
        prop_assert_eq!(a.stats.states_explored, b.stats.states_explored);
        prop_assert_eq!(a.stats.dedup_hits, b.stats.dedup_hits);
        prop_assert_eq!(a.stats.terminals, b.stats.terminals);
        prop_assert_eq!(a.stats.best_delivered, b.stats.best_delivered);
        prop_assert_eq!(a.stats.max_depth_reached, b.stats.max_depth_reached);
    }

    /// The two-station delivery theorem is seed-independent: contention
    /// draws shift the schedule but never the outcome.
    #[test]
    fn macaw_delivers_on_two_stations_for_any_seed_and_small_loss(
        seed in 0u64..1 << 48,
        budget in 0u8..2,
    ) {
        let mut cfg = CheckConfig::new(
            if budget == 0 { FaultClass::None } else { FaultClass::Loss { budget } },
            Expectation::DeliverAll,
        );
        cfg.seed = seed;
        cfg.max_depth = 96;
        let report = check("macaw", &Topology::shared_cell(2), &cfg, |i| {
            WMac::new(Addr::Unicast(i), macaw_cfg())
        });
        prop_assert!(report.ok(), "{}", report);
        prop_assert!(report.complete, "{}", report);
    }
}
