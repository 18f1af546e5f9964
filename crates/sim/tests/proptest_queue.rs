//! Property tests for the event queue: the total order holds for arbitrary
//! schedules, and the ladder-queue FEL is observationally identical to the
//! plain-heap oracle.

use macaw_sim::{EventQueue, HeapQueue, LadderQueue, NextFire, SimDuration, SimTime};
use proptest::prelude::*;

fn t(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

proptest! {
    /// Popping yields nondecreasing times, and same-time events keep their
    /// insertion order (per priority class).
    #[test]
    fn pop_order_is_total_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::<usize>::new();
        for (i, &tm) in times.iter().enumerate() {
            q.schedule(t(tm), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((tm, idx)) = q.pop() {
            popped += 1;
            prop_assert_eq!(t(times[idx]), tm, "event fired at its scheduled time");
            if let Some((lt, lidx)) = last {
                prop_assert!(tm >= lt, "time order violated");
                if tm == lt {
                    prop_assert!(idx > lidx, "insertion order violated at equal times");
                }
            }
            last = Some((tm, idx));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Priorities order within an instant but never across instants.
    #[test]
    fn priority_orders_within_instant_only(
        events in proptest::collection::vec((0u64..50, 0u8..4), 1..100)
    ) {
        let mut q = EventQueue::<usize>::new();
        for (i, &(tm, prio)) in events.iter().enumerate() {
            q.schedule_with_priority(t(tm), prio, i);
        }
        let mut last: Option<(SimTime, u8)> = None;
        while let Some((tm, idx)) = q.pop() {
            let prio = events[idx].1;
            if let Some((lt, lp)) = last {
                prop_assert!(tm >= lt);
                if tm == lt {
                    prop_assert!(prio >= lp, "priority order violated within instant");
                }
            }
            last = Some((tm, prio));
        }
    }
}

// ----------------------------------------------------------------------
// Oracle equivalence: the ladder queue vs the plain 4-ary heap
// ----------------------------------------------------------------------
//
// The ladder queue's whole contract is that the FEL structure is
// unobservable: driven with the same operation sequence, it must return
// exactly what the heap returns — every pop, every peeked key, every
// fused-dispatch decision, every length. The interpreter below decodes a
// random trace of queue operations and applies each to both backends in
// lockstep, comparing all outputs at every step and then draining both to
// exhaustion comparing full `(time, key, payload)` sequences.

/// Decode `raw` into a bounded delay, biased heavily toward zero so
/// same-instant ties and zero-delay self-scheduling (both of which the MAC
/// engine does constantly) dominate the trace.
fn delay(raw: u64) -> SimDuration {
    SimDuration::from_nanos(match raw % 8 {
        0 | 1 => 0,
        2 | 3 => raw % 64,                  // sub-bucket jitter
        4 | 5 => (raw >> 3) % 100_000,      // typical MAC horizon (µs scale)
        _ => (raw >> 3) % 10_000_000_000,   // pathological far future
    })
}

/// One step of the lockstep interpreter; `Err` carries the failed
/// comparison out to the proptest harness.
fn lockstep_step(
    op: u8,
    x: u64,
    y: u8,
    lq: &mut EventQueue<u32, LadderQueue<u32>>,
    hq: &mut EventQueue<u32, HeapQueue<u32>>,
    payload: &mut u32,
    external: &mut Option<(SimTime, u64)>,
) -> Result<(), TestCaseError> {
    let mut op = op % 5;
    // A pending external candidate models a live timer: the engine never
    // pops or advances around one (it would fire first), so reroute plain
    // pops and advances through the fused dispatch while one is armed.
    if external.is_some() && (op == 1 || op == 4) {
        op = 3;
    }
    match op {
        // Schedule with a same-instant priority drawn from a small set so
        // priority ties are common.
        0 => {
            let at = lq.now() + delay(x);
            lq.schedule_with_priority(at, y % 4, *payload);
            hq.schedule_with_priority(at, y % 4, *payload);
            *payload += 1;
        }
        // Peek then pop, comparing the full (time, key) head and the
        // popped (time, payload).
        1 => {
            prop_assert_eq!(lq.peek_key(), hq.peek_key(), "peek_key diverged");
            prop_assert_eq!(lq.pop(), hq.pop(), "pop diverged");
        }
        // Arm an external candidate keyed from the shared seq counter.
        2 => {
            let key_l = lq.alloc_key(y % 4);
            let key_h = hq.alloc_key(y % 4);
            prop_assert_eq!(key_l, key_h, "alloc_key diverged");
            *external = Some((lq.now() + delay(x), key_l));
        }
        // Fused dispatch against the armed candidate (or none) under a
        // random horizon.
        3 => {
            let horizon = lq.now() + delay(x) + delay(x >> 1);
            let next_l = lq.pop_next(*external, horizon);
            let next_h = hq.pop_next(*external, horizon);
            prop_assert_eq!(next_l, next_h, "pop_next diverged");
            if matches!(next_l, NextFire::External(_)) {
                *external = None;
            }
        }
        // Advance "now" externally (timer-style time passage).
        4 => {
            let at = lq.now() + delay(x);
            lq.advance_to(at);
            hq.advance_to(at);
        }
        _ => unreachable!(),
    }
    prop_assert_eq!(lq.len(), hq.len(), "len diverged");
    prop_assert_eq!(lq.is_empty(), hq.is_empty(), "is_empty diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random schedule/pop/alloc_key/advance_to/pop_next traces observe
    /// identical behavior from the ladder queue and the heap oracle,
    /// including the final drain's exact (time, key, payload) sequence and
    /// the operation counters.
    #[test]
    fn ladder_matches_heap_oracle(
        ops in proptest::collection::vec((0u8..5, any::<u64>(), any::<u8>()), 1..300)
    ) {
        let mut lq = EventQueue::<u32, LadderQueue<u32>>::new();
        let mut hq = EventQueue::<u32, HeapQueue<u32>>::new();
        let mut payload: u32 = 0;
        let mut external: Option<(SimTime, u64)> = None;
        for &(op, x, y) in &ops {
            lockstep_step(op, x, y, &mut lq, &mut hq, &mut payload, &mut external)?;
        }
        // Drain both to exhaustion: the entire residual sequence must
        // match key for key.
        loop {
            prop_assert_eq!(lq.peek_key(), hq.peek_key(), "drain peek_key diverged");
            let (a, b) = (lq.pop(), hq.pop());
            prop_assert_eq!(a, b, "drain pop diverged");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(lq.stats(), hq.stats(), "operation counters diverged");
    }

    /// Pure push-then-drain traces (no interleaved consumption) also match:
    /// this stresses the bootstrap→engage transition and overflow
    /// migration with populations the interleaved trace rarely builds.
    #[test]
    fn ladder_matches_heap_on_bulk_loads(
        raw in proptest::collection::vec((any::<u64>(), 0u8..4), 1..600)
    ) {
        let mut lq = EventQueue::<u32, LadderQueue<u32>>::new();
        let mut hq = EventQueue::<u32, HeapQueue<u32>>::new();
        for (i, &(x, prio)) in raw.iter().enumerate() {
            let at = SimTime::ZERO + delay(x);
            lq.schedule_with_priority(at, prio, i as u32);
            hq.schedule_with_priority(at, prio, i as u32);
        }
        loop {
            prop_assert_eq!(lq.peek_key(), hq.peek_key());
            let (a, b) = (lq.pop(), hq.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
