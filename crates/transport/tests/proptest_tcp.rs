//! Property tests for the TCP endpoints: under arbitrary loss and
//! reordering the receiver still delivers every packet exactly once, in
//! order, and the sender's window accounting never goes negative.

use macaw_sim::SimDuration;
use macaw_transport::harness::ScriptedContext;
use macaw_transport::tcp::WINDOW;
use macaw_transport::{Segment, TcpReceiver, TcpSender, Transport};
use proptest::prelude::*;

/// Go-back-N over a lossy, reordering pipe: everything is eventually
/// delivered in order, exactly once.
fn lossy_pipe_delivers(total: u64, drop_pattern: &[bool], seed: u64) -> Result<(), TestCaseError> {
    let mut tx = TcpSender::new(512);
    let mut rx = TcpReceiver::new();
    let mut tx_ctx = ScriptedContext::new();
    let mut rx_ctx = ScriptedContext::new();
    for _ in 0..total {
        tx.on_app_send(&mut tx_ctx, 512);
    }
    let mut rng = seed;
    let mut next_rand = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut tx_cursor = 0;
    let mut rx_cursor = 0;
    for _round in 0..2000 {
        // Data sender -> receiver, dropping per the pattern and
        // occasionally swapping adjacent segments.
        let mut batch: Vec<Segment> = tx_ctx.sent()[tx_cursor..].to_vec();
        tx_cursor = tx_ctx.sent().len();
        if batch.len() >= 2 && next_rand() % 3 == 0 {
            let i = next_rand() % (batch.len() - 1);
            batch.swap(i, i + 1);
        }
        for seg in batch {
            // Cap effective loss at 50% so delivery stays reachable
            // (100% loss trivially never completes).
            let dropped = drop_pattern[next_rand() % drop_pattern.len()] && next_rand() % 2 == 0;
            if !dropped {
                rx_ctx.advance(SimDuration::from_millis(1));
                rx.on_segment(&mut rx_ctx, seg);
            }
        }
        // Acks receiver -> sender (with the same loss process).
        let acks: Vec<Segment> = rx_ctx.sent()[rx_cursor..].to_vec();
        rx_cursor = rx_ctx.sent().len();
        for seg in acks {
            let dropped = drop_pattern[next_rand() % drop_pattern.len()] && next_rand() % 2 == 0;
            if !dropped {
                tx_ctx.advance(SimDuration::from_millis(1));
                tx.on_segment(&mut tx_ctx, seg);
            }
        }
        prop_assert!(tx.outstanding() <= WINDOW, "window overrun");
        if rx.rcv_nxt() == total {
            break;
        }
        if tx_ctx.fire_timer() {
            tx.on_timer(&mut tx_ctx);
        }
    }
    prop_assert_eq!(rx.rcv_nxt(), total, "not everything was delivered");
    prop_assert_eq!(rx_ctx.delivered(), (0..total).collect::<Vec<_>>());
    Ok(())
}

proptest! {
    #[test]
    fn lossy_reordering_pipe_delivers_everything(
        total in 1u64..60,
        drop_pattern in proptest::collection::vec(any::<bool>(), 1..64),
        seed in 0u64..1000,
    ) {
        lossy_pipe_delivers(total, &drop_pattern, seed)?;
    }

    /// The receiver's cumulative ack never decreases, whatever arrives.
    #[test]
    fn ackno_is_monotone(seqs in proptest::collection::vec(0u64..40, 1..200)) {
        let mut rx = TcpReceiver::new();
        let mut ctx = ScriptedContext::new();
        let mut last_ack = 0;
        for seq in seqs {
            rx.on_segment(&mut ctx, Segment::Data { seq, bytes: 512 });
            let Some(Segment::Ack { ackno, .. }) = ctx.sent().last().copied() else {
                prop_assert!(false, "every data segment must be acked");
                unreachable!();
            };
            prop_assert!(ackno >= last_ack, "cumulative ack went backwards");
            last_ack = ackno;
        }
    }
}

/// A case real proptest once shrank to: one packet over a pipe whose only
/// drop-pattern entry drops.
#[test]
fn recorded_single_packet_all_drop_case() {
    lossy_pipe_delivers(1, &[true], 0).unwrap();
}
