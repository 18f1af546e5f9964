//! Backoff algorithms and backoff-sharing schemes.
//!
//! The paper's backoff story has three independent axes, all reproduced here:
//!
//! 1. **Adjustment algorithm** ([`BackoffAlgo`]): binary exponential backoff
//!    (BEB — double on collision, reset to minimum on success) vs the paper's
//!    MILD (multiplicative ×1.5 increase, linear −1 decrease), §3.1.
//! 2. **Sharing scheme** ([`BackoffSharing`]): no sharing (each station
//!    learns alone); *copying* — every overheard packet header carries the
//!    transmitter's backoff counter and hearers adopt it (§3.1); and the
//!    full *per-destination* scheme of §3.4 / Appendix B.2, where each
//!    station keeps separate estimates of the congestion at each end of each
//!    stream, copies both from packet headers, and uses their **sum** as the
//!    contention window (footnote 9: "We combine the congestion information
//!    by summing the two backoff values").
//! 3. **Bounds**: BO_min = 2, BO_max = 64 (§3).
//!
//! [`Backoff`] packages one choice per axis behind a single interface the
//! MAC state machine drives.

use std::num::NonZeroU32;

use crate::frames::{Addr, BackoffHeader};

/// ALPHA of Appendix B.2's retry escalation: each retry raises the
/// estimate of the peer's backoff by this many slots.
const ALPHA: u32 = 2;

/// The backoff-counter adjustment algorithm.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackoffAlgo {
    /// Binary exponential backoff: F_inc(x) = min(2x, BO_max),
    /// F_dec(x) = BO_min.
    Beb,
    /// Multiplicative increase, linear decrease: F_inc(x) = min(1.5x,
    /// BO_max), F_dec(x) = max(x − 1, BO_min). §3.1.
    Mild,
}

impl BackoffAlgo {
    /// Apply F_inc.
    pub fn increase(self, bo: u32, min: u32, max: u32) -> u32 {
        let raised = match self {
            BackoffAlgo::Beb => bo.saturating_mul(2),
            // 1.5x in integer arithmetic; ensure progress even at small bo.
            BackoffAlgo::Mild => bo + (bo / 2).max(1),
        };
        raised.clamp(min, max)
    }

    /// Apply F_dec.
    pub fn decrease(self, bo: u32, min: u32, max: u32) -> u32 {
        let lowered = match self {
            BackoffAlgo::Beb => min,
            BackoffAlgo::Mild => bo.saturating_sub(1),
        };
        lowered.clamp(min, max)
    }
}

/// How congestion information is shared between stations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackoffSharing {
    /// Each station adjusts only from its own experience (original MACA).
    None,
    /// §3.1: every packet header carries the transmitter's backoff counter
    /// and every hearer copies it.
    Copy,
    /// §3.4 / Appendix B.2: separate backoff per stream end, copied between
    /// stations, combined by summing for the contention window.
    PerDestination,
}

/// One peer's entry in the per-destination table (Appendix B.2). The
/// field order is the sort and hash order: `idx` first, so the derived
/// `Ord` and `Hash` treat an entry exactly as the `(index, state)` pair it
/// stands for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct PeerEntry {
    /// The peer's station index (station indices fit in `u32`, as the
    /// simulator's timer slots do).
    idx: u32,
    /// "Q's backoff": our estimate of the congestion at the peer's end,
    /// always clamped to `[min, max]` and so never 0. `None` is the paper's
    /// `I_DONT_KNOW`.
    remote: Option<NonZeroU32>,
    /// "local_backoff used with Q": our own backoff as used in exchanges
    /// with this peer.
    local: u32,
    /// Outgoing exchange sequence number (incremented per new packet).
    esn_out: u64,
    /// Highest exchange sequence number seen from this peer.
    esn_in: Option<u64>,
    /// Receiver-side retransmission count for the current incoming exchange.
    retry_in: u32,
}

/// `v` clamped to `[min, max]`, as a peer entry's `remote` holds it. Never
/// `None`: [`Backoff::new`] asserts `min >= 1`.
fn clamped(v: u32, min: u32, max: u32) -> Option<NonZeroU32> {
    NonZeroU32::new(v.clamp(min, max))
}

/// A station's complete backoff state.
pub struct Backoff {
    algo: BackoffAlgo,
    sharing: BackoffSharing,
    min: u32,
    max: u32,
    /// `my_backoff`: the station-wide counter (the only counter in the
    /// `None`/`Copy` schemes).
    my: u32,
    /// Per-peer learned state, 40 B per entry, kept ascending by station
    /// index. A station only learns about its radio neighborhood (about six
    /// peers on the 65 536-station floor, two-hop stations included), so a
    /// sorted vec stays O(neighbors); a dense station-indexed table would
    /// cost O(stations) memory *per station* (quadratic fleet-wide) and
    /// realloc-churn on every new high index.
    peers: Vec<PeerEntry>,
}

/// By hand so that `clone_from` refills the peer table in place: the
/// explorer refills a child world from its parent on every transition.
impl Clone for Backoff {
    fn clone(&self) -> Self {
        Backoff {
            algo: self.algo,
            sharing: self.sharing,
            min: self.min,
            max: self.max,
            my: self.my,
            peers: self.peers.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Backoff {
            algo,
            sharing,
            min,
            max,
            my,
            peers,
        } = source;
        self.algo = *algo;
        self.sharing = *sharing;
        self.min = *min;
        self.max = *max;
        self.my = *my;
        self.peers.clone_from(peers);
    }
}

impl Backoff {
    /// Create a backoff state starting at BO_min.
    pub fn new(algo: BackoffAlgo, sharing: BackoffSharing, min: u32, max: u32) -> Self {
        assert!(min >= 1 && min <= max, "bad backoff bounds [{min},{max}]");
        Backoff {
            algo,
            sharing,
            min,
            max,
            my: min,
            peers: Vec::new(),
        }
    }

    fn peer(&mut self, addr: Addr) -> &mut PeerEntry {
        let Addr::Unicast(idx) = addr else {
            panic!("per-destination backoff is undefined for multicast")
        };
        let idx = idx as u32;
        let at = match self.peers.binary_search_by_key(&idx, |e| e.idx) {
            Ok(at) => at,
            Err(at) => {
                let entry = PeerEntry {
                    idx,
                    remote: None,
                    local: self.my.max(self.min),
                    esn_out: 0,
                    esn_in: None,
                    retry_in: 1,
                };
                self.peers.insert(at, entry);
                at
            }
        };
        &mut self.peers[at]
    }

    fn peer_ro(&self, addr: Addr) -> Option<&PeerEntry> {
        let Addr::Unicast(idx) = addr else {
            return None;
        };
        let at = self.peers.binary_search_by_key(&(idx as u32), |e| e.idx);
        at.ok().map(|at| &self.peers[at])
    }

    /// The station-wide `my_backoff` counter.
    pub fn my_backoff(&self) -> u32 {
        self.my
    }

    /// The contention window (in slots) to use for a transmission to `dst`.
    ///
    /// Single-counter schemes use `my_backoff`; the per-destination scheme
    /// sums the two ends' estimates (footnote 9), treating an unknown remote
    /// estimate as BO_min.
    pub fn window(&self, dst: Addr) -> u32 {
        match self.sharing {
            BackoffSharing::None | BackoffSharing::Copy => self.my,
            BackoffSharing::PerDestination => match self.peer_ro(dst) {
                Some(p) => {
                    let remote = p.remote.map_or(self.min, NonZeroU32::get);
                    (p.local + remote).clamp(self.min, 2 * self.max)
                }
                None => (self.my + self.min).clamp(self.min, 2 * self.max),
            },
        }
    }

    /// Begin a brand-new exchange (first RTS of a new packet) to `dst`:
    /// synchronizes the per-peer local backoff with `my_backoff` and assigns
    /// a fresh exchange sequence number, which is returned.
    ///
    /// ESNs are shared per station *pair* ("a sequence number used in packet
    /// exchanges with the remote station", Appendix B.2), so a new exchange
    /// advances past anything already seen from the peer as well.
    pub fn begin_exchange(&mut self, dst: Addr) -> u64 {
        if let Addr::Unicast(_) = dst {
            let per_dest = self.sharing == BackoffSharing::PerDestination;
            let my = self.my;
            let p = self.peer(dst);
            if per_dest {
                p.local = my;
            }
            p.esn_out = p.esn_out.max(p.esn_in.unwrap_or(0)) + 1;
            p.esn_out
        } else {
            0
        }
    }

    /// Header fields for an outgoing frame to `dst`.
    pub fn header(&self, dst: Addr) -> BackoffHeader {
        match self.sharing {
            BackoffSharing::None | BackoffSharing::Copy => BackoffHeader {
                local: self.my,
                remote: None,
                esn: self.peer_ro(dst).map_or(0, |p| p.esn_out),
            },
            BackoffSharing::PerDestination => match self.peer_ro(dst) {
                Some(p) => BackoffHeader {
                    local: p.local,
                    remote: p.remote.map(NonZeroU32::get),
                    esn: p.esn_out,
                },
                None => BackoffHeader {
                    local: self.my,
                    remote: None,
                    esn: 0,
                },
            },
        }
    }

    /// An RTS to `dst` got no response (`retry_count` failures so far on
    /// this packet). The sender cannot tell which end collided; Appendix
    /// B.2 escalates the *remote* estimate by `retry_count × ALPHA`.
    pub fn on_timeout(&mut self, dst: Addr, retry_count: u32) {
        match self.sharing {
            BackoffSharing::None | BackoffSharing::Copy => {
                self.my = self.algo.increase(self.my, self.min, self.max);
            }
            BackoffSharing::PerDestination => {
                let (min, max) = (self.min, self.max);
                let p = self.peer(dst);
                let base = p.remote.map_or(min, NonZeroU32::get);
                p.remote = clamped(base + retry_count.max(1) * ALPHA, min, max);
            }
        }
    }

    /// An exchange with `dst` completed successfully (ACK received, or CTS
    /// when the protocol has no link ACK).
    pub fn on_success(&mut self, dst: Addr) {
        match self.sharing {
            BackoffSharing::None | BackoffSharing::Copy => {
                self.my = self.algo.decrease(self.my, self.min, self.max);
            }
            BackoffSharing::PerDestination => {
                let (algo, min, max) = (self.algo, self.min, self.max);
                let p = self.peer(dst);
                p.local = algo.decrease(p.local, min, max);
                if let Some(r) = p.remote {
                    p.remote = NonZeroU32::new(algo.decrease(r.get(), min, max));
                }
                // B.2: local_backoff is synchronized with my_backoff once a
                // successful handshake is done.
                self.my = p.local;
            }
        }
    }

    /// The packet to `dst` was dropped after the retry limit. Appendix B.2:
    /// "P's local_backoff used with Q = MAX_BACKOFF; Q's backoff =
    /// I_DONT_KNOW."
    pub fn on_drop(&mut self, dst: Addr) {
        if self.sharing == BackoffSharing::PerDestination {
            if let Addr::Unicast(_) = dst {
                let max = self.max;
                let p = self.peer(dst);
                p.local = max;
                p.remote = None;
            }
        }
    }

    /// Wipe all learned congestion state back to power-on defaults:
    /// `my_backoff` to BO_min and the per-destination table emptied. Models
    /// a station crash/restart — a rebooted station has no memory of past
    /// exchanges (Appendix B.2's tables live in volatile state).
    pub fn reset(&mut self) {
        self.my = self.min;
        self.peers.clear();
    }

    /// Canonical snapshot of the learned congestion state, for state-space
    /// exploration, written into `out` (any earlier snapshot; its buffer is
    /// reused): the station-wide counter plus every live per-peer entry
    /// (congestion estimates *and* exchange sequence numbers — both steer
    /// future frames). Entries are keyed by peer index and absent slots are
    /// dropped, so a peer learned and later forgotten canonicalizes the
    /// same as one never seen.
    pub fn snapshot_into(&self, out: &mut BackoffSnapshot) {
        let Backoff {
            algo: _,
            sharing: _,
            min: _,
            max: _,
            my,
            peers,
        } = self;
        out.my = *my;
        // Already keyed ascending by peer index with only live entries.
        out.peers.clone_from(peers);
    }

    /// A frame from `src` to `dst` (neither end is this station) was
    /// overheard cleanly.
    pub fn on_overhear(&mut self, src: Addr, dst: Addr, kind_is_rts: bool, h: &BackoffHeader) {
        match self.sharing {
            BackoffSharing::None => {}
            BackoffSharing::Copy => {
                // §3.1: "Whenever a station hears a packet, it copies that
                // value into its own backoff counter." Appendix B.2 refines
                // this: RTS headers are ignored "because they may not carry
                // the correct backoff values" — an RTS may carry a counter
                // escalated by a collision that the exchange's success is
                // about to take back.
                if kind_is_rts {
                    return;
                }
                self.my = h.local.clamp(self.min, self.max);
            }
            BackoffSharing::PerDestination => {
                // B.2: RTS packets are ignored (see above).
                if kind_is_rts {
                    return;
                }
                let (min, max) = (self.min, self.max);
                if let Addr::Unicast(_) = src {
                    self.peer(src).remote = clamped(h.local, min, max);
                }
                if let (Some(r), Addr::Unicast(_)) = (h.remote, dst) {
                    self.peer(dst).remote = clamped(r, min, max);
                }
                // NOTE: Appendix B.2 additionally copies the transmitter's
                // value as our own station-wide counter ("assuming that Q is
                // a nearby station"). We keep the per-peer copies but not
                // that station-wide adoption: it is precisely the
                // cross-region leakage the paper itself identifies as a
                // failure mode in §3.4 (Figure 8), and with it enabled a
                // blocked sender's escalated counter leaks through its
                // receiver into unrelated streams, erasing the Figure-7
                // asymmetry the paper reports (Table 7).
            }
        }
    }

    /// A frame from `src` addressed to this station was received.
    ///
    /// `exchange_opening` is `true` for RTS frames: only those participate
    /// in Appendix B.2's new-vs-retransmission classification (a duplicate
    /// RTS means the sender collided and retried). The in-exchange frames
    /// (CTS, DS, DATA, ACK) echo the RTS's ESN and carry authoritative
    /// backoff values, so they always take the "new exchange" update.
    pub fn on_receive(&mut self, src: Addr, exchange_opening: bool, h: &BackoffHeader) {
        match self.sharing {
            BackoffSharing::None => {}
            BackoffSharing::Copy => {
                self.my = h.local.clamp(self.min, self.max);
            }
            BackoffSharing::PerDestination => {
                let (min, max) = (self.min, self.max);
                let my = self.my;
                let Addr::Unicast(_) = src else { return };
                let mut new_my = None;
                let p = self.peer(src);
                let is_new =
                    !exchange_opening || p.esn_in.is_none_or(|seen| h.esn > seen);
                if is_new {
                    // New exchange or completed handshake: the header values
                    // are authoritative.
                    p.remote = clamped(h.local, min, max);
                    if let Some(r) = h.remote {
                        p.local = r.clamp(min, max);
                        new_my = Some(r.clamp(min, max));
                    } else {
                        p.local = my;
                    }
                    if exchange_opening {
                        p.esn_in = Some(h.esn);
                        p.retry_in = 1;
                    }
                    if let Some(m) = new_my {
                        self.my = m;
                    }
                } else {
                    // Retransmitted RTS: a collision happened somewhere;
                    // escalate the sender's estimate. The sum of the two
                    // ends is invariant to where the collision happened, so
                    // recover our own as (sum − sender's).
                    let escalated = h.local.saturating_add(p.retry_in * ALPHA).clamp(min, max);
                    p.remote = NonZeroU32::new(escalated);
                    if let Some(r) = h.remote {
                        let sum = h.local.saturating_add(r);
                        p.local = sum.saturating_sub(escalated).clamp(min, max);
                    } else {
                        p.local = my;
                    }
                    p.retry_in += 1;
                }
            }
        }
    }
}

/// Canonical snapshot of a [`Backoff`]'s learned state (see
/// [`Backoff::snapshot_into`]). Opaque: used only for equality, hashing and
/// counterexample printing by state-space explorers.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BackoffSnapshot {
    my: u32,
    peers: Vec<PeerEntry>,
}

impl BackoffSnapshot {
    /// Write into `out` this snapshot with the peer-index keys rewritten
    /// through a station permutation, in the ascending-key order the
    /// snapshot promises. Counters and sequence numbers are per-exchange
    /// scalars and survive unchanged.
    pub(crate) fn relabel_into(
        &self,
        map: &crate::context::Relabeling<'_>,
        out: &mut BackoffSnapshot,
    ) {
        let BackoffSnapshot { my, peers } = self;
        out.my = *my;
        out.peers.clear();
        out.peers.extend(peers.iter().map(|p| PeerEntry {
            idx: map.station.get(p.idx as usize).map_or(p.idx, |&i| i as u32),
            ..*p
        }));
        out.peers.sort_by_key(|p| p.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: u32 = 2;
    const MAX: u32 = 64;

    #[test]
    fn beb_doubles_and_resets() {
        let a = BackoffAlgo::Beb;
        assert_eq!(a.increase(2, MIN, MAX), 4);
        assert_eq!(a.increase(4, MIN, MAX), 8);
        assert_eq!(a.increase(48, MIN, MAX), 64);
        assert_eq!(a.increase(64, MIN, MAX), 64);
        assert_eq!(a.decrease(64, MIN, MAX), 2);
        assert_eq!(a.decrease(2, MIN, MAX), 2);
    }

    #[test]
    fn mild_is_gentle() {
        let a = BackoffAlgo::Mild;
        assert_eq!(a.increase(2, MIN, MAX), 3);
        assert_eq!(a.increase(3, MIN, MAX), 4);
        assert_eq!(a.increase(4, MIN, MAX), 6);
        assert_eq!(a.increase(63, MIN, MAX), 64);
        assert_eq!(a.decrease(10, MIN, MAX), 9);
        assert_eq!(a.decrease(2, MIN, MAX), 2);
    }

    #[test]
    fn bounds_always_hold() {
        for algo in [BackoffAlgo::Beb, BackoffAlgo::Mild] {
            let mut bo = MIN;
            for _ in 0..100 {
                bo = algo.increase(bo, MIN, MAX);
                assert!((MIN..=MAX).contains(&bo));
            }
            for _ in 0..100 {
                bo = algo.decrease(bo, MIN, MAX);
                assert!((MIN..=MAX).contains(&bo));
            }
            assert_eq!(bo, MIN);
        }
    }

    fn dst(i: usize) -> Addr {
        Addr::Unicast(i)
    }

    #[test]
    fn copy_mode_adopts_overheard_counter() {
        let mut b = Backoff::new(BackoffAlgo::Beb, BackoffSharing::Copy, MIN, MAX);
        b.on_timeout(dst(1), 1);
        b.on_timeout(dst(1), 2);
        assert_eq!(b.window(dst(1)), 8);
        b.on_overhear(
            dst(2),
            dst(3),
            false,
            &BackoffHeader {
                local: 16,
                remote: None,
                esn: 1,
            },
        );
        assert_eq!(b.window(dst(1)), 16);
    }

    #[test]
    fn none_mode_ignores_overheard_counters() {
        let mut b = Backoff::new(BackoffAlgo::Beb, BackoffSharing::None, MIN, MAX);
        b.on_overhear(
            dst(2),
            dst(3),
            false,
            &BackoffHeader {
                local: 16,
                remote: None,
                esn: 1,
            },
        );
        assert_eq!(b.window(dst(1)), MIN);
    }

    #[test]
    fn per_destination_isolates_an_unreachable_peer() {
        // The Figure-9 pathology: escalating against a dead peer must not
        // raise the window used for live peers.
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        b.begin_exchange(dst(9)); // the dead pad
        for retry in 1..=10 {
            b.on_timeout(dst(9), retry);
        }
        assert!(b.window(dst(9)) > b.window(dst(1)) * 4);
        assert_eq!(b.window(dst(1)), b.my_backoff() + MIN);
    }

    #[test]
    fn per_destination_success_decreases_both_ends() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        b.begin_exchange(dst(1));
        b.on_timeout(dst(1), 1);
        b.on_timeout(dst(1), 2);
        let before = b.window(dst(1));
        b.on_success(dst(1));
        assert!(b.window(dst(1)) < before);
    }

    #[test]
    fn per_destination_drop_marks_remote_unknown_and_local_max() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        b.begin_exchange(dst(1));
        b.on_drop(dst(1));
        // local = MAX, remote = unknown (treated as MIN in the sum).
        assert_eq!(b.window(dst(1)), MAX + MIN);
        assert_eq!(
            b.header(dst(1)),
            BackoffHeader {
                local: MAX,
                remote: None,
                esn: 1
            }
        );
    }

    #[test]
    fn per_destination_ignores_rts_headers_when_overhearing() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        b.on_overhear(
            dst(2),
            dst(3),
            true,
            &BackoffHeader {
                local: 40,
                remote: Some(40),
                esn: 1,
            },
        );
        assert_eq!(b.window(dst(2)), MIN + MIN, "RTS headers are ignored");
        b.on_overhear(
            dst(2),
            dst(3),
            false,
            &BackoffHeader {
                local: 40,
                remote: Some(30),
                esn: 1,
            },
        );
        // Both stream ends were learned from the non-RTS header...
        assert_eq!(b.window(dst(2)), MIN + 40); // local(=min at creation)+40
        assert_eq!(b.window(dst(3)), MIN + 30);
        // ...but the station-wide counter is NOT adopted from neighbours
        // (that adoption is the §3.4/Figure-8 leakage failure mode).
        assert_eq!(b.my_backoff(), MIN);
    }

    #[test]
    fn per_destination_receive_new_exchange_synchronizes() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        b.on_receive(
            dst(5),
            true,
            &BackoffHeader {
                local: 12,
                remote: Some(6),
                esn: 3,
            },
        );
        assert_eq!(b.my_backoff(), 6);
        assert_eq!(b.window(dst(5)), 6 + 12);
    }

    #[test]
    fn per_destination_retransmission_escalates_sender_estimate() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        let h = BackoffHeader {
            local: 10,
            remote: Some(4),
            esn: 3,
        };
        b.on_receive(dst(5), true, &h); // new exchange
        b.on_receive(dst(5), true, &h); // same esn: retransmission
        // sender's estimate escalated by retry * ALPHA = 2.
        assert_eq!(b.window(dst(5)), (10 + 2) + ((10 + 4) - 12));
    }

    #[test]
    fn esn_increments_per_exchange() {
        let mut b = Backoff::new(BackoffAlgo::Beb, BackoffSharing::Copy, MIN, MAX);
        assert_eq!(b.begin_exchange(dst(1)), 1);
        assert_eq!(b.begin_exchange(dst(1)), 2);
        assert_eq!(b.begin_exchange(dst(2)), 1);
        assert_eq!(b.header(dst(1)).esn, 2);
    }

    #[test]
    fn window_never_exceeds_twice_max() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        b.begin_exchange(dst(1));
        // 100 retries escalate by 100 × ALPHA, far past MAX: the clamp acts.
        for retry in 1..=100 {
            b.on_timeout(dst(1), retry);
        }
        b.on_drop(dst(1));
        assert!(b.window(dst(1)) <= 2 * MAX);
    }

    #[test]
    fn increase_clamps_to_cap_from_any_start() {
        for algo in [BackoffAlgo::Beb, BackoffAlgo::Mild] {
            // Starting above the cap (possible after a copy from a peer
            // configured with wider bounds) must clamp down, not overflow.
            assert_eq!(algo.increase(u32::MAX / 2, MIN, MAX), MAX);
            assert_eq!(algo.increase(MAX, MIN, MAX), MAX);
            // Starting below the floor clamps up.
            assert_eq!(algo.increase(0, MIN, MAX), MIN.max(1));
            assert!(algo.decrease(0, MIN, MAX) >= MIN);
            assert!(algo.decrease(1, MIN, MAX) >= MIN);
        }
    }

    #[test]
    fn copy_overwrites_larger_local_value() {
        // §3.1: copying is unconditional — a station that has escalated to a
        // large counter adopts a *smaller* overheard value too. That is the
        // point of copying (one station's success resets the whole cell).
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::Copy, MIN, MAX);
        for retry in 1..=20 {
            b.on_timeout(dst(1), retry);
        }
        assert_eq!(b.my_backoff(), MAX);
        b.on_overhear(
            dst(2),
            dst(3),
            false,
            &BackoffHeader {
                local: 3,
                remote: None,
                esn: 1,
            },
        );
        assert_eq!(b.my_backoff(), 3, "smaller overheard value must win");
        // Out-of-bounds header values are clamped on adoption.
        b.on_receive(
            dst(2),
            true,
            &BackoffHeader {
                local: 1_000,
                remote: None,
                esn: 1,
            },
        );
        assert_eq!(b.my_backoff(), MAX);
    }

    #[test]
    fn reset_wipes_station_state() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        b.begin_exchange(dst(1));
        for retry in 1..=10 {
            b.on_timeout(dst(1), retry);
        }
        assert!(b.window(dst(1)) > MIN + MIN);
        b.reset();
        assert_eq!(b.my_backoff(), MIN);
        assert_eq!(b.window(dst(1)), b.my_backoff() + MIN);
        // ESNs restart too: the next exchange is number 1 again.
        assert_eq!(b.begin_exchange(dst(1)), 1);
    }

    #[test]
    fn clone_from_refills_the_peer_table_in_place() {
        let mut src = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        src.begin_exchange(dst(1));
        src.begin_exchange(dst(3));
        src.on_timeout(dst(3), 1);
        // The target starts with other settings and no peers.
        let mut b = Backoff::new(BackoffAlgo::Beb, BackoffSharing::Copy, 1, 8);
        b.clone_from(&src);
        let settings = |b: &Backoff| (b.algo, b.sharing, b.min, b.max, b.my);
        assert_eq!(settings(&b), settings(&src));
        assert_eq!(b.peers, src.peers);
        let peers = b.peers.as_ptr();
        b.clone_from(&src);
        assert_eq!(b.peers.as_ptr(), peers);
    }

    #[test]
    fn peer_entries_keep_remote_estimates_inside_the_bounds() {
        // 40 B on 64-bit hosts: the index and the remote estimate share
        // what the old `(usize, Peer)` pair spent on the index alone.
        assert_eq!(std::mem::size_of::<PeerEntry>(), 40);
        let in_bounds = |b: &Backoff, v: u32| {
            for i in 1..=3 {
                let remote = b.header(dst(i)).remote;
                assert!(
                    remote.is_none_or(|r| (MIN..=MAX).contains(&r)),
                    "{v}: {remote:?}"
                );
                assert!((MIN..=2 * MAX).contains(&b.window(dst(i))), "{v}");
            }
        };
        for v in [0, MIN - 1, MAX + 1, u32::MAX] {
            let h = BackoffHeader {
                local: v,
                remote: Some(v),
                esn: 1,
            };
            let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
            b.on_overhear(dst(1), dst(2), false, &h);
            assert_eq!(b.header(dst(1)).remote, Some(v.clamp(MIN, MAX)));
            assert_eq!(b.header(dst(2)).remote, Some(v.clamp(MIN, MAX)));
            in_bounds(&b, v);
            b.on_receive(dst(3), true, &h); // a new RTS
            in_bounds(&b, v);
            b.on_receive(dst(3), true, &h); // its retransmission
            in_bounds(&b, v);
            for i in 1..=3 {
                b.on_timeout(dst(i), 1);
                in_bounds(&b, v);
                b.on_success(dst(i));
                in_bounds(&b, v);
            }
        }
    }

    #[test]
    fn multicast_exchanges_carry_no_peer_state() {
        let mut b = Backoff::new(BackoffAlgo::Mild, BackoffSharing::PerDestination, MIN, MAX);
        assert_eq!(b.begin_exchange(Addr::Multicast(1)), 0);
        assert_eq!(b.window(Addr::Multicast(1)), b.my_backoff() + MIN);
    }
}
