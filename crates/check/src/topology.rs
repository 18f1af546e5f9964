//! The topology families the paper's arguments are built on.
//!
//! Each topology is a directed hearing relation over 2–6 stations plus the
//! traffic pattern whose delivery the checker proves. The families are the
//! paper's own figures: a single shared cell (§1), the hidden-terminal pair
//! (Figure 1 / §2.2), the exposed-terminal square (Figure 5 / §3.3.2) and
//! an asymmetric link (a one-way hill: the sender is heard, the replies are
//! not) — the configuration where a protocol must *give up cleanly* rather
//! than deliver. The 5-station families (`mirrored_chain`,
//! `contended_cell`, `hidden_star`, `exposed_contenders`) scale those
//! patterns up and declare their station-permutation symmetry groups so
//! the reduced explorer can collapse symmetric orbits.

/// One station-permutation symmetry of a topology: an automorphism of the
/// hearing relation that maps the flow multiset onto itself. `station[i]`
/// is where station `i` goes; `stream[f]` is the induced flow (= stream id)
/// permutation. The checker relabels canonical states through these maps
/// and memoizes the lexicographically-least image, collapsing each
/// symmetric orbit to one representative.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymPerm {
    /// Station permutation: old index → new index.
    pub station: Vec<usize>,
    /// Induced stream-id permutation: old flow index → new flow index.
    pub stream: Vec<u32>,
}

impl SymPerm {
    fn identity(n: usize, flows: usize) -> Self {
        SymPerm {
            station: (0..n).collect(),
            stream: (0..flows as u32).collect(),
        }
    }
}

/// A station topology: who hears whom, and who sends what to whom.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Family name, for reports.
    pub name: &'static str,
    /// Number of stations.
    pub n: usize,
    /// `hears[s][r]` — station `r` hears station `s`'s transmissions.
    /// Directed; the diagonal is unused.
    pub hears: Vec<Vec<bool>>,
    /// Traffic: `(src, dst)` pairs, one queued packet each.
    pub flows: Vec<(usize, usize)>,
    /// Whether every flow can physically complete its exchange (i.e. the
    /// forward *and* reverse links of every flow exist). When `false` —
    /// the asymmetric family — the delivery proof degrades to a clean-
    /// resolution proof: every packet must still end as delivered *or*
    /// dropped, with no station left stuck.
    pub symmetric_flows: bool,
    /// The full station-permutation symmetry group (identity first). Only
    /// families that call [`Topology::with_symmetry`] declare more than
    /// the identity.
    pub sym: Vec<SymPerm>,
    /// RNG-seed orbit classes: stations in the same orbit of `sym` share a
    /// class and therefore an RNG seed, which is what makes the declared
    /// permutations true automorphisms of the transition system (the
    /// canonical state embeds RNG stream digests, and the digest depends
    /// on the seed). With the identity-only group every station is its own
    /// class, reproducing the historical per-station seeding bit for bit.
    pub seed_class: Vec<usize>,
}

impl Topology {
    /// Build a topology from undirected `links`, extra `directed` edges and
    /// `flows`. Public so tests (the reduction-soundness proptest) can
    /// construct arbitrary small topologies.
    pub fn from_links(
        name: &'static str,
        n: usize,
        links: &[(usize, usize)],
        directed: &[(usize, usize)],
        flows: &[(usize, usize)],
    ) -> Self {
        let mut hears = vec![vec![false; n]; n];
        for &(a, b) in links {
            hears[a][b] = true;
            hears[b][a] = true;
        }
        for &(a, b) in directed {
            hears[a][b] = true;
        }
        let symmetric_flows = flows.iter().all(|&(s, d)| hears[s][d] && hears[d][s]);
        Topology {
            name,
            n,
            hears,
            flows: flows.to_vec(),
            symmetric_flows,
            sym: vec![SymPerm::identity(n, flows.len())],
            seed_class: (0..n).collect(),
        }
    }

    /// Declare station-permutation symmetries by generators and close them
    /// into the full group. Each generator must be an automorphism of the
    /// hearing relation that maps the flow multiset onto itself; the
    /// induced flow permutation is derived per element. Orbits of the
    /// resulting group become the RNG-seed classes (see
    /// [`Topology::seed_class`]).
    ///
    /// # Panics
    /// Panics if a generator is not a permutation of `0..n`, does not
    /// preserve the hearing relation, or does not map flows onto flows —
    /// a misdeclared symmetry would make orbit collapsing unsound, so it
    /// is a construction error, not an explored outcome.
    pub fn with_symmetry(mut self, gens: &[Vec<usize>]) -> Self {
        let n = self.n;
        for g in gens {
            assert_eq!(g.len(), n, "{}: generator arity", self.name);
            let mut seen = vec![false; n];
            for &j in g {
                assert!(j < n && !seen[j], "{}: generator not a permutation", self.name);
                seen[j] = true;
            }
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        self.hears[a][b], self.hears[g[a]][g[b]],
                        "{}: generator does not preserve the hearing relation",
                        self.name
                    );
                }
            }
        }
        // Close the generators into the full group (BFS over composition;
        // n <= 6 keeps this tiny).
        let mut group: Vec<Vec<usize>> = vec![(0..n).collect()];
        let mut frontier = group.clone();
        while let Some(p) = frontier.pop() {
            for g in gens {
                let q: Vec<usize> = (0..n).map(|i| g[p[i]]).collect();
                if !group.contains(&q) {
                    group.push(q.clone());
                    frontier.push(q);
                }
            }
        }
        // Derive the induced flow permutation of every element: flow
        // (s, d) must map to some flow (p[s], p[d]). Duplicate flows are
        // interchangeable (identical packets up to stream id), matched
        // greedily by index for determinism.
        self.sym = group
            .into_iter()
            .map(|p| {
                let mut used = vec![false; self.flows.len()];
                let stream: Vec<u32> = self
                    .flows
                    .iter()
                    .map(|&(s, d)| {
                        let target = (p[s], p[d]);
                        let j = self
                            .flows
                            .iter()
                            .enumerate()
                            .position(|(j, &f)| !used[j] && f == target)
                            .unwrap_or_else(|| {
                                panic!(
                                    "{}: symmetry does not map flows onto flows ({s},{d})",
                                    self.name
                                )
                            });
                        used[j] = true;
                        j as u32
                    })
                    .collect();
                SymPerm { station: p, stream }
            })
            .collect();
        // Orbits of the group action become the seed classes: the least
        // station index in each orbit names the class.
        self.seed_class = (0..n)
            .map(|i| {
                self.sym
                    .iter()
                    .map(|p| p.station[i])
                    .min()
                    .expect("group contains the identity")
            })
            .collect();
        self
    }

    /// A single cell: all `n` stations hear each other; station 0 sends to
    /// station 1 and (for `n >= 3`) station 2 also sends to station 1, so
    /// contention for the shared receiver is part of the space.
    pub fn shared_cell(n: usize) -> Self {
        assert!((2..=6).contains(&n), "checker topologies are 2-6 stations");
        let links: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect();
        let flows: &[(usize, usize)] = if n >= 3 { &[(0, 1), (2, 1)] } else { &[(0, 1)] };
        Self::from_links("shared_cell", n, &links, &[], flows)
    }

    /// Figure 1: A and C both send to B but cannot hear each other — the
    /// hidden-terminal configuration carrier sense cannot solve.
    pub fn hidden_terminal() -> Self {
        Self::from_links("hidden_terminal", 3, &[(0, 1), (2, 1)], &[], &[(0, 1), (2, 1)])
    }

    /// Figure 5: two sender/receiver pairs; the senders hear each other,
    /// the receivers hear only their own sender — the exposed-terminal
    /// configuration the DS packet exists for. Stations: 0,2 send; 1,3
    /// receive.
    pub fn exposed_terminal() -> Self {
        Self::from_links(
            "exposed_terminal",
            4,
            &[(0, 1), (2, 3), (0, 2)],
            &[],
            &[(0, 1), (2, 3)],
        )
    }

    /// A one-way link: station 1 hears station 0, but nothing station 1
    /// transmits reaches station 0. No exchange can complete; the proof
    /// obligation is clean failure (retry, give up, return to idle).
    pub fn asymmetric_link() -> Self {
        Self::from_links("asymmetric_link", 2, &[], &[(0, 1)], &[(0, 1)])
    }

    /// Five stations in a chain `0-1-2-3-4` with mirror-image flows
    /// `0→1` and `4→3`: two independent cells joined by an idle middle
    /// station, symmetric under reversal. The smallest family where both
    /// reductions bite at once — the two cells' tied events commute
    /// (disjoint hearing closures) and the reversal collapses mirrored
    /// states — so it anchors the fixed reduction-ratio guard in CI.
    pub fn mirrored_chain() -> Self {
        Self::from_links(
            "mirrored_chain",
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            &[],
            &[(0, 1), (4, 3)],
        )
        .with_symmetry(&[vec![4, 3, 2, 1, 0]])
    }

    /// Like [`Topology::mirrored_chain`] but each end sender offers two
    /// packets (two streams per sender), so intra-station queue contention
    /// multiplies the interleaving space.
    pub fn mirrored_chain_burst() -> Self {
        Self::from_links(
            "mirrored_chain_burst",
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            &[],
            &[(0, 1), (0, 1), (4, 3), (4, 3)],
        )
        .with_symmetry(&[vec![4, 3, 2, 1, 0]])
    }

    /// A 5-station shared cell where stations 0, 2, 3 and 4 all contend
    /// for receiver 1 — the paper's "N−1 interchangeable contenders"
    /// picture, symmetric under the full S₄ on the contenders.
    pub fn contended_cell() -> Self {
        let links: Vec<(usize, usize)> = (0..5)
            .flat_map(|a| ((a + 1)..5).map(move |b| (a, b)))
            .collect();
        Self::from_links(
            "contended_cell",
            5,
            &links,
            &[],
            &[(0, 1), (2, 1), (3, 1), (4, 1)],
        )
        // Transposition (0 2) and 4-cycle (0 2 3 4) generate S4 on the
        // contenders.
        .with_symmetry(&[vec![2, 1, 0, 3, 4], vec![2, 1, 3, 4, 0]])
    }

    /// Figure 1 scaled up: four senders, mutually hidden, all sending to
    /// the central receiver 1. Symmetric under the full S₄ on the senders.
    pub fn hidden_star() -> Self {
        Self::from_links(
            "hidden_star",
            5,
            &[(0, 1), (2, 1), (3, 1), (4, 1)],
            &[],
            &[(0, 1), (2, 1), (3, 1), (4, 1)],
        )
        .with_symmetry(&[vec![2, 1, 0, 3, 4], vec![2, 1, 3, 4, 0]])
    }

    /// Figure 5 with a shared receiver: senders 0, 2 and 4 hear each
    /// other; receiver 1 hears only sender 0, receiver 3 hears senders 2
    /// and 4. Flows `0→1`, `2→3`, `4→3` — sender 0 is exposed to the
    /// 2/4-contention it cannot collide with, while 2 and 4 contend for
    /// receiver 3 in the open. Symmetric under swapping 2 and 4.
    pub fn exposed_contenders() -> Self {
        Self::from_links(
            "exposed_contenders",
            5,
            &[(0, 2), (0, 4), (2, 4), (0, 1), (2, 3), (4, 3)],
            &[],
            &[(0, 1), (2, 3), (4, 3)],
        )
        .with_symmetry(&[vec![0, 1, 4, 3, 2]])
    }

    /// Five stations in a cycle `0-1-2-3-4-0`, every station sending one
    /// packet to its clockwise neighbor. Adjacent stations contend,
    /// stations two hops apart are mutually hidden — every pairwise
    /// pathology of the paper at once, rotationally symmetric (C₅; the
    /// reflection reverses the flow direction and is *not* a symmetry).
    pub fn ring() -> Self {
        Self::from_links(
            "ring",
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
            &[],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        )
        .with_symmetry(&[vec![1, 2, 3, 4, 0]])
    }

    /// Two radio cells that cannot hear each other — a pair `0→1` and a
    /// hidden-terminal triple `2→3←4` — with two packets per sender. No
    /// nontrivial symmetry; the state space is (nearly) the product of
    /// the two cells' spaces and the adversary may split its budget
    /// across them, which is exactly the blow-up partial-order reduction
    /// attacks: cross-cell tied events always commute.
    pub fn twin_cells() -> Self {
        Self::from_links(
            "twin_cells",
            5,
            &[(0, 1), (2, 3), (3, 4)],
            &[],
            &[(0, 1), (0, 1), (2, 3), (2, 3), (4, 3), (4, 3)],
        )
    }

    /// Three radio cells that cannot hear each other — pairs `0→1`,
    /// `2→3`, `4→5`, two packets per sender — symmetric under the full
    /// S₃ on the pairs. The three senders draw identical backoff slots
    /// (one seed orbit), so every contention round puts three tied,
    /// mutually-commuting events on the schedule: the unreduced explorer
    /// walks all 3! orders per round and the product of the cells'
    /// fault branches, while sleep sets keep one order and the pair
    /// symmetry folds the branch products — the matrix's worst-case
    /// oracle blow-up.
    pub fn triple_cells() -> Self {
        Self::pair_cells(3)
    }

    /// Two identical contended cells that cannot hear each other:
    /// `{0,2}→1` and `{3,5}→4`, where senders 0 and 3 offer two packets
    /// and senders 2 and 5 one. The *unequal* queue depths desynchronize
    /// the in-cell contenders (different seed orbits → divergent backoff
    /// draws), so each cell's space is rich; the *equal* twin cells stay
    /// in cross-cell lockstep (shared orbits → permanently tied timers),
    /// so the unreduced explorer multiplies the cells' tie orders and
    /// fault-branch products while sleep sets and the cell-swap symmetry
    /// collapse them.
    pub fn twin_contended() -> Self {
        Self::from_links(
            "twin_contended",
            6,
            &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
            &[],
            &[(0, 1), (0, 1), (2, 1), (3, 4), (3, 4), (5, 4)],
        )
        .with_symmetry(&[vec![3, 4, 5, 0, 1, 2]])
    }

    /// `k` mutually-deaf pair cells (`0→1`, `2→3`, …), two packets per
    /// sender, symmetric under the full Sₖ on the pairs: every contention
    /// round schedules `k` tied, pairwise-commuting timer fires, so the
    /// unreduced explorer pays k! orders per round times the product of
    /// per-cell fault branches — the matrix's worst-case oracle blow-up,
    /// and exactly the shape sleep sets plus pair symmetry collapse.
    pub fn pair_cells(k: usize) -> Self {
        let name = match k {
            3 => "triple_cells",
            4 => "quad_cells",
            5 => "quint_cells",
            6 => "sext_cells",
            _ => panic!("pair_cells supports 3..=6 pairs"),
        };
        let links: Vec<(usize, usize)> = (0..k).map(|c| (2 * c, 2 * c + 1)).collect();
        let flows: Vec<(usize, usize)> = (0..k).flat_map(|c| [(2 * c, 2 * c + 1); 2]).collect();
        // Swap of the first two pairs and rotation of all pairs generate
        // the full Sₖ on cells. At k = 6 that is 720 permutations per
        // canon_min, which costs more than the states it collapses save;
        // declaring only the rotation subgroup Cₖ is equally sound (any
        // subgroup of the automorphism group yields a valid, just
        // coarser, quotient) and keeps canonicalization 120× cheaper.
        // Orbits — hence RNG seed classes — are unchanged: the rotation
        // alone is already transitive on cells.
        let swap: Vec<usize> = (0..2 * k).map(|i| if i < 4 { i ^ 2 } else { i }).collect();
        let rot: Vec<usize> = (0..2 * k).map(|i| (i + 2) % (2 * k)).collect();
        let generators = if k >= 6 { vec![rot] } else { vec![swap, rot] };
        Self::from_links(name, 2 * k, &links, &[], &flows).with_symmetry(&generators)
    }

    /// Four pair cells: [`Topology::pair_cells`] one size up.
    pub fn quad_cells() -> Self {
        Self::pair_cells(4)
    }

    /// The four families at their canonical sizes, for sweep drivers.
    pub fn families() -> Vec<Topology> {
        vec![
            Topology::shared_cell(2),
            Topology::shared_cell(3),
            Topology::hidden_terminal(),
            Topology::exposed_terminal(),
            Topology::asymmetric_link(),
        ]
    }

    /// The 5-station families with declared symmetry groups.
    pub fn families_5() -> Vec<Topology> {
        vec![
            Topology::mirrored_chain(),
            Topology::mirrored_chain_burst(),
            Topology::contended_cell(),
            Topology::hidden_star(),
            Topology::exposed_contenders(),
            Topology::ring(),
            Topology::twin_cells(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_terminal_matches_figure_1() {
        let t = Topology::hidden_terminal();
        assert!(t.hears[0][1] && t.hears[1][0], "A-B symmetric");
        assert!(t.hears[2][1] && t.hears[1][2], "C-B symmetric");
        assert!(!t.hears[0][2] && !t.hears[2][0], "A and C are hidden");
        assert!(t.symmetric_flows);
    }

    #[test]
    fn exposed_terminal_matches_figure_5() {
        let t = Topology::exposed_terminal();
        assert!(t.hears[0][2] && t.hears[2][0], "senders hear each other");
        assert!(!t.hears[1][3] && !t.hears[3][1], "receivers are isolated");
        assert!(!t.hears[0][3], "each receiver hears only its own sender");
        assert!(t.symmetric_flows);
    }

    #[test]
    fn asymmetric_link_cannot_complete_exchanges() {
        let t = Topology::asymmetric_link();
        assert!(t.hears[0][1] && !t.hears[1][0]);
        assert!(!t.symmetric_flows);
    }

    #[test]
    fn default_group_is_identity_with_distinct_seed_classes() {
        let t = Topology::shared_cell(3);
        assert_eq!(t.sym.len(), 1);
        assert_eq!(t.sym[0].station, vec![0, 1, 2]);
        assert_eq!(t.seed_class, vec![0, 1, 2]);
    }

    #[test]
    fn mirrored_chain_reversal_closes_to_order_two() {
        let t = Topology::mirrored_chain();
        assert_eq!(t.sym.len(), 2);
        assert_eq!(t.sym[0].station, vec![0, 1, 2, 3, 4], "identity first");
        assert_eq!(t.sym[1].station, vec![4, 3, 2, 1, 0]);
        // Flow (0,1) maps to (4,3): stream 0 <-> stream 1.
        assert_eq!(t.sym[1].stream, vec![1, 0]);
        // Orbits: {0,4} {1,3} {2} — mirrored stations share a seed class.
        assert_eq!(t.seed_class, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn contended_cell_closes_to_s4_on_contenders() {
        let t = Topology::contended_cell();
        assert_eq!(t.sym.len(), 24, "full S4 on the four contenders");
        // All contenders share one seed class; the receiver is fixed.
        assert_eq!(t.seed_class, vec![0, 1, 0, 0, 0]);
        for p in &t.sym {
            assert_eq!(p.station[1], 1, "the receiver is fixed by every element");
        }
    }

    #[test]
    #[should_panic(expected = "does not preserve the hearing relation")]
    fn invalid_symmetry_is_rejected() {
        // Swapping sender 0 and receiver 1 of the asymmetric link breaks
        // the (directed) hearing relation.
        let _ = Topology::asymmetric_link().with_symmetry(&[vec![1, 0]]);
    }
}
