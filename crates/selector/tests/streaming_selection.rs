//! The streaming pieces of Alg. 2 against the dense code they replace.
//!
//! * `assign_weights` streams tiles of the `|V| x |V_s|` cross matrix; it
//!   must return the weights of a dense argmin over the whole matrix,
//!   including the lowest-index tie-break, at every tile edge.
//! * `RemainingSet::nth` must return what a rebuilt
//!   `(0..n).filter(unselected)` list returns at the same index.
//! * `select_nodes_from_aggregate` must pick the nodes of
//!   `select_from_aggregate` and leave the RNG in the same state.
//! * `CoresetObjective`, which rebuilds only the coverage tables that
//!   changed and skips clusters a threshold cannot improve, must track
//!   Eq. (14) evaluated from scratch.

use e2gcl_linalg::{ops, Matrix, SeedRng};
use e2gcl_selector::coreset::CoresetObjective;
use e2gcl_selector::fenwick::RemainingSet;
use e2gcl_selector::greedy::{GreedyConfig, GreedySelector};
use e2gcl_selector::kmeans::kmeans;
use e2gcl_selector::{assign_weights, ASSIGN_REP_TILE, ASSIGN_ROW_TILE};
use proptest::prelude::*;

/// The dense λ assignment as it was before tiling: one `|V| x |V_s|` cross
/// matrix, then a per-row strict-`<` argmin.
fn dense_assign_weights(repr: &Matrix, nodes: &[usize]) -> Vec<f32> {
    let mut weights = vec![0.0f32; nodes.len()];
    if nodes.is_empty() {
        return weights;
    }
    let selected = repr.select_rows(nodes);
    let sq_norms: Vec<f32> = nodes
        .iter()
        .map(|&u| ops::dot(repr.row(u), repr.row(u)))
        .collect();
    let cross = repr.matmul_transpose(&selected);
    for v in 0..repr.rows() {
        let row = cross.row(v);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (i, (&c, &sq)) in row.iter().zip(&sq_norms).enumerate() {
            let d = sq - 2.0 * c;
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        weights[best] += 1.0;
    }
    weights
}

/// `n x dim` rows, three in four an exact copy of one of five small-integer
/// rows and the rest Gaussian, so distinct selected nodes often tie.
fn tied_rows(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = SeedRng::new(seed);
    let protos: Vec<Vec<f32>> = (0..5)
        .map(|_| (0..dim).map(|_| rng.below(5) as f32 - 2.0).collect())
        .collect();
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        if rng.below(4) == 0 {
            data.extend((0..dim).map(|_| rng.normal()));
        } else {
            data.extend_from_slice(&protos[rng.below(protos.len())]);
        }
    }
    Matrix::from_vec(n, dim, data)
}

/// A value on either side of a tile edge (or well inside a tile).
fn around_edge(pick: usize, tile: usize, jitter: usize) -> usize {
    match pick {
        0 => 1 + jitter % 3,
        1 => tile - 1,
        2 => tile,
        3 => tile + 1,
        4 => 2 * tile + 1,
        _ => 2 * tile - 1 - jitter % 5,
    }
}

fn assert_same_weights(repr: &Matrix, nodes: &[usize], tiled: &[f32]) {
    let dense = dense_assign_weights(repr, nodes);
    let tiled_bits: Vec<u32> = tiled.iter().map(|w| w.to_bits()).collect();
    let dense_bits: Vec<u32> = dense.iter().map(|w| w.to_bits()).collect();
    assert_eq!(
        tiled_bits,
        dense_bits,
        "n {} k {}",
        repr.rows(),
        nodes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `n` on both sides of a multiple of `ASSIGN_ROW_TILE` and `k` on
    /// both sides of a multiple of `ASSIGN_REP_TILE`.
    #[test]
    fn tiled_assign_weights_match_dense_at_tile_edges(
        n_pick in 0usize..6,
        k_pick in 0usize..6,
        jitter in 0usize..64,
        dim in 1usize..5,
        seed in any::<u64>(),
    ) {
        // A multiple of the row tile, large enough for two target tiles.
        let base = ASSIGN_ROW_TILE * (2 * ASSIGN_REP_TILE).div_ceil(ASSIGN_ROW_TILE);
        let n = base + around_edge(n_pick, ASSIGN_ROW_TILE, jitter);
        let k = around_edge(k_pick, ASSIGN_REP_TILE, jitter).min(n);
        let repr = tied_rows(n, dim, seed);
        let nodes = SeedRng::new(seed ^ 1).sample_without_replacement(n, k);
        assert_same_weights(&repr, &nodes, &assign_weights(&repr, &nodes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every add, the incremental coverage equals Eq. (14) evaluated
    /// from scratch over the selected set (bit for bit), and every gain
    /// equals the brute-force coverage decrease.
    #[test]
    fn incremental_objective_matches_brute_force(
        data in prop::collection::vec(-4.0f32..4.0, 60 * 3),
        k in 2usize..7,
        picks in prop::collection::vec(0usize..60, 1..30),
        seed in any::<u64>(),
    ) {
        let n = 60;
        let x = Matrix::from_vec(n, 3, data);
        let clustering = kmeans(&x, k, 10, &mut SeedRng::new(seed));
        let mut obj = CoresetObjective::new(&x, &clustering);
        let mut selected: Vec<usize> = Vec::new();
        let coverage = |obj: &CoresetObjective, sel: &[usize]| -> Vec<f32> {
            (0..n)
                .map(|w| {
                    sel.iter()
                        .map(|&u| obj.candidate_distance(u, w))
                        .fold(obj.big(), f32::min)
                })
                .collect()
        };
        for &p in &picks {
            let before = coverage(&obj, &selected);
            for u in 0..n {
                let expect: f64 = before
                    .iter()
                    .enumerate()
                    .map(|(w, &b)| f64::from((b - obj.candidate_distance(u, w)).max(0.0)))
                    .sum();
                let got = obj.gain(u);
                prop_assert!(
                    (got - expect).abs() <= 1e-4 * (1.0 + expect),
                    "gain of {} is {} but coverage drops by {}",
                    u,
                    got,
                    expect
                );
            }
            obj.add(p);
            selected.push(p);
            let after: f64 = coverage(&obj, &selected).iter().map(|&b| f64::from(b)).sum();
            prop_assert_eq!(obj.objective().to_bits(), after.to_bits());
        }
    }
}

#[test]
fn tiled_assign_weights_send_ties_to_lowest_index() {
    // Rows 0 and 1 are identical; whichever is listed first wins every row.
    let repr = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.1], &[0.9, 0.0]]);
    assert_eq!(assign_weights(&repr, &[1, 0]), vec![4.0, 0.0]);
    assert_eq!(assign_weights(&repr, &[0, 1]), vec![4.0, 0.0]);
    assert!(assign_weights(&repr, &[]).is_empty());
}

#[test]
fn remaining_set_nth_matches_filtered_list_for_random_masks() {
    let mut rng = SeedRng::new(31);
    for n in [1usize, 2, 3, 5, 8, 31, 64, 65, 100, 257, 1000] {
        for density in [0.0f32, 0.1, 0.5, 0.9, 1.0] {
            let mut set = RemainingSet::full(n);
            let mut mask = vec![false; n];
            for (v, removed) in mask.iter_mut().enumerate() {
                if rng.uniform() < density {
                    *removed = true;
                    assert!(set.remove(v));
                }
            }
            let expect: Vec<usize> = (0..n).filter(|&v| !mask[v]).collect();
            assert_eq!(set.len(), expect.len());
            for (i, &v) in expect.iter().enumerate() {
                assert_eq!(set.nth(i), v, "n {n} density {density} rank {i}");
            }
            for (v, &removed) in mask.iter().enumerate() {
                assert_eq!(set.contains(v), !removed);
            }
        }
    }
}

#[test]
fn remaining_set_tracks_interleaved_removals() {
    // The greedy loop's access pattern: rank queries between removals.
    let n = 300;
    let mut rng = SeedRng::new(32);
    let mut set = RemainingSet::full(n);
    let mut mask = vec![false; n];
    while !set.is_empty() {
        let expect: Vec<usize> = (0..n).filter(|&v| !mask[v]).collect();
        let i = rng.below(expect.len());
        assert_eq!(set.nth(i), expect[i]);
        mask[expect[i]] = true;
        set.remove(expect[i]);
    }
}

#[test]
fn nodes_only_selection_matches_weighted_selection() {
    let mut gen = SeedRng::new(33);
    let repr = Matrix::from_vec(600, 6, (0..600 * 6).map(|_| gen.normal()).collect());
    let selector = GreedySelector::new(GreedyConfig {
        num_clusters: 12,
        ..GreedyConfig::default()
    });
    for budget in [0usize, 1, 37, 600] {
        let mut a = SeedRng::new(34);
        let mut b = SeedRng::new(34);
        let full = selector.select_from_aggregate(&repr, budget, &mut a);
        let nodes = selector.select_nodes_from_aggregate(&repr, budget, &mut b);
        assert_eq!(full.nodes, nodes);
        assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged");
    }
}
