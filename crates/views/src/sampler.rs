//! Algorithm 3: edge-aware and feature-aware positive-view sampling.
//!
//! Two forms are provided:
//!
//! * [`ViewGenerator::sample_ego_view`] — the literal Alg. 3: grow a view of
//!   a single node hop by hop, sampling each frontier node's neighbours from
//!   its 1∪2-hop candidates with probability ∝ the edge score `w^e`.
//! * [`ViewGenerator::sample_global_view`] — the batched training form: the
//!   same per-node neighbourhood sampling applied to *every* node at once,
//!   yielding one full-graph view per call. Because an `L`-layer GCN's
//!   output at `v` depends only on `v`'s `L`-hop neighbourhood, reading node
//!   `v` out of the global view is distributionally equivalent to encoding
//!   its per-node view — at a fraction of the cost. (Every GCL baseline
//!   trains this way too, so the efficiency comparisons stay fair.)
//!
//! Candidate lists and edge scores are precomputed once (the paper's §IV-C
//! complexity argument assumes the same), so per-epoch sampling is cheap.

use crate::scores::{EdgeRecipe, GraphScores};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{Matrix, SeedRng};
use rayon::prelude::*;

/// Hyperparameters of the view generator.
#[derive(Clone, Debug)]
pub struct ViewConfig {
    /// GCN depth `L` (ego views are grown `L` hops).
    pub layers: usize,
    /// Neighbour sampling ratio `τ`: each node draws `⌈τ·|N_u|⌉` samples.
    pub tau: f32,
    /// Feature perturbation scale `η` of Eq. (16).
    pub eta: f32,
    /// Balance between the keep-edge and add-edge score branches.
    pub beta: f32,
    /// Cap on 2-hop candidates per node (keeps dense graphs tractable).
    pub candidate_cap: usize,
    /// When false, neighbour sampling ignores edge scores (uniform over
    /// candidates) — the `E²GCL\S` ablation.
    pub edge_aware: bool,
    /// When false, feature perturbation uses a flat `η/2` probability
    /// instead of Eq. (16) — the `E²GCL\F` ablation.
    pub feature_aware: bool,
    /// Edge-score ingredient recipe (DESIGN.md §6 ablation).
    pub edge_recipe: EdgeRecipe,
}

impl Default for ViewConfig {
    fn default() -> Self {
        Self {
            layers: 2,
            tau: 1.0,
            eta: 0.6,
            beta: 0.7,
            candidate_cap: 20,
            edge_aware: true,
            feature_aware: true,
            edge_recipe: EdgeRecipe::default(),
        }
    }
}

/// A per-node positive view (`Ĝ_v` of Alg. 3).
#[derive(Clone, Debug)]
pub struct EgoView {
    /// Structure over local indices.
    pub graph: CsrGraph,
    /// `nodes[local] = global` mapping.
    pub nodes: Vec<usize>,
    /// Local index of the target node `v`.
    pub center: usize,
    /// Perturbed features (local rows).
    pub features: Matrix,
}

/// Per-thread node marks for the 2-hop candidate gather: a node is a
/// direct neighbour of the current `u` when its stamp equals `direct`, and
/// already gathered when it equals `seen`. Each `u` takes two fresh stamps,
/// so stale marks never match and nothing is cleared between nodes.
struct StampMarks {
    stamps: Vec<u32>,
    next: u32,
}

impl StampMarks {
    /// Fresh `(direct, seen)` stamps over at least `n` nodes.
    fn next_pair(&mut self, n: usize) -> (u32, u32) {
        if self.stamps.len() < n || self.next > u32::MAX - 2 {
            let len = n.max(self.stamps.len());
            self.stamps.clear();
            self.stamps.resize(len, 0);
            self.next = 1;
        }
        let pair = (self.next, self.next + 1);
        self.next += 2;
        pair
    }
}

thread_local! {
    static MARKS: std::cell::RefCell<StampMarks> = const {
        std::cell::RefCell::new(StampMarks {
            stamps: Vec::new(),
            next: 1,
        })
    };
}

/// Precomputed sampling state for one graph.
pub struct ViewGenerator {
    graph: CsrGraph,
    x: Matrix,
    /// Importance scores (public for ablations and diagnostics).
    pub scores: GraphScores,
    config: ViewConfig,
    /// Per-node candidate lists: `N_u` then capped 2-hop extras.
    candidates: Vec<Vec<u32>>,
    /// Edge score of each candidate, parallel to `candidates`.
    weights: Vec<Vec<f32>>,
    /// Nonzero feature columns per node (perturbation touches only these —
    /// Eq. (16) is multiplicative, so zero entries are fixed points).
    nonzero_dims: Vec<Vec<u32>>,
}

impl ViewGenerator {
    /// Precomputes scores, candidates and weights for `(g, x)`.
    pub fn new(g: &CsrGraph, x: &Matrix, config: ViewConfig, rng: &mut SeedRng) -> Self {
        assert_eq!(g.num_nodes(), x.rows());
        let scores = GraphScores::compute(g, x);
        let n = g.num_nodes();
        let cap = config.candidate_cap;
        let beta = config.beta;
        // Two-hop candidate collection, capped by random subsampling.
        let mut cand_rng: Vec<SeedRng> = (0..n).map(|v| rng.fork(&format!("cand{v}"))).collect();
        let per_node: Vec<(Vec<u32>, Vec<f32>)> = (0..n)
            .into_par_iter()
            .zip(cand_rng.par_iter_mut())
            .map(|(u, local_rng)| {
                let mut cands: Vec<u32> = g.neighbors(u).to_vec();
                // Gather 2-hop candidates (excluding u and 1-hop) in
                // first-seen order.
                let mut two_hop = MARKS.with(|marks| {
                    let mut marks = marks.borrow_mut();
                    let (direct, seen) = marks.next_pair(n);
                    for &c in &cands {
                        marks.stamps[c as usize] = direct;
                    }
                    let mut two_hop: Vec<u32> = Vec::new();
                    for &w in g.neighbors(u) {
                        for &t in g.neighbors(w as usize) {
                            let mark = &mut marks.stamps[t as usize];
                            if t as usize != u && *mark != direct && *mark != seen {
                                *mark = seen;
                                two_hop.push(t);
                            }
                        }
                    }
                    two_hop
                });
                if two_hop.len() > cap {
                    let picked = local_rng.sample_without_replacement(two_hop.len(), cap);
                    two_hop = picked.into_iter().map(|i| two_hop[i]).collect();
                }
                let split = cands.len();
                cands.extend_from_slice(&two_hop);
                let weights: Vec<f32> = if config.edge_aware {
                    cands
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            scores.edge_score_with(
                                x,
                                u,
                                c as usize,
                                i < split,
                                beta,
                                config.edge_recipe,
                            )
                        })
                        .collect()
                } else {
                    // Uniform ablation: keep the aware mode's β split
                    // between the keep-edge and add-edge branches, but make
                    // the within-branch choice uniform. Flat 1.0 weights
                    // would instead hand most of the mass to the (much more
                    // numerous) 2-hop candidates, turning "uniform
                    // modification" into aggressive rewiring.
                    let n_keep = split.max(1) as f32;
                    let n_add = (cands.len() - split).max(1) as f32;
                    (0..cands.len())
                        .map(|i| {
                            if i < split {
                                beta / n_keep
                            } else {
                                (1.0 - beta) / n_add
                            }
                        })
                        .collect()
                };
                (cands, weights)
            })
            .collect();
        let (candidates, weights): (Vec<_>, Vec<_>) = per_node.into_iter().unzip();
        let nonzero_dims = (0..n)
            .map(|v| {
                x.row(v)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f != 0.0)
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect();
        Self {
            graph: g.clone(),
            x: x.clone(),
            scores,
            config,
            candidates,
            weights,
            nonzero_dims,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &ViewConfig {
        &self.config
    }

    /// Draws `⌈τ·|N_u|⌉` weighted samples (with replacement, deduplicated)
    /// from `u`'s candidate list — the `Sample(V_u^N, P(·|u,V_u^N), τ|N_u|)`
    /// step of Alg. 3.
    fn sample_neighbors(&self, u: usize, tau: f32, rng: &mut SeedRng) -> Vec<usize> {
        let cands = &self.candidates[u];
        if cands.is_empty() {
            return Vec::new();
        }
        let draws = ((tau * self.graph.degree(u) as f32).ceil() as usize).max(1);
        let mut out = Vec::with_capacity(draws.min(cands.len()));
        let mut seen = vec![false; cands.len()];
        for _ in 0..draws {
            let i = rng.weighted_index(&self.weights[u]);
            if !seen[i] {
                seen[i] = true;
                out.push(cands[i] as usize);
            }
        }
        out
    }

    /// Eq. (16) feature perturbation of node `u`'s row, written into `row`.
    fn perturb_row(&self, u: usize, eta: f32, row: &mut [f32], rng: &mut SeedRng) {
        for &dim in &self.nonzero_dims[u] {
            let dim = dim as usize;
            let p = if self.config.feature_aware {
                self.scores.perturb_probability(u, dim, eta)
            } else {
                (eta * 0.5).clamp(0.0, 1.0)
            };
            if rng.bernoulli(p) {
                let magnitude = 2.0 * rng.uniform() - 1.0;
                row[dim] += magnitude * row[dim];
            }
        }
    }

    /// The literal Alg. 3 per-node view: grow `v`'s view `L` hops, sampling
    /// each frontier node's neighbours by edge score, then perturb features.
    pub fn sample_ego_view(&self, v: usize, tau: f32, eta: f32, rng: &mut SeedRng) -> EgoView {
        let mut local_of = std::collections::HashMap::new();
        let mut nodes = vec![v];
        local_of.insert(v, 0usize);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut frontier = vec![v];
        for _hop in 0..self.config.layers {
            let mut next = Vec::new();
            for &u in &frontier {
                let lu = local_of[&u];
                for w in self.sample_neighbors(u, tau, rng) {
                    let lw = *local_of.entry(w).or_insert_with(|| {
                        nodes.push(w);
                        next.push(w);
                        nodes.len() - 1
                    });
                    edges.push((lu, lw));
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        let graph = CsrGraph::from_edges(nodes.len(), &edges);
        let mut features = self.x.select_rows(&nodes);
        for (local, &global) in nodes.iter().enumerate() {
            self.perturb_row(global, eta, features.row_mut(local), rng);
        }
        EgoView {
            graph,
            nodes,
            center: 0,
            features,
        }
    }

    /// The batched training form: one full-graph positive view. Structure is
    /// resampled for every node by edge score; features are perturbed by
    /// Eq. (16).
    pub fn sample_global_view(&self, tau: f32, eta: f32, rng: &mut SeedRng) -> (CsrGraph, Matrix) {
        let n = self.graph.num_nodes();
        let mut node_rngs: Vec<SeedRng> = (0..n).map(|v| rng.fork(&format!("gv{v}"))).collect();
        let per_node: Vec<Vec<(usize, usize)>> = (0..n)
            .into_par_iter()
            .zip(node_rngs.par_iter_mut())
            .map(|(u, local_rng)| {
                self.sample_neighbors(u, tau, local_rng)
                    .into_iter()
                    .map(|w| (u, w))
                    .collect()
            })
            .collect();
        let edges: Vec<(usize, usize)> = per_node.into_iter().flatten().collect();
        let graph = CsrGraph::from_edges(n, &edges);
        let mut features = self.x.clone();
        let mut feat_rng = rng.fork("features");
        for u in 0..n {
            self.perturb_row(u, eta, features.row_mut(u), &mut feat_rng);
        }
        (graph, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_graph::generators;

    fn setup(seed: u64) -> (CsrGraph, Matrix, ViewGenerator) {
        let mut rng = SeedRng::new(seed);
        let labels: Vec<usize> = (0..80).map(|v| v / 40).collect();
        let g = generators::dc_sbm(&labels, 2, 6.0, 0.9, &vec![1.0; 80], &mut rng);
        let mut x = Matrix::zeros(80, 6);
        for (v, &label) in labels.iter().enumerate() {
            x.set(v, label, 1.0);
            x.set(v, 2 + rng.below(4), 1.0);
        }
        let gen = ViewGenerator::new(&g, &x, ViewConfig::default(), &mut rng);
        (g, x, gen)
    }

    #[test]
    fn ego_view_contains_center_and_valid_graph() {
        let (_, _, gen) = setup(0);
        let mut rng = SeedRng::new(1);
        for v in [0usize, 13, 50] {
            let view = gen.sample_ego_view(v, 1.0, 0.6, &mut rng);
            assert_eq!(view.nodes[view.center], v);
            assert_eq!(view.graph.num_nodes(), view.nodes.len());
            assert_eq!(view.features.rows(), view.nodes.len());
            view.graph.validate().unwrap();
            // All nodes distinct.
            let set: std::collections::HashSet<_> = view.nodes.iter().collect();
            assert_eq!(set.len(), view.nodes.len());
        }
    }

    #[test]
    fn two_views_are_diverse() {
        let (_, _, gen) = setup(2);
        let mut rng = SeedRng::new(3);
        let a = gen.sample_ego_view(5, 1.0, 0.8, &mut rng);
        let b = gen.sample_ego_view(5, 1.0, 0.8, &mut rng);
        // Overwhelmingly likely to differ in structure or features.
        assert!(a.nodes != b.nodes || a.features != b.features);
    }

    #[test]
    fn tau_zero_still_draws_minimum() {
        let (_, _, gen) = setup(4);
        let mut rng = SeedRng::new(5);
        let view = gen.sample_ego_view(3, 0.0, 0.0, &mut rng);
        // One draw per frontier node minimum, so the view can grow a little.
        assert!(!view.nodes.is_empty());
    }

    #[test]
    fn global_view_preserves_node_count_and_scale() {
        let (g, _, gen) = setup(6);
        let mut rng = SeedRng::new(7);
        let (vg, vx) = gen.sample_global_view(1.0, 0.6, &mut rng);
        assert_eq!(vg.num_nodes(), g.num_nodes());
        assert_eq!(vx.rows(), g.num_nodes());
        // Edge count in the same ballpark as the original at τ=1.
        let ratio = vg.num_edges() as f64 / g.num_edges() as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "edge ratio {ratio}");
        vg.validate().unwrap();
    }

    #[test]
    fn higher_tau_yields_more_edges() {
        let (_, _, gen) = setup(8);
        let (lo, _) = gen.sample_global_view(0.4, 0.0, &mut SeedRng::new(9));
        let (hi, _) = gen.sample_global_view(1.4, 0.0, &mut SeedRng::new(9));
        assert!(hi.num_edges() > lo.num_edges());
    }

    #[test]
    fn eta_zero_leaves_features_untouched() {
        let (_, x, gen) = setup(10);
        let (_, vx) = gen.sample_global_view(1.0, 0.0, &mut SeedRng::new(11));
        assert_eq!(vx, x);
    }

    #[test]
    fn perturbation_touches_only_nonzero_entries() {
        let (_, x, gen) = setup(12);
        let (_, vx) = gen.sample_global_view(1.0, 1.4, &mut SeedRng::new(13));
        for v in 0..x.rows() {
            for d in 0..x.cols() {
                if x.get(v, d) == 0.0 {
                    assert_eq!(vx.get(v, d), 0.0, "zero entry moved at ({v},{d})");
                } else {
                    // Multiplicative perturbation keeps entries in [0, 2x].
                    assert!(vx.get(v, d) >= -1e-6 && vx.get(v, d) <= 2.0 * x.get(v, d) + 1e-6);
                }
            }
        }
    }

    #[test]
    fn global_views_differ_between_draws() {
        let (_, _, gen) = setup(14);
        let mut rng = SeedRng::new(15);
        let (a, ax) = gen.sample_global_view(0.8, 0.8, &mut rng);
        let (b, bx) = gen.sample_global_view(0.8, 0.8, &mut rng);
        assert!(a != b || ax != bx);
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, _, gen) = setup(16);
        let (a, ax) = gen.sample_global_view(0.8, 0.8, &mut SeedRng::new(17));
        let (b, bx) = gen.sample_global_view(0.8, 0.8, &mut SeedRng::new(17));
        assert_eq!(a, b);
        assert_eq!(ax, bx);
    }
}
