//! The Eq. (14) cluster-relaxed representativity objective.
//!
//! For a selected set `V_s`, each node `w` in cluster `C_i` is "covered" at
//! distance
//!
//! ```text
//! d(w, V_s) = min( min_{u ∈ V_s ∩ C_i} ||R[w] − R[u]||,
//!                  min_{u ∈ V_s \ C_i} ||c_i − R[u]|| + d_i^max )
//! ```
//!
//! and the objective (to minimise) is `Σ_w d(w, V_s)`. The key structural
//! fact this module exploits: the *cross-cluster* branch depends on `w` only
//! through its cluster, so the marginal gain of a candidate `u` decomposes
//! into an exact per-member term over `u`'s own cluster plus one threshold
//! query per other cluster — which sorted per-cluster coverage tables answer
//! in `O(log |C_j|)` each, or in `O(1)` when the threshold is at or above
//! every member's coverage (the gain is then exactly zero).
//!
//! Per greedy step, evaluating a candidate costs `O(|C_u|·d + n_c)`: the
//! own-cluster distances run lane-per-member over a transposed copy of the
//! cluster's rows, and only clusters the threshold can still improve pay
//! the binary search. Adding a node rebuilds only the coverage tables whose
//! members' coverage changed. Every result is bit-identical to evaluating
//! the definition pair by pair with [`ops::dist`].

use crate::kmeans::Clustering;
use e2gcl_linalg::{ops, Matrix};
use rayon::prelude::*;

/// Members per stack chunk of [`member_dists`].
const MEMBER_CHUNK: usize = 64;

/// Calls `f(slot, ||R[member] − query||)` for each of a cluster's `m`
/// members in member order, from the cluster's transposed block
/// (`d x m`), `MEMBER_CHUNK` lanes at a time. Each distance is
/// bit-identical to `ops::dist(R[member], query)`.
fn member_dists(block: &[f32], m: usize, query: &[f32], mut f: impl FnMut(usize, f32)) {
    let mut sq = [0.0f32; MEMBER_CHUNK];
    for start in (0..m).step_by(MEMBER_CHUNK) {
        let sq = &mut sq[..MEMBER_CHUNK.min(m - start)];
        // `block` is empty when `d = 0`; the kernel then reads nothing.
        ops::sq_dist_lanes(&block[start.min(block.len())..], m, query, sq);
        for (i, &s) in sq.iter().enumerate() {
            f(start + i, s.sqrt());
        }
    }
}

/// Incremental evaluator of the Eq. (14) objective.
#[derive(Clone, Debug)]
pub struct CoresetObjective<'a> {
    repr: &'a Matrix,
    clustering: &'a Clustering,
    /// Coverage distance of an unrepresented node (finite stand-in for ∞ so
    /// marginal gains stay well-defined before the first selection).
    big: f32,
    /// Current coverage distance per node.
    best: Vec<f32>,
    /// Per-cluster sorted copies of `best` + suffix sums, for threshold sums.
    tables: Vec<CoverageTable>,
    /// `tables[j].skip_bound()`, contiguous for the per-candidate scan.
    table_max: Vec<f32>,
    /// Position of each node in cluster order (cluster 0's members, then
    /// cluster 1's, …; members ascending within a cluster).
    pos: Vec<usize>,
    /// Start of each cluster in cluster order (`n_c + 1` entries).
    cluster_start: Vec<usize>,
    /// Member rows transposed per cluster: cluster `i`'s block is
    /// `d x |C_i|` row-major at `d · cluster_start[i]`.
    members_t: Vec<f32>,
    /// Precomputed `||c_j − R[u]||` for every node `u` and cluster `j`,
    /// row `pos[u]` of an `n x n_c` row-major matrix — the relaxed branch
    /// of Eq. (14) reads this once per (candidate, cluster) instead of
    /// recomputing a `d`-dim distance on every greedy step.
    center_dist: Vec<f32>,
    selected: Vec<usize>,
}

#[derive(Clone, Debug)]
struct CoverageTable {
    /// Member coverage distances, ascending.
    sorted: Vec<f32>,
    /// `suffix[i] = Σ sorted[i..]`.
    suffix: Vec<f64>,
}

impl CoverageTable {
    fn build(values: impl Iterator<Item = f32>) -> CoverageTable {
        let mut table = CoverageTable {
            sorted: Vec::new(),
            suffix: Vec::new(),
        };
        table.rebuild(values);
        table
    }

    /// Rebuilds in place, reusing both buffers.
    fn rebuild(&mut self, values: impl Iterator<Item = f32>) {
        self.sorted.clear();
        self.sorted.extend(values);
        self.sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        self.suffix.clear();
        self.suffix.resize(self.sorted.len() + 1, 0.0);
        for i in (0..self.sorted.len()).rev() {
            self.suffix[i] = self.suffix[i + 1] + f64::from(self.sorted[i]);
        }
    }

    /// A threshold `t >= skip_bound()` improves no member: `t < best_w`
    /// holds for none of them, and for finite `t` [`Self::gain_at`] is
    /// exactly `0.0`. The bound is the largest coverage, `-∞` for an empty
    /// table, and NaN (never skip) when a member's coverage is NaN.
    fn skip_bound(&self) -> f32 {
        match (self.sorted.first(), self.sorted.last()) {
            (Some(lo), Some(hi)) if lo.is_nan() || hi.is_nan() => f32::NAN,
            (_, Some(&hi)) => hi,
            _ => f32::NEG_INFINITY,
        }
    }

    /// `Σ_w max(0, best_w − t)` over this cluster's members.
    fn gain_at(&self, t: f32) -> f64 {
        // First index with sorted[i] > t.
        let idx = self.sorted.partition_point(|&v| v <= t);
        let count = (self.sorted.len() - idx) as f64;
        self.suffix[idx] - f64::from(t) * count
    }
}

impl<'a> CoresetObjective<'a> {
    /// Builds the evaluator over raw aggregates `repr` and a clustering.
    pub fn new(repr: &'a Matrix, clustering: &'a Clustering) -> Self {
        let k = clustering.num_clusters();
        let n = repr.rows();
        let dim = repr.cols();
        // Upper bound on any Eq. (14) distance: max centre separation plus
        // twice the largest radius.
        let mut max_center_sep = 0.0f32;
        for i in 0..k {
            for j in (i + 1)..k {
                let d = ops::dist(clustering.centers.row(i), clustering.centers.row(j));
                max_center_sep = max_center_sep.max(d);
            }
        }
        let max_radius = clustering.d_max.iter().cloned().fold(0.0f32, f32::max);
        let big = max_center_sep + 2.0 * max_radius + 1.0;
        let best = vec![big; n];
        let tables: Vec<CoverageTable> = clustering
            .members
            .iter()
            .map(|ms| CoverageTable::build(ms.iter().map(|&w| best[w])))
            .collect();
        let table_max = tables.iter().map(CoverageTable::skip_bound).collect();

        let mut pos = vec![0usize; n];
        let mut cluster_start = Vec::with_capacity(k + 1);
        cluster_start.push(0);
        for ms in &clustering.members {
            let start = *cluster_start.last().expect("starts with 0");
            for (slot, &w) in ms.iter().enumerate() {
                pos[w] = start + slot;
            }
            cluster_start.push(start + ms.len());
        }
        let mut members_t = vec![0.0f32; n * dim];
        let mut center_dist = vec![0.0f32; n * k];
        {
            // One cluster per task: transpose its rows into its block, then
            // fill its members' centre distances (lane per member, bitwise
            // `ops::dist` — `(c − r)² = (r − c)²` exactly).
            let mut tasks = Vec::with_capacity(k);
            let (mut blocks, mut dists) = (members_t.as_mut_slice(), center_dist.as_mut_slice());
            for ms in &clustering.members {
                let (block, rest_b) = blocks.split_at_mut(ms.len() * dim);
                let (dist, rest_d) = dists.split_at_mut(ms.len() * k);
                tasks.push((ms, block, dist));
                blocks = rest_b;
                dists = rest_d;
            }
            tasks.into_par_iter().for_each(|(ms, block, dist)| {
                let m = ms.len();
                for (slot, &w) in ms.iter().enumerate() {
                    for (c, &x) in repr.row(w).iter().enumerate() {
                        block[c * m + slot] = x;
                    }
                }
                let mut sq = vec![0.0f32; m];
                for j in 0..k {
                    ops::sq_dist_lanes(block, m, clustering.centers.row(j), &mut sq);
                    for (slot, &s) in sq.iter().enumerate() {
                        dist[slot * k + j] = s.sqrt();
                    }
                }
            });
        }
        Self {
            repr,
            clustering,
            big,
            best,
            tables,
            table_max,
            pos,
            cluster_start,
            members_t,
            center_dist,
            selected: Vec::new(),
        }
    }

    /// Precomputed `||c_j − R[u]||` for all `j`.
    #[inline]
    fn center_dists(&self, u: usize) -> &[f32] {
        let k = self.clustering.num_clusters();
        &self.center_dist[self.pos[u] * k..][..k]
    }

    /// Cluster `i`'s transposed member block (`d x |C_i|`).
    #[inline]
    fn block(&self, i: usize) -> &[f32] {
        let dim = self.repr.cols();
        &self.members_t[dim * self.cluster_start[i]..dim * self.cluster_start[i + 1]]
    }

    /// Currently selected nodes.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Current objective value `RS(V_s) = Σ_w best_w`.
    pub fn objective(&self) -> f64 {
        self.best.iter().map(|&b| f64::from(b)).sum()
    }

    /// The "unrepresented" stand-in distance used before any selection.
    pub fn big(&self) -> f32 {
        self.big
    }

    /// Eq. (14) coverage distance a candidate `u` offers to node `w`:
    /// exact within `u`'s cluster, centre-relaxed across clusters.
    pub fn candidate_distance(&self, u: usize, w: usize) -> f32 {
        let cu = self.clustering.labels[u];
        let cw = self.clustering.labels[w];
        if cu == cw {
            ops::dist(self.repr.row(w), self.repr.row(u))
        } else {
            self.center_dists(u)[cw] + self.clustering.d_max[cw]
        }
    }

    /// Marginal gain `ΔRS(u | V_s) = RS(V_s) − RS(V_s ∪ {u}) ≥ 0`.
    pub fn gain(&self, u: usize) -> f64 {
        let cu = self.clustering.labels[u];
        let members = &self.clustering.members[cu];
        let block = self.block(cu);
        let query = self.repr.row(u);
        let mut gain = 0.0f64;
        // Exact branch over u's own cluster, in member order.
        member_dists(block, members.len(), query, |slot, d| {
            let w = members[slot];
            if d < self.best[w] {
                gain += f64::from(self.best[w] - d);
            }
        });
        // Relaxed branch for every other cluster. Skipped clusters would
        // add exactly 0.0, which leaves the sum's bits unchanged.
        let it = self
            .center_dists(u)
            .iter()
            .zip(&self.clustering.d_max)
            .zip(&self.table_max)
            .enumerate();
        for (j, ((&cd, &d_max), &bound)) in it {
            let t = cd + d_max;
            if j == cu || (t >= bound && t.is_finite()) {
                continue;
            }
            gain += self.tables[j].gain_at(t);
        }
        gain
    }

    /// Adds `u` to the selection, updating coverage distances and rebuilding
    /// the coverage tables of the clusters whose coverage changed.
    pub fn add(&mut self, u: usize) {
        self.selected.push(u);
        let cu = self.clustering.labels[u];
        let members = &self.clustering.members[cu];
        let dim = self.repr.cols();
        let block = &self.members_t[dim * self.cluster_start[cu]..dim * self.cluster_start[cu + 1]];
        let best = &mut self.best;
        let mut changed = false;
        member_dists(block, members.len(), self.repr.row(u), |slot, d| {
            let w = members[slot];
            if d < best[w] {
                best[w] = d;
                changed = true;
            }
        });
        if changed {
            self.rebuild_table(cu);
        }
        let k = self.clustering.num_clusters();
        let row = self.pos[u] * k;
        for j in 0..k {
            let t = self.center_dist[row + j] + self.clustering.d_max[j];
            if j == cu || t >= self.table_max[j] {
                continue;
            }
            let mut changed = false;
            for &w in &self.clustering.members[j] {
                if t < self.best[w] {
                    self.best[w] = t;
                    changed = true;
                }
            }
            if changed {
                self.rebuild_table(j);
            }
        }
    }

    fn rebuild_table(&mut self, j: usize) {
        let best = &self.best;
        let table = &mut self.tables[j];
        table.rebuild(self.clustering.members[j].iter().map(|&w| best[w]));
        self.table_max[j] = table.skip_bound();
    }
}

/// The exact (unrelaxed) Eq. (12) k-medoid objective — brute force, used by
/// the relaxation-quality ablation and tests.
pub fn exact_kmedoid_objective(repr: &Matrix, selected: &[usize]) -> f64 {
    if selected.is_empty() {
        return f64::INFINITY;
    }
    (0..repr.rows())
        .map(|v| {
            selected
                .iter()
                .map(|&u| f64::from(ops::dist(repr.row(v), repr.row(u))))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;
    use e2gcl_linalg::SeedRng;

    fn two_blobs() -> Matrix {
        let mut rng = SeedRng::new(0);
        let mut x = Matrix::zeros(40, 2);
        for v in 0..40 {
            let c = if v < 20 { 0.0 } else { 8.0 };
            x.set(v, 0, c + 0.3 * rng.normal());
            x.set(v, 1, c + 0.3 * rng.normal());
        }
        x
    }

    #[test]
    fn gain_matches_add_delta() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(1));
        let mut obj = CoresetObjective::new(&x, &clustering);
        for &u in &[3usize, 25, 10] {
            let before = obj.objective();
            let g = obj.gain(u);
            obj.add(u);
            let after = obj.objective();
            assert!(
                (before - after - g).abs() < 1e-3 * (1.0 + g.abs()),
                "gain {g} vs delta {}",
                before - after
            );
        }
    }

    #[test]
    fn gains_are_nonnegative_and_monotone_decreasing() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(2));
        let mut obj = CoresetObjective::new(&x, &clustering);
        let g_before = obj.gain(7);
        obj.add(5);
        let g_after = obj.gain(7);
        assert!(g_before >= 0.0 && g_after >= 0.0);
        // Submodularity: adding an element can only shrink later gains.
        assert!(g_after <= g_before + 1e-6);
    }

    #[test]
    fn covering_both_blobs_beats_one_blob() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(3));
        let mut both = CoresetObjective::new(&x, &clustering);
        both.add(0);
        both.add(30);
        let mut one = CoresetObjective::new(&x, &clustering);
        one.add(0);
        one.add(1);
        assert!(both.objective() < one.objective());
    }

    #[test]
    fn objective_upper_bounds_exact_kmedoid() {
        // Eq. (13): the relaxed objective is an upper bound of Eq. (12).
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(4));
        let mut obj = CoresetObjective::new(&x, &clustering);
        obj.add(2);
        obj.add(31);
        let exact = exact_kmedoid_objective(&x, obj.selected());
        assert!(obj.objective() >= exact - 1e-3);
    }

    #[test]
    fn coverage_table_threshold_sums() {
        let t = CoverageTable::build([1.0, 3.0, 5.0].into_iter());
        assert!((t.gain_at(0.0) - 9.0).abs() < 1e-6);
        assert!((t.gain_at(2.0) - (1.0 + 3.0)).abs() < 1e-6); // (3-2)+(5-2)
        assert!((t.gain_at(10.0) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn candidate_distance_exact_in_cluster_relaxed_across() {
        let x = two_blobs();
        let clustering = kmeans(&x, 2, 30, &mut SeedRng::new(5));
        let obj = CoresetObjective::new(&x, &clustering);
        // Same-cluster pair: exact Euclidean distance on R.
        let (u, w) = (0usize, 1usize);
        assert_eq!(clustering.labels[u], clustering.labels[w]);
        assert!((obj.candidate_distance(u, w) - ops::dist(x.row(w), x.row(u))).abs() < 1e-6);
        // Cross-cluster pair: centre distance + d_max, an upper bound.
        let v_other = (0..40)
            .find(|&v| clustering.labels[v] != clustering.labels[u])
            .unwrap();
        let relaxed = obj.candidate_distance(u, v_other);
        assert!(relaxed >= ops::dist(x.row(v_other), x.row(u)) - 1e-4);
    }

    #[test]
    fn exact_objective_empty_is_infinite() {
        let x = two_blobs();
        assert!(exact_kmedoid_objective(&x, &[]).is_infinite());
    }
}
