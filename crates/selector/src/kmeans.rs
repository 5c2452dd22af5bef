//! KMeans++ / Lloyd clustering over raw aggregates.

use crate::assign::{nearest_rows, ASSIGN_REP_TILE};
use e2gcl_linalg::{ops, Matrix, SeedRng};

/// Result of a KMeans run.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Cluster label per node.
    pub labels: Vec<usize>,
    /// Cluster centres (`k x d`).
    pub centers: Matrix,
    /// Per-cluster maximum member-to-centre distance (`d_i^max` of Eq. 13).
    pub d_max: Vec<f32>,
    /// Per-cluster member lists.
    pub members: Vec<Vec<usize>>,
}

impl Clustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.rows()
    }

    /// Total within-cluster squared distance (the Lloyd objective).
    pub fn cost(&self, x: &Matrix) -> f64 {
        self.labels
            .iter()
            .enumerate()
            .map(|(v, &c)| f64::from(ops::sq_dist(x.row(v), self.centers.row(c))))
            .sum()
    }
}

/// KMeans++ seeding followed by Lloyd iterations.
///
/// `k` is clamped to the number of rows. Empty clusters are re-seeded from
/// the farthest point, so all `k` clusters stay inhabited.
pub fn kmeans(x: &Matrix, k: usize, iters: usize, rng: &mut SeedRng) -> Clustering {
    let n = x.rows();
    assert!(n > 0, "kmeans on empty input");
    let k = k.clamp(1, n);
    let mut centers = plus_plus_init(x, k, rng);
    let mut labels = vec![0usize; n];
    let ids: Vec<usize> = (0..k).collect();
    for _ in 0..iters {
        // Assignment step over streamed tiles of the cross matrix:
        // argmin_c ||x_v - c||^2 = argmin_c (||c||^2 - 2 x_v · c).
        let tiles: Vec<Matrix> = ids
            .chunks(ASSIGN_REP_TILE)
            .map(|tile| centers.select_rows(tile))
            .collect();
        let new_labels = nearest_rows(x, &tiles);
        let changed = new_labels != labels;
        labels = new_labels;
        // Update step.
        let mut sums = Matrix::zeros(k, x.cols());
        let mut counts = vec![0usize; k];
        for (v, &c) in labels.iter().enumerate() {
            ops::axpy_slice(sums.row_mut(c), 1.0, x.row(v));
            counts[c] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Re-seed an empty cluster from the globally farthest point.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = nearest_center(x.row(a), &centers).1;
                        let db = nearest_center(x.row(b), &centers).1;
                        da.total_cmp(&db)
                    })
                    .expect("kmeans input has at least one point");
                centers.set_row(c, x.row(far));
            } else {
                let inv = 1.0 / count as f32;
                let mut row = sums.row(c).to_vec();
                for v in &mut row {
                    *v *= inv;
                }
                centers.set_row(c, &row);
            }
        }
        if !changed {
            break;
        }
    }
    finalize(x, labels, centers)
}

fn finalize(x: &Matrix, labels: Vec<usize>, centers: Matrix) -> Clustering {
    let k = centers.rows();
    let mut d_max = vec![0.0f32; k];
    let mut members = vec![Vec::new(); k];
    for (v, &c) in labels.iter().enumerate() {
        let d = ops::dist(x.row(v), centers.row(c));
        if d > d_max[c] {
            d_max[c] = d;
        }
        members[c].push(v);
    }
    Clustering {
        labels,
        centers,
        d_max,
        members,
    }
}

/// `(index, squared distance)` of the nearest centre.
fn nearest_center(row: &[f32], centers: &Matrix) -> (usize, f32) {
    let mut best = (0usize, f32::INFINITY);
    for c in 0..centers.rows() {
        let d = ops::sq_dist(row, centers.row(c));
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// KMeans++ seeding: first centre uniform, later centres ∝ D².
///
/// The distance refresh after each new centre runs lane-per-row over a
/// transposed copy of `x`, bit-identical to `ops::sq_dist` per row.
fn plus_plus_init(x: &Matrix, k: usize, rng: &mut SeedRng) -> Matrix {
    let n = x.rows();
    let mut centers = Matrix::zeros(k, x.cols());
    let first = rng.below(n);
    centers.set_row(0, x.row(first));
    let x_t = x.transpose();
    let mut d2 = vec![0.0f32; n];
    ops::sq_dist_lanes(x_t.as_slice(), n, centers.row(0), &mut d2);
    let mut fresh = vec![0.0f32; n];
    for c in 1..k {
        let pick = rng.weighted_index(&d2);
        centers.set_row(c, x.row(pick));
        ops::sq_dist_lanes(x_t.as_slice(), n, centers.row(c), &mut fresh);
        for (dv, &d) in d2.iter_mut().zip(&fresh) {
            if d < *dv {
                *dv = d;
            }
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SeedRng::new(seed);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut x = Matrix::zeros(per * 3, 2);
        let mut truth = Vec::new();
        for (b, center) in centers.iter().enumerate() {
            for i in 0..per {
                let v = b * per + i;
                x.set(v, 0, center[0] + 0.5 * rng.normal());
                x.set(v, 1, center[1] + 0.5 * rng.normal());
                truth.push(b);
            }
        }
        (x, truth)
    }

    #[test]
    fn kmeans_recovers_blobs() {
        let (x, truth) = blobs(30, 0);
        let mut rng = SeedRng::new(1);
        let c = kmeans(&x, 3, 50, &mut rng);
        // Every true blob should map to exactly one cluster label.
        for b in 0..3 {
            let lbls: std::collections::HashSet<_> = (0..90)
                .filter(|&v| truth[v] == b)
                .map(|v| c.labels[v])
                .collect();
            assert_eq!(lbls.len(), 1, "blob {b} split across clusters");
        }
    }

    #[test]
    fn cost_decreases_with_more_clusters() {
        let (x, _) = blobs(20, 2);
        let c1 = kmeans(&x, 1, 30, &mut SeedRng::new(3));
        let c3 = kmeans(&x, 3, 30, &mut SeedRng::new(3));
        assert!(c3.cost(&x) < c1.cost(&x) * 0.2);
    }

    #[test]
    fn k_clamped_to_n() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let c = kmeans(&x, 10, 5, &mut SeedRng::new(4));
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn d_max_bounds_members() {
        let (x, _) = blobs(25, 5);
        let c = kmeans(&x, 3, 30, &mut SeedRng::new(6));
        for (v, &lbl) in c.labels.iter().enumerate() {
            let d = ops::dist(x.row(v), c.centers.row(lbl));
            assert!(d <= c.d_max[lbl] + 1e-5);
        }
    }

    #[test]
    fn members_partition_nodes() {
        let (x, _) = blobs(10, 7);
        let c = kmeans(&x, 3, 20, &mut SeedRng::new(8));
        let total: usize = c.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 30);
        for (ci, ms) in c.members.iter().enumerate() {
            for &v in ms {
                assert_eq!(c.labels[v], ci);
            }
        }
    }
}
