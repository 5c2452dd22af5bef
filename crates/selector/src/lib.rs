//! The E²GCL representative-node selector (paper §III) and its baselines.
//!
//! The paper shows (Theorem 1) that under a relaxed GCN the contrastive
//! gradient difference between two nodes is bounded by the distance between
//! their *raw aggregates* `R = A_n^L X`, then formulates coreset selection
//! as the cluster-relaxed k-medoid objective of Eq. (14) (Definition 1),
//! proves it NP-hard (Theorem 2) and solves it with the sampling-based
//! greedy Algorithm 2 (approximation ratio `1 − 1/e − ε`, Theorem 3).
//!
//! Modules:
//! * [`kmeans`] — KMeans++/Lloyd over the raw aggregates;
//! * [`assign`] — nearest-row assignment (the λ weights of Alg. 2 and the
//!   k-means assignment step) over streamed tiles of the cross matrix;
//! * [`coreset`] — the Eq. (14) representativity objective with
//!   incremental marginal-gain evaluation: `O(|C_u|·d + n_c)` per
//!   candidate `u`, plus an `O(log |C_j|)` search for each other cluster
//!   `j` the candidate can still improve;
//! * [`greedy`] — Algorithm 2;
//! * [`fenwick`] — order statistics over the not-yet-selected nodes;
//! * [`baselines`] — Random / Degree / KMeans / KCG / Grain selectors of
//!   Table VII.

pub mod assign;
pub mod baselines;
pub mod coreset;
pub mod fenwick;
pub mod greedy;
pub mod kmeans;

pub use assign::{assign_weights, ASSIGN_REP_TILE, ASSIGN_ROW_TILE};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{Matrix, SeedRng};

/// A selected coreset: node indices plus the λ weights of Eq. (8)
/// (how many nodes each selected node represents; `Σλ = |V|`).
#[derive(Clone, Debug)]
pub struct Selection {
    /// Selected node indices (the coreset `V_s`).
    pub nodes: Vec<usize>,
    /// λ weight per selected node, parallel to `nodes`.
    pub weights: Vec<f32>,
}

impl Selection {
    /// Sanity check: budget respected and weights cover all nodes.
    pub fn validate(&self, num_nodes: usize, budget: usize) -> Result<(), String> {
        if self.nodes.len() > budget {
            return Err(format!("{} nodes exceed budget {budget}", self.nodes.len()));
        }
        if self.nodes.len() != self.weights.len() {
            return Err("weights not parallel to nodes".into());
        }
        let set: std::collections::HashSet<_> = self.nodes.iter().collect();
        if set.len() != self.nodes.len() {
            return Err("duplicate nodes".into());
        }
        if self.nodes.iter().any(|&v| v >= num_nodes) {
            return Err("node out of range".into());
        }
        let total: f32 = self.weights.iter().sum();
        if !self.nodes.is_empty() && (total - num_nodes as f32).abs() > 1.0 {
            return Err(format!("weights sum {total} != |V| {num_nodes}"));
        }
        Ok(())
    }
}

/// A node-selection strategy (Table VII rows).
pub trait NodeSelector {
    /// Human-readable name for result tables.
    fn name(&self) -> &'static str;

    /// Selects at most `budget` nodes of `graph` (with features `x`).
    fn select(&self, graph: &CsrGraph, x: &Matrix, budget: usize, rng: &mut SeedRng) -> Selection;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_weights_covers_all_nodes() {
        let repr = Matrix::from_rows(&[&[0.0], &[0.1], &[5.0], &[5.1], &[5.2]]);
        let w = assign_weights(&repr, &[0, 2]);
        assert_eq!(w, vec![2.0, 3.0]);
    }

    #[test]
    fn selection_validate_catches_errors() {
        let s = Selection {
            nodes: vec![0, 0],
            weights: vec![1.0, 1.0],
        };
        assert!(s.validate(5, 3).is_err()); // duplicates
        let s = Selection {
            nodes: vec![0, 1, 2],
            weights: vec![1.0, 1.0, 1.0],
        };
        assert!(s.validate(5, 2).is_err()); // over budget
        let s = Selection {
            nodes: vec![0, 1],
            weights: vec![2.0, 3.0],
        };
        assert!(s.validate(5, 2).is_ok());
        let s = Selection {
            nodes: vec![0, 1],
            weights: vec![1.0, 1.0],
        };
        assert!(s.validate(5, 2).is_err()); // weights don't sum to |V|
    }
}
