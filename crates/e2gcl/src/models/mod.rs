//! Contrastive pre-training models.
//!
//! Every model implements [`ContrastiveModel`]: given an unlabelled graph it
//! produces node embeddings (plus timing and optional training-curve
//! checkpoints). Labels never enter pre-training; they are only used later
//! by the [`crate::eval`] decoders, exactly as in Alg. 1.

pub mod adgcl;
pub mod bgrl;
pub mod dgi;
pub mod e2gcl_model;
pub mod gae;
pub mod grace;
pub mod mvgrl;
pub mod walks;

use crate::config::{LossStrategy, TrainConfig};
use e2gcl_graph::CsrGraph;
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::{FrozenEncoder, LocalizedInfoNce, Neighborhoods, SmallNegInfoNce};
use e2gcl_selector::greedy::GreedySelector;
use std::time::Duration;

/// Output of a pre-training run.
#[derive(Clone, Debug)]
pub struct PretrainResult {
    /// Final embeddings of every node, computed on the *original* graph.
    pub embeddings: Matrix,
    /// The trained encoder, frozen for inference — the unit `e2gcl-serve`
    /// persists and queries. `None` for models whose embedding is not a
    /// parametric forward pass over the graph (e.g. random-walk tables) or
    /// that have not been taught to export one yet.
    pub encoder: Option<FrozenEncoder>,
    /// Time spent selecting representative nodes (`ST` of Table V; zero for
    /// models that train on all nodes).
    pub selection_time: Duration,
    /// Total pre-training wall time (`TT` of Table V), selection included.
    pub total_time: Duration,
    /// `(elapsed seconds, embeddings)` checkpoints, recorded when
    /// `TrainConfig::checkpoint_every` is set (drives Fig. 3).
    pub checkpoints: Vec<(f64, Matrix)>,
    /// Mean contrastive loss per epoch (for convergence diagnostics).
    pub loss_curve: Vec<f32>,
}

/// A self-supervised graph representation learner.
pub trait ContrastiveModel {
    /// Model name as it appears in the paper's tables.
    fn name(&self) -> String;

    /// Pre-trains on `(g, x)` without labels and returns node embeddings.
    ///
    /// Numeric health is checked every epoch by a [`crate::NumericGuard`]
    /// configured through `cfg.guard`; an unrecoverable failure (per the
    /// configured policy) aborts the run with a [`TrainError`].
    fn pretrain(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        cfg: &TrainConfig,
        rng: &mut SeedRng,
    ) -> Result<PretrainResult, TrainError>;
}

/// Typed rejection for models whose training loop has no mini-batch form:
/// called at the top of their `pretrain`, so a `cfg.minibatch` block on an
/// unsupported model fails loudly instead of being silently ignored.
pub(crate) fn ensure_full_graph_only(cfg: &TrainConfig, model: &str) -> Result<(), TrainError> {
    if cfg.minibatch.is_some() {
        return Err(TrainError::InvalidConfig(format!(
            "{model} does not support mini-batch training; unset cfg.minibatch \
             or use E2GCL / GRACE"
        )));
    }
    Ok(())
}

/// Typed rejection for models whose objective is not InfoNCE-shaped:
/// the sub-quadratic [`crate::config::LossStrategy`] kernels replace the
/// InfoNCE denominator, so a non-`Full` strategy on such a model fails
/// loudly instead of being silently ignored.
pub(crate) fn ensure_full_loss_only(cfg: &TrainConfig, model: &str) -> Result<(), TrainError> {
    if !cfg.loss.is_full() {
        return Err(TrainError::InvalidConfig(format!(
            "{model} supports only the full contrastive loss; unset cfg.loss \
             (sub-quadratic strategies apply to E2GCL and GRACE/GCA)"
        )));
    }
    Ok(())
}

/// Per-step state of the configured [`LossStrategy`], shared by the
/// GRACE/GCA and E²GCL epoch steps (DESIGN.md §15).
///
/// `Full` leaves the step's original InfoNCE path bitwise-untouched (the
/// golden fingerprints pin it); the sub-quadratic variants carry their own
/// fused forward+backward scratch so steady-state epochs stay
/// allocation-free inside the kernel.
pub(crate) enum InfoNceStrategy {
    /// The original fused O(n²) kernel, driven by the step's own scratch.
    Full,
    /// Small-negative-set InfoNCE; negatives re-selected deterministically
    /// each epoch (full-batch) or batch (mini-batch) via
    /// [`select_negatives`].
    SmallNeg {
        /// Negative budget `k` from the config.
        k: usize,
        /// The fused kernel + scratch (boxed: the scratch is large and
        /// `Full` carries none).
        strat: Box<SmallNegInfoNce>,
    },
    /// Neighbourhood-localized InfoNCE; the topology is fixed per graph
    /// (full-batch) or rebuilt per sampled subgraph (mini-batch).
    Localized {
        /// Neighbourhood radius from the config.
        hops: usize,
        /// The fused kernel + scratch (boxed, as above).
        strat: Box<LocalizedInfoNce>,
    },
}

impl InfoNceStrategy {
    /// Builds the step-side state for `loss` at temperature `tau`.
    /// Localized topology starts empty — full-batch steps set it once from
    /// the training graph, mini-batch steps per sampled view.
    pub(crate) fn from_config(loss: &LossStrategy, tau: f32) -> InfoNceStrategy {
        match *loss {
            LossStrategy::Full => InfoNceStrategy::Full,
            LossStrategy::SmallNeg { negatives } => InfoNceStrategy::SmallNeg {
                k: negatives,
                strat: Box::new(SmallNegInfoNce::new(tau)),
            },
            LossStrategy::Localized { hops } => InfoNceStrategy::Localized {
                hops,
                strat: Box::new(LocalizedInfoNce::new(tau, Neighborhoods::default())),
            },
        }
    }
}

/// Upper bound on the candidate pool [`select_negatives`] hands to the
/// greedy selector, as a multiple of the negative budget `k` (floored at
/// [`NEGATIVE_POOL_MIN`]). Selection runs every epoch, so it must stay
/// o(n) on million-node graphs; a pool of `8k` rows keeps the Alg. 2
/// clustering+greedy work flat while still giving the selector real
/// diversity to pick from.
const NEGATIVE_POOL_FACTOR: usize = 8;
const NEGATIVE_POOL_MIN: usize = 2048;

/// Deterministically selects `k` representative negative rows of `repr`
/// for the small-negative-set loss via the Alg. 2 greedy selector
/// ([`GreedySelector::select_nodes_from_aggregate`] on the current
/// embeddings; the λ weights are never computed).
///
/// Returns global row indices, sorted ascending. When `repr` has more than
/// `max(8k, 2048)` rows, the selector runs on a candidate pool of that
/// size drawn without replacement from `rng` — O(pool) per epoch instead
/// of O(n) — and the picks are mapped back to global ids. All randomness
/// comes from `rng`, so the choice is a pure function of the RNG stream
/// and the embeddings (bit-identical across `RAYON_NUM_THREADS`; the
/// selector's gain argmax tie-breaks on lowest id).
pub(crate) fn select_negatives(repr: &Matrix, k: usize, rng: &mut SeedRng) -> Vec<usize> {
    let n = repr.rows();
    if k >= n {
        return (0..n).collect();
    }
    let pool_cap = (NEGATIVE_POOL_FACTOR * k).max(NEGATIVE_POOL_MIN);
    let selector = GreedySelector::default();
    let mut nodes = if n <= pool_cap {
        selector.select_nodes_from_aggregate(repr, k, rng)
    } else {
        let mut pool = rng.sample_without_replacement(n, pool_cap);
        // Sorting makes the pooled sub-matrix (and therefore the greedy
        // run) a function of the sampled *set*, not of the draw order.
        pool.sort_unstable();
        let pooled = repr.select_rows(&pool);
        selector
            .select_nodes_from_aggregate(&pooled, k, rng)
            .into_iter()
            .map(|local| pool[local])
            .collect()
    };
    nodes.sort_unstable();
    nodes
}

/// Samples `count` negative indices in `[0, n)` distinct from `anchor`.
pub(crate) fn sample_negative_indices(
    n: usize,
    anchor: usize,
    count: usize,
    rng: &mut SeedRng,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    if n <= 1 {
        return out;
    }
    for _ in 0..count {
        let mut u = rng.below(n - 1);
        if u >= anchor {
            u += 1;
        }
        out.push(u);
    }
    out
}

/// Splits shuffled node indices into anchor batches of at most `batch_size`.
pub(crate) fn shuffled_batches(n: usize, batch_size: usize, rng: &mut SeedRng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.chunks(batch_size.max(2)).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negatives_exclude_anchor() {
        let mut rng = SeedRng::new(0);
        for anchor in 0..5 {
            let negs = sample_negative_indices(5, anchor, 50, &mut rng);
            assert_eq!(negs.len(), 50);
            assert!(negs.iter().all(|&u| u != anchor && u < 5));
        }
    }

    #[test]
    fn negatives_degenerate_single_node() {
        let mut rng = SeedRng::new(1);
        assert!(sample_negative_indices(1, 0, 3, &mut rng).is_empty());
    }

    #[test]
    fn full_loss_guard_rejects_sub_quadratic_strategies() {
        let mut cfg = TrainConfig::default();
        assert!(ensure_full_loss_only(&cfg, "DGI").is_ok());
        cfg.loss = crate::config::LossStrategy::SmallNeg { negatives: 64 };
        let err = ensure_full_loss_only(&cfg, "DGI").unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn select_negatives_is_sorted_deterministic_and_bounded() {
        let mut rng = SeedRng::new(7);
        let mut repr = Matrix::zeros(300, 8);
        for v in repr.as_mut_slice() {
            *v = rng.normal();
        }
        let a = select_negatives(&repr, 24, &mut SeedRng::new(1));
        let b = select_negatives(&repr, 24, &mut SeedRng::new(1));
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique: {a:?}");
        assert!(a.iter().all(|&v| v < 300));
        // k >= n short-circuits to the identity set without consuming RNG.
        let mut untouched = SeedRng::new(2);
        let all = select_negatives(&repr, 300, &mut untouched);
        assert_eq!(all, (0..300).collect::<Vec<_>>());
        assert_eq!(untouched.below(1 << 30), SeedRng::new(2).below(1 << 30));
    }

    #[test]
    fn batches_cover_everything_once() {
        let mut rng = SeedRng::new(2);
        let batches = shuffled_batches(103, 25, &mut rng);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }
}
