//! Committed FNV-1a64 fingerprint of a default-config greedy selection.
//!
//! The input is clustered and large enough (`n ≥ 4096`) to exercise every
//! size-dependent branch of the selector: the auto cluster count, the
//! Theorem-3 sample size and the coverage-table maintenance of
//! [`CoresetObjective`](e2gcl_selector::coreset::CoresetObjective). Any
//! optimisation of Alg. 2 must keep the selected nodes *and* their λ
//! weights bit-identical, so the fingerprint hashes both.
//!
//! The clustering's Lloyd step and `assign_weights` run through the
//! dispatched `matmul_transpose`, whose element-level reduction order is
//! per dispatch path, so there is one golden value per path (like
//! `tests/golden_determinism.rs`). `ci.sh` re-runs this test with
//! `E2GCL_KERNEL_CONFIG=scalar` so both values stay checked on an AVX2
//! host.

use e2gcl_linalg::hash::Fnv1a64;
use e2gcl_linalg::{dispatch, DispatchPath, Matrix, SeedRng};
use e2gcl_selector::greedy::GreedySelector;

const N: usize = 4608;
const DIM: usize = 24;
const BLOBS: usize = 36;

const GOLDEN_SCALAR: u64 = 0x0a12_03c8_8246_96c6;
const GOLDEN_AVX2: u64 = 0x0a12_03c8_8246_96c6;

/// `BLOBS` Gaussian blobs with unequal sizes and spreads.
fn clustered_input() -> Matrix {
    let mut rng = SeedRng::new(4242);
    let centers: Vec<f32> = (0..BLOBS * DIM).map(|_| 3.0 * rng.normal()).collect();
    let mut data = Vec::with_capacity(N * DIM);
    for v in 0..N {
        // Skewed blob sizes: low blob ids get more rows.
        let b = (v * v / N) % BLOBS;
        let spread = 0.2 + 0.05 * (b % 7) as f32;
        for k in 0..DIM {
            data.push(centers[b * DIM + k] + spread * rng.normal());
        }
    }
    Matrix::from_vec(N, DIM, data)
}

#[test]
fn default_greedy_selection_fingerprint_is_bit_stable() {
    let repr = clustered_input();
    let budget = (N as f64 * 0.4).round() as usize;
    let sel = GreedySelector::default().select_from_aggregate(&repr, budget, &mut SeedRng::new(9));
    sel.validate(N, budget).expect("valid selection");
    assert_eq!(sel.nodes.len(), budget);
    let mut h = Fnv1a64::new();
    for &v in &sel.nodes {
        h.write_u64(v as u64);
    }
    for &w in &sel.weights {
        h.write_f32(w);
    }
    let fp = h.finish();
    let (path, golden) = match dispatch::current_path() {
        DispatchPath::Scalar => ("scalar", GOLDEN_SCALAR),
        DispatchPath::Avx2 => ("avx2", GOLDEN_AVX2),
    };
    assert_eq!(
        fp, golden,
        "greedy selection fingerprint changed on the {path} path: {fp:#018x}"
    );
}
