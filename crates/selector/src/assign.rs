//! Nearest-row assignment over streamed tiles of the cross matrix.
//!
//! Alg. 2's λ weights (every node to its nearest selected node) and the
//! k-means assignment step (every row to its nearest centre) are the same
//! argmin: `argmin_c ||t_c||² − 2 x·t_c` over target rows `t_c`. The cross
//! term of a row tile against a target tile is one dispatched
//! `matmul_transpose`, whose elements are bit-identical whatever the tile
//! shape, and each row keeps a running `(index, score)` over the target
//! tiles in ascending order with a strict `<`. Every tiling therefore
//! returns what one dense `|V| x |targets|` cross matrix would, ties to the
//! lowest index included, while memory stays `O(tile)` per worker.

use e2gcl_linalg::{dispatch, ops, Matrix};
use rayon::prelude::*;
use std::cell::RefCell;

/// Rows per assignment tile (one parallel work item).
pub const ASSIGN_ROW_TILE: usize = 32;
/// Target rows per assignment tile.
pub const ASSIGN_REP_TILE: usize = 256;

/// A worker's reusable tile buffers.
struct TileScratch {
    rows: Matrix,
    cross: Matrix,
    best: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Option<TileScratch>> = const { RefCell::new(None) };
}

/// Assigns every node to its nearest selected node in `repr`-space and
/// returns the λ weights (Alg. 2, line 10).
pub fn assign_weights(repr: &Matrix, nodes: &[usize]) -> Vec<f32> {
    let mut weights = vec![0.0f32; nodes.len()];
    if nodes.is_empty() {
        return weights;
    }
    let tiles: Vec<Matrix> = nodes
        .chunks(ASSIGN_REP_TILE)
        .map(|tile| repr.select_rows(tile))
        .collect();
    for i in nearest_rows(repr, &tiles) {
        weights[i] += 1.0;
    }
    weights
}

/// For every row `x_v`, the index of the target row `t` minimising
/// `ops::dot(t, t) − 2 x_v · t`, counting target rows across `tiles` in
/// order. Strict `<`, so ties go to the lowest index (and a row whose
/// scores are all NaN gets 0).
pub(crate) fn nearest_rows(x: &Matrix, tiles: &[Matrix]) -> Vec<usize> {
    let dim = x.cols();
    let sq_norms: Vec<Vec<f32>> = tiles
        .iter()
        .map(|t| {
            (0..t.rows())
                .map(|r| ops::dot(t.row(r), t.row(r)))
                .collect()
        })
        .collect();
    // Workers run the caller's dispatch path, not the process default.
    let sel = dispatch::current();
    let mut owner = vec![0usize; x.rows()];
    owner
        .par_chunks_mut(ASSIGN_ROW_TILE)
        .enumerate()
        .for_each(|(tile_idx, out)| {
            dispatch::with_selection(sel, || {
                SCRATCH.with(|cell| {
                    let mut cell = cell.borrow_mut();
                    let s = cell.get_or_insert_with(|| TileScratch {
                        rows: Matrix::zeros(0, 0),
                        cross: Matrix::zeros(0, 0),
                        best: Vec::new(),
                    });
                    let r0 = tile_idx * ASSIGN_ROW_TILE;
                    s.rows.reset_zeroed(out.len(), dim);
                    s.rows
                        .as_mut_slice()
                        .copy_from_slice(&x.as_slice()[r0 * dim..(r0 + out.len()) * dim]);
                    s.best.clear();
                    s.best.resize(out.len(), f32::INFINITY);
                    out.fill(0);
                    let mut offset = 0;
                    for (tile, sq) in tiles.iter().zip(&sq_norms) {
                        s.rows.matmul_transpose_into(tile, &mut s.cross);
                        for (r, (o, b)) in out.iter_mut().zip(s.best.iter_mut()).enumerate() {
                            for (i, (&c, &sq)) in s.cross.row(r).iter().zip(sq).enumerate() {
                                let d = sq - 2.0 * c;
                                if d < *b {
                                    *b = d;
                                    *o = offset + i;
                                }
                            }
                        }
                        offset += tile.rows();
                    }
                })
            })
        });
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rows_ignores_tiling() {
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 2.0], &[-1.0, 0.5], &[3.0, -1.0]]);
        let targets = Matrix::from_rows(&[&[0.0, 0.9], &[2.0, 2.1], &[3.0, -1.0]]);
        let whole = nearest_rows(&x, std::slice::from_ref(&targets));
        assert_eq!(whole, vec![0, 1, 0, 2]);
        let split = [targets.select_rows(&[0, 1]), targets.select_rows(&[2])];
        assert_eq!(nearest_rows(&x, &split), whole);
    }
}
