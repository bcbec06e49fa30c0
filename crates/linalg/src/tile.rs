//! Tiled matrix layout: an `m x n` matrix stored as an `mt x nt` grid of
//! contiguous `nb x nb` tiles (edge tiles may be smaller).

use crate::matrix::Matrix;

/// A matrix stored by tiles, PLASMA-style.
///
/// Tile `(i, j)` covers rows `i*nb .. min((i+1)*nb, m)` and columns
/// `j*nb .. min((j+1)*nb, n)`; each tile is its own contiguous column-major
/// buffer, which is what makes the tile kernels cache-friendly and lets the
/// runtime ship single tiles as packets.
#[derive(Clone, Debug)]
pub struct TileMatrix {
    m: usize,
    n: usize,
    nb: usize,
    mt: usize,
    nt: usize,
    tiles: Vec<Matrix>, // row-major grid: tile (i, j) at i * nt + j
}

impl TileMatrix {
    /// Tile up a dense matrix with tile size `nb`.
    pub fn from_matrix(a: &Matrix, nb: usize) -> Self {
        assert!(nb > 0);
        let m = a.nrows();
        let n = a.ncols();
        let mt = m.div_ceil(nb);
        let nt = n.div_ceil(nb);
        // Cut one block column at a time: that walks `a` (column-major)
        // front to back instead of striding across it once per block row.
        let mut tiles = vec![Matrix::zeros(0, 0); mt * nt];
        for j in 0..nt {
            for i in 0..mt {
                let r0 = i * nb;
                let c0 = j * nb;
                let rows = nb.min(m - r0);
                let cols = nb.min(n - c0);
                tiles[i * nt + j] = a.submatrix(r0, c0, rows, cols);
            }
        }
        TileMatrix {
            m,
            n,
            nb,
            mt,
            nt,
            tiles,
        }
    }

    /// An all-zero tiled matrix.
    pub fn zeros(m: usize, n: usize, nb: usize) -> Self {
        Self::from_matrix(&Matrix::zeros(m, n), nb)
    }

    /// Reassemble the dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        let mut a = Matrix::zeros(self.m, self.n);
        for i in 0..self.mt {
            for j in 0..self.nt {
                a.set_submatrix(i * self.nb, j * self.nb, self.tile(i, j));
            }
        }
        a
    }

    /// Global row count.
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Global column count.
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Tile size.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of tile rows.
    pub fn mt(&self) -> usize {
        self.mt
    }

    /// Number of tile columns.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Borrow tile `(i, j)`.
    pub fn tile(&self, i: usize, j: usize) -> &Matrix {
        &self.tiles[i * self.nt + j]
    }

    /// Borrow tile `(i, j)` mutably.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Matrix {
        &mut self.tiles[i * self.nt + j]
    }

    /// The whole grid, row-major (tile `(i, j)` at `i * nt + j`): the tiles
    /// of consecutive block rows are one contiguous chunk, so disjoint row
    /// ranges can be split off and mutated on different threads.
    pub fn tiles_mut(&mut self) -> &mut [Matrix] {
        &mut self.tiles
    }

    /// Replace tile `(i, j)`, returning the old one.
    pub fn replace_tile(&mut self, i: usize, j: usize, t: Matrix) -> Matrix {
        std::mem::replace(&mut self.tiles[i * self.nt + j], t)
    }

    /// Move tile `(i, j)` out, leaving an empty placeholder.
    pub fn take_tile(&mut self, i: usize, j: usize) -> Matrix {
        self.replace_tile(i, j, Matrix::zeros(0, 0))
    }

    /// Borrow two distinct tiles mutably.
    pub fn two_tiles_mut(
        &mut self,
        (i1, j1): (usize, usize),
        (i2, j2): (usize, usize),
    ) -> (&mut Matrix, &mut Matrix) {
        let a = i1 * self.nt + j1;
        let b = i2 * self.nt + j2;
        assert_ne!(a, b, "tiles must be distinct");
        if a < b {
            let (lo, hi) = self.tiles.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(a);
            let second = &mut lo[b];
            (&mut hi[0], second)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_division() {
        let mut rng = rand::rng();
        let a = Matrix::random(8, 6, &mut rng);
        let t = TileMatrix::from_matrix(&a, 2);
        assert_eq!((t.mt(), t.nt()), (4, 3));
        assert_eq!(t.to_matrix(), a);
    }

    #[test]
    fn roundtrip_ragged_edges() {
        let mut rng = rand::rng();
        let a = Matrix::random(7, 5, &mut rng);
        let t = TileMatrix::from_matrix(&a, 3);
        assert_eq!((t.mt(), t.nt()), (3, 2));
        assert_eq!(t.tile(2, 1).nrows(), 1);
        assert_eq!(t.tile(2, 1).ncols(), 2);
        assert_eq!(t.to_matrix(), a);
    }

    #[test]
    fn tile_contents_match_source() {
        let a = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let t = TileMatrix::from_matrix(&a, 3);
        assert_eq!(t.tile(1, 0)[(0, 0)], a[(3, 0)]);
        assert_eq!(t.tile(1, 1)[(2, 2)], a[(5, 5)]);
    }

    #[test]
    fn two_tiles_mut_disjoint() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut t = TileMatrix::from_matrix(&a, 2);
        let (x, y) = t.two_tiles_mut((0, 0), (1, 1));
        x[(0, 0)] = -1.0;
        y[(0, 0)] = -2.0;
        assert_eq!(t.tile(0, 0)[(0, 0)], -1.0);
        assert_eq!(t.tile(1, 1)[(0, 0)], -2.0);
    }
}
