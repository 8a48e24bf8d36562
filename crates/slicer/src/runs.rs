//! Run-length raster rows and the connectivity analyses computed on them.
//!
//! A layer's material is held as each row's maximal runs of equal
//! material. Every raster analysis the slice diagnosis needs — model
//! components, sealed voids and the narrowest model gap — reads runs
//! only, so its cost follows rows + contour crossings rather than cells.

use crate::CellMaterial;

/// One maximal run of equal material in a raster row: columns
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) material: CellMaterial,
}

/// A layer's material as run-length rows: row `j`'s runs are
/// `runs[row_starts[j]..row_starts[j + 1]]`. They tile columns `[0, nx)`
/// left to right, and neighbouring runs differ in material.
#[derive(Debug)]
pub(crate) struct RunRows {
    nx: usize,
    runs: Vec<Run>,
    row_starts: Vec<usize>,
}

/// Connected components of one layer, 4-connected like a cell flood.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Connectivity {
    /// Components of model material.
    pub(crate) model_components: usize,
    /// Empty cells in non-model components (empty and support joined)
    /// that touch no grid border: the sealed voids.
    pub(crate) internal_void_cells: usize,
}

impl RunRows {
    /// An empty set of rows `nx` columns wide; rows are added with
    /// [`RunRows::push`] and closed with [`RunRows::end_row`].
    pub(crate) fn new(nx: usize) -> RunRows {
        RunRows { nx, runs: Vec::new(), row_starts: vec![0] }
    }

    /// Run-length encodes a row-major cell grid `nx` columns wide.
    pub(crate) fn from_cells(cells: &[CellMaterial], nx: usize) -> RunRows {
        let mut rows = RunRows::new(nx);
        for row in cells.chunks(nx) {
            for (i, &material) in row.iter().enumerate() {
                rows.push(i, i + 1, material);
            }
            rows.end_row();
        }
        rows
    }

    /// Appends columns `[start, end)` of `material` to the open row,
    /// merging with the row's last run when the material matches. The
    /// spans of a row must arrive in order and tile it.
    pub(crate) fn push(&mut self, start: usize, end: usize, material: CellMaterial) {
        let row_open = self.runs.len() > self.row_starts[self.row_starts.len() - 1];
        match self.runs.last_mut() {
            Some(last) if row_open && last.material == material => last.end = end,
            _ => self.runs.push(Run { start, end, material }),
        }
    }

    /// Closes the open row.
    pub(crate) fn end_row(&mut self) {
        self.row_starts.push(self.runs.len());
    }

    /// Number of rows.
    pub(crate) fn ny(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// Row width in columns.
    pub(crate) fn nx(&self) -> usize {
        self.nx
    }

    /// The runs of row `j`.
    pub(crate) fn row(&self, j: usize) -> &[Run] {
        &self.runs[self.row_starts[j]..self.row_starts[j + 1]]
    }

    /// Model components and sealed voids, by union-find over runs.
    ///
    /// Two runs of vertically adjacent rows join when they are both model
    /// or both non-model and their column intervals overlap; neighbouring
    /// empty and support runs of a row join too, since the void rule
    /// floods through both. A non-model component touches the border when
    /// one of its runs lies in the first or last row or reaches column 0
    /// or `nx`.
    pub(crate) fn connectivity(&self) -> Connectivity {
        let n = self.runs.len();
        let mut parent: Vec<usize> = (0..n).collect();
        let is_model = |k: usize| self.runs[k].material == CellMaterial::Model;
        let ny = self.ny();
        for j in 0..ny {
            let (lo, hi) = (self.row_starts[j], self.row_starts[j + 1]);
            for k in lo + 1..hi {
                if !is_model(k - 1) && !is_model(k) {
                    union(&mut parent, k - 1, k);
                }
            }
            if j + 1 == ny {
                break;
            }
            // Both rows tile [0, nx), so a merge walk meets every
            // overlapping pair once: the current pair always overlaps, and
            // the run ending first gives way.
            let (mut a, mut b, b_hi) = (lo, hi, self.row_starts[j + 2]);
            while a < hi && b < b_hi {
                if is_model(a) == is_model(b) {
                    union(&mut parent, a, b);
                }
                let (ea, eb) = (self.runs[a].end, self.runs[b].end);
                a += usize::from(ea <= eb);
                b += usize::from(eb <= ea);
            }
        }

        let mut model_components = 0;
        let mut border = vec![false; n];
        let mut empty = vec![0usize; n];
        for j in 0..ny {
            let edge_row = j == 0 || j + 1 == ny;
            for k in self.row_starts[j]..self.row_starts[j + 1] {
                let run = self.runs[k];
                let root = find(&mut parent, k);
                match run.material {
                    CellMaterial::Model => model_components += usize::from(root == k),
                    CellMaterial::Empty | CellMaterial::Support => {
                        border[root] |= edge_row || run.start == 0 || run.end == self.nx;
                        if run.material == CellMaterial::Empty {
                            empty[root] += run.end - run.start;
                        }
                    }
                }
            }
        }
        let internal_void_cells = (0..n).filter(|&k| !border[k]).map(|k| empty[k]).sum();
        Connectivity { model_components, internal_void_cells }
    }

    /// Narrowest empty gap, in cells, between two model runs of one row,
    /// or `None` if no row has two model runs with only empty cells
    /// between them. A gap holding support is deliberate geometry, not a
    /// crack, and does not count.
    pub(crate) fn min_model_gap_cells(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for j in 0..self.ny() {
            let mut last_model_end: Option<usize> = None;
            let mut gap_is_empty = true;
            for run in self.row(j) {
                match run.material {
                    CellMaterial::Model => {
                        if let (Some(end), true) = (last_model_end, gap_is_empty) {
                            let gap = run.start - end;
                            best = Some(best.map_or(gap, |b| b.min(gap)));
                        }
                        last_model_end = Some(run.end);
                        gap_is_empty = true;
                    }
                    CellMaterial::Support => gap_is_empty = false,
                    CellMaterial::Empty => {}
                }
            }
        }
        best
    }
}

/// Root of `x`'s set, halving the path on the way.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Joins the sets of `a` and `b` under the smaller root, so a set's root
/// is its first run.
fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CellMaterial::{Empty as E, Model as M, Support as S};

    fn rows(grid: &[&[CellMaterial]]) -> RunRows {
        RunRows::from_cells(&grid.concat(), grid[0].len())
    }

    fn connectivity(grid: &[&[CellMaterial]]) -> (usize, usize) {
        let c = rows(grid).connectivity();
        (c.model_components, c.internal_void_cells)
    }

    #[test]
    fn rows_merge_equal_neighbours() {
        let r = rows(&[&[E, M, M, S, S, E]]);
        let run = |start, end, material| Run { start, end, material };
        assert_eq!(r.row(0), [run(0, 1, E), run(1, 3, M), run(3, 5, S), run(5, 6, E)]);
    }

    #[test]
    fn sealed_pocket_counts_only_its_empty_cells() {
        let grid: [&[CellMaterial]; 5] = [
            &[E, E, E, E, E, E],
            &[E, M, M, M, M, E],
            &[E, M, E, S, M, E],
            &[E, M, M, M, M, E],
            &[E, E, E, E, E, E],
        ];
        assert_eq!(connectivity(&grid), (1, 1));
    }

    #[test]
    fn pocket_open_sideways_through_support_is_not_a_void() {
        // The empty cell's only way out is along its row, through support
        // that reaches the right or the left border.
        let right: [&[CellMaterial]; 3] = [&[M, M, M, M, M], &[M, E, S, S, S], &[M, M, M, M, M]];
        assert_eq!(connectivity(&right), (1, 0));
        let left: [&[CellMaterial]; 3] = [&[M, M, M, M, M], &[S, S, S, E, M], &[M, M, M, M, M]];
        assert_eq!(connectivity(&left), (1, 0));
    }

    #[test]
    fn pocket_open_to_first_or_last_row_is_not_a_void() {
        let grid: [&[CellMaterial]; 3] = [&[M, E, M], &[M, E, M], &[M, M, M]];
        assert_eq!(connectivity(&grid), (1, 0));
        let grid: [&[CellMaterial]; 3] = [&[M, M, M], &[M, E, M], &[M, E, M]];
        assert_eq!(connectivity(&grid), (1, 0));
    }

    #[test]
    fn runs_join_only_where_columns_overlap() {
        // The first two model runs share column 1; the third starts where
        // the second ends, and corner contact does not connect.
        let grid: [&[CellMaterial]; 3] = [&[M, M, E, E], &[E, M, M, E], &[E, E, E, M]];
        assert_eq!(connectivity(&grid), (2, 0));
    }

    #[test]
    fn min_gap_skips_support_filled_gaps() {
        let r = rows(&[&[M, E, E, M, S, M], &[M, S, M, E, E, E]]);
        assert_eq!(r.min_model_gap_cells(), Some(2));
        assert_eq!(rows(&[&[M, S, M, E]]).min_model_gap_cells(), None);
        assert_eq!(rows(&[&[E, M, M, E]]).min_model_gap_cells(), None);
    }
}
