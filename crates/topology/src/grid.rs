//! Square-lattice grid deployments (Section 4 of the paper).

use serde::{Deserialize, Serialize};

use crate::{NodeId, Point2, Topology};

/// An `rows × cols` square lattice with 4-neighbor connectivity and no
/// wrap-around, as used throughout the paper's analysis (75×75 for the
/// idealized simulations, 10×10…40×40 for the percolation study).
///
/// # Examples
///
/// ```
/// use pbbf_topology::Grid;
///
/// let g = Grid::square(75);
/// assert_eq!(g.topology().len(), 5625);
/// let c = g.center();
/// assert_eq!(g.row_col(c), (37, 37));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    rows: u32,
    cols: u32,
    spacing: f64,
    topology: Topology,
}

impl Grid {
    /// The largest side a square grid may have: `MAX_SIDE²` still fits
    /// a [`NodeId`]. Callers that take a side from user or wire input
    /// check it against this bound before building the grid.
    pub const MAX_SIDE: u32 = u16::MAX as u32;

    /// Creates an `n × n` grid with unit spacing.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_SIDE`.
    #[must_use]
    pub fn square(n: u32) -> Self {
        Self::new(n, n, 1.0)
    }

    /// Creates a `rows × cols` grid with the given inter-node spacing in
    /// meters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, if `rows × cols` overflows a
    /// [`NodeId`], or if spacing is not positive.
    #[must_use]
    pub fn new(rows: u32, cols: u32, spacing: f64) -> Self {
        assert!(rows > 0 && cols > 0, "empty grid {rows}x{cols}");
        let Some(n) = rows.checked_mul(cols) else {
            panic!("grid {rows}x{cols} has more nodes than a NodeId can number");
        };
        assert!(
            spacing > 0.0 && spacing.is_finite(),
            "bad spacing {spacing}"
        );
        let mut positions = Vec::with_capacity(n as usize);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Point2::new(c as f64 * spacing, r as f64 * spacing));
            }
        }
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let id = NodeId(r * cols + c);
                if c + 1 < cols {
                    edges.push((id, NodeId(r * cols + c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id, NodeId((r + 1) * cols + c)));
                }
            }
        }
        Self {
            rows,
            cols,
            spacing,
            topology: Topology::from_edges(positions, &edges),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The underlying topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Consumes the grid, returning the topology.
    #[must_use]
    pub fn into_topology(self) -> Topology {
        self.topology
    }

    /// The node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn node_at(&self, row: u32, col: u32) -> NodeId {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) outside grid"
        );
        NodeId(row * self.cols + col)
    }

    /// The `(row, col)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn row_col(&self, node: NodeId) -> (u32, u32) {
        assert!(
            (node.0 as u64) < self.rows as u64 * self.cols as u64,
            "{node} outside grid"
        );
        (node.0 / self.cols, node.0 % self.cols)
    }

    /// The node nearest the grid center — the paper places the broadcast
    /// source "as near to the center of the grid as possible".
    #[must_use]
    pub fn center(&self) -> NodeId {
        self.node_at(self.rows / 2, self.cols / 2)
    }

    /// Manhattan (shortest-path) distance between two grid nodes, which on
    /// a 4-neighbor lattice equals the BFS hop distance.
    #[must_use]
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> u32 {
        let (ra, ca) = self.row_col(a);
        let (rb, cb) = self.row_col(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_grid_has_n2_nodes() {
        let g = Grid::square(5);
        assert_eq!(g.topology().len(), 25);
        assert_eq!(g.rows(), 5);
        assert_eq!(g.cols(), 5);
    }

    #[test]
    fn edge_count_of_lattice() {
        // n x n lattice has 2n(n-1) edges.
        let g = Grid::square(4);
        assert_eq!(g.topology().edge_count(), 2 * 4 * 3);
    }

    #[test]
    fn corner_and_interior_degrees() {
        let g = Grid::square(3);
        assert_eq!(g.topology().degree(g.node_at(0, 0)), 2);
        assert_eq!(g.topology().degree(g.node_at(0, 1)), 3);
        assert_eq!(g.topology().degree(g.node_at(1, 1)), 4);
    }

    #[test]
    fn no_wraparound() {
        let g = Grid::square(3);
        let topo = g.topology();
        assert!(!topo.are_neighbors(g.node_at(0, 0), g.node_at(0, 2)));
        assert!(!topo.are_neighbors(g.node_at(0, 0), g.node_at(2, 0)));
    }

    #[test]
    fn node_at_row_col_round_trip() {
        let g = Grid::new(4, 7, 2.0);
        for r in 0..4 {
            for c in 0..7 {
                assert_eq!(g.row_col(g.node_at(r, c)), (r, c));
            }
        }
    }

    #[test]
    fn positions_use_spacing() {
        let g = Grid::new(2, 2, 10.0);
        let p = g.topology().position(g.node_at(1, 1));
        assert_eq!((p.x, p.y), (10.0, 10.0));
    }

    #[test]
    fn center_of_odd_grid_is_exact_center() {
        let g = Grid::square(75);
        assert_eq!(g.row_col(g.center()), (37, 37));
    }

    #[test]
    fn manhattan_equals_bfs_distance() {
        let g = Grid::square(6);
        let src = g.center();
        let bfs = g.topology().hop_distances(src);
        for node in g.topology().nodes() {
            assert_eq!(bfs[node.index()], Some(g.manhattan(src, node)), "{node}");
        }
    }

    #[test]
    fn grid_is_connected() {
        assert!(Grid::square(10).topology().is_connected());
        assert!(Grid::new(1, 9, 1.0).topology().is_connected());
    }

    #[test]
    fn single_node_grid() {
        let g = Grid::square(1);
        assert_eq!(g.topology().len(), 1);
        assert_eq!(g.topology().edge_count(), 0);
        assert_eq!(g.center(), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn zero_grid_panics() {
        let _ = Grid::square(0);
    }

    #[test]
    #[should_panic(expected = "more nodes than a NodeId")]
    fn oversized_grid_panics_instead_of_wrapping() {
        let _ = Grid::square(Grid::MAX_SIDE + 1);
    }
}
