//! The Newman–Ziff fast Monte-Carlo percolation sweep.
//!
//! One *microcanonical* sweep occupies the `M` bonds of a lattice one at a
//! time in uniformly random order, maintaining clusters in a union-find
//! structure; after each addition the size of the broadcast source's
//! cluster is available in O(1) (Newman & Ziff, the paper's citation [9]).
//! The Figure-6 estimator stops each sweep at the first bond whose
//! addition lets that cluster cover the target fraction of nodes, and
//! averages the crossing bond fraction over independent sweeps.

use pbbf_des::SimRng;
use pbbf_topology::{NodeId, Topology};
use rand::RngCore;

use crate::UnionFind;

/// Newman–Ziff percolation driver bound to a topology and a source node.
///
/// # Examples
///
/// ```
/// use pbbf_des::SimRng;
/// use pbbf_percolation::NewmanZiff;
/// use pbbf_topology::Grid;
///
/// let grid = Grid::square(20);
/// let nz = NewmanZiff::new(grid.topology(), grid.center());
/// let mut rng = SimRng::new(1);
/// // Covering everyone needs at least N - 1 of the M bonds.
/// let full = nz.bond_crossing(1.0, &mut rng).unwrap();
/// assert!(full >= 399.0 / nz.bond_count() as f64);
/// // The source alone already covers 1/N of the nodes.
/// assert_eq!(nz.bond_crossing(1.0 / 400.0, &mut rng), Some(0.0));
/// ```
#[derive(Debug, Clone)]
pub struct NewmanZiff<'a> {
    topology: &'a Topology,
    source: NodeId,
    edges: Vec<(NodeId, NodeId)>,
}

impl<'a> NewmanZiff<'a> {
    /// Creates a driver for `topology` with the given broadcast source.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty or the source is out of range.
    #[must_use]
    pub fn new(topology: &'a Topology, source: NodeId) -> Self {
        assert!(!topology.is_empty(), "empty topology");
        assert!(source.index() < topology.len(), "source out of range");
        Self {
            topology,
            source,
            edges: topology.edges(),
        }
    }

    /// Number of bonds `M` in the lattice.
    #[must_use]
    pub fn bond_count(&self) -> usize {
        self.edges.len()
    }

    /// The bond-occupation fraction `n/M` at which the source's cluster
    /// first covers at least `target` of all nodes, for one random sweep.
    /// The sweep stops at that bond; `Some(0.0)` means the source alone
    /// already meets the target.
    ///
    /// Returns `None` if the target is never met (possible only on a
    /// disconnected topology).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]`.
    #[must_use]
    pub fn bond_crossing(&self, target: f64, rng: &mut impl RngCore) -> Option<f64> {
        assert!(
            target > 0.0 && target <= 1.0,
            "target {target} outside (0, 1]"
        );
        let n_nodes = self.topology.len() as f64;
        let mut order: Vec<u32> = (0..self.edges.len() as u32).collect();
        shuffle(&mut order, rng);

        let covers = |size: u32| f64::from(size) / n_nodes >= target - 1e-12;
        if covers(1) {
            return Some(0.0);
        }
        let m = self.edges.len() as f64;
        let mut uf = UnionFind::new(self.topology.len());
        for (i, &e) in order.iter().enumerate() {
            let (a, b) = self.edges[e as usize];
            uf.union(a.index(), b.index());
            if covers(uf.size_of(self.source.index())) {
                return Some((i + 1) as f64 / m);
            }
        }
        None
    }

    /// One microcanonical *site* sweep: the source is always occupied (a
    /// gossip source always transmits), remaining sites are occupied in
    /// random order; an edge conducts when both endpoints are occupied.
    /// Returns the source-cluster fraction after `k` additional occupied
    /// sites (`k = 0 ..= N − 1`).
    ///
    /// This is the site-percolation model of gossip-based routing (the
    /// paper's [5]) that Section 2.1 contrasts with PBBF's bond model.
    #[must_use]
    pub fn site_sweep(&self, rng: &mut impl RngCore) -> Vec<f64> {
        let n = self.topology.len();
        let mut order: Vec<u32> = (0..n as u32).filter(|&i| i != self.source.0).collect();
        shuffle(&mut order, rng);

        let mut occupied = vec![false; n];
        occupied[self.source.index()] = true;
        let mut uf = UnionFind::new(n);
        let mut out = Vec::with_capacity(n);
        out.push(1.0 / n as f64);
        for &s in &order {
            let site = NodeId(s);
            occupied[site.index()] = true;
            for &nb in self.topology.neighbors(site) {
                if occupied[nb.index()] {
                    uf.union(site.index(), nb.index());
                }
            }
            out.push(f64::from(uf.size_of(self.source.index())) / n as f64);
        }
        out
    }
}

/// Estimates the critical bond ratio of Figure 6: the mean over `runs`
/// sweeps of the bond-occupation fraction at which the source's cluster
/// first covers `target_reliability` of the `topology`.
///
/// Sweeps fan out across threads, sweep `i` drawing its randomness from
/// `base.substream(i)`. Every sweep's stream depends only on
/// `(base seed, i)` and crossings are averaged in index order, so the
/// estimate is bit-for-bit identical for any thread count.
///
/// # Panics
///
/// Panics if `target_reliability` is not in `(0, 1]`, `runs == 0`, or the
/// target is never reached (disconnected topology).
#[must_use]
pub fn critical_bond_ratio(
    topology: &Topology,
    source: NodeId,
    target_reliability: f64,
    runs: u32,
    base: &SimRng,
) -> f64 {
    assert!(runs > 0, "need at least one run");
    let nz = NewmanZiff::new(topology, source);
    let crossings = pbbf_parallel::par_run(runs as usize, |sweep| {
        let mut rng = base.substream(sweep as u64);
        nz.bond_crossing(target_reliability, &mut rng)
    });
    let mut sum = 0.0;
    let mut hit = 0u32;
    for c in crossings.into_iter().flatten() {
        sum += c;
        hit += 1;
    }
    assert!(
        hit > 0,
        "target reliability never reached; disconnected topology?"
    );
    sum / f64::from(hit)
}

/// Fisher–Yates shuffle over any `RngCore` (unbiased via 128-bit widening).
fn shuffle(slice: &mut [u32], rng: &mut impl RngCore) {
    for i in (1..slice.len()).rev() {
        let bound = (i + 1) as u64;
        let j = ((rng.next_u64() as u128 * bound as u128) >> 64) as usize;
        slice.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_topology::Grid;

    #[test]
    fn crossing_near_half_for_large_grid() {
        // The infinite square lattice bond threshold is exactly 1/2; a
        // 30x30 grid at 90% coverage should cross in the 0.5-0.65 band
        // (finite-size effects push it above 1/2, as the paper's Fig. 6
        // shows).
        let grid = Grid::square(30);
        let base = SimRng::new(4);
        let c = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 40, &base);
        assert!((0.5..0.68).contains(&c), "critical ratio {c}");
    }

    #[test]
    fn higher_reliability_needs_more_bonds() {
        let grid = Grid::square(20);
        let base = SimRng::new(5);
        let c80 = critical_bond_ratio(grid.topology(), grid.center(), 0.8, 40, &base);
        let c99 = critical_bond_ratio(grid.topology(), grid.center(), 0.99, 40, &base);
        let c100 = critical_bond_ratio(grid.topology(), grid.center(), 1.0, 40, &base);
        assert!(c80 < c99, "{c80} !< {c99}");
        assert!(c99 < c100, "{c99} !< {c100}");
    }

    #[test]
    fn site_sweep_reaches_everyone() {
        let grid = Grid::square(10);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(8);
        let sweep = nz.site_sweep(&mut rng);
        assert_eq!(sweep.len(), grid.topology().len());
        assert_eq!(*sweep.last().unwrap(), 1.0);
        for w in sweep.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn critical_ratio_is_deterministic_and_plausible() {
        let grid = Grid::square(20);
        let base = SimRng::new(21);
        let a = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 40, &base);
        let b = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 40, &base);
        assert_eq!(a, b, "same base stream, same estimate");
        assert!((0.4..0.75).contains(&a), "critical ratio {a}");
    }

    #[test]
    fn crossing_deterministic_per_seed() {
        let grid = Grid::square(15);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let a = nz.bond_crossing(0.9, &mut SimRng::new(11)).unwrap();
        let b = nz.bond_crossing(0.9, &mut SimRng::new(11)).unwrap();
        assert_eq!(a, b);
        // The source alone covers 1/N: the sweep stops before any bond.
        let alone = 1.0 / grid.topology().len() as f64;
        assert_eq!(nz.bond_crossing(alone, &mut SimRng::new(11)), Some(0.0));
        // One seed fixes the bond order, so a stricter target can only
        // stop the sweep later.
        let mut prev = 0.0;
        for target in [0.5, 0.8, 0.9, 1.0] {
            let c = nz.bond_crossing(target, &mut SimRng::new(11)).unwrap();
            assert!(c >= prev, "crossing {c} at target {target} below {prev}");
            prev = c;
        }
    }

    #[test]
    fn crossing_full_reliability_requires_spanning() {
        // 100% reliability needs the source cluster to cover all nodes; on
        // any sweep this happens exactly when N-1 unions have occurred,
        // i.e. never before bond N-1, and always by bond M on a connected
        // grid.
        let grid = Grid::square(6);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let min_fraction = (grid.topology().len() - 1) as f64 / nz.bond_count() as f64;
        for seed in 12..20 {
            let c = nz.bond_crossing(1.0, &mut SimRng::new(seed)).unwrap();
            assert!((min_fraction - 1e-12..=1.0).contains(&c), "crossing {c}");
        }
    }
}
