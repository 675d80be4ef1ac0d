//! Designer-facing operating-point selection.
//!
//! The paper's conclusion describes the intended workflow: *"first set the
//! values of p and q so that they are just across the reliability
//! threshold boundary and into the high reliability region … then tune
//! these values (staying close to the boundary) until the desired
//! energy-latency trade-off is achieved."* This module packages that
//! workflow: estimate the reliability boundary by percolation, walk it,
//! and pick the point that fits an energy budget or a latency deadline.

use pbbf_des::SimRng;
use pbbf_topology::{NodeId, Topology};

use crate::analysis;
use crate::{AnalysisParams, PbbfParams};

/// A reliable `(p, q)` configuration together with its predicted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// The protocol parameters, with `q` at the minimum reliable value for
    /// this `p` (nudged by the configured safety margin).
    pub params: PbbfParams,
    /// The critical edge probability the boundary was computed from.
    pub critical_edge_probability: f64,
    /// Expected one-link latency (Eq. 9), seconds.
    pub link_latency: f64,
    /// Relative energy consumption (Eq. 7), fraction of always-on.
    pub relative_energy: f64,
    /// Joules per update under the analysis power/traffic model.
    pub joules_per_update: f64,
}

/// The explored reliability boundary for one target reliability level.
///
/// # Examples
///
/// ```
/// use pbbf_core::operating_point::Frontier;
/// use pbbf_core::AnalysisParams;
/// use pbbf_des::SimRng;
/// use pbbf_topology::Grid;
///
/// let grid = Grid::square(20);
/// let frontier = Frontier::explore(
///     grid.topology(),
///     grid.center(),
///     &AnalysisParams::table1(),
///     0.99,
///     &[0.25, 0.5, 0.75, 1.0],
///     30,
///     0.02,
///     &SimRng::new(1),
/// );
/// // Spending more energy buys lower latency along the frontier.
/// let fast = frontier.fastest_within_energy(1.0).unwrap();
/// let frugal = frontier.cheapest_within_latency(f64::INFINITY).unwrap();
/// assert!(fast.link_latency <= frugal.link_latency + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// The reliability level the boundary was computed for.
    pub target_reliability: f64,
    /// The estimated critical edge probability.
    pub critical_edge_probability: f64,
    /// Operating points in increasing-`p` order.
    pub points: Vec<OperatingPoint>,
}

impl Frontier {
    /// Estimates the reliability boundary on `topology` (Newman–Ziff with
    /// `runs` sweeps on substreams of `base`) and evaluates an operating
    /// point for each entry of `p_values`, adding `safety_margin` to each
    /// minimal `q` (clamped to 1) so deployments sit strictly inside the
    /// reliable region.
    ///
    /// # Panics
    ///
    /// Panics on invalid reliability/probability arguments (see
    /// [`pbbf_percolation::pq_boundary`]).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn explore(
        topology: &Topology,
        source: NodeId,
        params: &AnalysisParams,
        target_reliability: f64,
        p_values: &[f64],
        runs: u32,
        safety_margin: f64,
        base: &SimRng,
    ) -> Self {
        assert!(
            (0.0..=0.5).contains(&safety_margin),
            "unreasonable safety margin {safety_margin}"
        );
        let (critical, boundary) = pbbf_percolation::pq_boundary(
            topology,
            source,
            target_reliability,
            p_values,
            runs,
            base,
        );
        let points = boundary
            .into_iter()
            .map(|(p, q_min)| {
                let q = (q_min + safety_margin).min(1.0);
                let pbbf = PbbfParams::new(p, q).expect("boundary p, q in range");
                OperatingPoint {
                    params: pbbf,
                    critical_edge_probability: critical,
                    link_latency: analysis::expected_link_latency(p, q, params.l1, params.l2()),
                    relative_energy: analysis::relative_energy_pbbf(&params.schedule, q),
                    joules_per_update: analysis::joules_per_update(params, q),
                }
            })
            .collect();
        Self {
            target_reliability,
            critical_edge_probability: critical,
            points,
        }
    }

    /// The lowest-latency point whose relative energy does not exceed
    /// `max_relative_energy`, or `None` if the budget excludes every point.
    #[must_use]
    pub fn fastest_within_energy(&self, max_relative_energy: f64) -> Option<&OperatingPoint> {
        self.points
            .iter()
            .filter(|pt| pt.relative_energy <= max_relative_energy)
            .min_by(|a, b| a.link_latency.total_cmp(&b.link_latency))
    }

    /// The lowest-energy point whose link latency does not exceed
    /// `max_link_latency`, or `None` if the deadline excludes every point.
    #[must_use]
    pub fn cheapest_within_latency(&self, max_link_latency: f64) -> Option<&OperatingPoint> {
        self.points
            .iter()
            .filter(|pt| pt.link_latency <= max_link_latency)
            .min_by(|a, b| a.relative_energy.total_cmp(&b.relative_energy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_topology::Grid;

    fn frontier(margin: f64) -> Frontier {
        let grid = Grid::square(20);
        Frontier::explore(
            grid.topology(),
            grid.center(),
            &AnalysisParams::table1(),
            0.99,
            &[0.05, 0.25, 0.5, 0.75, 1.0],
            30,
            margin,
            &SimRng::new(77),
        )
    }

    #[test]
    fn frontier_points_are_reliable_by_construction() {
        let f = frontier(0.0);
        for pt in &f.points {
            assert!(
                pt.params.edge_probability() >= f.critical_edge_probability - 1e-9,
                "point {:?} below threshold",
                pt.params
            );
        }
    }

    #[test]
    fn frontier_is_ordered_inverse_tradeoff() {
        let f = frontier(0.0);
        for w in f.points.windows(2) {
            assert!(w[1].link_latency <= w[0].link_latency + 1e-9);
            assert!(w[1].relative_energy >= w[0].relative_energy - 1e-12);
        }
    }

    #[test]
    fn safety_margin_raises_q() {
        let f0 = frontier(0.0);
        let f5 = frontier(0.05);
        for (a, b) in f0.points.iter().zip(&f5.points) {
            assert!(b.params.q() >= a.params.q());
        }
    }

    #[test]
    fn selection_by_energy_budget() {
        let f = frontier(0.0);
        // The duty cycle is 0.1; a tight budget forces low q -> high latency.
        let frugal = f.fastest_within_energy(0.2).unwrap();
        let lavish = f.fastest_within_energy(1.0).unwrap();
        assert!(frugal.link_latency >= lavish.link_latency);
        assert!(f.fastest_within_energy(0.0).is_none());
    }

    #[test]
    fn selection_by_latency_deadline() {
        let f = frontier(0.0);
        let relaxed = f.cheapest_within_latency(f64::INFINITY).unwrap();
        let tight = f.cheapest_within_latency(relaxed.link_latency / 2.0);
        if let Some(t) = tight {
            assert!(t.relative_energy >= relaxed.relative_energy);
        }
        assert!(f.cheapest_within_latency(0.0).is_none());
    }
}
