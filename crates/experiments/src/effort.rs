//! Effort presets: paper-scale vs quick.

use pbbf_des::SimTime;
use serde::{Deserialize, Serialize};

/// How much work each experiment spends.
///
/// [`Effort::paper`] matches the paper's methodology (75×75 grids, 500 s
/// ns-2-style runs, ten runs per point); [`Effort::quick`] shrinks every
/// dimension so the full suite regenerates in seconds — the *shapes* of
/// all figures survive the shrink, which is what the test suite asserts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Effort {
    /// Independent runs averaged per data point (paper: 10).
    pub runs: u32,
    /// Grid side for the idealized simulations (paper: 75).
    pub ideal_grid_side: u32,
    /// Updates disseminated per idealized run (paper: 5 in 500 s).
    pub ideal_updates: u32,
    /// Newman–Ziff sweeps per percolation estimate.
    pub nz_runs: u32,
    /// Realistic-simulation duration in seconds (paper: 500).
    pub net_duration_secs: f64,
    /// Number of q values on the x-axis (0..=1 inclusive).
    pub q_points: u32,
    /// Shortest distance probed by the "near" hop-count figure
    /// (paper Fig. 9: 20).
    pub hop_probe_near: u32,
    /// Shortest distance probed by the "far" hop-count figure
    /// (paper Fig. 10: 60).
    pub hop_probe_far: u32,
}

impl Effort {
    /// The paper's methodology.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            runs: 10,
            ideal_grid_side: 75,
            ideal_updates: 5,
            nz_runs: 200,
            net_duration_secs: 500.0,
            q_points: 11,
            hop_probe_near: 20,
            hop_probe_far: 60,
        }
    }

    /// A seconds-scale preset preserving every figure's shape.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            runs: 3,
            ideal_grid_side: 25,
            ideal_updates: 3,
            nz_runs: 40,
            net_duration_secs: 200.0,
            q_points: 6,
            hop_probe_near: 8,
            hop_probe_far: 16,
        }
    }

    /// The q values an x-axis sweep visits: `q_points` evenly spaced
    /// values over `[0, 1]`.
    #[must_use]
    pub fn q_values(&self) -> Vec<f64> {
        assert!(self.q_points >= 2, "need at least q = 0 and q = 1");
        (0..self.q_points)
            .map(|i| f64::from(i) / f64::from(self.q_points - 1))
            .collect()
    }

    /// Checks the fields a figure sweep reads: at least two q points,
    /// at least one run, a non-empty ideal grid, and a positive, finite
    /// net-sim horizon of at most half of [`SimTime`]'s range (which
    /// leaves room for the events a run schedules past its horizon).
    /// A shard worker checks a wire job's effort with this before
    /// simulating, so a malformed job is refused instead of panicking.
    ///
    /// # Errors
    ///
    /// Names the first field out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.q_points < 2 {
            return Err(format!(
                "q_points must be at least 2, got {}",
                self.q_points
            ));
        }
        if self.runs == 0 {
            return Err("runs must be positive".into());
        }
        if self.ideal_grid_side == 0 {
            return Err("ideal_grid_side must be positive".into());
        }
        let secs = self.net_duration_secs;
        let max = SimTime::MAX.as_secs() / 2.0;
        if !(secs > 0.0 && secs <= max) {
            return Err(format!(
                "net_duration_secs must lie in (0, {max:.0}] s, got {secs}"
            ));
        }
        Ok(())
    }
}

impl Default for Effort {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_methodology() {
        let e = Effort::paper();
        assert_eq!(e.runs, 10);
        assert_eq!(e.ideal_grid_side, 75);
        assert_eq!(e.net_duration_secs, 500.0);
        assert_eq!(e.hop_probe_near, 20);
        assert_eq!(e.hop_probe_far, 60);
    }

    #[test]
    fn q_values_span_unit_interval() {
        let e = Effort::quick();
        let qs = e.q_values();
        assert_eq!(qs.len(), 6);
        assert_eq!(qs[0], 0.0);
        assert_eq!(*qs.last().unwrap(), 1.0);
        for w in qs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn quick_is_smaller_everywhere() {
        let p = Effort::paper();
        let q = Effort::quick();
        assert!(q.runs < p.runs);
        assert!(q.ideal_grid_side < p.ideal_grid_side);
        assert!(q.nz_runs < p.nz_runs);
        assert!(q.net_duration_secs < p.net_duration_secs);
    }
}
