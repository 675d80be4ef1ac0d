//! Configuration of the idealized simulator.

use pbbf_core::{AnalysisParams, PbbfParams};
use serde::{Deserialize, Serialize};

/// Which protocol the network runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Mode {
    /// No power saving: radios always on, pure flooding, every reception
    /// forwarded immediately. The paper's `NO PSM` baseline.
    AlwaysOn,
    /// A sleep-scheduled MAC (802.11 PSM-style frames) running PBBF with
    /// the given parameters; `PbbfParams::PSM` is the plain-PSM baseline.
    SleepScheduled(PbbfParams),
    /// Gossip-based flooding (the paper's [5], its Section-2 contrast):
    /// radios always on, every node *forwards* a received broadcast with
    /// the given probability — a **site** percolation process, versus
    /// PBBF's bond percolation.
    Gossip {
        /// Probability that a node rebroadcasts at all.
        forward_probability: f64,
    },
}

impl Mode {
    /// The paper's legend label for this mode (`NO PSM`, `PSM`,
    /// `PBBF-<p>`, `GOSSIP-<g>`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Mode::AlwaysOn => "NO PSM".to_string(),
            Mode::SleepScheduled(p) if *p == PbbfParams::PSM => "PSM".to_string(),
            Mode::SleepScheduled(p) => format!("PBBF-{}", p.p()),
            Mode::Gossip {
                forward_probability,
            } => format!("GOSSIP-{forward_probability}"),
        }
    }
}

/// Full configuration of one idealized-simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdealConfig {
    /// Grid side (Table 1: 75, i.e. N = 5625).
    pub grid_side: u32,
    /// Power, traffic and schedule parameters (Table 1).
    pub analysis: AnalysisParams,
    /// Number of source updates to disseminate per run.
    pub updates: u32,
    /// Data-packet airtime in seconds (64 bytes at 19.2 kbps ≈ 26.7 ms).
    pub t_packet: f64,
    /// Safety cap on frames simulated per update.
    pub max_frames_per_update: u32,
}

impl IdealConfig {
    /// The Table-1 configuration: 75×75 grid, Mica2 power, λ = 0.01/s,
    /// `L1` ≈ 1.5 s, 10 s frames with 1 s active windows.
    #[must_use]
    pub fn table1() -> Self {
        let analysis = AnalysisParams::table1();
        Self {
            grid_side: analysis.grid_side,
            analysis,
            updates: 5,
            t_packet: 64.0 * 8.0 / 19_200.0,
            max_frames_per_update: 10_000,
        }
    }

    /// Number of nodes in the configured grid.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.grid_side * self.grid_side
    }

    /// Refuses a size whose run would need more than 2 GiB, so it fails
    /// with an error instead of aborting on allocation. A run needs about
    /// `16 B × side² × (updates + 5)`: the [`RunStats`](crate::RunStats)
    /// keep 16 B per node per update, and the per-node scratch is worth
    /// about five more updates (~96 MB peak RSS for one update on a
    /// 1024×1024 grid).
    ///
    /// # Errors
    ///
    /// Names the estimate and the bound.
    pub fn check_memory(&self) -> Result<(), String> {
        const MAX_BYTES: u128 = 2 << 30;
        let bytes = 16 * u128::from(self.grid_side).pow(2) * (u128::from(self.updates) + 5);
        if bytes > MAX_BYTES {
            let (side, updates) = (self.grid_side, self.updates);
            return Err(format!(
                "a {side}x{side} ideal-sim grid with {updates} updates needs about \
                 {bytes} bytes, above the {MAX_BYTES} byte (2 GiB) bound"
            ));
        }
        Ok(())
    }
}

impl Default for IdealConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = IdealConfig::table1();
        assert_eq!(c.grid_side, 75);
        assert_eq!(c.node_count(), 5625);
        assert_eq!(c.updates, 5);
        assert!((c.t_packet - 0.026_666).abs() < 1e-4);
        assert_eq!(c.check_memory(), Ok(()));
    }

    #[test]
    fn mode_labels_match_paper_legends() {
        assert_eq!(Mode::AlwaysOn.label(), "NO PSM");
        assert_eq!(Mode::SleepScheduled(PbbfParams::PSM).label(), "PSM");
        let pbbf = Mode::SleepScheduled(PbbfParams::new(0.5, 0.25).unwrap());
        assert_eq!(pbbf.label(), "PBBF-0.5");
        assert_eq!(
            Mode::Gossip {
                forward_probability: 0.7
            }
            .label(),
            "GOSSIP-0.7"
        );
    }
}
