//! Figures 13–18 — the Section-5 realistic-simulation sweeps.
//!
//! Each figure is one row of the sweep table ([`crate::sweep`]), which
//! owns the point grid, the per-run metric and the figure dressing, and
//! which the distributed sweep fabric shards.

use pbbf_metrics::Figure;

use crate::sweep::run;
use crate::Effort;

/// Figure 13: average per-node energy per update (J) vs `q`.
#[must_use]
pub fn fig13(effort: &Effort, seed: u64) -> Figure {
    run("fig13", effort, seed)
}

/// Figure 14: average update latency of 2-hop nodes (s) vs `q`.
#[must_use]
pub fn fig14(effort: &Effort, seed: u64) -> Figure {
    run("fig14", effort, seed)
}

/// Figure 15: average update latency of 5-hop nodes (s) vs `q`.
#[must_use]
pub fn fig15(effort: &Effort, seed: u64) -> Figure {
    run("fig15", effort, seed)
}

/// Figure 16: updates received / updates sent vs `q`.
#[must_use]
pub fn fig16(effort: &Effort, seed: u64) -> Figure {
    run("fig16", effort, seed)
}

/// Figure 17: average update latency (s) vs density Δ at `q = 0.25`.
#[must_use]
pub fn fig17(effort: &Effort, seed: u64) -> Figure {
    run("fig17", effort, seed)
}

/// Figure 18: updates received / updates sent vs density Δ at `q = 0.25`.
#[must_use]
pub fn fig18(effort: &Effort, seed: u64) -> Figure {
    run("fig18", effort, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::NET_P_VALUES;

    fn effort() -> Effort {
        let mut e = Effort::quick();
        e.runs = 2;
        e.net_duration_secs = 150.0;
        e.q_points = 3;
        e
    }

    #[test]
    fn fig13_energy_shape() {
        let f = fig13(&effort(), 1);
        assert_eq!(f.series.len(), 6);
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        let nopsm = f.series_named("NO PSM").unwrap().y_at(0.0).unwrap();
        // At the full 500 s duration the gap reaches the paper's ~2 J; the
        // quick 150 s preset shrinks the NO-PSM ceiling proportionally.
        assert!(nopsm > psm + 1.2, "PSM saves energy: {psm} vs {nopsm}");
        for p in NET_P_VALUES {
            let s = f.series_named(&format!("PBBF-{p}")).unwrap();
            assert!(s.is_non_decreasing(0.3), "PBBF-{p} energy rises with q");
            // PBBF at q=0 is near PSM; at q=1 near NO PSM.
            assert!(s.y_at(0.0).unwrap() < psm + 1.0);
            assert!(s.y_at(1.0).unwrap() > nopsm - 1.0);
        }
    }

    #[test]
    fn fig16_reliability_shape() {
        let f = fig16(&effort(), 2);
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        assert!(psm > 0.75, "PSM reliable: {psm}");
        // Large p suffers at q = 0 and recovers by q = 1.
        let s = f.series_named("PBBF-0.5").unwrap();
        assert!(s.y_at(0.0).unwrap() < psm);
        assert!(s.y_at(1.0).unwrap() > s.y_at(0.0).unwrap());
    }

    #[test]
    fn fig17_latency_falls_with_density() {
        let mut e = effort();
        e.runs = 2;
        let f = fig17(&e, 3);
        let psm = f.series_named("PSM").unwrap();
        let lo = psm.y_at(8.0).unwrap();
        let hi = psm.y_at(18.0).unwrap();
        assert!(
            hi < lo * 1.2,
            "denser networks have fewer hops: {lo} -> {hi}"
        );
        let nopsm = f.series_named("NO PSM").unwrap();
        assert!(nopsm.y_at(10.0).unwrap() < psm.y_at(10.0).unwrap());
    }
}
