//! Figures 4, 5, 8, 9, 10, 11 — the Section-4 idealized-simulation sweeps.
//!
//! Each figure is one row of the sweep table ([`crate::sweep`]), which
//! owns the point grid, the per-run metric and the figure dressing.

use pbbf_metrics::Figure;

use crate::sweep::run;
use crate::Effort;

/// Figure 4: fraction of updates received by ≥90% of nodes vs `q`.
#[must_use]
pub fn fig04(effort: &Effort, seed: u64) -> Figure {
    run("fig04", effort, seed)
}

/// Figure 5: fraction of updates received by ≥99% of nodes vs `q`.
#[must_use]
pub fn fig05(effort: &Effort, seed: u64) -> Figure {
    run("fig05", effort, seed)
}

/// Figure 8: average per-node energy per update (J) vs `q`.
#[must_use]
pub fn fig08(effort: &Effort, seed: u64) -> Figure {
    run("fig08", effort, seed)
}

/// Figure 9: hops traveled by delivered copies to "near" probe nodes
/// (shortest distance 20 at paper scale) vs `q`.
#[must_use]
pub fn fig09(effort: &Effort, seed: u64) -> Figure {
    run("fig09", effort, seed)
}

/// Figure 10: hops traveled to "far" probe nodes (shortest distance 60 at
/// paper scale) vs `q`.
#[must_use]
pub fn fig10(effort: &Effort, seed: u64) -> Figure {
    run("fig10", effort, seed)
}

/// Figure 11: average per-hop update latency (s) vs `q`.
#[must_use]
pub fn fig11(effort: &Effort, seed: u64) -> Figure {
    run("fig11", effort, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::IDEAL_P_VALUES;

    fn effort() -> Effort {
        let mut e = Effort::quick();
        e.runs = 2;
        e.ideal_grid_side = 15;
        e.ideal_updates = 2;
        e.q_points = 3;
        e.hop_probe_near = 4;
        e.hop_probe_far = 8;
        e
    }

    #[test]
    fn fig04_has_paper_legends_and_threshold_shape() {
        let f = fig04(&effort(), 1);
        assert_eq!(f.series.len(), 7);
        assert!(f.series_named("PBBF-0.5").is_some());
        assert!(f.series_named("PSM").is_some());
        assert!(f.series_named("NO PSM").is_some());
        // PSM and NO PSM always deliver everything.
        for label in ["PSM", "NO PSM"] {
            let s = f.series_named(label).unwrap();
            assert!(s.points.iter().all(|pt| pt.y > 0.99), "{label}");
        }
        // High p at q=0 fails, at q=1 succeeds: the threshold shape.
        let s = f.series_named("PBBF-0.75").unwrap();
        assert!(s.y_at(0.0).unwrap() < 0.5);
        assert!(s.y_at(1.0).unwrap() > 0.99);
    }

    #[test]
    fn fig05_is_stricter_than_fig04() {
        let e = effort();
        let f4 = fig04(&e, 2);
        let f5 = fig05(&e, 2);
        for (a, b) in f4.series.iter().zip(&f5.series) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert!(pb.y <= pa.y + 1e-9, "{}: 99% cannot beat 90%", a.label);
            }
        }
    }

    #[test]
    fn fig08_energy_shape() {
        let f = fig08(&effort(), 3);
        // Energy rises with q for every PBBF line.
        for p in IDEAL_P_VALUES {
            let s = f.series_named(&format!("PBBF-{p}")).unwrap();
            assert!(s.is_non_decreasing(0.05), "PBBF-{p} energy not rising");
        }
        // PSM is the floor, NO PSM the ceiling.
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        let nopsm = f.series_named("NO PSM").unwrap().y_at(0.0).unwrap();
        assert!(nopsm > psm * 5.0, "PSM {psm} vs NO PSM {nopsm}");
    }

    #[test]
    fn fig09_hops_decrease_toward_shortest_path() {
        let e = effort();
        let f = fig09(&e, 4);
        let d = f64::from(e.hop_probe_near);
        // PSM and NO PSM travel shortest paths exactly.
        for label in ["PSM", "NO PSM"] {
            let s = f.series_named(label).unwrap();
            assert!(s.points.iter().all(|pt| (pt.y - d).abs() < 1e-9), "{label}");
        }
        // PBBF at q=1 is close to shortest-path too (p_edge = 1).
        let s = f.series_named("PBBF-0.5").unwrap();
        let stretched = s.y_at(1.0).unwrap();
        assert!(stretched < d * 1.6, "hops {stretched} vs d {d}");
    }

    #[test]
    fn fig11_latency_ordering() {
        let f = fig11(&effort(), 5);
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        let nopsm = f.series_named("NO PSM").unwrap().y_at(0.0).unwrap();
        assert!(nopsm < psm / 3.0, "flooding beats PSM per hop");
        // High p, q=1: far below PSM.
        let s = f.series_named("PBBF-0.75").unwrap();
        assert!(s.y_at(1.0).unwrap() < psm);
    }
}
