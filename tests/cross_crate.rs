//! Integration tests spanning the workspace: analysis ↔ percolation ↔
//! simulators must tell one consistent story.

use pbbf::prelude::*;

fn small_ideal(side: u32, updates: u32) -> IdealConfig {
    let mut c = IdealConfig::table1();
    c.grid_side = side;
    c.updates = updates;
    c
}

/// Remark 1 end to end: operating points above the percolation boundary
/// deliver (almost) everywhere in the idealized simulator; points well
/// below it do not.
#[test]
fn percolation_boundary_predicts_simulated_reliability() {
    let side = 25;
    let grid = Grid::square(side);
    let critical = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 60, &SimRng::new(1));

    let p = 0.75;
    let q_min = min_q_for_reliability(p, critical).expect("solvable");

    let cfg = small_ideal(side, 4);
    let above = PbbfParams::new(p, (q_min + 0.15).min(1.0)).unwrap();
    let below = PbbfParams::new(p, (q_min - 0.3).max(0.0)).unwrap();

    let mut frac_above = Summary::new();
    let mut frac_below = Summary::new();
    for seed in 0..4 {
        frac_above.record(
            IdealSim::new(cfg, IdealMode::SleepScheduled(above))
                .run(seed)
                .mean_delivered_fraction(),
        );
        frac_below.record(
            IdealSim::new(cfg, IdealMode::SleepScheduled(below))
                .run(seed)
                .mean_delivered_fraction(),
        );
    }
    assert!(
        frac_above.mean() > 0.85,
        "above boundary must deliver: {}",
        frac_above.mean()
    );
    assert!(
        frac_below.mean() < frac_above.mean() - 0.3,
        "below boundary must lose broadcasts: {} vs {}",
        frac_below.mean(),
        frac_above.mean()
    );
}

/// Eq. 8 against the idealized simulator: measured energy tracks the
/// closed form within a small margin across q.
#[test]
fn analytic_energy_matches_ideal_simulation() {
    let cfg = small_ideal(21, 3);
    let a = cfg.analysis;
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let params = PbbfParams::new(0.25, q).unwrap();
        let sim = IdealSim::new(cfg, IdealMode::SleepScheduled(params));
        let measured = sim.run(5).mean_energy_per_update();
        let predicted = analysis::joules_per_update(&a, q);
        // The simulator adds marginal activity energy on top of the duty
        // cycle; the closed form is a floor that should be within ~0.25 J.
        assert!(
            measured >= predicted - 1e-9,
            "q={q}: measured {measured} below analytic floor {predicted}"
        );
        assert!(
            measured - predicted < 0.25,
            "q={q}: measured {measured} too far above {predicted}"
        );
    }
}

/// Eq. 9 against the idealized simulator: per-hop latency falls with both
/// p and q, and PSM sits near one frame per hop.
#[test]
fn analytic_latency_ordering_matches_ideal_simulation() {
    let cfg = small_ideal(21, 3);
    let a = cfg.analysis;
    let l_psm = IdealSim::new(cfg, IdealMode::SleepScheduled(PbbfParams::PSM))
        .run(6)
        .mean_per_hop_latency()
        .unwrap();
    assert!(
        (l_psm - a.schedule.t_frame()).abs() < 2.0,
        "PSM per-hop ≈ T_frame: {l_psm}"
    );

    let fast = PbbfParams::new(0.75, 1.0).unwrap();
    let l_fast = IdealSim::new(cfg, IdealMode::SleepScheduled(fast))
        .run(6)
        .mean_per_hop_latency()
        .unwrap();
    assert!(
        l_fast < l_psm / 2.0,
        "immediate chains beat PSM: {l_fast} vs {l_psm}"
    );

    // The analytic ordering agrees.
    let an_psm = analysis::expected_link_latency(0.0, 0.0, a.l1, a.l2());
    let an_fast = analysis::expected_link_latency(0.75, 1.0, a.l1, a.l2());
    assert!(an_fast < an_psm);
}

/// The two simulators agree on the qualitative story at matching operating
/// points: PSM reliable & slow; high-p/low-q unreliable; high-p/high-q
/// reliable & fast.
#[test]
fn ideal_and_realistic_simulators_agree_qualitatively() {
    // Idealized.
    let cfg = small_ideal(15, 2);
    let ideal = |p: f64, q: f64, seed: u64| {
        let params = PbbfParams::new(p, q).unwrap();
        IdealSim::new(cfg, IdealMode::SleepScheduled(params))
            .run(seed)
            .mean_delivered_fraction()
    };
    // Realistic.
    let mut ncfg = NetConfig::table2();
    ncfg.duration_secs = 150.0;
    let net = |p: f64, q: f64, seed: u64| {
        let params = PbbfParams::new(p, q).unwrap();
        NetSim::new(ncfg, NetMode::SleepScheduled(params))
            .run(seed)
            .mean_delivery_ratio()
    };

    for (sim_name, f) in [
        ("ideal", &ideal as &dyn Fn(f64, f64, u64) -> f64),
        ("net", &net),
    ] {
        let psm = f(0.0, 0.0, 3);
        let bad = f(0.9, 0.0, 3);
        let good = f(0.9, 1.0, 3);
        assert!(psm > 0.8, "{sim_name}: PSM reliable ({psm})");
        assert!(
            bad < psm,
            "{sim_name}: high p / q=0 degrades ({bad} !< {psm})"
        );
        assert!(good > bad, "{sim_name}: q rescues ({good} !> {bad})");
    }
}

/// The frontier API composes percolation + analysis and is internally
/// consistent with both.
#[test]
fn frontier_consistent_with_components() {
    let grid = Grid::square(20);
    let params = AnalysisParams::table1();
    let frontier = Frontier::explore(
        grid.topology(),
        grid.center(),
        &params,
        0.9,
        &[0.25, 0.5, 0.75, 1.0],
        40,
        0.0,
        &SimRng::new(9),
    );
    for pt in &frontier.points {
        let expected_lat =
            analysis::expected_link_latency(pt.params.p(), pt.params.q(), params.l1, params.l2());
        assert!((pt.link_latency - expected_lat).abs() < 1e-9);
        let expected_energy = analysis::relative_energy_pbbf(&params.schedule, pt.params.q());
        assert!((pt.relative_energy - expected_energy).abs() < 1e-12);
        assert!(pt.params.edge_probability() >= frontier.critical_edge_probability - 1e-9);
    }
}

/// Determinism across the whole stack: same seed, same everything.
#[test]
fn full_stack_determinism() {
    let cfg = small_ideal(13, 2);
    let params = PbbfParams::new(0.5, 0.5).unwrap();
    let a = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(77);
    let b = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(77);
    assert_eq!(a.updates, b.updates);

    let mut ncfg = NetConfig::table2();
    ncfg.duration_secs = 100.0;
    let x = NetSim::new(ncfg, NetMode::SleepScheduled(params)).run(77);
    let y = NetSim::new(ncfg, NetMode::SleepScheduled(params)).run(77);
    assert_eq!(x.receptions, y.receptions);
    assert_eq!(x.energy_joules, y.energy_joules);
}
