//! Scratch profiler for the sparse-kernel boundary engines (not a bench).

use std::time::Instant;

use pbbf_net_sim::{BoundaryEngine, NetConfig, NetMode, NetSim};

fn time_engine(cfg: NetConfig, label: &str, deployment: &pbbf_net_sim::CachedDeployment) {
    let mode = NetMode::SleepScheduled(pbbf_core::PbbfParams::new(0.25, 0.05).expect("valid"));
    let sim = NetSim::new(cfg, mode);
    // warm up
    let _ = sim.run_on(4, deployment);
    let n = 5;
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(sim.run_on(4, deployment));
    }
    let el = t.elapsed().as_secs_f64() / n as f64;
    println!("{label:<40} {:.3} ms", el * 1e3);
}

fn main() {
    // The two committed sparse-kernel scenarios: the PR-3 two-flood
    // horizon (copy/draw pair) and the long-horizon single-flood steady
    // state the boundary-engine pair is measured on.
    for (dur, nodes, lambda) in [(600.0, 10_000usize, 0.002), (7200.0, 10_000, 0.000125)] {
        let mut cfg = NetConfig::table2();
        cfg.nodes = nodes;
        cfg.duration_secs = dur;
        cfg.delta = 10.0;
        cfg.lambda = lambda;
        cfg.boundary_engine = BoundaryEngine::Dense;
        let deployment = NetSim::draw_deployment(&cfg, 4).unwrap();
        println!("--- dur {dur} nodes {nodes} lambda {lambda}");
        time_engine(cfg, "dense", &deployment);
        let mut lazy = cfg;
        lazy.boundary_engine = BoundaryEngine::Lazy;
        time_engine(lazy, "lazy", &deployment);
    }
}
