//! Ablation benches for design choices of the simulators:
//!
//! * `ablation_chaining` — immediate forwards chaining multiple hops per
//!   frame vs at most one immediate hop per frame.
//! * `ablation_source_announce` — the source applying `p` (Fig. 2) vs
//!   always announcing.
//! * `ablation_duplicates` — redundant-reception load vs density Δ, the
//!   cost the duplicate filter avoids re-forwarding.

use criterion::{criterion_group, criterion_main, Criterion};
use pbbf_core::PbbfParams;
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode};
use pbbf_net_sim::{NetConfig, NetMode, NetSim};

fn ideal_sim(side: u32, p: f64, q: f64) -> IdealSim {
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = side;
    cfg.updates = 2;
    IdealSim::new(
        cfg,
        Mode::SleepScheduled(PbbfParams::new(p, q).expect("valid")),
    )
}

fn ablation_chaining(c: &mut Criterion) {
    let sim = ideal_sim(17, 0.75, 1.0);
    let with = sim.run_with(1, true, false);
    let without = sim.run_with(1, false, false);
    println!(
        "\n===== ablation: immediate-forward chaining =====\n\
         per-hop latency with chaining    {:.2} s\n\
         per-hop latency without chaining {:.2} s",
        with.mean_per_hop_latency().unwrap_or(f64::NAN),
        without.mean_per_hop_latency().unwrap_or(f64::NAN),
    );
    c.bench_function("ablation_chaining_on", |b| {
        b.iter(|| sim.run_with(1, true, false))
    });
    c.bench_function("ablation_chaining_off", |b| {
        b.iter(|| sim.run_with(1, false, false))
    });
}

fn ablation_source_announce(c: &mut Criterion) {
    let sim = ideal_sim(17, 0.75, 0.75);
    let fig2 = sim.run_with(2, true, false);
    let forced = sim.run_with(2, true, true);
    println!(
        "\n===== ablation: source applies p (Fig. 2) vs always announces =====\n\
         delivered fraction, source uses p      {:.3}\n\
         delivered fraction, source announces   {:.3}",
        fig2.mean_delivered_fraction(),
        forced.mean_delivered_fraction(),
    );
    c.bench_function("ablation_source_p", |b| {
        b.iter(|| sim.run_with(2, true, false))
    });
    c.bench_function("ablation_source_announce", |b| {
        b.iter(|| sim.run_with(2, true, true))
    });
}

fn ablation_duplicates(c: &mut Criterion) {
    println!("\n===== ablation: redundant receptions vs density =====");
    for delta in [8.0, 13.0, 18.0] {
        let mut cfg = NetConfig::table2();
        cfg.duration_secs = 120.0;
        cfg.delta = delta;
        let sim = NetSim::new(cfg, NetMode::AlwaysOn);
        let s = sim.run(3);
        let n = cfg.nodes as f64;
        let updates = f64::from(s.updates_generated().max(1));
        // Each node transmits once per update in a flood; every neighbor
        // hears it, so receptions scale with mean degree while *useful*
        // receptions stay at one per node per update.
        println!(
            "delta {delta:>4}: mean degree {:.1}, data tx {:>4}, redundancy ~{:.1}x",
            s.mean_degree,
            s.data_tx,
            s.mean_degree * s.data_tx as f64 / (n * updates).max(1.0)
        );
    }
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = 120.0;
    let sim = NetSim::new(cfg, NetMode::AlwaysOn);
    c.bench_function("ablation_duplicates_flood", |b| b.iter(|| sim.run(3)));
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = ablation_chaining, ablation_source_announce, ablation_duplicates
}
criterion_main!(ablations);
