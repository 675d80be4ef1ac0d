//! Performance benches of the hot kernels underneath the experiments:
//! the event queue, the RNG, union-find sweeps, BFS, one idealized
//! dissemination and one realistic run.

use criterion::{criterion_group, criterion_main, Criterion};
use pbbf_core::PbbfParams;
use pbbf_des::{EventQueue, SimRng, SimTime};
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode};
use pbbf_net_sim::{NetConfig, NetMode, NetSim};
use pbbf_percolation::{NewmanZiff, UnionFind};
use pbbf_topology::Grid;
use rand::RngCore;

fn event_queue_throughput(c: &mut Criterion) {
    c.bench_function("event_queue_10k_schedule_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        })
    });
}

fn rng_throughput(c: &mut Criterion) {
    c.bench_function("rng_1m_draws", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            acc
        })
    });
}

fn union_find_sweep(c: &mut Criterion) {
    let grid = Grid::square(40);
    let edges = grid.topology().edges();
    c.bench_function("union_find_40x40_full_sweep", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(grid.topology().len());
            for (a, bb) in &edges {
                uf.union(a.index(), bb.index());
            }
            uf.size_of(0)
        })
    });
}

fn newman_ziff_sweep(c: &mut Criterion) {
    let grid = Grid::square(40);
    let nz = NewmanZiff::new(grid.topology(), grid.center());
    c.bench_function("newman_ziff_40x40_bond_sweep", |b| {
        let mut rng = SimRng::new(2);
        b.iter(|| nz.bond_crossing(1.0, &mut rng))
    });
}

fn bfs_hops(c: &mut Criterion) {
    let grid = Grid::square(75);
    c.bench_function("bfs_75x75_hop_distances", |b| {
        b.iter(|| grid.topology().hop_distances(grid.center()))
    });
}

fn ideal_dissemination(c: &mut Criterion) {
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = 75;
    cfg.updates = 1;
    let sim = IdealSim::new(
        cfg,
        Mode::SleepScheduled(PbbfParams::new(0.5, 0.5).expect("valid")),
    );
    c.bench_function("ideal_75x75_one_update", |b| b.iter(|| sim.run(3)));
}

fn net_run(c: &mut Criterion) {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = 120.0;
    let sim = NetSim::new(
        cfg,
        NetMode::SleepScheduled(PbbfParams::new(0.25, 0.25).expect("valid")),
    );
    c.bench_function("net_50nodes_120s_run", |b| b.iter(|| sim.run(4)));
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = event_queue_throughput, rng_throughput, union_find_sweep, newman_ziff_sweep, bfs_hops, ideal_dissemination, net_run
}
criterion_main!(kernels);
