//! Bench targets regenerating the Section-5 realistic-simulation figures
//! (Figs 13–18).

use criterion::{criterion_group, criterion_main, Criterion};
use pbbf_bench::{bench_effort, print_exhibit};
use pbbf_experiments::sweep::SweepMemo;
use pbbf_experiments::Experiment;

fn bench_net_figures(c: &mut Criterion) {
    let effort = bench_effort();
    for exp in [
        Experiment::Fig13,
        Experiment::Fig14,
        Experiment::Fig15,
        Experiment::Fig16,
        Experiment::Fig17,
        Experiment::Fig18,
    ] {
        print_exhibit(exp.id(), &exp.run(&effort, 2005).render_text());
        // Cleared every iteration: the sweep memo would otherwise serve
        // each iteration after the first from the records it cached,
        // timing a fold instead of the figure's simulations.
        c.bench_function(exp.id(), |b| {
            b.iter(|| {
                SweepMemo::global().clear();
                exp.run(&effort, 2005)
            })
        });
    }
}

criterion_group! {
    name = net_figures;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_net_figures
}
criterion_main!(net_figures);
