//! Bench targets regenerating the Section-4 idealized-simulation figures
//! (Figs 4, 5, 8, 9, 10, 11).

use criterion::{criterion_group, criterion_main, Criterion};
use pbbf_bench::{bench_effort, print_exhibit};
use pbbf_experiments::sweep::SweepMemo;
use pbbf_experiments::Experiment;

fn bench_ideal_figures(c: &mut Criterion) {
    let effort = bench_effort();
    for exp in [
        Experiment::Fig04,
        Experiment::Fig05,
        Experiment::Fig08,
        Experiment::Fig09,
        Experiment::Fig10,
        Experiment::Fig11,
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
    name = ideal_figures;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ideal_figures
}
criterion_main!(ideal_figures);
