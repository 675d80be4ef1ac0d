//! Exact work counts of the sweep memo: each sweep family is simulated
//! once per `(effort, seed)`, and every later figure of the family folds
//! the cached records.
//!
//! The counts are read from the process-wide memo, so this file holds a
//! single test: integration-test files run as their own process, and no
//! other test can move the counters under it.

use pbbf_experiments::sweep::{shardable_figures, sweep_manifest, SweepMemo};
use pbbf_experiments::{Effort, Experiment};

fn toy_effort() -> Effort {
    let mut e = Effort::quick();
    // Nine runs make two chunks per point (RUN_CHUNK is 8).
    e.runs = 9;
    e.ideal_grid_side = 9;
    e.ideal_updates = 1;
    e.net_duration_secs = 60.0;
    e.q_points = 3;
    e.hop_probe_near = 3;
    e.hop_probe_far = 5;
    e
}

#[test]
fn each_sweep_family_is_simulated_once() {
    let effort = toy_effort();
    let seed = 7919;
    let families = [
        &["fig04", "fig05", "fig08", "fig09", "fig10", "fig11"][..],
        &["fig13", "fig14", "fig15", "fig16"][..],
        &["fig17", "fig18"][..],
    ];
    assert_eq!(
        families.concat(),
        shardable_figures(),
        "the families cover every sweep figure, in catalogue order"
    );

    let chunks_of = |id: &str| sweep_manifest(id, &effort, seed).unwrap().shards.len() as u64;
    // (5 p x 3 q + 2 baselines), (4 p x 3 q + 2) and (5 lines x 6 Δ)
    // points, two chunks each.
    let (ideal, net_q, net_delta) = (chunks_of("fig04"), chunks_of("fig13"), chunks_of("fig17"));
    assert_eq!((ideal, net_q, net_delta), (34, 28, 60));

    let memo = SweepMemo::global();
    for family in families {
        let chunks = chunks_of(family[0]);
        for (i, id) in family.iter().enumerate() {
            assert_eq!(chunks_of(id), chunks, "{id} shares its family's chunks");
            let before = memo.stats();
            let _ = Experiment::from_id(id).unwrap().run(&effort, seed);
            let after = memo.stats();
            // The family's first figure simulates every chunk; the rest
            // simulate none.
            let expected = if i == 0 { (chunks, 0) } else { (0, chunks) };
            assert_eq!(
                (after.misses - before.misses, after.hits - before.hits),
                expected,
                "{id}: (misses, hits)"
            );
        }
    }
    // Misses are the chunk count of each family; hits are 5x the ideal
    // chunks, 3x the NetQ chunks and 1x the NetDelta chunks.
    let stats = memo.stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.evictions),
        (
            ideal + net_q + net_delta,
            5 * ideal + 3 * net_q + net_delta,
            0
        )
    );
}
