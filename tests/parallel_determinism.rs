//! Determinism under parallelism: every figure must be bitwise identical
//! whether the run fan-out executes on one thread or many.
//!
//! This works because each Monte Carlo run derives its RNG stream from
//! `(seed, run index)` alone and results are folded in index order — the
//! thread count only changes *when* runs execute, never which stream they
//! see or the order they are reduced in.
//!
//! This file holds a single test: it manipulates the process-global
//! `PBBF_THREADS` variable and clears the process-wide sweep memo, and
//! integration-test files run as their own process, so nothing else can
//! race on either.

use pbbf::prelude::*;
use pbbf_experiments::sweep::{sweep_manifest, SweepMemo};
use pbbf_experiments::{ext_gossip_vs_pbbf, ext_latency_tail, fig04, fig06, fig12, fig13, fig17};

fn tiny_effort() -> Effort {
    let mut e = Effort::quick();
    e.runs = 2;
    e.ideal_grid_side = 9;
    e.ideal_updates = 1;
    e.nz_runs = 8;
    e.net_duration_secs = 100.0;
    e.q_points = 3;
    e.hop_probe_near = 3;
    e.hop_probe_far = 5;
    e
}

/// Every figure of one pass, recomputed: the sweep memo is cleared
/// first (otherwise a later pass would fold the first pass's cached
/// records and test nothing), and the pass must simulate every chunk of
/// its three sweeps, each a family of its own, with no memo hit.
fn all_figures(effort: &Effort, seed: u64) -> Vec<Figure> {
    SweepMemo::global().clear();
    let before = SweepMemo::global().stats();
    let chunks: usize = ["fig04", "fig13", "fig17"]
        .iter()
        .map(|id| sweep_manifest(id, effort, seed).unwrap().shards.len())
        .sum();
    // fig13 / fig17 / ext_latency_tail cover the point-level fan-out
    // paths (whole q and Δ sweeps as one flat job list), fig12 the
    // parallel Newman–Ziff threshold, fig04 / fig06 / ext_gossip_vs_pbbf
    // the per-run fan-outs.
    let figures = vec![
        fig04(effort, seed),
        fig06(effort, seed),
        fig12(effort, seed),
        fig13(effort, seed),
        fig17(effort, seed),
        ext_gossip_vs_pbbf(effort, seed),
        ext_latency_tail(effort, seed),
    ];
    let after = SweepMemo::global().stats();
    assert_eq!(
        (after.misses - before.misses, after.hits - before.hits),
        (chunks as u64, 0),
        "the pass simulated every sweep chunk"
    );
    figures
}

#[test]
fn figures_identical_across_thread_counts() {
    let effort = tiny_effort();
    let seed = 2005;

    std::env::set_var("PBBF_THREADS", "1");
    let serial = all_figures(&effort, seed);

    std::env::set_var("PBBF_THREADS", "4");
    let parallel = all_figures(&effort, seed);

    std::env::remove_var("PBBF_THREADS");
    let auto = all_figures(&effort, seed);

    for ((s, p), a) in serial.iter().zip(&parallel).zip(&auto) {
        assert_eq!(s, p, "1 thread vs 4 threads: {}", s.title);
        assert_eq!(s, a, "1 thread vs auto threads: {}", s.title);
    }
    // Bitwise equality of every series value, stated explicitly: the
    // Figure PartialEq above already compares f64s exactly, so any
    // reduction-order difference would have failed it.
    for (s, p) in serial.iter().zip(&parallel) {
        for (ss, ps) in s.series.iter().zip(&p.series) {
            for (a, b) in ss.points.iter().zip(&ps.points) {
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.err.to_bits(), b.err.to_bits());
            }
        }
    }
}
