//! Contracts of the deployment registry and the `Arc`-shared scenario
//! path.
//!
//! Two families of guarantees are pinned here:
//!
//! * **Registry transparency** — a deployment served by a
//!   [`DeploymentCache`] (including the process-wide
//!   [`DeploymentCache::global`] registry, including when several threads
//!   race on the first touch of a key) is *bitwise* identical to a fresh
//!   [`NetSim::draw_deployment`] for the same `(seed, geometry)`, and all
//!   callers of one key share one allocation.
//! * **Shared-topology equivalence** — [`NetSim::run_on`] with the
//!   `Arc`-shared topology reproduces [`NetSim::run`] bit for bit (the
//!   pre-`Arc` per-run-clone semantics), sequentially and when many
//!   `(mode, run)` jobs execute on the same shared scenario across
//!   threads at once.

use std::sync::{Arc, Barrier};

use pbbf_core::PbbfParams;
use pbbf_net_sim::{CachedDeployment, DeploymentCache, NetConfig, NetMode, NetSim};
use proptest::prelude::*;

/// Bitwise comparison of two drawn scenarios: exact adjacency via
/// `PartialEq`, plus positions compared by bit pattern (so an `==` on a
/// recomputed-but-differently-rounded float cannot slip through).
fn assert_bitwise_identical(a: &CachedDeployment, b: &CachedDeployment) {
    assert_eq!(a, b, "topology/source must compare equal");
    assert_eq!(a.source(), b.source());
    let (ta, tb) = (a.topology(), b.topology());
    assert_eq!(ta.len(), tb.len());
    for n in ta.nodes() {
        let (pa, pb) = (ta.position(n), tb.position(n));
        assert_eq!(pa.x.to_bits(), pb.x.to_bits(), "x bits of {n}");
        assert_eq!(pa.y.to_bits(), pb.y.to_bits(), "y bits of {n}");
        assert_eq!(ta.neighbors(n), tb.neighbors(n));
    }
}

proptest! {
    /// Registry-cached vs freshly-drawn deployments are bitwise-identical
    /// scenarios for randomized `(seed, geometry)` keys, and repeat
    /// lookups share the first draw's allocation.
    #[test]
    fn cached_deployment_is_bitwise_fresh(
        nodes in 10usize..40,
        delta_x10 in 80u32..=140,
        seed in 0u64..1_000_000,
    ) {
        let mut cfg = NetConfig::table2();
        cfg.nodes = nodes;
        cfg.delta = f64::from(delta_x10) / 10.0;
        let cache = DeploymentCache::new();
        let cached = cache.get_or_draw(&cfg, seed);
        let fresh = NetSim::draw_deployment(&cfg, seed).unwrap();
        assert_bitwise_identical(&cached, &fresh);
        let again = cache.get_or_draw(&cfg, seed);
        prop_assert!(Arc::ptr_eq(&cached, &again), "hit returns the same allocation");
        // The process-wide registry obeys the same contract for the same
        // randomized keys.
        let global = DeploymentCache::global().get_or_draw(&cfg, seed);
        assert_bitwise_identical(&global, &fresh);
    }
}

proptest! {
    /// LRU eviction is invisible to values: whatever the interleaving of
    /// keys against a tiny capacity, every lookup — hit, first draw, or
    /// re-draw of an evicted entry — serves the same bits a fresh
    /// uncached draw would, and occupancy never exceeds the bound.
    #[test]
    fn eviction_never_changes_drawn_values(
        capacity in 1usize..4,
        lookups in prop::collection::vec((0u64..6, 10usize..14), 8..20),
    ) {
        let cache = DeploymentCache::with_capacity(capacity);
        for &(seed, nodes) in &lookups {
            let mut cfg = NetConfig::table2();
            cfg.nodes = nodes;
            let served = cache.get_or_draw(&cfg, seed);
            assert_bitwise_identical(&served, &NetSim::draw_deployment(&cfg, seed).unwrap());
            prop_assert!(cache.stats().len <= capacity, "occupancy over bound");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.capacity, capacity);
        prop_assert_eq!(stats.hits + stats.misses, lookups.len() as u64);
        // Every insert beyond the bound evicted exactly one entry.
        prop_assert_eq!(stats.evictions, stats.misses.saturating_sub(capacity as u64));
    }
}

/// Concurrent first-touch: several threads race `get_or_draw` on the same
/// fresh keys; every caller must observe the fresh-draw value and end up
/// sharing one entry per key.
#[test]
fn concurrent_first_touch_is_consistent() {
    const THREADS: usize = 8;
    const SEEDS: u64 = 6;
    let mut cfg = NetConfig::table2();
    cfg.nodes = 30;
    let cache = DeploymentCache::new();
    let barrier = Barrier::new(THREADS);
    let results: Vec<Vec<Arc<CachedDeployment>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, barrier, cfg) = (&cache, &barrier, &cfg);
                s.spawn(move || {
                    barrier.wait();
                    (0..SEEDS)
                        .map(|seed| cache.get_or_draw(cfg, seed))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for seed in 0..SEEDS {
        let fresh = NetSim::draw_deployment(&cfg, seed).unwrap();
        let canonical = &results[0][seed as usize];
        for per_thread in &results {
            let got = &per_thread[seed as usize];
            assert_bitwise_identical(got, &fresh);
            assert!(
                Arc::ptr_eq(got, canonical),
                "seed {seed}: every racer shares the winning entry"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.len, SEEDS as usize, "one entry per key");
    assert_eq!(
        stats.hits + stats.misses,
        THREADS as u64 * SEEDS,
        "every lookup is either a hit or a (possibly discarded) draw"
    );
    assert!(stats.misses >= SEEDS, "each key was drawn at least once");
}

/// The global registry is one process-wide instance, and `clear` only
/// drops cached entries — it cannot change any subsequently served value.
#[test]
fn global_registry_shares_and_survives_clear() {
    let mut cfg = NetConfig::table2();
    // A geometry no other test in this binary uses, so concurrent tests
    // cannot interfere with the ptr_eq assertions.
    cfg.nodes = 23;
    cfg.delta = 9.5;
    let reg = DeploymentCache::global();
    let a = reg.get_or_draw(&cfg, 77);
    let b = DeploymentCache::global().get_or_draw(&cfg, 77);
    assert!(
        Arc::ptr_eq(&a, &b),
        "global() always names the same registry"
    );
    reg.clear();
    let c = reg.get_or_draw(&cfg, 77);
    assert_bitwise_identical(&c, &a);
    // `a` survived the clear; the redraw is a fresh allocation.
    assert!(!Arc::ptr_eq(&a, &c));
}

fn modes() -> [NetMode; 4] {
    [
        NetMode::AlwaysOn,
        NetMode::SleepScheduled(PbbfParams::PSM),
        NetMode::SleepScheduled(PbbfParams::new(0.25, 0.05).expect("valid")),
        NetMode::SleepScheduled(PbbfParams::new(0.5, 0.5).expect("valid")),
    ]
}

proptest! {
    /// `run_on` over the `Arc`-shared topology reproduces `run` bit for
    /// bit — the pre-refactor per-run-clone semantics — through both a
    /// direct draw and the process-wide registry.
    #[test]
    fn run_on_shared_equals_run(
        seed in 0u64..1_000_000,
        mode_sel in 0u8..4,
    ) {
        let mut cfg = NetConfig::table2();
        cfg.duration_secs = 120.0;
        let sim = NetSim::new(cfg, modes()[mode_sel as usize]);
        let reference = sim.run(seed);
        let drawn = NetSim::draw_deployment(&cfg, seed).unwrap();
        prop_assert_eq!(&sim.run_on(seed, &drawn), &reference);
        let cached = DeploymentCache::global().get_or_draw(&cfg, seed);
        prop_assert_eq!(&sim.run_on(seed, &cached), &reference);
    }
}

/// Every `(mode, run)` job of a sweep point runs on one shared scenario
/// allocation across threads at once, and the concurrency changes
/// nothing: results equal the sequential ones, and no run leaks a
/// reference to the shared topology.
#[test]
fn concurrent_modes_share_one_scenario() {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = 150.0;
    let deployment = DeploymentCache::global().get_or_draw(&cfg, 4242);
    let refs_before = Arc::strong_count(deployment.topology_arc());
    let sequential: Vec<_> = modes()
        .iter()
        .map(|&m| NetSim::new(cfg, m).run_on(9, &deployment))
        .collect();
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = modes()
            .iter()
            .map(|&m| {
                let deployment = &deployment;
                s.spawn(move || NetSim::new(cfg, m).run_on(9, deployment))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run panicked"))
            .collect()
    });
    assert_eq!(sequential, concurrent);
    assert_eq!(
        Arc::strong_count(deployment.topology_arc()),
        refs_before,
        "runs borrow the scenario; none keeps a reference"
    );
}
