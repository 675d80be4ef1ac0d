//! Cross-run cache of connected deployments.
//!
//! Drawing a connected random deployment is rejection sampling: every
//! [`NetSim`](crate::NetSim) run draws candidate deployments (an O(n + E)
//! spatial-hash edge build plus a connectivity check each) until one
//! connects. A Monte-Carlo sweep that compares several protocol modes on
//! the same scenarios repeats that work once per mode; this cache keys
//! the finished product — CSR topology plus the run's source-node draw —
//! by `(deployment seed, geometry)` so each scenario is constructed once
//! and shared.
//!
//! The cached topology lives behind an [`Arc`] that
//! [`NetSim::run_on`](crate::NetSim::run_on) threads straight into the
//! collision channel, so every `(mode, run)` job of a sweep executes on
//! the *same* adjacency allocation — sharing a scenario costs a
//! reference-count bump, not an O(V + E) copy per run.
//!
//! [`DeploymentCache::global`] is the process-wide registry: figures with
//! identical geometry and deployment-seed streams (the fig13–16 q sweeps,
//! the latency-tail and k-trade-off extensions) resolve to the same
//! entries instead of each sweep redrawing the same deployments.
//!
//! Determinism: the cached value is a pure function of the key (the draw
//! consumes only substreams of the deployment seed), so concurrent
//! lookups from a thread-pool fan-out return bitwise-identical
//! deployments regardless of which worker populates the entry first —
//! thread-count invariance is preserved, and a registry shared between
//! figures cannot change any figure's values.

use std::sync::{Arc, OnceLock};

use pbbf_parallel::{CacheStats, LruMemo};
use pbbf_topology::{NodeId, Topology};

use crate::NetConfig;

/// The geometry + seed identity of one deployment draw. Floats enter by
/// bit pattern: two configs draw identical deployments iff their keys
/// are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DeployKey {
    seed: u64,
    nodes: usize,
    range_bits: u64,
    delta_bits: u64,
    max_attempts: u32,
}

impl DeployKey {
    fn new(cfg: &NetConfig, seed: u64) -> Self {
        Self {
            seed,
            nodes: cfg.nodes,
            range_bits: cfg.range_m.to_bits(),
            delta_bits: cfg.delta.to_bits(),
            max_attempts: cfg.max_deploy_attempts,
        }
    }
}

/// One drawn scenario: the connected topology and the source node, as
/// [`NetSim::run`](crate::NetSim::run) would draw them from the same
/// seed.
///
/// The topology is held behind an [`Arc`]; cloning a `CachedDeployment`
/// (or running on one) shares the adjacency rather than copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedDeployment {
    pub(crate) topology: Arc<Topology>,
    pub(crate) source: NodeId,
}

impl CachedDeployment {
    /// Builds a scenario from parts (owned or already-shared topology).
    /// Most callers want [`DeploymentCache::get_or_draw`] or
    /// [`NetSim::draw_deployment`](crate::NetSim::draw_deployment)
    /// instead; this constructor exists for benches and tests that
    /// compose scenarios by hand.
    #[must_use]
    pub fn new(topology: impl Into<Arc<Topology>>, source: NodeId) -> Self {
        Self {
            topology: topology.into(),
            source,
        }
    }

    /// The connected topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared handle to the connected topology.
    #[must_use]
    pub fn topology_arc(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The drawn source node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }
}

/// A `(seed, Δ)`-keyed store of connected deployments, shared across the
/// protocol modes (and runs) of a sweep.
///
/// The cache is **bounded**: when a fresh draw would push occupancy past
/// the capacity, the least-recently-used entries are evicted
/// ([`DeploymentCache::stats`] counts them). Eviction can never change a
/// value: a deployment is a pure function of its key, so a re-drawn
/// entry is bitwise identical to the evicted one, and in-flight [`Arc`]s
/// to an evicted deployment stay alive until their runs finish.
///
/// # Examples
///
/// ```
/// use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetSim};
/// use pbbf_core::PbbfParams;
///
/// let mut cfg = NetConfig::table2();
/// cfg.duration_secs = 50.0;
/// let cache = DeploymentCache::new();
/// // Same scenario, two protocol modes — one deployment draw.
/// let psm_mode = NetMode::SleepScheduled(PbbfParams::PSM);
/// let psm = NetSim::new(cfg, psm_mode).run_on(1, &cache.get_or_draw(&cfg, 7));
/// let on = NetSim::new(cfg, NetMode::AlwaysOn).run_on(1, &cache.get_or_draw(&cfg, 7));
/// assert_eq!(psm.source, on.source);
/// let stats = cache.stats();
/// assert_eq!((stats.misses, stats.hits, stats.evictions), (1, 1, 0));
/// ```
#[derive(Debug)]
pub struct DeploymentCache {
    memo: LruMemo<DeployKey, CachedDeployment>,
}

impl Default for DeploymentCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DeploymentCache {
    /// The default capacity bound (entries). A connected Table-2
    /// deployment is a few tens of kilobytes and a full figure
    /// regeneration touches a few hundred keys, so the default holds a
    /// whole regeneration resident at roughly tens of megabytes while
    /// capping an unbounded-sweep service's footprint.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty cache with [`DeploymentCache::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache bounded to `capacity` entries (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            memo: LruMemo::with_capacity(capacity),
        }
    }

    /// The process-wide deployment registry.
    ///
    /// Sweeps and figures that key their deployments the same way —
    /// identical geometry (`nodes`, `range_m`, `delta`,
    /// `max_deploy_attempts`) and deployment-seed stream — share entries
    /// across the whole process instead of redrawing per sweep. Safe by
    /// construction: a cached value is a pure function of its key, so a
    /// registry hit returns exactly what a private cache (or a fresh
    /// draw) would have produced, bitwise.
    ///
    /// The registry is bounded to [`DeploymentCache::DEFAULT_CAPACITY`]
    /// entries with LRU eviction (a connected Table-2 deployment is a
    /// few tens of kilobytes; a full figure regeneration touches a few
    /// hundred keys, comfortably resident), so a long-running host
    /// sweeping unbounded key sets plateaus instead of growing for the
    /// life of the process; [`DeploymentCache::clear`] remains for
    /// manual pressure relief, and [`DeploymentCache::stats`] exposes
    /// hit/miss/eviction counts for capacity tuning.
    #[must_use]
    pub fn global() -> &'static DeploymentCache {
        static GLOBAL: OnceLock<DeploymentCache> = OnceLock::new();
        GLOBAL.get_or_init(DeploymentCache::new)
    }

    /// Drops every cached deployment (in-flight [`Arc`]s stay alive).
    /// Hit/miss/eviction counters are preserved — they count lookups and
    /// evictions, not occupancy; a `clear` is not an eviction.
    pub fn clear(&self) {
        self.memo.clear();
    }

    /// Returns the deployment for `(cfg geometry, seed)`, drawing and
    /// inserting it on first use — evicting least-recently-used entries
    /// if the insert would exceed the capacity bound. The draw runs
    /// outside the lock, so distinct scenarios construct in parallel,
    /// and is bitwise identical to the one
    /// [`NetSim::run`](crate::NetSim::run) performs for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if no connected deployment can be drawn within
    /// `cfg.max_deploy_attempts` (raise Δ or the attempt budget).
    #[must_use]
    pub fn get_or_draw(&self, cfg: &NetConfig, seed: u64) -> Arc<CachedDeployment> {
        self.memo.get_or_insert_with(DeployKey::new(cfg, seed), || {
            crate::NetSim::draw_deployment(cfg, seed)
                .expect("no connected deployment found; raise delta or attempts")
        })
    }

    /// A point-in-time snapshot of counters and occupancy (`misses`
    /// counts deployment draws). Each field is read independently, so a
    /// snapshot racing an in-flight `get_or_draw` may be off by that
    /// lookup; quiesce the cache first when exact books matter.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetSim;

    #[test]
    fn cached_deployment_is_bitwise_identical_to_fresh() {
        let cfg = NetConfig::table2();
        let cache = DeploymentCache::new();
        for seed in [1u64, 2, 3] {
            let cached = cache.get_or_draw(&cfg, seed);
            let fresh = NetSim::draw_deployment(&cfg, seed).unwrap();
            assert_eq!(*cached, fresh, "seed {seed}");
            // Second lookup hits and returns the same allocation.
            let again = cache.get_or_draw(&cfg, seed);
            assert!(Arc::ptr_eq(&cached, &again));
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.len), (3, 3, 3));
    }

    #[test]
    fn eviction_never_changes_drawn_values() {
        // Thrash a tiny cache across many keys, then re-request each key
        // and compare against an uncached draw: every re-drawn entry
        // must be bitwise identical to what the evicted one was.
        let cfg = NetConfig::table2();
        let cache = DeploymentCache::with_capacity(2);
        let originals: Vec<_> = (0..6u64)
            .map(|seed| (seed, NetSim::draw_deployment(&cfg, seed).unwrap()))
            .collect();
        for &(seed, _) in &originals {
            let _ = cache.get_or_draw(&cfg, seed);
        }
        let stats = cache.stats();
        assert_eq!((stats.len, stats.evictions), (2, 4));
        for (seed, fresh) in &originals {
            assert_eq!(
                *cache.get_or_draw(&cfg, *seed),
                *fresh,
                "seed {seed} after eviction"
            );
        }
        // An Arc held across the eviction of its entry stays usable.
        let held = cache.get_or_draw(&cfg, 0);
        for seed in 10..20u64 {
            let _ = cache.get_or_draw(&cfg, seed);
        }
        assert_eq!(*held, NetSim::draw_deployment(&cfg, 0).unwrap());
    }

    #[test]
    fn key_distinguishes_geometry() {
        let cfg = NetConfig::table2();
        let mut denser = cfg;
        denser.delta = 16.0;
        let cache = DeploymentCache::new();
        let a = cache.get_or_draw(&cfg, 5);
        let b = cache.get_or_draw(&denser, 5);
        assert_ne!(a.topology, b.topology, "Δ must enter the key");
        assert_eq!(cache.stats().len, 2);
        // Traffic parameters are not part of the deployment identity.
        let mut busier = cfg;
        busier.lambda = 1.0;
        busier.k = 4;
        busier.duration_secs = 10.0;
        let c = cache.get_or_draw(&busier, 5);
        assert!(Arc::ptr_eq(&a, &c), "λ/k/duration do not redraw");
    }
}
