//! Traced replays of the Section-4 and Section-5 figure sweeps.
//!
//! The figure code in `pbbf-experiments` keeps its seed derivation and
//! point grids private, so this module mirrors them line for line and calls the
//! layers' public entry points itself — `IdealSim::new`/`run`,
//! `DeploymentCache::get_or_draw`, `NetSim::run_on` — with a span around
//! each call. Section-5 sweeps reuse the public manifest and fold
//! (`sweep_manifest`, `assemble_sweep`), so only the point grid, the
//! per-run seeds and the metrics are mirrored. `run.py` checks that every
//! replayed exhibit is byte-identical to the untraced run's, which is what
//! proves the mirror faithful; a drifted mirror fails the benchmark.

use std::time::Instant;

use pbbf_core::PbbfParams;
use pbbf_experiments::sweep::{assemble_sweep, sweep_manifest};
use pbbf_experiments::Effort;
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode, RunStats};
use pbbf_metrics::{ConfidenceInterval, Figure, Series, Summary};
use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetRunStats, NetSim};

use crate::report::Json;

/// `pbbf-experiments`' private seed mixer (splitmix64 finaliser).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const IDEAL_P_VALUES: [f64; 5] = [0.05, 0.25, 0.375, 0.5, 0.75];
const DEPLOY_SALT: u64 = 0x00DE_F10E_0D5A_17E5;
const NET_P_VALUES: [f64; 4] = [0.05, 0.1, 0.25, 0.5];
const DELTA_P_VALUES: [f64; 3] = [0.05, 0.1, 0.25];
const DELTA_VALUES: [f64; 6] = [8.0, 10.0, 12.0, 14.0, 16.0, 18.0];
const FIXED_Q: f64 = 0.25;
const BASELINES: [(&str, NetMode); 2] = [
    ("PSM", NetMode::SleepScheduled(PbbfParams::PSM)),
    ("NO PSM", NetMode::AlwaysOn),
];

/// Spans and exact counts of the ideal simulator.
#[derive(Default)]
struct IdealLayer {
    new_s: Vec<f64>,
    run_s: Vec<f64>,
    tx: u64,
    frames: u64,
}

/// Spans and exact counts of the net simulator and its deployment draws.
#[derive(Default)]
struct NetLayer {
    run_s: Vec<f64>,
    deploy_s: f64,
    lookups: u64,
    sim_s: f64,
    data_tx: u64,
    atim_tx: u64,
    immediate_tx: u64,
    collisions: u64,
}

impl NetLayer {
    fn merge(&mut self, other: NetLayer) {
        self.run_s.extend(other.run_s);
        self.deploy_s += other.deploy_s;
        self.lookups += other.lookups;
        self.sim_s += other.sim_s;
        self.data_tx += other.data_tx;
        self.atim_tx += other.atim_tx;
        self.immediate_tx += other.immediate_tx;
        self.collisions += other.collisions;
    }
}

/// Everything the replay measured, per layer.
#[derive(Default)]
pub struct Layers {
    ideal: IdealLayer,
    net: NetLayer,
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

impl Layers {
    /// Replays exhibit `id` if it is a Section-4 or Section-5 figure;
    /// `None` for exhibits without a simulator layer of their own
    /// (tables, percolation figures), which the caller runs directly.
    pub fn replay(
        &mut self,
        id: &str,
        effort: &Effort,
        seed: u64,
    ) -> Result<Option<Figure>, String> {
        if let Some(fig) = self.ideal_figure(id, effort, seed) {
            return Ok(Some(fig));
        }
        self.net_figure(id, effort, seed)
    }

    /// Writes the per-layer spans and counts.
    ///
    /// # Errors
    ///
    /// Fails if the deployment registry evicted entries, which would make
    /// its entry count stop being the number of distinct draws.
    pub fn report(&self, meta: &mut Json) -> Result<(), String> {
        let i = &self.ideal;
        if !i.run_s.is_empty() {
            meta.int("ideal_runs", i.run_s.len() as u64);
            meta.num("ideal_busy_s", i.run_s.iter().sum());
            meta.num("ideal_run_ms_p50", 1e3 * percentile(&i.run_s, 50.0));
            meta.num("ideal_run_ms_p99", 1e3 * percentile(&i.run_s, 99.0));
            meta.num("ideal_new_ms", 1e3 * percentile(&i.new_s, 50.0));
            meta.int("ideal_tx", i.tx);
            meta.int("ideal_frames", i.frames);
        }

        let n = &self.net;
        meta.int("net_runs", n.run_s.len() as u64);
        meta.num("net_busy_s", n.run_s.iter().sum());
        meta.num("net_run_us_p50", 1e6 * percentile(&n.run_s, 50.0));
        meta.num("net_run_us_p99", 1e6 * percentile(&n.run_s, 99.0));
        meta.num("net_sim_s", n.sim_s);
        meta.int("mac_data_tx", n.data_tx);
        meta.int("mac_atim_tx", n.atim_tx);
        meta.int("mac_immediate_tx", n.immediate_tx);
        meta.int("radio_collisions", n.collisions);

        // Distinct deployments drawn = registry entries, as long as
        // nothing was evicted. (The registry's own miss counter can also
        // count a duplicate draw when two threads race on one key, so it
        // is not an exact count.)
        let cache = DeploymentCache::global().stats();
        if cache.evictions > 0 {
            return Err(format!(
                "deployment registry evicted {} entries; deploy.misses would be inexact",
                cache.evictions
            ));
        }
        meta.int("deploy_misses", cache.len as u64);
        meta.int("deploy_hits", n.lookups - cache.len as u64);
        meta.num("deploy_busy_s", n.deploy_s);
        Ok(())
    }

    // ---- Section 4: mirror of `ideal_figs.rs` -------------------------

    fn ideal_runs(&mut self, mode: Mode, effort: &Effort, seed: u64) -> Vec<RunStats> {
        let mut cfg = IdealConfig::table1();
        cfg.grid_side = effort.ideal_grid_side;
        cfg.updates = effort.ideal_updates;
        let t = Instant::now();
        let sim = IdealSim::new(cfg, mode);
        self.ideal.new_s.push(t.elapsed().as_secs_f64());
        let timed = pbbf_parallel::par_run(effort.runs as usize, |r| {
            let t = Instant::now();
            let stats = sim.run(mix(seed, r as u64));
            (stats, t.elapsed())
        });
        timed
            .into_iter()
            .map(|(stats, d)| {
                self.ideal.run_s.push(d.as_secs_f64());
                for u in &stats.updates {
                    self.ideal.tx += u.total_tx();
                    self.ideal.frames += u64::from(u.frames_used);
                }
                stats
            })
            .collect()
    }

    fn ideal_sweep(
        &mut self,
        effort: &Effort,
        seed: u64,
        metric: impl Fn(&RunStats) -> Option<f64>,
    ) -> Vec<Series> {
        let qs = effort.q_values();
        let mut series = Vec::new();
        for (pi, &p) in IDEAL_P_VALUES.iter().enumerate() {
            let mut s = Series::new(format!("PBBF-{p}"));
            for (qi, &q) in qs.iter().enumerate() {
                let params = PbbfParams::new(p, q).expect("sweep p, q valid");
                let point_seed = mix(seed, (pi as u64) << 32 | qi as u64);
                let vals: Summary = self
                    .ideal_runs(Mode::SleepScheduled(params), effort, point_seed)
                    .iter()
                    .filter_map(&metric)
                    .collect();
                if !vals.is_empty() {
                    let ci = ConfidenceInterval::from_summary(&vals, 0.95);
                    s.push_with_err(q, ci.mean, ci.half_width);
                }
            }
            series.push(s);
        }
        for (label, mode) in [
            ("PSM", Mode::SleepScheduled(PbbfParams::PSM)),
            ("NO PSM", Mode::AlwaysOn),
        ] {
            let vals: Summary = self
                .ideal_runs(mode, effort, mix(seed, label.len() as u64))
                .iter()
                .filter_map(&metric)
                .collect();
            let mut s = Series::new(label);
            if !vals.is_empty() {
                let ci = ConfidenceInterval::from_summary(&vals, 0.95);
                for &q in &qs {
                    s.push_with_err(q, ci.mean, ci.half_width);
                }
            }
            series.push(s);
        }
        series
    }

    fn ideal_figure(&mut self, id: &str, effort: &Effort, seed: u64) -> Option<Figure> {
        let threshold = |layers: &mut Self, reliability: f64, number: u32| {
            let series = layers.ideal_sweep(effort, seed, |r| {
                Some(r.fraction_of_updates_with_reliability(reliability))
            });
            Figure::new(
                format!(
                    "Figure {number}: Threshold behavior for {:.0}% reliability",
                    reliability * 100.0
                ),
                "q",
                format!(
                    "Fraction of updates received by {:.0}% of nodes",
                    reliability * 100.0
                ),
                series,
            )
        };
        let hops = |layers: &mut Self, distance: u32, number: u32| {
            let series = layers.ideal_sweep(effort, seed, |r| r.mean_hops_at_distance(distance));
            Figure::new(
                format!(
                    "Figure {number}: Average hops traveled to reach a node {distance} hops from the source"
                ),
                "q",
                format!("Average {distance}-hop flooding hop count"),
                series,
            )
        };
        Some(match id {
            "fig04" => threshold(self, 0.9, 4),
            "fig05" => threshold(self, 0.99, 5),
            "fig08" => Figure::new(
                "Figure 8: Average energy consumption",
                "q",
                "Joules consumed / total updates sent at source",
                self.ideal_sweep(effort, seed, |r| Some(r.mean_energy_per_update())),
            ),
            "fig09" => hops(self, effort.hop_probe_near, 9),
            "fig10" => hops(self, effort.hop_probe_far, 10),
            "fig11" => Figure::new(
                "Figure 11: Average per-hop update latency",
                "q",
                "Average per-hop update latency (s)",
                self.ideal_sweep(effort, seed, RunStats::mean_per_hop_latency),
            ),
            _ => return None,
        })
    }

    // ---- Section 5: mirror of `net_figs.rs` ---------------------------

    fn net_figure(
        &mut self,
        id: &str,
        effort: &Effort,
        seed: u64,
    ) -> Result<Option<Figure>, String> {
        let Some(manifest) = sweep_manifest(id, effort, seed) else {
            return Ok(None);
        };
        let (points, metric) = net_points(id, effort, seed)
            .ok_or_else(|| format!("{id} is shardable but has no mirrored point grid"))?;
        if points.len() != manifest.points as usize {
            return Err(format!(
                "{id}: mirrored grid has {} points, the manifest {}",
                points.len(),
                manifest.points
            ));
        }
        // The same (point, run-chunk) job list, in the same order, as the
        // in-process fan-out (`par_run_grouped_chunked`) schedules.
        let chunks = pbbf_parallel::par_map(manifest.shards.clone(), |job| {
            run_chunk(&points[job.point as usize], job.run0..job.run1, metric)
        });
        let mut values = Vec::with_capacity(chunks.len());
        for (vals, layer) in chunks {
            self.net.merge(layer);
            values.push(vals);
        }
        Ok(Some(assemble_sweep(&manifest, values)))
    }
}

struct NetPoint {
    cfg: NetConfig,
    mode: NetMode,
    seed: u64,
    deploy_seed: u64,
}

type Metric = fn(&NetRunStats) -> Option<f64>;

fn net_config(effort: &Effort, delta: f64) -> NetConfig {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = effort.net_duration_secs;
    cfg.delta = delta;
    cfg
}

/// The point grid and per-run metric of a Section-5 figure.
fn net_points(id: &str, effort: &Effort, seed: u64) -> Option<(Vec<NetPoint>, Metric)> {
    let metric: Metric = match id {
        "fig13" => |r| Some(r.energy_per_update()),
        "fig14" => |r| r.mean_latency_at_hops(2),
        "fig15" => |r| r.mean_latency_at_hops(5),
        "fig16" | "fig18" => |r| Some(r.mean_delivery_ratio()),
        "fig17" => NetRunStats::mean_latency,
        _ => return None,
    };
    let deploy_seed = mix(seed, DEPLOY_SALT);
    let mut points = Vec::new();
    if matches!(id, "fig13" | "fig14" | "fig15" | "fig16") {
        let cfg = net_config(effort, NetConfig::table2().delta);
        for (pi, &p) in NET_P_VALUES.iter().enumerate() {
            for (qi, &q) in effort.q_values().iter().enumerate() {
                points.push(NetPoint {
                    cfg,
                    mode: NetMode::SleepScheduled(PbbfParams::new(p, q).expect("valid sweep")),
                    seed: mix(seed, (pi as u64) << 32 | qi as u64),
                    deploy_seed,
                });
            }
        }
        for (label, mode) in BASELINES {
            points.push(NetPoint {
                cfg,
                mode,
                seed: mix(seed, (label.len() as u64) << 40),
                deploy_seed,
            });
        }
    } else {
        for (pi, &p) in DELTA_P_VALUES.iter().enumerate() {
            for (di, &delta) in DELTA_VALUES.iter().enumerate() {
                points.push(NetPoint {
                    cfg: net_config(effort, delta),
                    mode: NetMode::SleepScheduled(PbbfParams::new(p, FIXED_Q).expect("valid")),
                    seed: mix(seed, (pi as u64) << 32 | di as u64),
                    deploy_seed,
                });
            }
        }
        for (label, mode) in BASELINES {
            for (di, &delta) in DELTA_VALUES.iter().enumerate() {
                points.push(NetPoint {
                    cfg: net_config(effort, delta),
                    mode,
                    seed: mix(seed, (label.len() as u64) << 40 | di as u64),
                    deploy_seed,
                });
            }
        }
    }
    Some((points, metric))
}

/// Mirror of `NetSweep::run_chunk`, with a span around each deployment
/// lookup and each simulation run.
fn run_chunk(
    pt: &NetPoint,
    runs: std::ops::Range<u32>,
    metric: Metric,
) -> (Vec<Option<f64>>, NetLayer) {
    let sim = NetSim::new(pt.cfg, pt.mode);
    let mut layer = NetLayer::default();
    let values = runs
        .map(|r| {
            let t0 = Instant::now();
            let deployment =
                DeploymentCache::global().get_or_draw(&pt.cfg, mix(pt.deploy_seed, u64::from(r)));
            let t1 = Instant::now();
            let stats = sim.run_on(mix(pt.seed, u64::from(r)), &deployment);
            let t2 = Instant::now();
            layer.deploy_s += (t1 - t0).as_secs_f64();
            layer.lookups += 1;
            layer.run_s.push((t2 - t1).as_secs_f64());
            layer.sim_s += pt.cfg.duration_secs;
            layer.data_tx += stats.data_tx;
            layer.atim_tx += stats.atim_tx;
            layer.immediate_tx += stats.immediate_tx;
            layer.collisions += stats.collisions;
            metric(&stats)
        })
        .collect();
    (values, layer)
}
