//! The sweep pipeline: one table of every Monte Carlo figure sweep, and
//! the shard manifests that distribute it.
//!
//! Every Section-4 (fig04, fig05, fig08–fig11) and Section-5
//! (fig13–fig18) figure is one row of `SWEEPS`: a catalogue id, the
//! simulator and x-axis it sweeps with its per-run metric (`Kind`),
//! and the figure dressing. The machinery is split into four pure
//! stages — `Sweep::points` (the parameter grid),
//! `Sweep::run_chunk` (a `(point, run-range)` Monte Carlo slice),
//! `fold_point_values` (run-ordered per-point confidence intervals)
//! and `Sweep::assemble` (series layout + figure dressing) — so the
//! in-process fan-out (`Sweep::run`, behind every `figNN` function)
//! and the distributed sweep fabric (`pbbf sweep`, executed by `pbbf
//! worker` processes) share every stage except scheduling. A chunk's
//! values depend only on `(effort, seed, point, run range)`, and the
//! fold consumes them in manifest order, so *where* a chunk ran — this
//! thread pool, another process, a retried worker — cannot change a
//! figure's bytes.
//!
//! The contract that makes sharding bitwise-safe lives here too: a
//! [`SweepManifest`] names every `(point, run-range)` chunk of a sweep
//! in the same order `Sweep::run` schedules them in-process, each
//! [`ShardJob`] carries everything needed to recompute its values from
//! scratch (`figure`, `effort`, `seed`, point index, run range — all
//! pure inputs), and [`assemble_sweep`] folds shard values back in
//! manifest order. Any executor that returns each shard's exact value
//! sequence — whichever process ran it, however many times it was
//! retried — therefore reproduces the single-process figure byte for
//! byte.
//!
//! The same property makes manifests freely *queueable*: because each
//! job is self-contained and each manifest folds independently, a
//! resident scheduler (`pbbf sweep --figs a,b,…`, backed by
//! `pbbf-fabric`'s `SweepScheduler`) can multiplex several figures'
//! manifests onto one worker fleet, stream shards back in completion
//! order, and still assemble every figure as if it had run alone.

use pbbf_core::PbbfParams;
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode, RunStats};
use pbbf_metrics::{ConfidenceInterval, Figure, Series, Summary};
use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetRunStats, NetSim};
use serde::{Deserialize, Serialize};

use crate::{mix, Effort};

/// Salt of the deployment-seed stream. Every protocol mode of a net-sim
/// sweep shares run `r`'s deployment `mix(mix(seed, DEPLOY_SALT), r)` —
/// drawn once via the [`DeploymentCache`] and reused, and a paired
/// comparison methodologically: modes are measured on identical
/// scenarios.
pub(crate) const DEPLOY_SALT: u64 = 0x00DE_F10E_0D5A_17E5;

/// The `p` values of the paper's idealized-simulation legends.
pub(crate) const IDEAL_P_VALUES: [f64; 5] = [0.05, 0.25, 0.375, 0.5, 0.75];

/// The `p` values of the paper's Section-5 legends (Figs 13–16).
pub(crate) const NET_P_VALUES: [f64; 4] = [0.05, 0.1, 0.25, 0.5];

/// The `p` values of the density sweeps (the paper drops `p = 0.5`
/// from Figs 17–18).
const DELTA_P_VALUES: [f64; 3] = [0.05, 0.1, 0.25];

/// The density values of Figs 17–18.
const DELTA_VALUES: [f64; 6] = [8.0, 10.0, 12.0, 14.0, 16.0, 18.0];

/// The fixed `q` of the density sweeps (Table 2).
const FIXED_Q: f64 = 0.25;

/// The baseline protocols appended after the PBBF points of every
/// sweep; `None` is the always-on NO-PSM radio.
const BASELINES: [(&str, Option<PbbfParams>); 2] =
    [("PSM", Some(PbbfParams::PSM)), ("NO PSM", None)];

/// The scheduling granularity of a sweep's Monte Carlo fan-out: runs per
/// `(point, run-chunk)` job. It is the sweep fabric's shard unit — a
/// shard and an in-process chunk job are the same unit of work, so the
/// value is part of the manifest layout. One chunk amortizes its point
/// lookup and simulator construction, while the paper-scale sweeps
/// (points × runs/chunk jobs) still oversubscribe every thread budget
/// the CI matrix uses.
pub(crate) const RUN_CHUNK: usize = 8;

/// The idealized-simulator scenario of an effort.
pub(crate) fn ideal_config(effort: &Effort) -> IdealConfig {
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = effort.ideal_grid_side;
    cfg.updates = effort.ideal_updates;
    cfg
}

fn net_config(effort: &Effort, delta: f64) -> NetConfig {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = effort.net_duration_secs;
    cfg.delta = delta;
    cfg
}

/// Which simulator a sweep runs, over which x-axis, and what it
/// measures per run. A Section-4 metric reads the [`Effort`] for the
/// hop-probe distances of Figs 9–10.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// The idealized grid simulator over `q`: one PBBF series per
    /// [`IDEAL_P_VALUES`] entry plus flat baselines.
    Ideal(fn(&Effort, &RunStats) -> Option<f64>),
    /// The realistic simulator over `q` at the Table-2 density: one PBBF
    /// series per [`NET_P_VALUES`] entry plus flat baselines.
    NetQ(fn(&NetRunStats) -> Option<f64>),
    /// The realistic simulator over density Δ at fixed `q = 0.25`: one
    /// PBBF series per [`DELTA_P_VALUES`] entry plus per-density
    /// baselines.
    NetDelta(fn(&NetRunStats) -> Option<f64>),
}

/// One figure sweep: catalogue identity, simulator, axis and metric,
/// and figure dressing.
pub(crate) struct Sweep {
    /// The exhibit's catalogue id, e.g. `"fig13"`.
    pub(crate) id: &'static str,
    kind: Kind,
    title: fn(&Effort) -> String,
    y_label: fn(&Effort) -> String,
}

/// Every figure sweep, in catalogue order.
pub(crate) const SWEEPS: [Sweep; 12] = [
    Sweep {
        id: "fig04",
        kind: Kind::Ideal(|_, r| Some(r.fraction_of_updates_with_reliability(0.9))),
        title: |_| "Figure 4: Threshold behavior for 90% reliability".into(),
        y_label: |_| "Fraction of updates received by 90% of nodes".into(),
    },
    Sweep {
        id: "fig05",
        kind: Kind::Ideal(|_, r| Some(r.fraction_of_updates_with_reliability(0.99))),
        title: |_| "Figure 5: Threshold behavior for 99% reliability".into(),
        y_label: |_| "Fraction of updates received by 99% of nodes".into(),
    },
    Sweep {
        id: "fig08",
        kind: Kind::Ideal(|_, r| Some(r.mean_energy_per_update())),
        title: |_| "Figure 8: Average energy consumption".into(),
        y_label: |_| "Joules consumed / total updates sent at source".into(),
    },
    Sweep {
        id: "fig09",
        kind: Kind::Ideal(|e, r| r.mean_hops_at_distance(e.hop_probe_near)),
        title: |e| hops_title(9, e.hop_probe_near),
        y_label: |e| format!("Average {}-hop flooding hop count", e.hop_probe_near),
    },
    Sweep {
        id: "fig10",
        kind: Kind::Ideal(|e, r| r.mean_hops_at_distance(e.hop_probe_far)),
        title: |e| hops_title(10, e.hop_probe_far),
        y_label: |e| format!("Average {}-hop flooding hop count", e.hop_probe_far),
    },
    Sweep {
        id: "fig11",
        kind: Kind::Ideal(|_, r| r.mean_per_hop_latency()),
        title: |_| "Figure 11: Average per-hop update latency".into(),
        y_label: |_| "Average per-hop update latency (s)".into(),
    },
    Sweep {
        id: "fig13",
        kind: Kind::NetQ(|r| Some(r.energy_per_update())),
        title: |_| "Figure 13: Average energy consumption".into(),
        y_label: |_| "Joules consumed / total updates sent at source".into(),
    },
    Sweep {
        id: "fig14",
        kind: Kind::NetQ(|r| r.mean_latency_at_hops(2)),
        title: |_| "Figure 14: 2-hop average update latency".into(),
        y_label: |_| "Average 2-hop latency (s)".into(),
    },
    Sweep {
        id: "fig15",
        kind: Kind::NetQ(|r| r.mean_latency_at_hops(5)),
        title: |_| "Figure 15: 5-hop average update latency".into(),
        y_label: |_| "Average 5-hop latency (s)".into(),
    },
    Sweep {
        id: "fig16",
        kind: Kind::NetQ(|r| Some(r.mean_delivery_ratio())),
        title: |_| "Figure 16: Average updates received".into(),
        y_label: |_| "Updates received / total updates sent at source".into(),
    },
    Sweep {
        id: "fig17",
        kind: Kind::NetDelta(NetRunStats::mean_latency),
        title: |_| "Figure 17: Average update latency".into(),
        y_label: |_| "Average update latency (s)".into(),
    },
    Sweep {
        id: "fig18",
        kind: Kind::NetDelta(|r| Some(r.mean_delivery_ratio())),
        title: |_| "Figure 18: Average updates received".into(),
        y_label: |_| "Updates received / total updates sent at source".into(),
    },
];

fn hops_title(number: u32, distance: u32) -> String {
    format!(
        "Figure {number}: Average hops traveled to reach a node {distance} hops from the source"
    )
}

/// Looks a sweep up by catalogue id.
pub(crate) fn sweep(id: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|s| s.id == id)
}

/// Runs the catalogue sweep `id` in-process.
pub(crate) fn run(id: &str, effort: &Effort, seed: u64) -> Figure {
    sweep(id).expect("known catalogue id").run(effort, seed)
}

/// One sweep point: the simulator that runs it and the point's seed.
/// Net-sim points also carry the sweep-wide deployment-seed base they
/// share with the other modes.
#[derive(Clone, Copy)]
pub(crate) enum Point {
    Ideal {
        cfg: IdealConfig,
        mode: Mode,
        seed: u64,
    },
    Net {
        cfg: NetConfig,
        mode: NetMode,
        seed: u64,
        deploy_seed: u64,
    },
}

/// The `q`-axis grid both simulators share, in point order: the PBBF
/// points of every `p` line (seed salt `pi << 32 | qi`), then one point
/// per baseline, seeded by `baseline_salt(label)`.
fn q_grid(
    p_values: &[f64],
    effort: &Effort,
    seed: u64,
    baseline_salt: fn(&str) -> u64,
) -> Vec<(Option<PbbfParams>, u64)> {
    let qs = effort.q_values();
    let mut grid = Vec::new();
    for (pi, &p) in p_values.iter().enumerate() {
        for (qi, &q) in qs.iter().enumerate() {
            let params = PbbfParams::new(p, q).expect("valid sweep");
            grid.push((Some(params), mix(seed, (pi as u64) << 32 | qi as u64)));
        }
    }
    for (label, params) in BASELINES {
        grid.push((params, mix(seed, baseline_salt(label))));
    }
    grid
}

impl Sweep {
    /// The sweep's parameter grid, in point order: the PBBF points of
    /// every series, then the baselines. A pure function of
    /// `(kind, effort, seed)` — the distributed fabric relies on every
    /// process rebuilding the identical grid from the manifest header.
    pub(crate) fn points(&self, effort: &Effort, seed: u64) -> Vec<Point> {
        let deploy_seed = mix(seed, DEPLOY_SALT);
        match self.kind {
            Kind::Ideal(_) => {
                let cfg = ideal_config(effort);
                q_grid(&IDEAL_P_VALUES, effort, seed, |label| label.len() as u64)
                    .into_iter()
                    .map(|(params, seed)| Point::Ideal {
                        cfg,
                        mode: params.map_or(Mode::AlwaysOn, Mode::SleepScheduled),
                        seed,
                    })
                    .collect()
            }
            Kind::NetQ(_) => {
                let cfg = net_config(effort, NetConfig::table2().delta);
                // Baselines shift past the (pi << 32 | qi) PBBF salts
                // (like the Δ sweep) so their runs never reuse a PBBF
                // point's per-run seeds.
                q_grid(&NET_P_VALUES, effort, seed, |label| {
                    (label.len() as u64) << 40
                })
                .into_iter()
                .map(|(params, seed)| Point::Net {
                    cfg,
                    mode: params.map_or(NetMode::AlwaysOn, NetMode::SleepScheduled),
                    seed,
                    deploy_seed,
                })
                .collect()
            }
            Kind::NetDelta(_) => {
                let mut points = Vec::new();
                for (pi, &p) in DELTA_P_VALUES.iter().enumerate() {
                    for (di, &delta) in DELTA_VALUES.iter().enumerate() {
                        points.push(Point::Net {
                            cfg: net_config(effort, delta),
                            mode: NetMode::SleepScheduled(
                                PbbfParams::new(p, FIXED_Q).expect("valid"),
                            ),
                            seed: mix(seed, (pi as u64) << 32 | di as u64),
                            deploy_seed,
                        });
                    }
                }
                for (label, params) in BASELINES {
                    for (di, &delta) in DELTA_VALUES.iter().enumerate() {
                        points.push(Point::Net {
                            cfg: net_config(effort, delta),
                            mode: params.map_or(NetMode::AlwaysOn, NetMode::SleepScheduled),
                            seed: mix(seed, (label.len() as u64) << 40 | di as u64),
                            deploy_seed,
                        });
                    }
                }
                points
            }
        }
    }

    /// Executes runs `rs` of one point, returning the metric value per
    /// run in run order. This is the unit the fabric ships to worker
    /// processes and the chunk job of the in-process fan-out — one code
    /// path, so a shard re-executed anywhere is bitwise identical. The
    /// simulator is built once per chunk, and each run's statistics are
    /// dropped as soon as its metric is taken.
    ///
    /// Each run's RNG stream depends only on `(point seed, run index)`.
    /// Net-sim deployments resolve through the process-wide registry
    /// ([`DeploymentCache::global`]) — the single resolution path,
    /// inside the chunk job: every point with the same geometry reuses
    /// run `r`'s connected deployment instead of redrawing it per
    /// protocol mode, and sweeps in *other* figures with the same
    /// geometry and deployment-seed stream (fig13–16 vs the
    /// latency-tail and k-trade-off extensions) resolve to the same
    /// entries. Each run shares the cached topology by `Arc` straight
    /// into its channel — no per-run copy. The cached draw is a pure
    /// function of `(deployment seed, geometry)`, so all of this
    /// sharing preserves thread-count (and process-count) invariance.
    pub(crate) fn run_chunk(
        &self,
        effort: &Effort,
        pt: &Point,
        rs: std::ops::Range<usize>,
    ) -> Vec<Option<f64>> {
        match (*pt, self.kind) {
            (Point::Ideal { cfg, mode, seed }, Kind::Ideal(metric)) => {
                let sim = IdealSim::new(cfg, mode);
                rs.map(|r| metric(effort, &sim.run(mix(seed, r as u64))))
                    .collect()
            }
            (
                Point::Net {
                    cfg,
                    mode,
                    seed,
                    deploy_seed,
                },
                Kind::NetQ(metric) | Kind::NetDelta(metric),
            ) => {
                let sim = NetSim::new(cfg, mode);
                rs.map(|r| {
                    let deployment =
                        DeploymentCache::global().get_or_draw(&cfg, mix(deploy_seed, r as u64));
                    metric(&sim.run_on(mix(seed, r as u64), &deployment))
                })
                .collect()
            }
            _ => unreachable!("a sweep's points run the sweep's own simulator"),
        }
    }

    /// Lays the per-point confidence intervals out as the figure's
    /// series and dresses them with title and axis labels.
    pub(crate) fn assemble(&self, effort: &Effort, cis: &[Option<ConfidenceInterval>]) -> Figure {
        let mut cursor = cis.iter();
        let next = || cursor.next().expect("one interval per point").as_ref();
        let (x_label, series) = match self.kind {
            Kind::Ideal(_) => ("q", q_series(&IDEAL_P_VALUES, effort, next)),
            Kind::NetQ(_) => ("q", q_series(&NET_P_VALUES, effort, next)),
            Kind::NetDelta(_) => ("Delta", delta_series(next)),
        };
        Figure::new(
            (self.title)(effort),
            x_label,
            (self.y_label)(effort),
            series,
        )
    }

    /// Runs the whole sweep in-process: one flat `(point, run-chunk)`
    /// job list fanned across threads
    /// ([`pbbf_parallel::par_run_grouped_chunked`]), folded and
    /// assembled. Chunk boundaries are a pure function of
    /// `(runs, RUN_CHUNK)` and per-point summaries fold in run
    /// order, so results are bitwise identical to the sequential
    /// per-point loop for any thread count — and to a distributed sweep
    /// of the same manifest.
    pub(crate) fn run(&self, effort: &Effort, seed: u64) -> Figure {
        let points = self.points(effort, seed);
        let vals = pbbf_parallel::par_run_grouped_chunked(
            points.len(),
            effort.runs as usize,
            RUN_CHUNK,
            |pi, rs| self.run_chunk(effort, &points[pi], rs),
        );
        self.assemble(effort, &fold_point_values(vals))
    }
}

/// Lays a `q`-axis sweep out: one series per `p` line over
/// `effort.q_values()`, then each baseline's single interval drawn flat
/// across every `q`.
fn q_series<'a>(
    p_values: &[f64],
    effort: &Effort,
    mut next: impl FnMut() -> Option<&'a ConfidenceInterval>,
) -> Vec<Series> {
    let qs = effort.q_values();
    let mut series = Vec::new();
    for &p in p_values {
        let mut s = Series::new(format!("PBBF-{p}"));
        for &q in &qs {
            if let Some(ci) = next() {
                s.push_with_err(q, ci.mean, ci.half_width);
            }
        }
        series.push(s);
    }
    for (label, _) in BASELINES {
        let mut s = Series::new(label);
        if let Some(ci) = next() {
            for &q in &qs {
                s.push_with_err(q, ci.mean, ci.half_width);
            }
        }
        series.push(s);
    }
    series
}

/// Lays a density sweep out: one series per `p` line, then one per
/// baseline, each over [`DELTA_VALUES`].
fn delta_series<'a>(mut next: impl FnMut() -> Option<&'a ConfidenceInterval>) -> Vec<Series> {
    let labels = DELTA_P_VALUES
        .iter()
        .map(|p| format!("PBBF-{p}"))
        .chain(BASELINES.iter().map(|(l, _)| (*l).to_string()));
    labels
        .map(|label| {
            let mut s = Series::new(label);
            for &delta in &DELTA_VALUES {
                if let Some(ci) = next() {
                    s.push_with_err(delta, ci.mean, ci.half_width);
                }
            }
            s
        })
        .collect()
}

/// Folds each point's run-ordered metric values into a confidence
/// interval (`None` when every run of the point produced no sample).
/// The fold order is the value order, so any execution that delivers
/// the same per-point value sequences — threads, worker processes,
/// retried shards — folds to identical bytes.
pub(crate) fn fold_point_values(vals: Vec<Vec<Option<f64>>>) -> Vec<Option<ConfidenceInterval>> {
    vals.into_iter()
        .map(|point_vals| {
            let summary: Summary = point_vals.into_iter().flatten().collect();
            (!summary.is_empty()).then(|| ConfidenceInterval::from_summary(&summary, 0.95))
        })
        .collect()
}

/// One self-contained unit of sweep work: runs `run0..run1` of point
/// `point` of figure `figure` at `(effort, seed)`.
///
/// A job deliberately carries the *whole* sweep context rather than a
/// pre-resolved parameter point: the worker process rebuilds the
/// identical point grid from `(figure, effort, seed)` — a pure
/// function — so the wire format never has to serialize simulator
/// configuration, and a stale or corrupt supervisor cannot ship a
/// point the worker wouldn't itself derive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardJob {
    /// Catalogue id of the figure being swept, e.g. `"fig17"`.
    pub figure: String,
    /// The sweep's base seed.
    pub seed: u64,
    /// The sweep's effort preset.
    pub effort: Effort,
    /// Index into the sweep's point grid.
    pub point: u32,
    /// First run of this shard's range (inclusive).
    pub run0: u32,
    /// One past the last run of this shard's range.
    pub run1: u32,
}

/// Every shard of one figure sweep, in fold order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Catalogue id of the figure.
    pub figure: String,
    /// The sweep's base seed.
    pub seed: u64,
    /// The sweep's effort preset.
    pub effort: Effort,
    /// Number of points in the sweep's grid.
    pub points: u32,
    /// The shards, ordered by `(point, run0)` — the fold order.
    pub shards: Vec<ShardJob>,
}

/// Every figure [`sweep_manifest`] can shard — the Section-4 and
/// Section-5 sweeps — in catalogue order.
#[must_use]
pub fn shardable_figures() -> Vec<&'static str> {
    SWEEPS.iter().map(|s| s.id).collect()
}

/// The Section-5 figures fig13–fig18: `pbbf sweep`'s default figure
/// set when no figure is named.
///
/// Every figure of [`shardable_figures`] shards; this default stays the
/// net-sim set so a bare `pbbf sweep` keeps its meaning, and the
/// `section5` and `section5-fabric` workloads of the `perfbench`
/// end-to-end benchmark enumerate exactly this list.
#[must_use]
pub fn sweepable_figures() -> Vec<&'static str> {
    SWEEPS
        .iter()
        .filter(|s| !matches!(s.kind, Kind::Ideal(_)))
        .map(|s| s.id)
        .collect()
}

/// Builds the shard manifest of one figure sweep, or `None` when the
/// id is not a shardable figure.
///
/// Shards are `(point, run-chunk)` slices at `RUN_CHUNK`
/// granularity — exactly the job list
/// [`par_run_grouped_chunked`](pbbf_parallel::par_run_grouped_chunked)
/// would schedule in-process, in the same order.
#[must_use]
pub fn sweep_manifest(figure: &str, effort: &Effort, seed: u64) -> Option<SweepManifest> {
    let points = sweep(figure)?.points(effort, seed).len() as u32;
    let runs = effort.runs;
    let chunk = RUN_CHUNK as u32;
    let mut shards = Vec::new();
    for point in 0..points {
        let mut run0 = 0;
        while run0 < runs {
            shards.push(ShardJob {
                figure: figure.to_string(),
                seed,
                effort: *effort,
                point,
                run0,
                run1: (run0 + chunk).min(runs),
            });
            run0 += chunk;
        }
    }
    Some(SweepManifest {
        figure: figure.to_string(),
        seed,
        effort: *effort,
        points,
        shards,
    })
}

/// Executes one shard, returning the metric value of each run in
/// `job.run0..job.run1`, in run order.
///
/// Pure in `job`: the point grid is rebuilt from the job's own
/// `(figure, effort, seed)` and the runs re-derive their RNG streams
/// from `(point seed, run index)`, so executing the same job twice —
/// or on two different machines — yields identical bits. Malformed
/// jobs (unknown figure, an effort [`Effort::validate`] rejects,
/// out-of-range point or run window) are reported as `Err` rather than
/// panicking so a worker process can refuse them over the wire and
/// stay alive.
pub fn run_sweep_shard(job: &ShardJob) -> Result<Vec<Option<f64>>, String> {
    let sweep = sweep(&job.figure).ok_or_else(|| format!("unknown figure {}", job.figure))?;
    job.effort.validate()?;
    let points = sweep.points(&job.effort, job.seed);
    let pt = points
        .get(job.point as usize)
        .ok_or_else(|| format!("point {} out of range ({})", job.point, points.len()))?;
    if job.run0 >= job.run1 || job.run1 > job.effort.runs {
        return Err(format!("bad run range {}..{}", job.run0, job.run1));
    }
    Ok(sweep.run_chunk(&job.effort, pt, job.run0 as usize..job.run1 as usize))
}

/// Folds per-shard value vectors (one per manifest shard, in manifest
/// order) into the finished figure.
///
/// The regroup-and-fold is position-based: shard `i`'s values land in
/// the slot the manifest assigned them, so arrival order, retries, and
/// worker identity are all invisible here — only the values matter.
///
/// # Panics
///
/// Panics if `shard_values` doesn't match the manifest shard-for-shard
/// (count or per-shard run count) — the supervisor guarantees both
/// before calling.
#[must_use]
pub fn assemble_sweep(manifest: &SweepManifest, shard_values: Vec<Vec<Option<f64>>>) -> Figure {
    let sweep = sweep(&manifest.figure).expect("manifest names a shardable figure");
    assert_eq!(
        shard_values.len(),
        manifest.shards.len(),
        "one value vector per manifest shard"
    );
    let mut per_point = vec![Vec::new(); manifest.points as usize];
    for (job, values) in manifest.shards.iter().zip(shard_values) {
        assert_eq!(
            values.len(),
            (job.run1 - job.run0) as usize,
            "shard {}..{} of point {} must return one value per run",
            job.run0,
            job.run1,
            job.point
        );
        per_point[job.point as usize].extend(values);
    }
    sweep.assemble(&manifest.effort, &fold_point_values(per_point))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effort() -> Effort {
        let mut e = Effort::quick();
        e.runs = 2;
        e.ideal_grid_side = 15;
        e.ideal_updates = 2;
        e.hop_probe_near = 4;
        e.hop_probe_far = 8;
        e.net_duration_secs = 150.0;
        e.q_points = 3;
        e
    }

    #[test]
    fn sweep_catalogue_is_consistent() {
        for s in &SWEEPS {
            assert_eq!(sweep(s.id).unwrap().id, s.id);
            let number: u32 = s.id["fig".len()..].parse().unwrap();
            let title = (s.title)(&Effort::paper());
            assert!(title.starts_with(&format!("Figure {number}: ")), "{title}");
        }
        assert_eq!(
            sweepable_figures(),
            ["fig13", "fig14", "fig15", "fig16", "fig17", "fig18"]
        );
        assert!(sweep("fig07").is_none());
    }

    #[test]
    fn manifest_covers_every_run_once() {
        let e = Effort::quick(); // runs = 3 < RUN_CHUNK: one shard per point
        let m = sweep_manifest("fig17", &e, 7).unwrap();
        assert_eq!(m.points, 30); // (3 PBBF + 2 baselines) × 6 densities
        assert_eq!(m.shards.len(), 30);
        for (i, job) in m.shards.iter().enumerate() {
            assert_eq!(job.point, i as u32);
            assert_eq!((job.run0, job.run1), (0, 3));
        }

        // Paper-scale runs split into RUN_CHUNK-sized shards.
        let mut big = e;
        big.runs = 20;
        let m = sweep_manifest("fig17", &big, 7).unwrap();
        assert_eq!(m.shards.len(), 30 * 3);
        let ranges: Vec<_> = m.shards[..3].iter().map(|j| (j.run0, j.run1)).collect();
        assert_eq!(ranges, [(0, 8), (8, 16), (16, 20)]);

        assert!(sweep_manifest("fig07", &e, 7).is_none());
    }

    #[test]
    fn serial_shard_execution_reproduces_the_figure() {
        let e = effort();
        for id in ["fig04", "fig09", "fig17"] {
            let m = sweep_manifest(id, &e, 3).unwrap();
            let values: Vec<_> = m
                .shards
                .iter()
                .map(|job| run_sweep_shard(job).expect("well-formed shard"))
                .collect();
            let reproduced = crate::Experiment::from_id(id).unwrap().run(&e, 3);
            assert_eq!(
                crate::Output::Figure(assemble_sweep(&m, values)),
                reproduced,
                "{id}"
            );
        }
    }

    #[test]
    fn shard_jobs_round_trip_the_wire_format() {
        let m = sweep_manifest("fig13", &effort(), 9).unwrap();
        let job = &m.shards[4];
        let line = serde_json::to_string(job).unwrap();
        assert_eq!(&serde_json::from_str::<ShardJob>(&line).unwrap(), job);
    }

    #[test]
    fn malformed_shards_are_refused_not_fatal() {
        let e = effort();
        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.figure = "fig99".into();
        assert!(run_sweep_shard(&job).is_err());

        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.point = 10_000;
        assert!(run_sweep_shard(&job).is_err());

        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.run1 = job.effort.runs + 5;
        assert!(run_sweep_shard(&job).is_err());
        job.run1 = job.run0;
        assert!(run_sweep_shard(&job).is_err());

        // Efforts that would panic a simulator are refused up front.
        let mut job = sweep_manifest("fig04", &e, 1).unwrap().shards[0].clone();
        job.effort.ideal_grid_side = 0;
        assert!(run_sweep_shard(&job).is_err());
        for duration in [f64::NAN, f64::INFINITY, -5.0, 0.0, 1e12] {
            let mut job = sweep_manifest("fig13", &e, 1).unwrap().shards[0].clone();
            job.effort.net_duration_secs = duration;
            assert!(run_sweep_shard(&job).is_err(), "duration {duration}");
        }
        let mut job = sweep_manifest("fig13", &e, 1).unwrap().shards[0].clone();
        job.effort.q_points = 1;
        assert!(run_sweep_shard(&job).is_err());
        job.effort.q_points = e.q_points;
        job.effort.runs = 0;
        assert!(run_sweep_shard(&job).is_err());
    }
}
