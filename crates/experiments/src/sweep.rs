//! The sweep pipeline: one table of every Monte Carlo figure sweep, the
//! memo that runs each sweep family once, and the shard manifests that
//! distribute it.
//!
//! Every Section-4 (fig04, fig05, fig08–fig11) and Section-5
//! (fig13–fig18) figure is one row of `SWEEPS`: a catalogue id, the
//! sweep *family* it belongs to with the figure's projection of that
//! family's per-run record (`Kind`), and the figure dressing. The rows
//! of one family sweep the same point grid with the same seeds and
//! differ only in what they read of each run, so a family is simulated
//! once and its figures are projections:
//!
//! | family     | figures                   | per-run record                                         |
//! |------------|---------------------------|--------------------------------------------------------|
//! | `Ideal`    | fig04, 05, 08, 09, 10, 11 | r90, r99, energy, near/far-probe hops, per-hop latency |
//! | `NetQ`     | fig13, 14, 15, 16         | energy, 2-hop and 5-hop latency, delivery              |
//! | `NetDelta` | fig17, 18                 | latency, delivery                                      |
//!
//! The machinery is split into four pure stages — `Sweep::points` (the
//! family's parameter grid), `Sweep::run_chunk` (a `(point, run-range)`
//! Monte Carlo slice, projected to the figure's metric),
//! `fold_point_values` (run-ordered per-point confidence intervals) and
//! `Sweep::assemble` (series layout + figure dressing) — so the
//! in-process fan-out (`Sweep::run`, behind every `figNN` function) and
//! the distributed sweep fabric (`pbbf sweep`, executed by `pbbf worker`
//! processes) share every stage except scheduling.
//!
//! `run_chunk` resolves its chunk through the process-wide
//! [`SweepMemo`]: the first figure of a family simulates the chunk, keeps
//! each run's record (a few floats; the simulator statistics are dropped
//! at once) and the family's later figures fold the cached records. A
//! chunk's records depend only on `(family, effort, seed, point, run
//! range)` — the memo key — and the fold consumes them in manifest
//! order, so *where* a chunk ran or whether it was cached — this thread
//! pool, another process, a retried worker, an earlier figure — cannot
//! change a figure's bytes. A `pbbf worker` process keeps its own memo,
//! so the fabric's wire format carries projected values, not records.
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
use pbbf_parallel::{CacheStats, LruMemo};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

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

/// A sweep family — which simulator it runs over which x-axis — with
/// the figure's projection of the family's per-run record. Every row of
/// one family sweeps the same points, seeds and runs, so the family's
/// chunks are simulated once and memoized ([`SweepMemo`]).
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// The idealized grid simulator over `q`: one PBBF series per
    /// [`IDEAL_P_VALUES`] entry plus flat baselines.
    Ideal(fn(&IdealRecord) -> Option<f64>),
    /// The realistic simulator over `q` at the Table-2 density: one PBBF
    /// series per [`NET_P_VALUES`] entry plus flat baselines.
    NetQ(fn(&NetQRecord) -> Option<f64>),
    /// The realistic simulator over density Δ at fixed `q = 0.25`: one
    /// PBBF series per [`DELTA_P_VALUES`] entry plus per-density
    /// baselines.
    NetDelta(fn(&NetDeltaRecord) -> Option<f64>),
}

/// What the `Ideal` family's figures read of one idealized run. The
/// hop probes are the [`Effort`]'s, which the memo key includes.
pub(crate) struct IdealRecord {
    r90: f64,
    r99: f64,
    energy: f64,
    hops_near: Option<f64>,
    hops_far: Option<f64>,
    per_hop_latency: Option<f64>,
}

impl IdealRecord {
    fn new(effort: &Effort, run: &RunStats) -> Self {
        Self {
            r90: run.fraction_of_updates_with_reliability(0.9),
            r99: run.fraction_of_updates_with_reliability(0.99),
            energy: run.mean_energy_per_update(),
            hops_near: run.mean_hops_at_distance(effort.hop_probe_near),
            hops_far: run.mean_hops_at_distance(effort.hop_probe_far),
            per_hop_latency: run.mean_per_hop_latency(),
        }
    }
}

/// What the `NetQ` family's figures read of one realistic run.
pub(crate) struct NetQRecord {
    energy: f64,
    latency_2hop: Option<f64>,
    latency_5hop: Option<f64>,
    delivery: f64,
}

impl NetQRecord {
    fn new(run: &NetRunStats) -> Self {
        Self {
            energy: run.energy_per_update(),
            latency_2hop: run.mean_latency_at_hops(2),
            latency_5hop: run.mean_latency_at_hops(5),
            delivery: run.mean_delivery_ratio(),
        }
    }
}

/// What the `NetDelta` family's figures read of one realistic run.
pub(crate) struct NetDeltaRecord {
    latency: Option<f64>,
    delivery: f64,
}

impl NetDeltaRecord {
    fn new(run: &NetRunStats) -> Self {
        Self {
            latency: run.mean_latency(),
            delivery: run.mean_delivery_ratio(),
        }
    }
}

/// One chunk's per-run records, in run order: what the [`SweepMemo`]
/// stores.
enum Records {
    Ideal(Vec<IdealRecord>),
    NetQ(Vec<NetQRecord>),
    NetDelta(Vec<NetDeltaRecord>),
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
        kind: Kind::Ideal(|r| Some(r.r90)),
        title: |_| "Figure 4: Threshold behavior for 90% reliability".into(),
        y_label: |_| "Fraction of updates received by 90% of nodes".into(),
    },
    Sweep {
        id: "fig05",
        kind: Kind::Ideal(|r| Some(r.r99)),
        title: |_| "Figure 5: Threshold behavior for 99% reliability".into(),
        y_label: |_| "Fraction of updates received by 99% of nodes".into(),
    },
    Sweep {
        id: "fig08",
        kind: Kind::Ideal(|r| Some(r.energy)),
        title: |_| "Figure 8: Average energy consumption".into(),
        y_label: |_| "Joules consumed / total updates sent at source".into(),
    },
    Sweep {
        id: "fig09",
        kind: Kind::Ideal(|r| r.hops_near),
        title: |e| hops_title(9, e.hop_probe_near),
        y_label: |e| format!("Average {}-hop flooding hop count", e.hop_probe_near),
    },
    Sweep {
        id: "fig10",
        kind: Kind::Ideal(|r| r.hops_far),
        title: |e| hops_title(10, e.hop_probe_far),
        y_label: |e| format!("Average {}-hop flooding hop count", e.hop_probe_far),
    },
    Sweep {
        id: "fig11",
        kind: Kind::Ideal(|r| r.per_hop_latency),
        title: |_| "Figure 11: Average per-hop update latency".into(),
        y_label: |_| "Average per-hop update latency (s)".into(),
    },
    Sweep {
        id: "fig13",
        kind: Kind::NetQ(|r| Some(r.energy)),
        title: |_| "Figure 13: Average energy consumption".into(),
        y_label: |_| "Joules consumed / total updates sent at source".into(),
    },
    Sweep {
        id: "fig14",
        kind: Kind::NetQ(|r| r.latency_2hop),
        title: |_| "Figure 14: 2-hop average update latency".into(),
        y_label: |_| "Average 2-hop latency (s)".into(),
    },
    Sweep {
        id: "fig15",
        kind: Kind::NetQ(|r| r.latency_5hop),
        title: |_| "Figure 15: 5-hop average update latency".into(),
        y_label: |_| "Average 5-hop latency (s)".into(),
    },
    Sweep {
        id: "fig16",
        kind: Kind::NetQ(|r| Some(r.delivery)),
        title: |_| "Figure 16: Average updates received".into(),
        y_label: |_| "Updates received / total updates sent at source".into(),
    },
    Sweep {
        id: "fig17",
        kind: Kind::NetDelta(|r| r.latency),
        title: |_| "Figure 17: Average update latency".into(),
        y_label: |_| "Average update latency (s)".into(),
    },
    Sweep {
        id: "fig18",
        kind: Kind::NetDelta(|r| Some(r.delivery)),
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
    /// `(family, effort, seed)` — the distributed fabric relies on every
    /// process rebuilding the identical grid from the manifest header.
    pub(crate) fn points(&self, effort: &Effort, seed: u64) -> Vec<Point> {
        let deploy_seed = mix(seed, DEPLOY_SALT);
        match self.kind {
            Kind::Ideal(_) => {
                let cfg = ideal_config(effort);
                // The baseline salt `label.len()` collides with PBBF-0.05's
                // `0 << 32 | qi` salts: PSM (3) shares its per-run seeds
                // with the qi = 3 point and NO PSM (6) with qi = 6. The
                // runs still differ (different modes), and the memo keys
                // by point index, not seed, so they resolve to distinct
                // records. The salt stays because moving it would change
                // pinned output bytes (fingerprints and perfbench pins).
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

    /// Executes runs `rs` of point `point` (`pt`, of the sweep at
    /// `(effort, seed)`), returning the figure's metric value per run in
    /// run order. This is the unit the fabric ships to worker processes
    /// and the chunk job of the in-process fan-out — one code path, so a
    /// shard re-executed anywhere is bitwise identical.
    ///
    /// The chunk's records resolve through [`SweepMemo::global`]: the
    /// first figure of a family to ask simulates the runs and every
    /// later figure of the family projects the cached records. Each
    /// run's RNG stream depends only on `(point seed, run index)`, so a
    /// cached record is exactly what a recomputation would produce.
    pub(crate) fn run_chunk(
        &self,
        effort: &Effort,
        seed: u64,
        point: usize,
        pt: &Point,
        rs: std::ops::Range<usize>,
    ) -> Vec<Option<f64>> {
        let key = ChunkKey {
            family: std::mem::discriminant(&self.kind),
            effort: effort_key(effort),
            seed,
            point,
            runs: (rs.start, rs.end),
        };
        let records = SweepMemo::global()
            .memo
            .get_or_insert_with(key, || self.simulate(effort, pt, rs));
        match (self.kind, &*records) {
            (Kind::Ideal(metric), Records::Ideal(runs)) => runs.iter().map(metric).collect(),
            (Kind::NetQ(metric), Records::NetQ(runs)) => runs.iter().map(metric).collect(),
            (Kind::NetDelta(metric), Records::NetDelta(runs)) => runs.iter().map(metric).collect(),
            _ => unreachable!("the memo key includes the family"),
        }
    }

    /// Simulates runs `rs` of one point and keeps each run's family
    /// record. The simulator is built once per chunk, and each run's
    /// statistics are dropped as soon as its record is taken.
    ///
    /// Net-sim deployments resolve through the process-wide registry
    /// ([`DeploymentCache::global`]): every point with the same geometry
    /// reuses run `r`'s connected deployment instead of redrawing it per
    /// protocol mode, and the latency-tail and k-trade-off extensions
    /// resolve to the same deployments as the `NetQ` family. Each run
    /// shares the cached topology by `Arc` straight into its channel.
    /// The cached draw is a pure function of `(deployment seed,
    /// geometry)`, so this sharing preserves thread-count (and
    /// process-count) invariance.
    fn simulate(&self, effort: &Effort, pt: &Point, rs: std::ops::Range<usize>) -> Records {
        match (*pt, self.kind) {
            (Point::Ideal { cfg, mode, seed }, Kind::Ideal(_)) => {
                let sim = IdealSim::new(cfg, mode);
                Records::Ideal(
                    rs.map(|r| IdealRecord::new(effort, &sim.run(mix(seed, r as u64))))
                        .collect(),
                )
            }
            (
                Point::Net {
                    cfg,
                    mode,
                    seed,
                    deploy_seed,
                },
                kind,
            ) => {
                let sim = NetSim::new(cfg, mode);
                let run = |r: usize| {
                    let deployment =
                        DeploymentCache::global().get_or_draw(&cfg, mix(deploy_seed, r as u64));
                    sim.run_on(mix(seed, r as u64), &deployment)
                };
                match kind {
                    Kind::NetQ(_) => Records::NetQ(rs.map(|r| NetQRecord::new(&run(r))).collect()),
                    Kind::NetDelta(_) => {
                        Records::NetDelta(rs.map(|r| NetDeltaRecord::new(&run(r))).collect())
                    }
                    Kind::Ideal(_) => unreachable!("an ideal sweep's points are ideal points"),
                }
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
            |pi, rs| self.run_chunk(effort, seed, pi, &points[pi], rs),
        );
        self.assemble(effort, &fold_point_values(vals))
    }
}

/// The identity of one chunk's records. The sweep's points are a pure
/// function of `(family, effort, seed)`, so with the point *index* and
/// run range this names the chunk's runs exactly. The index matters:
/// points of one family can share a point seed (see `Sweep::points`'s
/// ideal baselines) while running different modes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ChunkKey {
    /// The family: the variant of `Kind`, whatever its projection.
    family: std::mem::Discriminant<Kind>,
    effort: [u64; 8],
    seed: u64,
    point: usize,
    runs: (usize, usize),
}

/// The bounded, process-wide memo of `(point, run-range)` chunk records
/// that lets the figures of one sweep family share their simulations.
///
/// An entry is one chunk's per-run records — a few floats per run, never
/// the simulator statistics — keyed by family, effort, seed, point index
/// and run range. A record is a pure function of its key, so a hit
/// returns exactly what recomputation would; eviction and
/// [`SweepMemo::clear`] can cost time, never change a value. Past
/// [`SweepMemo::CAPACITY`] chunks the least-recently-used are evicted.
pub struct SweepMemo {
    memo: LruMemo<ChunkKey, Records>,
}

impl SweepMemo {
    /// The capacity bound (chunks). One `Effort::paper()` seed of all
    /// twelve sweep figures makes 266 chunks (114 `Ideal`, 92 `NetQ`, 60
    /// `NetDelta`) of at most `RUN_CHUNK` records of under 100 bytes
    /// each, so the bound holds fifteen seeds resident in under 4 MB.
    pub const CAPACITY: usize = 4096;

    /// The process-wide memo every sweep chunk resolves through.
    #[must_use]
    pub fn global() -> &'static SweepMemo {
        static GLOBAL: OnceLock<SweepMemo> = OnceLock::new();
        GLOBAL.get_or_init(|| SweepMemo {
            memo: LruMemo::with_capacity(Self::CAPACITY),
        })
    }

    /// Drops every memoized chunk, so the next lookup of each
    /// recomputes. The counters are kept.
    pub fn clear(&self) {
        self.memo.clear();
    }

    /// A snapshot of the counters and occupancy: `misses` counts chunks
    /// simulated, `hits` chunks served from the memo.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

/// Every field of `effort` as key bits (floats by bit pattern).
fn effort_key(effort: &Effort) -> [u64; 8] {
    // Destructured, so a new `Effort` field cannot be left out of the key.
    let Effort {
        runs,
        ideal_grid_side,
        ideal_updates,
        nz_runs,
        net_duration_secs,
        q_points,
        hop_probe_near,
        hop_probe_far,
    } = *effort;
    [
        runs.into(),
        ideal_grid_side.into(),
        ideal_updates.into(),
        nz_runs.into(),
        net_duration_secs.to_bits(),
        q_points.into(),
        hop_probe_near.into(),
        hop_probe_far.into(),
    ]
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
/// out-of-range point, or a run window that is empty, out of range or
/// wider than the `RUN_CHUNK` runs a manifest gives a shard) are
/// reported as `Err` rather than panicking or aborting on allocation,
/// so a worker process can refuse them over the wire and stay alive.
pub fn run_sweep_shard(job: &ShardJob) -> Result<Vec<Option<f64>>, String> {
    let sweep = sweep(&job.figure).ok_or_else(|| format!("unknown figure {}", job.figure))?;
    job.effort.validate()?;
    let points = sweep.points(&job.effort, job.seed);
    let pt = points
        .get(job.point as usize)
        .ok_or_else(|| format!("point {} out of range ({})", job.point, points.len()))?;
    if job.run0 >= job.run1 || job.run1 > job.effort.runs || job.run1 - job.run0 > RUN_CHUNK as u32
    {
        return Err(format!(
            "bad run range {}..{}: want a nonempty window of at most {RUN_CHUNK} of the {} runs",
            job.run0, job.run1, job.effort.runs
        ));
    }
    Ok(sweep.run_chunk(
        &job.effort,
        job.seed,
        job.point as usize,
        pt,
        job.run0 as usize..job.run1 as usize,
    ))
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
    fn ideal_baselines_sharing_a_point_seed_resolve_to_distinct_records() {
        // At paper effort PSM (point 55) and NO PSM (56) reuse the point
        // seeds of PBBF-0.05 at qi = 3 and qi = 6 (see `Sweep::points`);
        // a memo keyed by point seed would hand them PBBF's records.
        let e = Effort::paper();
        let seed = 0x5EED_C011;
        let fig08 = sweep("fig08").unwrap();
        let points = fig08.points(&e, seed);
        let point_seed = |i: usize| match points[i] {
            Point::Ideal { seed, .. } => seed,
            Point::Net { .. } => unreachable!("fig08 sweeps the ideal simulator"),
        };
        for (pbbf, baseline) in [(3, 55), (6, 56)] {
            assert_eq!(point_seed(pbbf), point_seed(baseline));
            let energy = |i: usize| fig08.run_chunk(&e, seed, i, &points[i], 0..1);
            assert_ne!(
                energy(pbbf),
                energy(baseline),
                "points {pbbf} and {baseline}"
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
        // A window wider than RUN_CHUNK would size its result vector
        // from the wire: 0..u32::MAX asks for 64 GiB.
        let mut job = sweep_manifest("fig04", &e, 1).unwrap().shards[0].clone();
        (job.run0, job.run1, job.effort.runs) = (0, u32::MAX, u32::MAX);
        assert!(run_sweep_shard(&job).is_err());
        job.run1 = RUN_CHUNK as u32 + 1;
        assert!(run_sweep_shard(&job).is_err());

        // Efforts that would panic a simulator are refused up front.
        let mut job = sweep_manifest("fig04", &e, 1).unwrap().shards[0].clone();
        job.effort.ideal_grid_side = 0;
        assert!(run_sweep_shard(&job).is_err());
        // A side whose square overflows a NodeId.
        job.effort.ideal_grid_side = 70_000;
        assert!(run_sweep_shard(&job).is_err());
        // Sizes whose runs would not fit the ideal simulator's memory
        // bound: 256 GiB of per-update receptions, or a grid too big
        // for even one update.
        job.effort.ideal_grid_side = 2;
        job.effort.ideal_updates = u32::MAX;
        let err = run_sweep_shard(&job).unwrap_err();
        assert!(err.contains("2 GiB"), "{err}");
        job.effort.ideal_grid_side = pbbf_topology::Grid::MAX_SIDE;
        job.effort.ideal_updates = 1;
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
