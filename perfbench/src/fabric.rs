//! The `section5-fabric` workload: the `section5` figure × seed queue on
//! one resident `SweepScheduler` fleet of `pbbf worker` processes — the
//! same wiring as `pbbf sweep --paper --figs fig13,...,fig18`, extended
//! to several seeds.

use std::path::Path;
use std::time::Instant;

use pbbf_experiments::sweep::{assemble_sweep, run_sweep_shard, sweep_manifest, ShardJob};
use pbbf_experiments::{Effort, Output};
use pbbf_fabric::{ProcessWorkerFactory, ShardInput, SweepOptions, SweepScheduler, SweepStats};

use crate::report::{Exhibits, Json};

/// What one fleet run measured.
pub struct FabricRun {
    spawn_s: f64,
    shards: u64,
    settled: u64,
    per_sweep: Vec<SweepStats>,
    gaps_ms: Vec<f64>,
}

/// The in-process fallback executor — `pbbf`'s `exec_shard`.
fn exec_shard(job: &serde::Json) -> Result<Vec<Option<f64>>, String> {
    let shard: ShardJob = serde::from_value(job.clone()).map_err(|e| e.to_string())?;
    run_sweep_shard(&shard)
}

/// Runs every `(seed, figure)` sweep through one fleet and prints the
/// figures in queue order. With `traced`, the sink also timestamps every
/// settled shard; with `setup_only`, the fleet is torn down right after
/// it is up.
///
/// # Errors
///
/// Fails when a worker does not spawn, or when a shard cannot be
/// computed at all (the scheduler's own error).
pub fn run(
    seeds: &[u64],
    effort: &Effort,
    pbbf: &Path,
    traced: bool,
    setup_only: bool,
    exhibits: &mut Exhibits,
) -> Result<FabricRun, String> {
    let figures = pbbf_experiments::sweep::sweepable_figures();
    let mut manifests = Vec::new();
    for &seed in seeds {
        for fig in &figures {
            let m =
                sweep_manifest(fig, effort, seed).ok_or_else(|| format!("{fig} not shardable"))?;
            manifests.push((*fig, m));
        }
    }
    let queue: Vec<Vec<ShardInput>> = manifests
        .iter()
        .map(|(_, m)| {
            m.shards
                .iter()
                .map(|j| ShardInput {
                    job: serde::to_value(j),
                    expect: (j.run1 - j.run0) as usize,
                })
                .collect()
        })
        .collect();
    let shards: usize = queue.iter().map(Vec::len).sum();
    let workers = pbbf_parallel::max_threads().clamp(1, shards.max(1));
    let opts = SweepOptions {
        workers,
        ..SweepOptions::default()
    };
    let factory = ProcessWorkerFactory {
        program: pbbf.to_path_buf(),
        args: vec!["worker".to_string()],
    };

    let t = Instant::now();
    let mut scheduler = SweepScheduler::new(opts, &factory);
    let spawn_s = t.elapsed().as_secs_f64();
    if scheduler.healthy_workers() != workers {
        return Err(format!(
            "only {} of {workers} workers came up",
            scheduler.healthy_workers()
        ));
    }
    crate::ready();
    let mut run = FabricRun {
        spawn_s,
        shards: shards as u64,
        settled: 0,
        per_sweep: Vec::new(),
        gaps_ms: Vec::new(),
    };
    if setup_only {
        return Ok(run);
    }

    let mut slots: Vec<Vec<Option<Vec<Option<f64>>>>> = queue
        .iter()
        .map(|sweep| (0..sweep.len()).map(|_| None).collect())
        .collect();
    let mut last = Instant::now();
    run.per_sweep = scheduler.run_queue(queue, exec_shard, |sweep, shard, values| {
        if traced {
            let now = Instant::now();
            run.gaps_ms.push(1e3 * (now - last).as_secs_f64());
            last = now;
        }
        run.settled += 1;
        slots[sweep][shard] = Some(values);
    })?;

    for (i, (fig, manifest)) in manifests.iter().enumerate() {
        let values = std::mem::take(&mut slots[i])
            .into_iter()
            .map(|s| s.ok_or_else(|| format!("{fig}: a shard never settled")))
            .collect::<Result<Vec<_>, String>>()?;
        let t = Instant::now();
        let out = Output::Figure(assemble_sweep(manifest, values));
        let run_s = t.elapsed().as_secs_f64();
        exhibits.emit(fig, manifest.seed, "section5", run_s, &out);
    }
    Ok(run)
}

impl FabricRun {
    /// Writes the fleet's measurements.
    pub fn report(&self, meta: &mut Json) {
        let sum = |field: fn(&SweepStats) -> u64| self.per_sweep.iter().map(field).sum::<u64>();
        // Spawn failures are fleet-wide: every sweep's stats repeat them.
        let spawn_failures = self
            .per_sweep
            .first()
            .map_or(0, |s| s.spawn_failures as u64);
        meta.num("fabric_spawn_s", self.spawn_s);
        meta.int("fabric_shards", self.shards);
        meta.int("fabric_settled", self.settled);
        meta.int("fabric_retries", sum(|s| s.retries));
        meta.int("fabric_inproc_shards", sum(|s| s.inproc_shards));
        meta.int(
            "fabric_faults",
            spawn_failures
                + sum(|s| {
                    s.crashes + s.timeouts + s.corrupt + s.refused + s.quarantined + s.hosts_lost
                }),
        );
        meta.int("fabric_cache_hits", sum(|s| s.cache_hits));
        meta.int("fabric_cache_misses", sum(|s| s.cache_misses));
        meta.nums("fabric_gaps_ms", &self.gaps_ms);
    }
}
