//! Fixtures shared by the fabric's integration tests: the mock job, and
//! the one-sweep helpers over [`SweepScheduler::run_queue`].

use pbbf_fabric::{ShardInput, SweepOptions, SweepScheduler, SweepStats, WorkerFactory};
use serde::{Deserialize, Serialize};
use serde_json::Value as Json;

/// The mock job: shard `k` must produce `n` values `k*100 + i`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MockJob {
    pub k: u64,
    pub n: u64,
}

pub fn inputs(shards: u64, runs: u64) -> Vec<ShardInput> {
    (0..shards)
        .map(|k| ShardInput {
            job: serde::to_value(&MockJob { k, n: runs }),
            expect: runs as usize,
        })
        .collect()
}

pub fn expected_values(k: u64, n: u64) -> Vec<Option<f64>> {
    (0..n).map(|i| Some((k * 100 + i) as f64)).collect()
}

pub fn exec(job: &Json) -> Result<Vec<Option<f64>>, String> {
    let job: MockJob = serde::from_value(job.clone()).map_err(|e| e.to_string())?;
    Ok(expected_values(job.k, job.n))
}

pub fn assert_all_values(values: &[Vec<Option<f64>>], shards: u64, runs: u64) {
    assert_eq!(values.len(), shards as usize);
    for (k, vals) in values.iter().enumerate() {
        assert_eq!(vals, &expected_values(k as u64, runs), "shard {k}");
    }
}

/// One settled sweep: shard values in manifest order, plus its stats.
pub struct Outcome {
    pub values: Vec<Vec<Option<f64>>>,
    pub stats: SweepStats,
}

/// Runs `inputs` as a one-sweep queue on `sched`'s resident fleet,
/// collecting every shard's values by manifest position.
pub fn sweep_on(sched: &mut SweepScheduler, inputs: Vec<ShardInput>) -> Outcome {
    let mut slots = vec![None; inputs.len()];
    let stats = sched
        .run_queue(vec![inputs], exec, |_, shard, values| {
            assert!(slots[shard].is_none(), "each shard settles once");
            slots[shard] = Some(values);
        })
        .expect("the mock executor never fails");
    Outcome {
        values: slots.into_iter().map(Option::unwrap).collect(),
        stats: stats[0],
    }
}

/// Runs `inputs` on a fresh fleet sized to the manifest: `opts.workers`
/// clamped to `1..=shards`, and no fleet at all for an empty manifest.
/// The fleet is torn down on return.
pub fn sweep_once(
    inputs: Vec<ShardInput>,
    opts: &SweepOptions,
    factory: &dyn WorkerFactory,
) -> Outcome {
    if inputs.is_empty() {
        return Outcome {
            values: Vec::new(),
            stats: SweepStats::default(),
        };
    }
    let opts = SweepOptions {
        workers: opts.workers.clamp(1, inputs.len()),
        ..opts.clone()
    };
    sweep_on(&mut SweepScheduler::new(opts, factory), inputs)
}
