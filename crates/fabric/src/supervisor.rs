//! Worker-fleet contracts: worker events, links, factories, options,
//! and stats.
//!
//! The [`SweepScheduler`](crate::scheduler::SweepScheduler) drives a
//! fixed fleet of workers (spawned once through a [`WorkerFactory`];
//! the fleet only ever shrinks) over queues of opaque shards. The
//! failure policy, in one paragraph: a shard that crashes its worker,
//! overruns its wall-clock deadline, or comes back corrupt (bad parse,
//! wrong length, checksum mismatch) is retried on a healthy worker
//! after bounded exponential backoff; a worker that repeatedly produces
//! corrupt output — or hangs — is quarantined (killed, never
//! respawned); a shard that exhausts its delivery attempts is executed
//! in-process, as is the whole remaining queue when no healthy workers
//! are left (including the spawn-failed-entirely case). Results are
//! handed over tagged with their manifest position and fold by it, so
//! none of this scheduling is visible in the output: the sweep's bytes
//! match the single-process fold exactly.
//!
//! Late replies are welcome: a result arriving from a worker that was
//! already written off still settles its shard (shard values are
//! deterministic, so *any* structurally valid copy is the right copy),
//! and the retry's duplicate is dropped.

use std::io::Write as _;
use std::sync::mpsc::Sender;
use std::time::Duration;

use serde_json::Value as Json;

/// What a worker's reader pump delivers to the supervisor.
#[derive(Debug)]
pub enum WorkerEvent {
    /// One output line from the worker.
    Line {
        /// The worker's id.
        worker: u64,
        /// The raw line (unparsed; the supervisor validates it).
        line: String,
    },
    /// The worker's output channel closed for good — it exited or was
    /// killed.
    Gone {
        /// The worker's id.
        worker: u64,
    },
}

/// The supervisor's handle on one worker.
pub trait WorkerLink {
    /// Delivers one shard-spec line to the worker.
    ///
    /// # Errors
    ///
    /// Any I/O error means the worker is unreachable; the supervisor
    /// writes it off.
    fn send_line(&mut self, line: &str) -> std::io::Result<()>;

    /// Forcibly terminates the worker. Idempotent.
    fn kill(&mut self);
}

/// Spawns workers. Abstracted so the retry/quarantine machinery is
/// testable with in-process mock workers (no subprocess flakiness).
pub trait WorkerFactory {
    /// Spawns worker `worker` (unique id) and wires its output to
    /// `events`. The returned link must deliver a
    /// [`WorkerEvent::Gone`] when the worker stops producing output.
    ///
    /// # Errors
    ///
    /// A spawn failure is not fatal to the sweep — the supervisor
    /// degrades to whatever fleet it got, down to none (in-process).
    fn spawn(
        &self,
        slot: usize,
        worker: u64,
        events: Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerLink>>;
}

/// Spawns `program args...` per worker with piped stdin/stdout; a
/// reader thread pumps stdout lines into the event channel. Stderr is
/// inherited so worker diagnostics reach the operator unfiltered.
pub struct ProcessWorkerFactory {
    /// Worker executable.
    pub program: std::path::PathBuf,
    /// Arguments passed to every worker.
    pub args: Vec<String>,
}

impl ProcessWorkerFactory {
    /// A factory re-invoking this very binary with `args` (the `pbbf
    /// sweep` → `pbbf worker` shape).
    ///
    /// # Errors
    ///
    /// Fails when the current executable's path can't be determined.
    pub fn current_exe<I, S>(args: I) -> std::io::Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Ok(Self {
            program: std::env::current_exe()?,
            args: args.into_iter().map(Into::into).collect(),
        })
    }
}

struct ProcessLink {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
}

impl WorkerLink for ProcessLink {
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::other("worker stdin closed"))?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    fn kill(&mut self) {
        self.stdin.take(); // EOF first: a healthy worker exits on its own
        let _ = self.child.kill();
        let _ = self.child.wait(); // reap; SIGKILL makes this prompt
    }
}

impl Drop for ProcessLink {
    fn drop(&mut self) {
        self.kill();
    }
}

impl WorkerFactory for ProcessWorkerFactory {
    fn spawn(
        &self,
        _slot: usize,
        worker: u64,
        events: Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerLink>> {
        let mut child = std::process::Command::new(&self.program)
            .args(&self.args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        std::thread::spawn(move || {
            use std::io::BufRead;
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if events.send(WorkerEvent::Line { worker, line }).is_err() {
                    return; // supervisor gone; nothing to report to
                }
            }
            let _ = events.send(WorkerEvent::Gone { worker });
        });
        Ok(Box::new(ProcessLink {
            child,
            stdin: Some(stdin),
        }))
    }
}

/// One shard of work for the [`SweepScheduler`](crate::scheduler::SweepScheduler).
#[derive(Debug, Clone)]
pub struct ShardInput {
    /// Opaque job payload, forwarded to workers verbatim.
    pub job: Json,
    /// Number of values the shard must produce.
    pub expect: usize,
}

/// Failure-policy knobs.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Fleet size to spawn (min 1).
    pub workers: usize,
    /// Per-shard wall-clock deadline; an overrun quarantines the
    /// worker and retries the shard.
    pub shard_timeout: Duration,
    /// First retry delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Retry delay ceiling.
    pub backoff_cap: Duration,
    /// Worker deliveries per shard before it runs in-process.
    pub max_shard_attempts: u32,
    /// Corrupt replies tolerated per worker before quarantine.
    pub max_worker_strikes: u32,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            workers: pbbf_parallel::max_threads(),
            shard_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_shard_attempts: 4,
            max_worker_strikes: 2,
        }
    }
}

/// What happened along the way (stderr-reporting material; none of it
/// can influence the output values).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Workers successfully spawned.
    pub workers_spawned: usize,
    /// Workers that failed to spawn.
    pub spawn_failures: usize,
    /// Shard deliveries beyond each shard's first.
    pub retries: u64,
    /// Shards whose worker died mid-flight.
    pub crashes: u64,
    /// Shards that overran the wall-clock deadline.
    pub timeouts: u64,
    /// Structurally invalid replies (parse, length, or checksum).
    pub corrupt: u64,
    /// Shards the worker refused as malformed.
    pub refused: u64,
    /// Workers killed for hanging or repeated corruption.
    pub quarantined: u64,
    /// Shards executed in-process (attempt exhaustion or no fleet).
    pub inproc_shards: u64,
    /// Always 0: every worker is a local subprocess, so no host can be
    /// lost. Kept only because the end-to-end benchmark still sums it;
    /// it goes with the next change to the benchmark.
    pub hosts_lost: u64,
    /// Deployment-cache hits summed over the workers' latest
    /// heartbeats.
    pub cache_hits: u64,
    /// Deployment-cache misses summed over worker heartbeat telemetry.
    pub cache_misses: u64,
    /// Deployment-cache evictions summed over worker telemetry.
    pub cache_evictions: u64,
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers {} (+{} spawn failures), retries {}, crashes {}, \
             timeouts {}, corrupt {}, refused {}, quarantined {}, in-process shards {}, \
             hosts lost {}, deploy cache {}/{} hit/miss (+{} evicted)",
            self.workers_spawned,
            self.spawn_failures,
            self.retries,
            self.crashes,
            self.timeouts,
            self.corrupt,
            self.refused,
            self.quarantined,
            self.inproc_shards,
            self.hosts_lost,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions
        )
    }
}
