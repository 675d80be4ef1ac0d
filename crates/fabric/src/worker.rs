//! The worker side of the fabric: a stdin→stdout shard executor.
//!
//! `pbbf worker` calls [`worker_loop_with`] with an executor closure
//! and a deployment-cache telemetry source; the loop reads one
//! [`ShardSpec`](crate::protocol::ShardSpec) JSON line at a time,
//! executes it, and writes one
//! [`WorkerReply`](crate::protocol::WorkerReply) line back, flushed per
//! shard so the supervisor sees results the moment they exist. EOF on
//! stdin is the shutdown signal — the supervisor just closes the pipe.
//!
//! Fault injection (`PBBF_FAULT`, parsed by
//! [`FaultPlan::from_env`](crate::fault::FaultPlan::from_env)) is
//! honored here, never by the supervisor.

use std::io::{BufRead, Write};

use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{
    checksum, encode_values, result_reply, CacheTelemetry, ShardError, ShardSpec, WorkerReply,
};
use serde_json::Value as Json;

/// Builds the fallback `Error` line through the JSON encoder itself —
/// hand-formatting it would emit an invalid line the moment the error
/// message contains a quote, backslash, or control character, and an
/// invalid line costs the worker a corruption strike.
fn render_fallback_error(shard_id: u32, msg: &str) -> String {
    let error = Json::Obj(vec![
        ("id".into(), Json::U64(u64::from(shard_id))),
        ("error".into(), Json::Str(format!("render: {msg}"))),
    ]);
    serde_json::to_string(&Json::Obj(vec![("Error".into(), error)]))
        .expect("rendering a literal Json value cannot fail")
}

/// Runs the worker loop over this process's stdin/stdout until EOF,
/// returning the process exit code.
///
/// `exec` maps an opaque job payload to its per-run values; an `Err`
/// is reported to the supervisor as a refused shard (the worker stays
/// alive). A stdin line that doesn't parse as a [`ShardSpec`] is
/// unrecoverable — the worker can't even name the shard to refuse it —
/// so the loop exits nonzero and lets the supervisor's crash handling
/// reassign whatever was in flight.
///
/// After every reply the worker also writes a
/// [`WorkerReply::Heartbeat`] line carrying `telemetry()`'s counters as
/// a delta from loop start, so the supervisor's `SweepStats` can
/// aggregate deployment-cache behavior across the fleet.
pub fn worker_loop_with<E, T>(exec: E, telemetry: T) -> i32
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
    T: Fn() -> CacheTelemetry,
{
    let plan = FaultPlan::from_env();
    serve(
        &plan,
        std::io::stdin().lock(),
        std::io::stdout().lock(),
        &exec,
        &telemetry,
    )
}

/// The body of [`worker_loop_with`] over any line source and sink, so
/// tests can drive it without a process boundary. An injected hang
/// sleeps right here, forever: only the supervisor's per-shard
/// deadline ends it.
fn serve<E, T>(
    plan: &FaultPlan,
    input: impl BufRead,
    mut out: impl Write,
    exec: &E,
    telemetry: &T,
) -> i32
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
    T: Fn() -> CacheTelemetry,
{
    let baseline = telemetry();
    for line in input.lines() {
        let Ok(line) = line else { return 1 };
        if line.trim().is_empty() {
            continue;
        }
        let spec: ShardSpec = match serde_json::from_str(&line) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("pbbf worker: unparseable shard spec ({e}); exiting");
                return 1;
            }
        };
        let reply = match plan.fault_for(spec.id, spec.attempt) {
            Some(FaultKind::Crash) => {
                eprintln!("pbbf worker: injected crash on shard {}", spec.id);
                return 3;
            }
            Some(FaultKind::Hang) => {
                eprintln!("pbbf worker: injected hang on shard {}", spec.id);
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            Some(FaultKind::Corrupt) => {
                eprintln!("pbbf worker: injected corruption on shard {}", spec.id);
                corrupt_reply(&spec, exec)
            }
            None => match exec(&spec.job) {
                Ok(values) => result_reply(spec.id, &values),
                Err(error) => WorkerReply::Error(ShardError { id: spec.id, error }),
            },
        };
        let beat = WorkerReply::Heartbeat(telemetry().saturating_sub(baseline));
        let render = |reply: &WorkerReply| {
            serde_json::to_string(reply)
                .unwrap_or_else(|e| render_fallback_error(spec.id, &e.to_string()))
        };
        // Both lines in one write, so the pair reaches the pipe together.
        let lines = format!("{}\n{}", render(&reply), render(&beat));
        if writeln!(out, "{lines}").and_then(|()| out.flush()).is_err() {
            return 1; // supervisor hung up
        }
    }
    0
}

/// Executes the shard for real, then flips one value bit while keeping
/// the checksum computed over the *uncorrupted* values — exactly the
/// torn-write shape the supervisor's checksum validation must catch.
/// (With no `Some` value to flip, the checksum itself is perturbed.)
fn corrupt_reply<E>(spec: &ShardSpec, exec: &E) -> WorkerReply
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
{
    let values = exec(&spec.job).unwrap_or_default();
    let mut bits = encode_values(&values);
    let stale = checksum(spec.id, &bits);
    match bits.iter_mut().find_map(|b| b.as_mut()) {
        Some(word) => *word ^= 1,
        None => bits.push(Some(0)),
    }
    WorkerReply::Result(crate::protocol::ShardResult {
        id: spec.id,
        values: bits,
        checksum: stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32) -> ShardSpec {
        ShardSpec {
            id,
            attempt: 0,
            expect: 2,
            job: Json::Null,
        }
    }

    #[test]
    fn corruption_fails_checksum_validation() {
        let exec = |_: &Json| Ok(vec![Some(1.5), None]);
        let WorkerReply::Result(r) = corrupt_reply(&spec(9), &exec) else {
            panic!("corrupt replies are Results");
        };
        assert_ne!(checksum(r.id, &r.values), r.checksum);
    }

    #[test]
    fn corruption_with_no_samples_still_trips() {
        let exec = |_: &Json| Ok(vec![None, None]);
        let WorkerReply::Result(r) = corrupt_reply(&spec(2), &exec) else {
            panic!("corrupt replies are Results");
        };
        assert_ne!(checksum(r.id, &r.values), r.checksum);
    }

    /// Runs [`serve`] over `specs` (one per line) with a fixed
    /// telemetry source; returns the exit code and the reply lines.
    fn serve_specs(plan: &str, specs: &[ShardSpec]) -> (i32, Vec<WorkerReply>) {
        let input: String = specs
            .iter()
            .map(|s| serde_json::to_string(s).unwrap() + "\n")
            .collect();
        let exec = |_: &Json| Ok(vec![Some(1.0), None]);
        let telemetry = || CacheTelemetry {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        let mut out = Vec::new();
        let code = serve(
            &FaultPlan::parse(plan),
            input.as_bytes(),
            &mut out,
            &exec,
            &telemetry,
        );
        let replies = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line is a WorkerReply"))
            .collect();
        (code, replies)
    }

    #[test]
    fn clean_spec_gets_its_result_then_a_heartbeat() {
        let (code, replies) = serve_specs("", &[spec(4)]);
        assert_eq!(code, 0, "EOF ends the loop cleanly");
        assert_eq!(
            replies,
            [
                result_reply(4, &[Some(1.0), None]),
                // A constant counter source: the delta from loop start is 0.
                WorkerReply::Heartbeat(CacheTelemetry::default()),
            ]
        );
    }

    #[test]
    fn crash_fault_exits_before_replying() {
        let (code, replies) = serve_specs("crash:4", &[spec(4), spec(5)]);
        assert_eq!(code, 3);
        assert!(replies.is_empty(), "{replies:?}");
    }

    #[test]
    fn fallback_error_line_survives_hostile_messages() {
        // Quotes, backslashes, newlines, tabs: everything that would
        // break a hand-interpolated JSON literal. The line must parse
        // back as a WorkerReply naming the right shard.
        let msg = "disk \"full\" at C:\\tmp\nline2\tend";
        let line = render_fallback_error(7, msg);
        let reply: WorkerReply =
            serde_json::from_str(&line).expect("fallback error line must be valid JSON");
        let WorkerReply::Error(e) = reply else {
            panic!("fallback renders an Error reply, got {reply:?}");
        };
        assert_eq!(e.id, 7);
        assert_eq!(e.error, format!("render: {msg}"));
    }
}
