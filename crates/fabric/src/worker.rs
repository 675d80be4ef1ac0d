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
//! The socket-transport worker (`pbbf worker --listen`, see
//! [`crate::tcp::serve_listener`]) speaks the identical line protocol
//! over a TCP connection and shares the per-spec execution logic here
//! ([`SpecOutcome`] via `outcome_for_spec`).
//!
//! Fault injection (`PBBF_FAULT`, parsed by
//! [`FaultPlan::from_env`](crate::fault::FaultPlan::from_env)) is
//! honored by both worker transports, never by the supervisor.

use std::io::{BufRead, Write};

use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{
    checksum, encode_values, result_reply, CacheTelemetry, ShardError, ShardSpec, WorkerReply,
};
use serde_json::Value as Json;

/// What executing one spec (fault plan applied) amounts to.
pub(crate) enum SpecOutcome {
    /// A reply line to send back.
    Reply(WorkerReply),
    /// Injected crash: the worker process must exit with this code.
    Crash(i32),
}

/// Executes one spec under the fault plan. An injected hang sleeps
/// right here, forever — in socket mode the heartbeat thread keeps
/// beating, which is exactly the "host alive, shard wedged" shape the
/// supervisor's per-shard deadline (not host liveness) must catch.
pub(crate) fn outcome_for_spec<E>(plan: &FaultPlan, spec: &ShardSpec, exec: &E) -> SpecOutcome
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
{
    match plan.fault_for(spec.id, spec.attempt) {
        Some(FaultKind::Crash) => {
            eprintln!("pbbf worker: injected crash on shard {}", spec.id);
            SpecOutcome::Crash(3)
        }
        Some(FaultKind::Hang) => {
            eprintln!("pbbf worker: injected hang on shard {}", spec.id);
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Some(FaultKind::Corrupt) => {
            eprintln!("pbbf worker: injected corruption on shard {}", spec.id);
            SpecOutcome::Reply(corrupt_reply(spec, exec))
        }
        None => SpecOutcome::Reply(match exec(&spec.job) {
            Ok(values) => result_reply(spec.id, &values),
            Err(error) => WorkerReply::Error(ShardError { id: spec.id, error }),
        }),
    }
}

/// Renders a reply to its wire line.
pub(crate) fn render_reply(reply: &WorkerReply, shard_id: u32) -> String {
    serde_json::to_string(reply).unwrap_or_else(|e| render_fallback_error(shard_id, &e.to_string()))
}

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
/// so the loop exits nonzero and lets the supervisor's liveness
/// handling reassign whatever was in flight.
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
    let baseline = telemetry();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
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
        let reply = match outcome_for_spec(&plan, &spec, &exec) {
            SpecOutcome::Reply(reply) => reply,
            SpecOutcome::Crash(code) => return code,
        };
        let mut rendered = render_reply(&reply, spec.id);
        let beat = WorkerReply::Heartbeat(telemetry().saturating_sub(baseline));
        rendered.push('\n');
        rendered.push_str(&render_reply(&beat, spec.id));
        if writeln!(out, "{rendered}")
            .and_then(|()| out.flush())
            .is_err()
        {
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

    #[test]
    fn outcome_for_clean_spec_is_the_result_reply() {
        let exec = |_: &Json| Ok(vec![Some(1.0), None]);
        let SpecOutcome::Reply(reply) = outcome_for_spec(&FaultPlan::parse(""), &spec(4), &exec)
        else {
            panic!("no fault planned");
        };
        assert_eq!(reply, result_reply(4, &[Some(1.0), None]));
    }

    #[test]
    fn outcome_for_crash_fault_asks_for_exit() {
        let exec = |_: &Json| Ok(vec![]);
        let plan = FaultPlan::parse("crash:4");
        assert!(matches!(
            outcome_for_spec(&plan, &spec(4), &exec),
            SpecOutcome::Crash(3)
        ));
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
