//! Loopback-socket tests for the TCP transport: every failure mode a
//! real network adds — torn writes, half-open connections, garbage,
//! slow peers, duplicate replies after reconnect — must end in the
//! exact values a faultless run produces, because results fold by
//! manifest position and shard values are deterministic.
//!
//! The worker side is either the real [`serve_listener`] loop (happy
//! path, telemetry) or a hand-scripted socket server (fault shapes a
//! healthy worker would never produce).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pbbf_fabric::protocol::{result_reply, ShardSpec, WorkerReply};
use pbbf_fabric::{
    serve_listener, CacheTelemetry, ServeOptions, SweepOptions, TcpOptions, TcpWorkerFactory,
};

mod common;

use common::{assert_all_values, exec, expected_values, inputs, sweep_once, MockJob};
use serde_json::Value as Json;

/// Fast transport knobs so fault tests finish in milliseconds.
fn tcp_opts() -> TcpOptions {
    TcpOptions {
        connect_timeout: Duration::from_secs(2),
        read_poll: Duration::from_millis(10),
        max_reconnects: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
    }
}

fn sweep_opts(workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        shard_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        liveness_timeout: Duration::from_secs(2),
        ..SweepOptions::default()
    }
}

fn factory(addr: &str) -> TcpWorkerFactory {
    TcpWorkerFactory {
        hosts: vec![addr.to_string()],
        options: tcp_opts(),
    }
}

/// Binds a loopback listener and runs `server` over it on a thread;
/// returns the address to dial. The thread is deliberately leaked —
/// fault-shaped servers may be blocked in `accept` when the test ends.
fn script_server(server: impl FnOnce(TcpListener) + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || server(listener));
    addr
}

fn read_spec(reader: &mut impl BufRead) -> Option<ShardSpec> {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return None,
            Ok(_) if line.trim().is_empty() => {}
            Ok(_) => return serde_json::from_str(line.trim_end()).ok(),
        }
    }
}

fn write_reply(stream: &mut TcpStream, reply: &WorkerReply) {
    let mut line = serde_json::to_string(reply).expect("render reply");
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

fn valid_reply(spec: &ShardSpec) -> WorkerReply {
    let job: MockJob = serde::from_value(spec.job.clone()).expect("mock job");
    result_reply(spec.id, &expected_values(job.k, job.n))
}

/// A server connection that answers every spec correctly, plus an
/// immediate heartbeat (so liveness stays satisfied without a timer).
fn serve_honestly(stream: TcpStream) {
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    while let Some(spec) = read_spec(&mut reader) {
        write_reply(&mut writer, &valid_reply(&spec));
        write_reply(
            &mut writer,
            &WorkerReply::Heartbeat(CacheTelemetry::default()),
        );
    }
}

#[test]
fn loopback_sweep_completes_and_aggregates_telemetry() {
    // The real worker serve loop: executed shards bump a counter the
    // telemetry closure reports, and the supervisor must fold those
    // heartbeats into SweepStats.
    let execs = Arc::new(AtomicU64::new(0));
    let server_execs = Arc::clone(&execs);
    let addr = script_server(move |listener| {
        let count = Arc::clone(&server_execs);
        let telemetry = move || CacheTelemetry {
            hits: count.load(Ordering::SeqCst),
            misses: 0,
            evictions: 0,
        };
        let count = Arc::clone(&server_execs);
        let exec = move |job: &Json| {
            count.fetch_add(1, Ordering::SeqCst);
            exec(job)
        };
        let options = ServeOptions {
            heartbeat: Duration::from_millis(25),
            once: true,
        };
        let _ = serve_listener(&listener, &options, exec, telemetry);
    });
    let out = sweep_once(inputs(4, 2), &sweep_opts(1), &factory(&addr));
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.workers_spawned, 1);
    assert_eq!(out.stats.hosts_lost, 0);
    assert_eq!(out.stats.reconnects, 0);
    assert_eq!(out.stats.inproc_shards, 0);
    // The very last per-shard heartbeat may still be in flight when the
    // merger completes, so the floor is shards - 1.
    assert!(
        out.stats.cache_hits >= 3,
        "telemetry reached stats: {}",
        out.stats
    );
}

#[test]
fn partial_line_at_disconnect_is_struck_and_retried() {
    // Connection 1 tears mid-reply: half a JSON line, no newline, then
    // close. The fragment must be struck as corrupt, the reconnect must
    // surface as Reset, and the retry (connection 2) settles the shard.
    let addr = script_server(|listener| {
        let (stream, _) = listener.accept().expect("first connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        if read_spec(&mut reader).is_some() {
            let _ = writer.write_all(b"{\"Result\":{\"id\":0,\"val");
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        drop(writer);
        drop(reader);
        let (stream, _) = listener.accept().expect("second connection");
        serve_honestly(stream);
    });
    let out = sweep_once(inputs(3, 2), &sweep_opts(1), &factory(&addr));
    assert_all_values(&out.values, 3, 2);
    assert_eq!(out.stats.corrupt, 1, "the torn fragment was struck");
    assert_eq!(out.stats.reconnects, 1);
    assert_eq!(out.stats.crashes, 0);
    assert_eq!(out.stats.inproc_shards, 0);
}

#[test]
fn half_open_silent_peer_trips_host_liveness() {
    // The server accepts and then says nothing, ever — no heartbeats,
    // no replies, connection held open. That is indistinguishable from
    // a vanished host and must be quarantined by the liveness window,
    // not the (much longer) shard deadline.
    let addr = script_server(|listener| {
        let (stream, _) = listener.accept().expect("connection");
        // Hold the socket open without writing; read so the peer's
        // writes don't block, then park until the test tears us down.
        let mut reader = BufReader::new(stream);
        let mut sink = String::new();
        while let Ok(n) = reader.read_line(&mut sink) {
            if n == 0 {
                return;
            }
        }
    });
    let mut o = sweep_opts(1);
    o.liveness_timeout = Duration::from_millis(100);
    let out = sweep_once(inputs(3, 2), &o, &factory(&addr));
    assert_all_values(&out.values, 3, 2);
    assert_eq!(out.stats.hosts_lost, 1);
    assert_eq!(out.stats.timeouts, 0, "liveness fired, not the deadline");
    assert_eq!(
        out.stats.inproc_shards, 3,
        "the fleet collapsed to in-process"
    );
}

#[test]
fn garbage_mid_stream_is_a_strike_not_a_disconnect() {
    let addr = script_server(|listener| {
        let (stream, _) = listener.accept().expect("connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut first = true;
        while let Some(spec) = read_spec(&mut reader) {
            if std::mem::take(&mut first) {
                let _ = writer.write_all(b"%% line noise, not JSON %%\n");
            }
            write_reply(&mut writer, &valid_reply(&spec));
            write_reply(
                &mut writer,
                &WorkerReply::Heartbeat(CacheTelemetry::default()),
            );
        }
    });
    let out = sweep_once(inputs(4, 2), &sweep_opts(1), &factory(&addr));
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.corrupt, 1);
    assert_eq!(out.stats.reconnects, 0, "the connection itself was fine");
    assert_eq!(out.stats.hosts_lost, 0);
}

#[test]
fn slow_writer_trips_the_shard_deadline_not_liveness() {
    // The wedged-but-alive shape: the worker heartbeats on schedule but
    // never delivers the result. Host liveness must stay quiet (the
    // host IS alive); the per-shard deadline reclaims the work.
    let addr = script_server(|listener| {
        let (stream, _) = listener.accept().expect("connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        if read_spec(&mut reader).is_some() {
            loop {
                write_reply(
                    &mut writer,
                    &WorkerReply::Heartbeat(CacheTelemetry::default()),
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    });
    let mut o = sweep_opts(1);
    o.shard_timeout = Duration::from_millis(150);
    o.liveness_timeout = Duration::from_secs(5);
    let out = sweep_once(inputs(2, 2), &o, &factory(&addr));
    assert_all_values(&out.values, 2, 2);
    assert_eq!(out.stats.timeouts, 1);
    assert_eq!(
        out.stats.hosts_lost, 0,
        "heartbeats kept liveness satisfied"
    );
    assert_eq!(out.stats.quarantined, 1);
}

#[test]
fn duplicate_replies_after_reconnect_fold_once() {
    // Connection 1 answers its shard and then drops. Connection 2
    // re-sends that same reply (the late-duplicate shape) before
    // serving the rest. The merger must fold the value exactly once
    // and the output must not notice any of it.
    let addr = script_server(|listener| {
        let (stream, _) = listener.accept().expect("first connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let first_spec = read_spec(&mut reader).expect("first shard");
        write_reply(&mut writer, &valid_reply(&first_spec));
        let _ = writer.shutdown(std::net::Shutdown::Both);
        drop(writer);
        drop(reader);
        let (stream, _) = listener.accept().expect("second connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        write_reply(&mut writer, &valid_reply(&first_spec)); // duplicate
        while let Some(spec) = read_spec(&mut reader) {
            write_reply(&mut writer, &valid_reply(&spec));
            write_reply(
                &mut writer,
                &WorkerReply::Heartbeat(CacheTelemetry::default()),
            );
        }
    });
    let out = sweep_once(inputs(4, 2), &sweep_opts(1), &factory(&addr));
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.reconnects, 1);
    assert_eq!(out.stats.corrupt, 0, "duplicates are not corruption");
    assert_eq!(out.stats.inproc_shards, 0);
}

#[test]
fn reconnect_preserves_session_telemetry_exactly() {
    // Heartbeats carry per-session totals (deltas from the connection
    // baseline — see docs/PROTOCOL.md §3.3). Connection 1 reports
    // {5,2,1} and drops; connection 2 reports {7,3,0} before every
    // reply. The sweep must report the SUM of both sessions: wiping
    // the first session's counters on reconnect was the historical
    // bug. The second connection's heartbeat precedes each reply, so
    // its counters are always folded in before the sweep settles, and
    // repeating the same totals keeps the sum exact no matter how
    // many shards each connection ends up serving.
    let addr = script_server(|listener| {
        let (stream, _) = listener.accept().expect("first connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        if let Some(spec) = read_spec(&mut reader) {
            write_reply(
                &mut writer,
                &WorkerReply::Heartbeat(CacheTelemetry {
                    hits: 5,
                    misses: 2,
                    evictions: 1,
                }),
            );
            write_reply(&mut writer, &valid_reply(&spec));
        }
        let _ = writer.shutdown(std::net::Shutdown::Both);
        drop(writer);
        drop(reader);
        let (stream, _) = listener.accept().expect("second connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        while let Some(spec) = read_spec(&mut reader) {
            write_reply(
                &mut writer,
                &WorkerReply::Heartbeat(CacheTelemetry {
                    hits: 7,
                    misses: 3,
                    evictions: 0,
                }),
            );
            write_reply(&mut writer, &valid_reply(&spec));
        }
    });
    let out = sweep_once(inputs(3, 2), &sweep_opts(1), &factory(&addr));
    assert_all_values(&out.values, 3, 2);
    assert_eq!(out.stats.reconnects, 1);
    assert_eq!(out.stats.crashes, 0);
    assert_eq!(
        out.stats.cache_hits, 12,
        "both sessions' hits survive the reconnect: {}",
        out.stats
    );
    assert_eq!(out.stats.cache_misses, 5);
    assert_eq!(out.stats.cache_evictions, 1);
}

#[test]
fn unreachable_host_is_a_spawn_failure() {
    // Bind-then-drop yields a port that refuses connections; spawning
    // against it must fail like an unspawnable worker binary, and the
    // sweep must still complete in-process.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        l.local_addr().expect("addr").port()
    };
    let f = TcpWorkerFactory {
        hosts: vec![format!("127.0.0.1:{port}")],
        options: TcpOptions {
            max_reconnects: 0,
            connect_timeout: Duration::from_millis(500),
            ..tcp_opts()
        },
    };
    let out = sweep_once(inputs(3, 2), &sweep_opts(1), &f);
    assert_all_values(&out.values, 3, 2);
    assert_eq!(out.stats.workers_spawned, 0);
    assert_eq!(out.stats.spawn_failures, 1);
    assert_eq!(out.stats.inproc_shards, 3);
}

#[test]
fn killed_listener_exhausts_reconnects_and_reads_as_gone() {
    // The server answers one shard, then the whole process "dies":
    // connection dropped AND listener closed, so every reconnect is
    // refused. The link must report Gone after exhausting its ladder —
    // the exact degradation of a killed subprocess.
    let addr = script_server(|listener| {
        let (stream, _) = listener.accept().expect("connection");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        if let Some(spec) = read_spec(&mut reader) {
            write_reply(&mut writer, &valid_reply(&spec));
        }
        let _ = writer.shutdown(std::net::Shutdown::Both);
        drop(listener); // refuse all reconnects: the "host went down" shape
    });
    let out = sweep_once(inputs(3, 2), &sweep_opts(1), &factory(&addr));
    assert_all_values(&out.values, 3, 2);
    assert_eq!(
        out.stats.crashes, 1,
        "reconnect exhaustion reads as a death"
    );
    assert_eq!(out.stats.inproc_shards, 2, "the rest drained in-process");
}
