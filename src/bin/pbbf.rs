//! `pbbf` — command-line front end to the reproduction.
//!
//! ```text
//! pbbf analyze   --p 0.5 --q 0.5            closed-form Eqs. 7-9 for one point
//! pbbf boundary  --grid 30 --reliability 0.99   percolation threshold + q(p)
//! pbbf ideal     --grid 25 --p 0.5 --q 0.5      run the Section-4 simulator
//! pbbf net       --p 0.25 --q 0.25 --delta 10   run the Section-5 simulator
//! pbbf reproduce [--paper] [fig13 ...]          regenerate paper exhibits
//! pbbf sweep     --workers 4 [fig04 ...]        multi-process figure sweep
//! pbbf sweep     --figs fig13,fig17 [...]       several figures, ONE fleet
//! pbbf worker                                   (internal) sweep shard executor
//! ```
//!
//! `sweep` shards a figure's Monte Carlo runs across `worker` child
//! processes through the fault-tolerant fabric (`pbbf-fabric`). All
//! requested figures run through a single *resident* fleet (one
//! `SweepScheduler` queue), so workers keep their deployment caches
//! warm from figure to figure; the stdout is byte-identical to
//! `reproduce` of the same figures in the same order, which CI enforces
//! under injected worker faults and kill -9'd workers (see
//! `docs/OPERATIONS.md`). Argument parsing is
//! deliberately dependency-free (the offline crate budget is spent on
//! simulation, not flag handling), but strict: every command declares
//! its flag set and rejects strays instead of silently defaulting.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use pbbf::prelude::*;
use pbbf_experiments::sweep::{
    assemble_sweep, run_sweep_shard, shardable_figures, sweep_manifest, sweepable_figures, ShardJob,
};
use pbbf_fabric::{CacheTelemetry, ProcessWorkerFactory, ShardInput, SweepOptions, SweepScheduler};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(rest),
        "boundary" => cmd_boundary(rest),
        "ideal" => cmd_ideal(rest),
        "net" => cmd_net(rest),
        "reproduce" => cmd_reproduce(rest),
        "sweep" => cmd_sweep(rest),
        "worker" => cmd_worker(rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `pbbf help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "pbbf — PBBF (ICDCS 2005) reproduction toolkit\n\n\
         USAGE:\n  pbbf <command> [flags]\n\n\
         COMMANDS:\n\
         \x20 analyze    --p <f> --q <f>                      closed-form energy/latency/reliability\n\
         \x20 boundary   --grid <n> --reliability <f> [--runs <n>] [--seed <n>]\n\
         \x20 ideal      --grid <n> --p <f> --q <f> [--updates <n>] [--seed <n>]\n\
         \x20 net        --p <f> --q <f> [--delta <f>] [--duration <s>] [--seed <n>]\n\
         \x20 reproduce  [--paper] [--plot] [--seed <n>] [table1 fig04 ... fig18]\n\
         \x20 sweep      [--paper] [--seed <n>] [--workers <n>] [--figs fig13,fig17,...]\n\
         \x20            [--shard-timeout <s>] [fig04 ... fig18]\n\
         \x20                                     sweep figures fig04-fig11, fig13-fig18\n\
         \x20                                     (default fig13-fig18; one resident fleet)\n\
         \x20 worker     executes sweep shards from stdin (internal)\n\
         \x20 help\n\n\
         Wire protocol spec: docs/PROTOCOL.md; sweep ops guide: docs/OPERATIONS.md"
    );
}

/// One flag a command accepts: its `--name` and whether it consumes a
/// value (`--seed 7`) or stands alone (`--paper`).
#[derive(Clone, Copy)]
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
}

const fn val(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

const fn bare(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

/// Parses `--key value` flags plus bare positionals, rejecting any
/// flag the command did not declare — a stray `--worker 4` must fail
/// loudly, not silently run with defaults.
fn parse(
    args: &[String],
    allowed: &[FlagSpec],
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let Some(spec) = allowed.iter().find(|f| f.name == key) else {
                if allowed.is_empty() {
                    return Err(format!(
                        "unknown flag --{key} (this command takes no flags)"
                    ));
                }
                let names: Vec<String> = allowed.iter().map(|f| format!("--{}", f.name)).collect();
                return Err(format!(
                    "unknown flag --{key} (this command accepts: {})",
                    names.join(", ")
                ));
            };
            if spec.takes_value {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
            } else {
                flags.insert(key.to_string(), "true".to_string());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn get_f64(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<f64>,
) -> Result<f64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        None => default.ok_or_else(|| format!("missing required flag --{key}")),
    }
}

fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer `{v}`")),
        None => Ok(default),
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args, &[val("p"), val("q")])?;
    let p = get_f64(&flags, "p", None)?;
    let q = get_f64(&flags, "q", None)?;
    let params = PbbfParams::new(p, q).map_err(|e| e.to_string())?;
    let a = AnalysisParams::table1();
    let pt = analysis::analyze(&a, params);
    let mut t = Table::new(["Quantity", "Value", "Source"]);
    t.row([
        "p_edge = 1 - p(1-q)".to_string(),
        format!("{:.4}", pt.edge_probability),
        "Remark 1".to_string(),
    ]);
    t.row([
        "relative energy".to_string(),
        format!("{:.4}", pt.relative_energy),
        "Eq. 7".to_string(),
    ]);
    t.row([
        "energy increase over PSM".to_string(),
        format!("{:.3}x", pt.energy_increase),
        "Eq. 8".to_string(),
    ]);
    t.row([
        "expected link latency".to_string(),
        format!("{:.3} s", pt.link_latency),
        "Eq. 9".to_string(),
    ]);
    t.row([
        "joules per update".to_string(),
        format!("{:.4} J", pt.joules_per_update),
        "Table 1 power".to_string(),
    ]);
    print!("{}", t.render());
    Ok(())
}

fn cmd_boundary(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(
        args,
        &[val("grid"), val("reliability"), val("runs"), val("seed")],
    )?;
    let grid = get_count(&flags, "grid", 30, 2, Grid::MAX_SIDE)?;
    let reliability = get_reliability(&flags, "reliability", 0.99)?;
    let runs = get_count(&flags, "runs", 150, 1, u32::MAX)?;
    let seed = get_u64(&flags, "seed", 2005)?;
    check_boundary_memory(grid, runs)?;
    let g = Grid::square(grid);
    let ps: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
    let (critical, boundary) = pq_boundary(
        g.topology(),
        g.center(),
        reliability,
        &ps,
        runs,
        &SimRng::new(seed),
    );
    println!(
        "{grid}x{grid} grid, {:.0}% reliability: critical p_edge = {critical:.4}\n",
        reliability * 100.0
    );
    let mut t = Table::new(["p", "q_min"]);
    for (p, q) in boundary {
        t.row([format!("{p:.2}"), format!("{q:.4}")]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Refuses a `boundary` run whose working set would exceed 2 GiB, the
/// bound [`IdealConfig::check_memory`] puts on the ideal sim, before
/// anything is allocated. A node holds its position, its lattice
/// adjacency, its two bonds (kept by the grid and by the Newman–Ziff
/// driver), and the shuffled bond order and union-find of each sweep
/// in flight: about 85 bytes of peak RSS with two sweeps in flight on
/// 1000² and 2000² grids, so 128 bytes leaves room for more threads.
/// Each run holds about 32 bytes of fan-out bookkeeping.
fn check_boundary_memory(side: u32, runs: u32) -> Result<(), String> {
    const MAX_BYTES: u128 = 2 << 30;
    let bytes = 128 * u128::from(side).pow(2) + 32 * u128::from(runs);
    if bytes > MAX_BYTES {
        return Err(format!(
            "a {side}x{side} percolation grid with {runs} runs needs about {bytes} bytes, \
             above the {MAX_BYTES} byte (2 GiB) bound"
        ));
    }
    Ok(())
}

fn cmd_ideal(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(
        args,
        &[val("grid"), val("p"), val("q"), val("updates"), val("seed")],
    )?;
    let grid = get_count(&flags, "grid", 25, 1, Grid::MAX_SIDE)?;
    let p = get_f64(&flags, "p", None)?;
    let q = get_f64(&flags, "q", None)?;
    let updates = get_count(&flags, "updates", 5, 1, u32::MAX)?;
    let seed = get_u64(&flags, "seed", 2005)?;
    let params = PbbfParams::new(p, q).map_err(|e| e.to_string())?;
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = grid;
    cfg.updates = updates;
    cfg.check_memory()?;
    let stats = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(seed);
    let mut t = Table::new(["Metric", "Value"]);
    t.row([
        "delivered fraction".to_string(),
        format!("{:.4}", stats.mean_delivered_fraction()),
    ]);
    t.row([
        "joules/update/node".to_string(),
        format!("{:.4}", stats.mean_energy_per_update()),
    ]);
    t.row([
        "per-hop latency".to_string(),
        stats
            .mean_per_hop_latency()
            .map_or("n/a".to_string(), |l| format!("{l:.3} s")),
    ]);
    t.row([
        "transmissions/update".to_string(),
        format!("{:.1}", stats.mean_total_tx()),
    ]);
    print!("{}", t.render());
    Ok(())
}

fn cmd_net(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(
        args,
        &[
            val("p"),
            val("q"),
            val("delta"),
            val("duration"),
            val("seed"),
        ],
    )?;
    let p = get_f64(&flags, "p", None)?;
    let q = get_f64(&flags, "q", None)?;
    let delta = get_positive(&flags, "delta", 10.0)?;
    let duration = get_sim_secs(&flags, "duration", 500.0)?;
    let seed = get_u64(&flags, "seed", 2005)?;
    let params = PbbfParams::new(p, q).map_err(|e| e.to_string())?;
    let mut cfg = NetConfig::table2();
    cfg.delta = delta;
    cfg.duration_secs = duration;
    let stats = run_net(cfg, NetMode::SleepScheduled(params), seed)?;
    let mut t = Table::new(["Metric", "Value"]);
    t.row([
        "updates generated".to_string(),
        format!("{}", stats.updates_generated()),
    ]);
    t.row([
        "delivery ratio".to_string(),
        format!("{:.4}", stats.mean_delivery_ratio()),
    ]);
    t.row([
        "joules/update/node".to_string(),
        format!("{:.4}", stats.energy_per_update()),
    ]);
    for hops in [2u32, 5] {
        t.row([
            format!("{hops}-hop latency"),
            stats
                .mean_latency_at_hops(hops)
                .map_or("n/a".to_string(), |l| format!("{l:.2} s")),
        ]);
    }
    t.row([
        "data tx (immediate)".to_string(),
        format!("{} ({})", stats.data_tx, stats.immediate_tx),
    ]);
    t.row(["collisions".to_string(), format!("{}", stats.collisions)]);
    print!("{}", t.render());
    Ok(())
}

/// [`NetSim::run`], with a failed connected-deployment draw reported as
/// an error instead of a panic.
fn run_net(cfg: NetConfig, mode: NetMode, seed: u64) -> Result<NetRunStats, String> {
    let deployment = NetSim::draw_deployment(&cfg, seed).ok_or_else(|| {
        format!(
            "no connected deployment of {} nodes at delta {} within {} attempts; raise --delta",
            cfg.nodes, cfg.delta, cfg.max_deploy_attempts
        )
    })?;
    Ok(NetSim::new(cfg, mode).run_on(seed, &deployment))
}

fn cmd_reproduce(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse(args, &[bare("paper"), bare("plot"), val("seed")])?;
    let effort = if flags.contains_key("paper") {
        Effort::paper()
    } else {
        Effort::quick()
    };
    let seed = get_u64(&flags, "seed", 2005)?;
    let plot = flags.contains_key("plot");
    let mut any = false;
    for exp in Experiment::all() {
        if !positional.is_empty() && !positional.iter().any(|p| p == exp.id()) {
            continue;
        }
        any = true;
        let out = exp.run(&effort, seed);
        match (&out, plot) {
            (Output::Figure(f), true) => println!("{}", f.render_ascii_plot(64, 20)),
            _ => println!("{}", out.render_text()),
        }
    }
    if !any {
        return Err(format!("no exhibit matched {positional:?}"));
    }
    Ok(())
}

/// Executes one sweep shard: decode the opaque fabric job back into a
/// [`ShardJob`] and run it. Shared verbatim by the worker loop and the
/// supervisor's in-process fallback, so both paths compute identical
/// bits by construction.
fn exec_shard(job: &serde_json::Value) -> Result<Vec<Option<f64>>, String> {
    let shard: ShardJob = serde::from_value(job.clone()).map_err(|e| e.to_string())?;
    run_sweep_shard(&shard)
}

/// Deployment-cache counters for worker heartbeat telemetry.
fn cache_telemetry() -> CacheTelemetry {
    let s = DeploymentCache::global().stats();
    CacheTelemetry {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
    }
}

/// Splits `--figs fig13,fig17` into figure ids, rejecting empty
/// entries — a stray comma means a typo'd figure, not a request for
/// nothing.
fn parse_figs(spec: &str) -> Result<Vec<String>, String> {
    let mut figs = Vec::new();
    for raw in spec.split(',') {
        let fig = raw.trim();
        if fig.is_empty() {
            return Err(format!(
                "--figs: empty entry in `{spec}` (expected fig13,fig17,...)"
            ));
        }
        figs.push(fig.to_string());
    }
    Ok(figs)
}

/// Parses a `--flag` holding a duration in seconds, requiring it to be
/// finite, strictly positive and representable as a [`Duration`].
fn get_secs(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<Duration, String> {
    let secs = get_positive(flags, key, default)?;
    Duration::try_from_secs_f64(secs).map_err(|_| format!("--{key}: {secs} s is too long"))
}

/// Parses a flag holding a finite, strictly positive real.
fn get_positive(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    let x = get_f64(flags, key, Some(default))?;
    if !x.is_finite() || x <= 0.0 {
        return Err(format!("--{key}: must be a positive number, got `{x}`"));
    }
    Ok(x)
}

/// Parses a flag holding a simulated horizon in seconds: positive,
/// finite, and at most half of [`SimTime`]'s range, which leaves room
/// for the events a run schedules past its horizon.
fn get_sim_secs(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    let secs = get_positive(flags, key, default)?;
    let max = SimTime::MAX.as_secs() / 2.0;
    if secs > max {
        return Err(format!(
            "--{key}: {secs} s exceeds the {max:.0} s simulation horizon"
        ));
    }
    Ok(secs)
}

/// Parses a count flag (`--runs`, `--updates`, `--grid`) that must lie
/// in `min..=max`.
fn get_count(
    flags: &HashMap<String, String>,
    key: &str,
    default: u32,
    min: u32,
    max: u32,
) -> Result<u32, String> {
    let n = get_u64(flags, key, u64::from(default))?;
    u32::try_from(n)
        .ok()
        .filter(|n| (min..=max).contains(n))
        .ok_or_else(|| format!("--{key}: must be an integer from {min} to {max}"))
}

/// Parses a reliability target: a fraction in `(0, 1]`.
fn get_reliability(
    flags: &HashMap<String, String>,
    key: &str,
    default: f64,
) -> Result<f64, String> {
    let r = get_f64(flags, key, Some(default))?;
    if !(r > 0.0 && r <= 1.0) {
        return Err(format!("--{key}: must be in (0, 1], got `{r}`"));
    }
    Ok(r)
}

/// The largest `sweep --workers` accepted. The fleet is also clamped
/// to the queue's shard count, but a paper-effort queue holds over a
/// thousand shards, and one worker process per shard would swamp any
/// host this runs on.
const MAX_WORKERS: u32 = 256;

/// The sweep fleet size: `--workers`, from 1 to [`MAX_WORKERS`],
/// defaulting to the thread budget.
fn get_workers(flags: &HashMap<String, String>) -> Result<usize, String> {
    let default = pbbf_parallel::max_threads().min(MAX_WORKERS as usize) as u32;
    Ok(get_count(flags, "workers", default, 1, MAX_WORKERS)? as usize)
}

fn cmd_worker(args: &[String]) -> Result<(), String> {
    let (_, positional) = parse(args, &[])?;
    if !positional.is_empty() {
        return Err(format!(
            "worker takes no positional arguments, got {positional:?}"
        ));
    }
    let code = pbbf_fabric::worker_loop_with(exec_shard, cache_telemetry);
    if code == 0 {
        return Ok(());
    }
    std::process::exit(code)
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse(
        args,
        &[
            bare("paper"),
            val("seed"),
            val("figs"),
            val("workers"),
            val("shard-timeout"),
        ],
    )?;
    let effort = if flags.contains_key("paper") {
        Effort::paper()
    } else {
        Effort::quick()
    };
    let seed = get_u64(&flags, "seed", 2005)?;
    // `--figs a,b,c` and bare positionals are the same request; the
    // flag form exists so scripts can say "these figures, one fleet"
    // in a single token. No figures at all means the Section-5 set.
    let mut figures: Vec<String> = positional;
    if let Some(spec) = flags.get("figs") {
        figures.extend(parse_figs(spec)?);
    }
    if figures.is_empty() {
        figures = sweepable_figures()
            .iter()
            .map(ToString::to_string)
            .collect();
    }
    let workers = get_workers(&flags)?;
    // Every manifest is built before any fleet is spawned: a typo'd
    // figure must fail fast, not after minutes of sweeping.
    let mut manifests = Vec::with_capacity(figures.len());
    for fig in &figures {
        manifests.push(sweep_manifest(fig, &effort, seed).ok_or_else(|| {
            format!(
                "`{fig}` is not a shardable figure (choose from {:?})",
                shardable_figures()
            )
        })?);
    }
    let queue: Vec<Vec<ShardInput>> = manifests
        .iter()
        .map(|m| {
            m.shards
                .iter()
                .map(|j| ShardInput {
                    job: serde::to_value(j),
                    expect: (j.run1 - j.run0) as usize,
                })
                .collect()
        })
        .collect();
    let total_shards: usize = queue.iter().map(Vec::len).sum();
    let opts = SweepOptions {
        workers: workers.min(total_shards.max(1)),
        shard_timeout: get_secs(&flags, "shard-timeout", 120.0)?,
        ..SweepOptions::default()
    };
    let factory = ProcessWorkerFactory::current_exe(["worker"]).map_err(|e| e.to_string())?;
    // ONE resident fleet serves the whole queue: workers — and their
    // deployment caches — survive from figure to figure instead of
    // being respawned per sweep.
    let mut scheduler = SweepScheduler::new(opts, &factory);
    let mut slots: Vec<Vec<Option<Vec<Option<f64>>>>> = queue
        .iter()
        .map(|sweep| (0..sweep.len()).map(|_| None).collect())
        .collect();
    let stats = scheduler.run_queue(queue, exec_shard, |sweep, shard, values| {
        slots[sweep][shard] = Some(values);
    })?;
    for (i, (fig, manifest)) in figures.iter().zip(&manifests).enumerate() {
        eprintln!("pbbf sweep: {fig}: {}", stats[i]);
        let values = std::mem::take(&mut slots[i])
            .into_iter()
            .map(|s| s.expect("a completed queue settles every shard"))
            .collect();
        // Byte-identical to `reproduce`'s figure path: same renderer,
        // same println, same figure order.
        println!("{}", assemble_sweep(manifest, values).render_text());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_rejects_undeclared_flags() {
        let err = parse(&argv("--worker 4"), &[val("workers")]).unwrap_err();
        assert!(err.contains("unknown flag --worker"), "{err}");
        assert!(
            err.contains("--workers"),
            "suggests the accepted set: {err}"
        );
        // Multi-host flags are gone: old scripts fail loudly instead of
        // quietly sweeping on this host. The non-shardable fig07 and the
        // stray positional make both calls fail before a fleet is
        // spawned or stdin is read, even if a flag were accepted.
        let err = cmd_sweep(&argv("fig07 --hosts a:7801")).unwrap_err();
        assert!(err.contains("unknown flag --hosts"), "{err}");
        let err = cmd_worker(&argv("--listen 127.0.0.1:0 stray")).unwrap_err();
        assert!(err.contains("unknown flag --listen"), "{err}");
    }

    #[test]
    fn parse_requires_values_where_declared() {
        let err = parse(&argv("--seed"), &[val("seed")]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn parse_separates_flags_and_positionals() {
        let (flags, pos) = parse(&argv("fig13 --paper fig17"), &[bare("paper")]).unwrap();
        assert_eq!(flags.get("paper").map(String::as_str), Some("true"));
        assert_eq!(pos, ["fig13", "fig17"]);
    }

    #[test]
    fn figs_parse_into_ids() {
        assert_eq!(parse_figs("fig13, fig17").unwrap(), ["fig13", "fig17"]);
        assert_eq!(parse_figs("fig18").unwrap(), ["fig18"]);
    }

    #[test]
    fn figs_with_gaps_are_rejected() {
        assert!(parse_figs("fig13,,fig17")
            .unwrap_err()
            .contains("empty entry"));
        assert!(parse_figs("").unwrap_err().contains("empty entry"));
    }

    #[test]
    fn workers_must_be_between_one_and_the_cap() {
        for bad in ["0", "257", "100000", "4294967296"] {
            let err = get_workers(&flag("workers", bad)).unwrap_err();
            assert_eq!(err, "--workers: must be an integer from 1 to 256", "{bad}");
        }
        assert_eq!(get_workers(&flag("workers", "1")), Ok(1));
        assert_eq!(get_workers(&flag("workers", "256")), Ok(256));
        assert_eq!(
            get_workers(&HashMap::new()),
            Ok(pbbf_parallel::max_threads().min(256))
        );
    }

    fn flag(key: &str, value: &str) -> HashMap<String, String> {
        [(key.to_string(), value.to_string())].into()
    }

    #[test]
    fn net_duration_must_be_a_representable_positive_horizon() {
        for bad in ["-5", "0", "nan", "inf", "1e12"] {
            let err = get_sim_secs(&flag("duration", bad), "duration", 500.0).unwrap_err();
            assert!(err.starts_with("--duration"), "{bad}: {err}");
        }
        assert_eq!(
            get_sim_secs(&flag("duration", "30"), "duration", 500.0),
            Ok(30.0)
        );
        assert_eq!(get_sim_secs(&HashMap::new(), "duration", 500.0), Ok(500.0));
    }

    #[test]
    fn net_delta_must_be_positive_and_finite() {
        for bad in ["0", "-1", "nan", "inf"] {
            assert!(
                get_positive(&flag("delta", bad), "delta", 10.0).is_err(),
                "{bad}"
            );
        }
        assert_eq!(get_positive(&flag("delta", "16"), "delta", 10.0), Ok(16.0));
    }

    #[test]
    fn grid_sides_must_be_at_least_the_minimum() {
        // `ideal` needs one node; `boundary` needs an edge to percolate;
        // both cap the side so that side² fits a NodeId.
        let max = Grid::MAX_SIDE;
        assert_eq!(get_count(&flag("grid", "1"), "grid", 25, 1, max), Ok(1));
        assert_eq!(
            get_count(&flag("grid", "65535"), "grid", 25, 1, max),
            Ok(65535)
        );
        assert_eq!(get_count(&HashMap::new(), "grid", 30, 2, max), Ok(30));
        assert!(get_count(&flag("grid", "1"), "grid", 30, 2, max).is_err());
        for bad in ["0", "65536", "100000", "4294967296"] {
            let err = get_count(&flag("grid", bad), "grid", 25, 1, max).unwrap_err();
            assert_eq!(err, "--grid: must be an integer from 1 to 65535", "{bad}");
        }
        // `ideal --updates` is a count too: refused, never truncated.
        for bad in ["0", "4294967297"] {
            assert!(get_count(&flag("updates", bad), "updates", 5, 1, u32::MAX).is_err());
        }
        // `ideal` sizes past the simulator's memory bound are refused
        // before anything is allocated.
        for (grid, updates) in [("2", "4294967295"), ("65535", "1")] {
            let args = format!("--grid {grid} --p 0.5 --q 0.5 --updates {updates}");
            let err = cmd_ideal(&argv(&args)).unwrap_err();
            assert!(err.contains("2 GiB"), "{err}");
        }
        // So are `boundary` grids past its own 2 GiB bound.
        for grid in ["40000", "65535"] {
            let args = format!("--grid {grid} --reliability 0.9 --runs 1");
            let err = cmd_boundary(&argv(&args)).unwrap_err();
            assert!(err.contains("2 GiB"), "{err}");
        }
        assert_eq!(check_boundary_memory(30, 150), Ok(()));
        assert!(check_boundary_memory(2, u32::MAX).is_err());
    }

    #[test]
    fn net_reports_a_failed_deployment_draw() {
        let mut cfg = NetConfig::table2();
        cfg.delta = 0.5;
        cfg.max_deploy_attempts = 3;
        let mode = NetMode::SleepScheduled(PbbfParams::new(0.5, 0.5).unwrap());
        let err = run_net(cfg, mode, 2005).unwrap_err();
        assert!(err.contains("no connected deployment"), "{err}");

        let mut cfg = NetConfig::table2();
        cfg.duration_secs = 30.0;
        let stats = run_net(cfg, mode, 7).unwrap();
        assert_eq!(stats, NetSim::new(cfg, mode).run(7));
    }

    #[test]
    fn boundary_runs_must_be_positive() {
        let err = get_count(&flag("runs", "0"), "runs", 150, 1, u32::MAX).unwrap_err();
        assert!(err.contains("--runs"), "{err}");
        assert_eq!(
            get_count(&HashMap::new(), "runs", 150, 1, u32::MAX),
            Ok(150)
        );
    }

    #[test]
    fn boundary_reliability_must_be_a_fraction() {
        for bad in ["1.5", "0", "-0.1", "nan"] {
            let flags = flag("reliability", bad);
            assert!(
                get_reliability(&flags, "reliability", 0.99).is_err(),
                "{bad}"
            );
        }
        let flags = flag("reliability", "1");
        assert_eq!(get_reliability(&flags, "reliability", 0.99), Ok(1.0));
    }

    #[test]
    fn durations_must_be_positive_and_finite() {
        for bad in ["0", "-3", "inf", "nan", "1e30"] {
            let flags = flag("shard-timeout", bad);
            assert!(get_secs(&flags, "shard-timeout", 120.0).is_err(), "{bad}");
        }
        let flags = flag("shard-timeout", "2.5");
        assert_eq!(
            get_secs(&flags, "shard-timeout", 120.0).unwrap(),
            Duration::from_secs_f64(2.5)
        );
    }
}
