//! `perfbench` — the timed half of the pbbf end-to-end benchmark.
//!
//! `perfbench/run.py` drives this binary; every invocation is one fresh
//! process, so nothing cached in-process (the deployment registry, any
//! future memoized sweep) survives from one repetition to the next.
//!
//! ```text
//! perfbench rep   --workload <w> --seed <n> --seeds <k> --pbbf <path> [--setup-only]
//! perfbench trace --workload <w> --seed <n> --seeds <k> --pbbf <path>
//! ```
//!
//! `rep` runs one untraced repetition of a workload exactly as a user
//! would (`Experiment::run` + `Output::render_text` + `println!`, or a
//! resident `SweepScheduler` fleet of `pbbf worker` processes). `trace`
//! replays the same workload through the layers' public entry points
//! with a span around every call. Both write the same protocol:
//!
//! * stdout: a `ready` line the moment setup is done (the next call is
//!   the first simulation call), then the rendered exhibits, byte for
//!   byte what `pbbf reproduce` / `pbbf sweep` print;
//! * stderr: a last line `@perfbench {json}` with each exhibit's id,
//!   seed and byte length (so `run.py` can slice and hash stdout) plus
//!   the spans and counts gathered on the way.
//!
//! `PBBF_THREADS` is read from the environment, as the program reads it.

mod fabric;
mod mirror;
mod report;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pbbf_experiments::{Effort, Experiment, Output};

use report::{Exhibits, Json};

/// The most seeds a `section5` repetition may sweep (`--seeds`): each
/// seed draws 60 deployments, and 16 seeds' worth stays below the
/// deployment registry's 1024-entry bound, so nothing is evicted.
const MAX_SECTION5_SEEDS: u64 = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Paper,
    Section5,
    Section5Fabric,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "paper" => Ok(Self::Paper),
            "section5" => Ok(Self::Section5),
            "section5-fabric" => Ok(Self::Section5Fabric),
            other => Err(format!(
                "unknown workload `{other}` (paper, section5, section5-fabric)"
            )),
        }
    }
}

struct Args {
    traced: bool,
    workload: Workload,
    seed: u64,
    /// Consecutive seeds a `section5` repetition sweeps from `seed` on.
    seeds: u64,
    pbbf: PathBuf,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = argv
        .split_first()
        .ok_or("usage: perfbench rep|trace --workload <w> --seed <n> --seeds <k> --pbbf <path>")?;
    let traced = match mode.as_str() {
        "rep" => false,
        "trace" => true,
        other => return Err(format!("unknown mode `{other}` (rep, trace)")),
    };
    let (mut workload, mut seed, mut seeds, mut pbbf) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(parse_u64(flag, value)?),
            "--seeds" => seeds = Some(parse_u64(flag, value)?),
            "--pbbf" => pbbf = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        traced,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seeds: seeds
            .filter(|k| (1..=MAX_SECTION5_SEEDS).contains(k))
            .ok_or(format!("--seeds must be 1..={MAX_SECTION5_SEEDS}"))?,
        pbbf: pbbf.ok_or("missing --pbbf")?,
        setup_only,
    })
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: bad integer `{value}`"))
}

/// Announces the end of setup: everything after this line is simulation.
fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}

/// The seeds a `section5` repetition sweeps.
fn section5_seeds(args: &Args) -> Vec<u64> {
    (0..args.seeds).map(|i| args.seed.wrapping_add(i)).collect()
}

/// Catalogue group of an exhibit, for the `experiments.*_s` spans.
fn group(id: &str) -> &'static str {
    match id {
        "fig04" | "fig05" | "fig08" | "fig09" | "fig10" | "fig11" => "section4",
        "fig13" | "fig14" | "fig15" | "fig16" | "fig17" | "fig18" => "section5",
        "fig06" | "fig07" | "fig12" => "percolation",
        _ => "tables",
    }
}

/// One untraced repetition: the user's job, run the way the CLI runs it.
fn rep(args: &Args, meta: &mut Json) -> Result<Exhibits, String> {
    let effort = Effort::paper();
    let mut exhibits = Exhibits::default();
    match args.workload {
        Workload::Paper | Workload::Section5 => {
            let jobs: Vec<(Experiment, u64)> = if args.workload == Workload::Paper {
                Experiment::all()
                    .into_iter()
                    .map(|e| (e, args.seed))
                    .collect()
            } else {
                let figs = pbbf_experiments::sweep::sweepable_figures();
                section5_seeds(args)
                    .into_iter()
                    .flat_map(|s| {
                        figs.iter().map(move |id| {
                            (
                                Experiment::from_id(id).expect("sweepable ids are exhibits"),
                                s,
                            )
                        })
                    })
                    .collect()
            };
            ready();
            if args.setup_only {
                return Ok(exhibits);
            }
            for (exp, seed) in jobs {
                let t = Instant::now();
                let out = exp.run(&effort, seed);
                let run_s = t.elapsed().as_secs_f64();
                exhibits.emit(exp.id(), seed, group(exp.id()), run_s, &out);
            }
            let cache = pbbf_net_sim::DeploymentCache::global().stats();
            meta.int("deploy_entries", cache.len as u64);
        }
        Workload::Section5Fabric => {
            let run = fabric::run(
                &section5_seeds(args),
                &effort,
                &args.pbbf,
                false,
                args.setup_only,
                &mut exhibits,
            )?;
            run.report(meta);
        }
    }
    Ok(exhibits)
}

/// One traced replay of the workload through the layers' entry points.
fn trace(args: &Args, meta: &mut Json) -> Result<Exhibits, String> {
    let effort = Effort::paper();
    let mut exhibits = Exhibits::default();
    match args.workload {
        Workload::Paper => {
            ready();
            let mut layers = mirror::Layers::default();
            for exp in Experiment::all() {
                let t = Instant::now();
                let out = match layers.replay(exp.id(), &effort, args.seed)? {
                    Some(fig) => Output::Figure(fig),
                    None => exp.run(&effort, args.seed),
                };
                let run_s = t.elapsed().as_secs_f64();
                exhibits.emit(exp.id(), args.seed, group(exp.id()), run_s, &out);
            }
            layers.report(meta)?;
        }
        Workload::Section5 => {
            ready();
            let mut layers = mirror::Layers::default();
            for seed in section5_seeds(args) {
                for id in pbbf_experiments::sweep::sweepable_figures() {
                    let t = Instant::now();
                    let fig = layers
                        .replay(id, &effort, seed)?
                        .ok_or_else(|| format!("{id} has no net-sim replay"))?;
                    let run_s = t.elapsed().as_secs_f64();
                    exhibits.emit(id, seed, group(id), run_s, &Output::Figure(fig));
                }
            }
            layers.report(meta)?;
        }
        Workload::Section5Fabric => {
            let run = fabric::run(
                &section5_seeds(args),
                &effort,
                &args.pbbf,
                true,
                false,
                &mut exhibits,
            )?;
            run.report(meta);
        }
    }
    Ok(exhibits)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut meta = Json::default();
    let result = if args.traced {
        trace(&args, &mut meta)
    } else {
        rep(&args, &mut meta)
    };
    match result {
        Ok(exhibits) => {
            if std::io::stdout().flush().is_err() {
                eprintln!("perfbench: error: stdout closed");
                return ExitCode::FAILURE;
            }
            meta.raw("exhibits", &exhibits.to_json());
            eprintln!("@perfbench {}", meta.finish());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}
