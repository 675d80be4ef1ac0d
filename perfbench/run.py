#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pbbf paper pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 2005 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 2005 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paper --seed 2005 --trace 1
    python3 perfbench/run.py --pin 2005 7919     # rewrite perfbench/expected.json

The script builds the `pbbf` binary and the `perfbench` binary (a package
of its own in this directory) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then times fresh `perfbench` processes, one per
repetition, and checks every byte they print. See perfbench/README.md for
the workloads, the metrics and the layers they belong to.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is 0 only when every
output was correct.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("paper", "section5", "section5-fabric")
# Seeds one `section5` repetition sweeps, starting at the workload seed.
SECTION5_SEEDS = 12
SECTION5_FIGURES = ("fig13", "fig14", "fig15", "fig16", "fig17", "fig18")
PAPER_EXHIBITS = (
    "table1", "table2", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18",
)
# Setup-only launches per run, taken PROBE_BATCH at a time; setup_s is
# their median.
SETUP_PROBES = 40
PROBE_BATCH = 8
# Every child is killed this long after the script started, so a hung
# worker fleet fails the run instead of outliving its time limit.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A failure that stops the run before it can report."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build and environment ------------------------------------------------


def build():
    """Builds both binaries; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise BenchError("the pbbf sources (Cargo.toml, crates/) are not next to perfbench/")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "--bin", "pbbf"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "pbbf")


def nproc():
    return len(os.sched_getaffinity(0))


def commit():
    """The git commit, or a hash of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def rustc_version():
    out = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    return out.stdout.strip()


# ---- one child process ----------------------------------------------------


class Child:
    """One finished `perfbench` process: timings, usage, output, report."""

    def __init__(self, ok, error, wall, setup, cpu, rss_mb, stdout, meta):
        self.ok, self.error = ok, error
        self.wall, self.setup, self.cpu, self.rss_mb = wall, setup, cpu, rss_mb
        self.stdout, self.meta = stdout, meta

    def exhibits(self):
        """[(id, seed, text bytes)] sliced out of stdout by the report."""
        out, at = [], 0
        for e in self.meta.get("exhibits", []):
            out.append((e["id"], e["seed"], self.stdout[at:at + e["bytes"]]))
            at += e["bytes"]
        return out if at == len(self.stdout) else None


class Launcher:
    def __init__(self, perfbench, pbbf, started):
        self.perfbench, self.pbbf, self.started = perfbench, pbbf, started

    def run(self, mode, workload, seed, threads, setup_only=False):
        cmd = [self.perfbench, mode, "--workload", workload, "--seed", str(seed),
               "--seeds", str(SECTION5_SEEDS), "--pbbf", self.pbbf]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PBBF_THREADS=str(threads))
        remaining = self.started + DEADLINE_S - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before launching a repetition")
        t0 = time.monotonic()
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        watchdog = threading.Timer(remaining, p.kill)
        watchdog.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        first = p.stdout.readline()
        t_ready = time.monotonic()
        rest = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
        t_end = time.monotonic()
        watchdog.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()

        meta, error = {}, None
        for line in err[0].decode(errors="replace").splitlines():
            if line.startswith("@perfbench "):
                meta = json.loads(line[len("@perfbench "):])
            elif line.strip():
                print(line, file=sys.stderr)
        if p.returncode != 0:
            error = f"{mode} {workload} seed {seed}: exit code {p.returncode}"
        elif first != b"ready\n":
            error = f"{mode} {workload} seed {seed}: no ready line"
        elif not meta:
            error = f"{mode} {workload} seed {seed}: no report"
        return Child(
            ok=error is None, error=error, wall=t_end - t0, setup=t_ready - t0,
            cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
            stdout=rest, meta=meta)


# ---- output checks --------------------------------------------------------


def digest(text):
    return hashlib.sha256(text).hexdigest()[:16]


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def expected_sequence(workload, seed):
    if workload == "paper":
        return [(e, seed) for e in PAPER_EXHIBITS]
    return [(f, seed + i) for i in range(SECTION5_SEEDS) for f in SECTION5_FIGURES]


def well_formed(eid, text):
    """What can be checked of an exhibit without a pinned hash."""
    try:
        s = text.decode()
    except UnicodeDecodeError:
        return False
    if not s.endswith("\n") or re.search(r"\b(NaN|inf)\b", s):
        return False
    if eid.startswith("fig"):
        return s.startswith(f"# Figure {int(eid[3:])}:")
    return len(s.strip()) > 0


class Checker:
    """Counts attempted and failed outputs; every failure is logged."""

    def __init__(self, expected):
        self.pins = expected["exhibits"]
        self.attempted = 0
        self.failed = 0
        self.seen = {}

    def fail(self, msg):
        self.failed += 1
        log("FAIL " + msg)

    def count(self, ok, msg):
        self.attempted += 1
        if not ok:
            self.fail(msg)

    def pinned(self, workload, seed):
        return all(str(s) in self.pins.get(e, {}) for e, s in expected_sequence(workload, seed))

    def exhibits(self, child, workload, seed, reference=None):
        """Checks a child's exhibits against the pins, against the first
        copy seen in this run, and against `reference` (another child's
        exhibits) when given. Returns {(id, seed): text}."""
        want = expected_sequence(workload, seed)
        if not child.ok:
            self.attempted += len(want)
            self.fail(f"{child.error}: all {len(want)} exhibits lost")
            return {}
        got = child.exhibits()
        if got is None or [(e, s) for e, s, _ in got] != want:
            self.attempted += len(want)
            self.fail(f"{workload} seed {seed}: printed the wrong exhibits")
            return {}
        out = {}
        for eid, s, text in got:
            key = (eid, s)
            h = digest(text)
            pin = self.pins.get(eid, {}).get(str(s))
            if pin is not None:
                ok, why = h == pin, f"hash {h} != pinned {pin}"
            else:
                ok, why = well_formed(eid, text), "malformed"
            if ok and key in self.seen:
                ok, why = self.seen[key] == text, "differs from an earlier copy in this run"
            if ok and reference is not None:
                ok, why = reference.get(key) == text, "differs from the reference"
            self.count(ok, f"{eid} seed {s}: {why}")
            self.seen.setdefault(key, text)
            out[key] = text
        return out

    def same(self, what, a, b):
        self.count(a == b, f"{what}: {a} != {b}")


# ---- end-to-end runs ------------------------------------------------------


def end_to_end(launch, check, workload, seed, seconds, threads):
    probes = []

    def probe_batch():
        # Setup probes run in small batches spread over the whole run (one
        # before the first repetition, one after each), so their median
        # samples the host over the run instead of one instant.
        for _ in range(min(PROBE_BATCH, SETUP_PROBES - len(probes))):
            p = launch.run("rep", workload, seed, threads, setup_only=True)
            check.count(p.ok, f"setup probe: {p.error}")
            probes.append(p)

    probe_batch()
    reference = None
    if workload == "section5-fabric" and not check.pinned(workload, seed):
        # The fleet's bytes must equal the in-process sweep's for any seed.
        ref = launch.run("rep", "section5", seed, threads)
        reference = check.exhibits(ref, "section5", seed)

    reps = []
    t0 = time.monotonic()
    while True:
        rep = launch.run("rep", workload, seed, threads)
        reps.append(rep)
        check.exhibits(rep, workload, seed, reference)
        probe_batch()
        elapsed = time.monotonic() - t0
        typical = statistics.median(r.wall for r in reps)
        if elapsed + typical > seconds:
            break
        if time.monotonic() + 1.5 * typical > launch.started + DEADLINE_S - 5:
            break
    while len(probes) < SETUP_PROBES:
        probe_batch()
    good = [r for r in reps if r.ok]
    # Exact counts must repeat from repetition to repetition.
    for key in ("deploy_entries", "fabric_shards", "fabric_settled"):
        values = [r.meta[key] for r in good if key in r.meta]
        if values:
            check.count(len(set(values)) == 1, f"{key} drifted across repetitions: {values}")
    if workload == "section5-fabric":
        for r in good:
            check.same("fabric shards settled", r.meta["fabric_settled"], r.meta["fabric_shards"])
    if not good:
        return None, reps
    metrics = {
        "wall_s": statistics.median(r.wall for r in good),
        "setup_s": statistics.median([p.setup for p in probes if p.ok]
                                     + [r.setup for r in good]),
        "cpu_s": statistics.median(r.cpu for r in good),
        "peak_rss_mb": statistics.median(r.rss_mb for r in good),
    }
    return metrics, reps


# ---- traced run -----------------------------------------------------------


def p_quantile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    if not s:
        return 0.0
    return s[min(len(s), max(1, math.ceil(q / 100 * len(s)))) - 1]


def traced(launch, check, seed, threads):
    """Replays the whole pipeline at `seed`: untraced references, traced
    replays at `threads` and at one thread, and the fabric."""
    u_paper = launch.run("rep", "paper", seed, threads)
    paper = check.exhibits(u_paper, "paper", seed)
    u_s5 = launch.run("rep", "section5", seed, threads)
    s5 = check.exhibits(u_s5, "section5", seed)
    u_fab = launch.run("rep", "section5-fabric", seed, threads)
    check.exhibits(u_fab, "section5-fabric", seed, s5)

    t_paper = launch.run("trace", "paper", seed, threads)
    check.exhibits(t_paper, "paper", seed, paper)
    t_paper_1 = launch.run("trace", "paper", seed, 1)
    check.exhibits(t_paper_1, "paper", seed, paper)
    t_s5 = launch.run("trace", "section5", seed, threads)
    check.exhibits(t_s5, "section5", seed, s5)
    t_s5_1 = launch.run("trace", "section5", seed, 1)
    check.exhibits(t_s5_1, "section5", seed, s5)
    t_fab = launch.run("trace", "section5-fabric", seed, threads)
    check.exhibits(t_fab, "section5-fabric", seed, s5)

    children = [u_paper, u_s5, u_fab, t_paper, t_paper_1, t_s5, t_s5_1, t_fab]
    if not all(c.ok for c in children):
        return None

    # Exact counts: identical at one thread and at `threads`.
    for a, b, keys in (
        (t_paper, t_paper_1, ("ideal_runs", "ideal_tx", "ideal_frames", "net_runs",
                              "mac_data_tx", "mac_atim_tx", "mac_immediate_tx",
                              "radio_collisions", "deploy_misses", "deploy_hits")),
        (t_s5, t_s5_1, ("net_runs", "mac_data_tx", "mac_atim_tx", "mac_immediate_tx",
                        "radio_collisions", "deploy_misses", "deploy_hits")),
    ):
        for k in keys:
            check.same(f"{k} at {threads} vs 1 threads", a.meta[k], b.meta[k])
    check.same("deploy.misses untraced vs traced", u_s5.meta["deploy_entries"],
               t_s5.meta["deploy_misses"])
    for k in ("fabric_shards", "fabric_settled"):
        check.same(f"{k} untraced vs traced", u_fab.meta[k], t_fab.meta[k])
    check.same("fabric shards settled", t_fab.meta["fabric_settled"], t_fab.meta["fabric_shards"])

    def group_s(child, group):
        return sum(e["run_s"] for e in child.meta["exhibits"] if e["group"] == group)

    pm, sm, fm = t_paper.meta, t_s5.meta, t_fab.meta
    net_tx = sm["mac_data_tx"] + sm["mac_atim_tx"]
    render_s = sum(e["render_s"] for e in u_paper.meta["exhibits"])
    gaps = fm["fabric_gaps_ms"]
    lookups = fm["fabric_cache_hits"] + fm["fabric_cache_misses"]
    return {
        "experiments.section4_s": (group_s(u_paper, "section4"), "s"),
        "experiments.section5_s": (group_s(u_paper, "section5"), "s"),
        "experiments.percolation_s": (group_s(u_paper, "percolation"), "s"),
        "ideal_sim.runs": (pm["ideal_runs"], "count"),
        "ideal_sim.busy_s": (pm["ideal_busy_s"], "s"),
        "ideal_sim.run_ms.p50": (pm["ideal_run_ms_p50"], "ms"),
        "ideal_sim.run_ms.p99": (pm["ideal_run_ms_p99"], "ms"),
        "ideal_sim.ns_per_tx": (1e9 * pm["ideal_busy_s"] / pm["ideal_tx"], "ns"),
        "ideal_sim.tx": (pm["ideal_tx"], "count"),
        "ideal_sim.frames": (pm["ideal_frames"], "count"),
        "ideal_sim.new_ms": (pm["ideal_new_ms"], "ms"),
        "net_sim.runs": (sm["net_runs"], "count"),
        "net_sim.busy_s": (sm["net_busy_s"], "s"),
        "net_sim.run_us.p50": (sm["net_run_us_p50"], "us"),
        "net_sim.run_us.p99": (sm["net_run_us_p99"], "us"),
        "net_sim.us_per_tx": (1e6 * sm["net_busy_s"] / net_tx, "us"),
        "net_sim.sim_s_per_busy_s": (sm["net_sim_s"] / sm["net_busy_s"], "s/s"),
        "mac.data_tx": (sm["mac_data_tx"], "count"),
        "mac.atim_tx": (sm["mac_atim_tx"], "count"),
        "mac.immediate_tx": (sm["mac_immediate_tx"], "count"),
        "radio.collisions": (sm["radio_collisions"], "count"),
        "deploy.misses": (sm["deploy_misses"], "count"),
        "deploy.hits": (sm["deploy_hits"], "count"),
        "deploy.busy_s": (sm["deploy_busy_s"], "s"),
        "parallel.utilization": (u_paper.cpu / (u_paper.wall * threads), "ratio"),
        "parallel.speedup": (t_paper_1.wall / t_paper.wall, "x"),
        "parallel.speedup_section5": (t_s5_1.wall / t_s5.wall, "x"),
        "fabric.spawn_s": (fm["fabric_spawn_s"], "s"),
        "fabric.shards": (fm["fabric_shards"], "count"),
        "fabric.retries": (fm["fabric_retries"], "count"),
        "fabric.inproc_shards": (fm["fabric_inproc_shards"], "count"),
        "fabric.faults": (fm["fabric_faults"], "count"),
        "fabric.cache_hit_ratio": (fm["fabric_cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "fabric.result_gap_ms.p50": (p_quantile(gaps, 50), "ms"),
        "fabric.result_gap_ms.p99": (p_quantile(gaps, 99), "ms"),
        "fabric.overhead_s": (u_fab.wall - u_s5.wall, "s"),
        "metrics.render_s": (render_s, "s"),
        "metrics.render_share": (render_s / u_paper.wall, "ratio"),
        "trace.overhead_paper": (t_paper.wall / u_paper.wall, "x"),
        "trace.overhead_section5": (t_s5.wall / u_s5.wall, "x"),
    }


# ---- pinning ----------------------------------------------------------------


def pin(launch, seeds, threads):
    """Rewrites expected.json with the current program's exhibit hashes."""
    expected = load_expected() if os.path.exists(EXPECTED) else {"held_out_seed": None}
    pins = {}
    check = Checker({"exhibits": {}})
    for seed in seeds:
        for workload in ("paper", "section5"):
            child = launch.run("rep", workload, seed, threads)
            for (eid, s), text in check.exhibits(child, workload, seed).items():
                pins.setdefault(eid, {})[str(s)] = digest(text)
        launch.started = time.monotonic()
    if check.failed:
        raise BenchError("pinning failed; expected.json left unchanged")
    expected["exhibits"] = {e: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
                            for e, v in sorted(pins.items())}
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    log(f"pinned {sum(len(v) for v in pins.values())} exhibit hashes")


# ---- main -------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", type=int, nargs="+", metavar="SEED",
                    help="rewrite expected.json for these seeds instead of measuring")
    args = ap.parse_args()
    if args.seed < 0 or args.seed + SECTION5_SEEDS >= 2**64:
        ap.error("--seed must be a u64 leaving room for the section5 seed range")

    started = time.monotonic()
    try:
        perfbench, pbbf = build()
        threads = nproc()
        launch = Launcher(perfbench, pbbf, started)
        if args.pin:
            launch.started = time.monotonic()
            pin(launch, args.pin, threads)
            return 0
        env = {"nproc": nproc(), "PBBF_THREADS": threads, "commit": commit(),
               "rustc": rustc_version(), "seed": args.seed, "trace": args.trace}
        print("# env " + json.dumps(env), flush=True)
        check = Checker(load_expected())
        launch.started = time.monotonic()
        metrics = {}
        if args.trace:
            layers = traced(launch, check, args.seed, threads)
            if layers is None:
                raise BenchError("a traced-run process failed")
            for name, (value, unit) in layers.items():
                metrics[name] = {"value": value, "unit": unit}
                print(f"  {name:28s} {value:.6g} {unit}")
        else:
            workloads = WORKLOADS if args.workload == "all" else (args.workload,)
            for w in workloads:
                before_attempted, before_failed = check.attempted, check.failed
                e2e, reps = end_to_end(launch, check, w, args.seed, args.seconds, threads)
                if e2e is None:
                    raise BenchError(f"{w}: every repetition failed")
                attempted = check.attempted - before_attempted
                failed = check.failed - before_failed
                print(f"{w}: seed {args.seed}, {len(reps)} repetition(s), "
                      f"{SETUP_PROBES} setup probes")
                for name, value in e2e.items():
                    key = name if len(workloads) == 1 else f"{w}.{name}"
                    metrics[key] = {"value": value, "unit": END_TO_END_UNITS[name]}
                    print(f"  {name:12s} {value:.6g} {END_TO_END_UNITS[name]}")
                print(f"  {'error_rate':12s} {failed / attempted:.6g} ratio "
                      f"({failed}/{attempted})")
                launch.started = time.monotonic()
    except BenchError as e:
        log(f"error: {e}")
        return 1
    correct = check.failed == 0
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
