"""extlab benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of an extlab checkout.  The workload's task list comes
from the seed alone (see workloads.py) and is sized to take about
``--seconds`` on a 2-core box.  Each canned script and each seeded task
kind's whole pair list runs in a fresh single-threaded child process, so
each process starts with cold caches, as a command-line run or a sweep
does.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json, its times scaled to the machine's speed measured next to
each task (see ``scaled``).  With ``--trace 1`` it runs the same task list
three times, traced, untraced and traced again (the tracer wraps every
layer), checks that the two traced runs count exactly the same work, and
reports the per-layer metrics.  Every task's output is checked against an
independent reference, and the digest of all outputs must repeat between
runs of one seed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, draws, plan  # noqa: E402

OUT = HERE / "out"
# A run that is still going after this many seconds is killed; every task
# it had not finished counts as failed.
RUN_DEADLINE_S = 150.0
# the traced run works through this share of the untraced task list
TRACE_SHARE = 0.3
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# set-up time is sampled this many times per timed run: the timed pass
# and SETUP_SAMPLES - 1 passes that only set up
SETUP_SAMPLES = 3
# The speed probe's time (child.probe_ms) when the machine runs at full
# speed: about its fastest 5% on a 2-core x86-64 VM, Python 3.11.
PROBE_REF_MS = 3.5
# a task's speed is measured by the probes within this many seconds of it
PROBE_WINDOW_S = 1.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def select_pairs(workload: str, seed: int, size: float, deadline: float) -> dict | None:
    """Pair indices per task kind, picked by a child process (the picking
    loads extlab; this process does not)."""
    want = json.dumps(draws(workload, size))
    cmd = [sys.executable, str(HERE / "child.py"), "--select", want, "--seed", str(seed)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True,
                             timeout=max(0.0, deadline - time.monotonic())).stdout
    except subprocess.TimeoutExpired:
        return None
    for line in out.splitlines():
        if line.startswith("@@bench "):
            return json.loads(line[len("@@bench "):])["indices"]
    return None


def run_job(job, deadline: float, trace_out: Path | None = None,
            setup_only: bool = False) -> dict:
    """Run one job in a fresh process; kill it at the deadline."""
    cmd = [sys.executable, str(HERE / "child.py"), "--job", job.to_json()]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd += ["--setup-only"]
    t0 = time.monotonic()
    killed = False
    with subprocess.Popen(cmd + ["--spawned-at", repr(t0)], stdout=subprocess.PIPE,
                          env=child_env(), text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            killed = True
        except BaseException:
            proc.kill()
            raise
    events = [json.loads(line[len("@@bench "):]) for line in out.splitlines()
              if line.startswith("@@bench ")]
    res = {"job": job, "killed": killed, "setup": None, "tasks": [], "probes": [],
           "done": None}
    for ev in events:
        if ev["event"] == "probe":
            res["probes"].append((ev["t"], ev["ms"]))
        elif ev["event"] == "task":
            res["tasks"].append(ev)
        else:
            if ev["event"] == "setup":
                # the probes just after set-up measure the speed it ran at
                ev["probe_ms"] = [ms for _, ms in res["probes"]]
            res[ev["event"]] = ev
    return res


def run_pass(jobs, deadline: float, trace_dir: Path | None) -> dict:
    """The whole task list, job by job; jobs past the deadline are not
    started and their tasks count as failed."""
    results = []
    for j, job in enumerate(jobs):
        if time.monotonic() >= deadline:
            results.append({"job": job, "killed": True, "setup": None, "tasks": [],
                            "done": None})
            continue
        out = trace_dir / f"job{j}.npz" if trace_dir else None
        results.append(run_job(job, deadline, out))
    tasks = [t for r in results for t in r["tasks"]]
    planned = sum(j.count for j in jobs)
    complete = all(r["done"] for r in results) and len(tasks) == planned
    return {
        "results": results,
        "tasks": tasks,
        "planned": planned,
        "failed": planned - sum(t["status"] == "ok" for t in tasks),
        "not_ok": [t for t in tasks if t["status"] != "ok"],
        "complete": complete,
        "digest": hashlib.sha256("".join(t["digest"] for t in tasks).encode()).hexdigest()
        if complete else None,
        "wall_s": sum(r["done"]["wall_s"] for r in results if r["done"]),
    }


def quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-th percentile: the mean of the
    sorted values weighted by a beta density centred on rank p.

    The one or two order statistics nearest p95 are single tasks of a
    heavy tail and swing between seeds: over ten seeds per workload they
    spread by 0.07-0.22 of their median, this estimate by 0.05-0.11.  On
    the median the two spread alike.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    logc = lgamma(a + b) - lgamma(a) - lgamma(b)
    steps = 16  # midpoint rule inside each rank's 1/n of [0, 1]
    weights = [sum(exp(logc + (a - 1) * log(t) + (b - 1) * log(1 - t))
                   for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n: int) -> float:
    """The highest tabulated percentile with at least ten samples beyond it."""
    ok = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    return ok[-1] if ok else 50


def scaled(seconds: float, probes: list[float]) -> float:
    """A time measured on the shared machine, scaled to its full speed.

    Other tenants slow the machine by up to 1.8x for seconds to minutes at
    a time, far more than the changes the benchmark must resolve.  They
    slow the speed probe run next to a task by the same factor (see
    child.py), so a time is multiplied by PROBE_REF_MS over the median of
    the probes taken around it.  The probe is benchmark code: a change to
    extlab moves the time, not the probe.
    """
    return seconds * PROBE_REF_MS / statistics.median(probes)


def near_probes(probes: list[tuple[float, float]], t0: float, t1: float) -> list[float]:
    """Probe times within PROBE_WINDOW_S of [t0, t1], or the three
    nearest when fewer lie that close (a long task has none inside)."""
    def gap(t):
        return max(t0 - t, t - t1, 0.0)
    near = [ms for t, ms in probes if gap(t) <= PROBE_WINDOW_S]
    if len(near) >= 3:
        return near
    return [ms for t, ms in sorted(probes, key=lambda p: gap(p[0]))[:3]]


def setup_total(results) -> float | None:
    """Scaled set-up time of one pass: the sum over its processes."""
    if not all(r["setup"] and r["setup"]["probe_ms"] for r in results):
        return None
    return sum(scaled(r["setup"]["setup_s"], r["setup"]["probe_ms"]) for r in results)


def setup_passes(jobs, deadline: float, n: int) -> list[float]:
    """Set-up times of n passes that only set up each job's process."""
    out = []
    for _ in range(n):
        if time.monotonic() >= deadline:
            break
        total = setup_total([run_job(job, deadline, setup_only=True) for job in jobs])
        if total is not None:
            out.append(total)
    return out


def task_ms(p: dict) -> list[tuple[float, float]]:
    """(measured, scaled) milliseconds of every task of a pass."""
    out = []
    for r in p["results"]:
        for t in r["tasks"]:
            near = near_probes(r["probes"], t["t"], t["t"] + t["ms"] / 1e3)
            out.append((t["ms"], scaled(t["ms"], near)))
    return out


def end_to_end(p: dict, setups: list[float]) -> tuple[dict, dict]:
    measured, ms = zip(*task_ms(p))
    rss = [r["done"]["maxrss_mb"] for r in p["results"]]
    tail_p = tail_percentile(len(ms))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(ms) / 1e3,
        "task_p50_ms": quantile(ms, 50),
        "task_tail_ms": quantile(ms, tail_p),
        "peak_rss_mb": max(rss),
    }
    probes = [ms for r in p["results"] for _, ms in r["probes"]]
    info = {"tail_percentile": tail_p, "task_samples": len(ms), "processes": len(p["results"]),
            "measured_wall_s": sum(measured) / 1e3,
            "measured_task_p50_ms": quantile(measured, 50),
            "measured_task_tail_ms": quantile(measured, tail_p),
            "probe_median_ms": statistics.median(probes), "probes": len(probes),
            "setup_samples_s": setups}
    return values, info


def _add(into: dict, more: dict):
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


def traced_totals(p: dict) -> dict:
    """Self times, counters and traced wall, summed over a pass's jobs."""
    tot = {"tasks": {}, "all": {}, "counts": {}, "wall_ms": 0.0}
    for r in p["results"]:
        tr = r["done"]["trace"]
        _add(tot["tasks"], tr["self_ms"])
        _add(tot["all"], tr["self_ms_all"])
        _add(tot["counts"], r["done"]["counts"])
        tot["wall_ms"] += tr["wall_ms"]
    return tot


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, dict]:
    """Per-function metrics cover the whole process (poly's cost is mostly
    set-up); layer self times and shares cover the task list, whose
    traced wall time is their base."""
    totals = [traced_totals(p) for p in traced]
    counts = totals[0]["counts"]

    def mean_of(part):
        names = set().union(*(t[part] for t in totals))
        return {k: statistics.fmean(t[part].get(k, 0.0) for t in totals) for k in names}

    wall_ms = statistics.fmean(t["wall_ms"] for t in totals)
    values: dict[str, float] = {}
    for name, v in mean_of("all").items():
        values[f"{name}.self_ms"] = v
    for key, v in counts.items():
        values[key] = v
    layers: dict[str, float] = {}
    for name, v in mean_of("tasks").items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v
    for layer, v in layers.items():
        values[f"layer.{layer}.self_ms"] = v
        values[f"layer.{layer}.share"] = v / wall_ms
    cand = counts.get("modules.minimal_generator_indices.candidates", 0)
    values["modules.kept_ratio"] = (
        counts.get("modules.minimal_generator_indices.kept", 0) / cand if cand else 1.0)
    values["trace.wall_ms"] = wall_ms
    values["trace.untraced_wall_ms"] = untraced["wall_s"] * 1e3
    values["trace.overhead_ms"] = wall_ms - untraced["wall_s"] * 1e3
    info = {
        "counts_repeat": all(t["counts"] == counts for t in totals),
        # layer self times, bench included, against their base
        "layer_self_ms_sum": sum(layers.values()),
        "trace_wall_ms": wall_ms,
        "spans": sum(r["done"]["trace"]["spans"] for r in traced[0]["results"]),
        "share_base": "trace.wall_ms",
        "layer_share": {k: values[f"layer.{k}.share"] for k in sorted(layers)},
    }
    return values, info


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != Path.cwd().resolve():
        return "unknown"
    return lines[1]


def trace_dir(args, k: int) -> Path:
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}-run{k}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def process_summary(r: dict) -> dict:
    done = r["done"] or {}
    return {"kind": r["job"].kind, "tasks": r["job"].count, "killed": r["killed"],
            "setup_s": r["setup"] and r["setup"]["setup_s"],
            "wall_s": done.get("wall_s"), "maxrss_mb": done.get("maxrss_mb")}


def check_digest(jobs, digest: str | None) -> bool:
    """Compare with the digest an earlier run of the same task list left
    in out/."""
    if digest is None:
        return True
    key = hashlib.sha256("\n".join(j.to_json() for j in jobs).encode()).hexdigest()
    path = OUT / "digests" / f"{key[:32]}.txt"
    if path.exists():
        return path.read_text().strip() == digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "extlab" / "__init__.py").is_file():
        return fail("run from the root of an extlab checkout (src/extlab is missing)")
    if not (root / "scripts").is_dir():
        return fail("the canned scripts directory is missing")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    size = args.seconds * (TRACE_SHARE if args.trace else 1.0)
    selected = select_pairs(args.workload, args.seed, size, deadline)
    if selected is None:
        return fail("could not draw the workload's inputs (see the errors above)")
    jobs = plan(args.workload, args.seed, selected)

    info: dict = {}
    setups: list[float] = []
    if args.trace:
        # the untraced pass runs between the traced ones, so that a machine
        # whose speed drifts steadily does not bias the overhead estimate
        traced1 = run_pass(jobs, deadline, trace_dir(args, 1))
        untraced = run_pass(jobs, deadline, None)
        passes = [untraced, traced1, run_pass(jobs, deadline, trace_dir(args, 2))]
    else:
        passes = [run_pass(jobs, deadline, None)]
        first = setup_total(passes[0]["results"])
        setups = ([first] if first is not None else []) + setup_passes(
            jobs, deadline, SETUP_SAMPLES - 1)

    killed = sum(r["killed"] for p in passes for r in p["results"])
    attempted = sum(p["planned"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    complete = all(p["complete"] for p in passes)
    digests = {p["digest"] for p in passes}
    problems = [f"{t['label']} {t['status']}: {t['error']}" for p in passes for t in p["not_ok"]]
    if complete and len(digests) != 1:
        problems.append("outputs differ between runs of one seed")
    if complete and not check_digest(jobs, passes[0]["digest"]):
        problems.append("outputs differ from an earlier run of this seed")

    if args.trace and complete:
        values, info = per_layer(passes[0], passes[1:])
        if not info["counts_repeat"]:
            problems.append("work counters differ between the two traced runs")
    elif complete and setups:
        values, info = end_to_end(passes[0], setups)
    else:
        values = {}
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    env = {"git_sha": git_sha(), "nproc": os.cpu_count()}
    setup = next((r["setup"] for p in passes for r in p["results"] if r["setup"]), None)
    if setup:
        env.update(python=setup["python"], numpy=setup["numpy"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "info": info,
              "failed_ratio": failed / attempted, "killed_processes": killed,
              "problems": problems,
              "digest": passes[0]["digest"], "values": values,
              "tasks": [[t["label"], t["ms"], t["status"]] for t in passes[0]["tasks"]],
              "tasks_scaled_ms": [ms for _, ms in task_ms(passes[0])]
              if "wall_s" in values and not args.trace else None,
              "processes": [process_summary(r) for r in passes[0]["results"]]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(jobs)} processes per run, "
          f"{passes[0]['planned']} tasks; " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}"
          f" ({killed} processes killed at the deadline)")
    for k, v in info.items():
        print(f"# {k}: {v}")
    for msg in problems:
        print(f"# PROBLEM {msg}")
    print(json.dumps({"correct": complete and not problems and failed == 0,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
