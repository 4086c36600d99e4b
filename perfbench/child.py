"""One benchmark job in a fresh process.

    python3 perfbench/child.py --job '<json>' --spawned-at <monotonic> [--trace-out F | --setup-only]
    python3 perfbench/child.py --select '{"<kind>": <n>, ...}' --seed <n>

Builds the job's inputs, runs its tasks one after another, times each
from outside through the package's public functions, and writes one
``@@bench`` JSON line per event to stdout: ``setup`` once, ``task`` after
every task (so a parent that kills this process keeps what finished) and
``done`` at the end.  With ``--trace-out`` the layer modules are wrapped
by the tracer first, and the done line carries self times and counters.
With ``--setup-only`` it stops after the ``setup`` line, so the parent
can sample set-up time more than once per run.  Untraced, it also times
a fixed speed probe (``probe_ms``) after set-up, between tasks and at
the end, and writes one ``probe`` line for each.
With ``--select`` it only picks the seed's pair indices for each task
kind (``workloads.select``) and prints them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import Job, WrongAnswer, build_tasks, select  # noqa: E402


# The speed probe: a fixed pure-Python loop, run before a task once
# PROBE_EVERY_S has passed since the last probe.  Other tenants of the
# machine slow it and extlab alike: over 100 s of a quadric symmetry task
# and a gor5 lemma36 task alternating with it on a 2-core VM, the times of
# the tasks in 5 s windows varied by 14% and 12% (standard deviation over
# mean), their ratios to the probe's times by 5% and 8%.
PROBE_EVERY_S = 0.1
PROBE_LOOPS = 20000


def probe_ms() -> float:
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    s = 0
    for i in range(PROBE_LOOPS):
        k = i * 7919 % 1021
        d[k] = d.get(k, 0) + i
        s += d[k] % 13
    return (time.perf_counter() - t0) * 1e3


def emit(event: str, **fields):
    sys.stdout.write("@@bench " + json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--job")
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--select")
    ap.add_argument("--seed", type=int)
    args = ap.parse_args(argv)
    if args.select:
        picked = {kind: select(kind, args.seed, n) for kind, n in json.loads(args.select).items()}
        emit("select", indices=picked)
        return 0
    job = Job.from_json(args.job)

    import numpy
    from extlab.errors import ResourceCapError

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer().install()
    span = tracer.span if tracer else (lambda name: nullcontext())

    with span("bench.setup"):
        tasks = build_tasks(job, Path.cwd())
    setup_s = time.monotonic() - args.spawned_at
    last_probe = [0.0]

    def probe(times: int = 1):
        """Time the speed probe; untraced runs only."""
        for _ in range(times if tracer is None else 0):
            t = time.perf_counter()
            emit("probe", t=t, ms=probe_ms())
            last_probe[0] = time.perf_counter()

    probe(3)
    emit("setup", setup_s=setup_s, tasks=len(tasks),
         python=platform.python_version(), numpy=numpy.__version__)
    if args.setup_only:
        return 0

    t_all = time.perf_counter()
    with span("bench.tasks") as root:
        for k, (label, fn) in enumerate(tasks):
            if time.perf_counter() - last_probe[0] >= PROBE_EVERY_S:
                probe()
            if tracer:
                tracer.task_id = k
            with span("bench.task"):
                t0 = time.perf_counter()
                try:
                    out = fn()
                    status = "ok"
                except WrongAnswer as e:
                    out, status = {"wrong": str(e)}, "wrong"
                except ResourceCapError as e:
                    out, status = {"cap": str(e)}, "cap"
                except Exception as e:  # a task that raises is a failed task
                    traceback.print_exc(file=sys.stderr)
                    out, status = {"raised": repr(e)}, "raised"
                ms = (time.perf_counter() - t0) * 1e3
            if tracer:
                tracer.task_id = -1
            emit("task", label=label, t=t0, ms=ms, status=status, digest=digest(out),
                 error=None if status == "ok" else next(iter(out.values())))
    wall_s = time.perf_counter() - t_all
    probe(3)

    done = {"wall_s": wall_s,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.dump(args.trace_out)
        done["trace"] = tracer.summary(root)
        done["counts"] = dict(tracer.counts)
    emit("done", **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
