"""Workload plans and task builders for the extlab benchmark.

A plan is a list of jobs, each run in its own fresh child process: one
job per canned script, as a command-line run of the script is, and one
per seeded task kind holding that kind's whole pair list, as a sweep
is.  Caches (``ctx.scratch``, ``mod._cache``, the module-global numerator
memo) start cold in every job and grow over its task list.  Plans depend
only on the workload name, the seed and the run length, and the planning
half of this module imports nothing from extlab: the parent process
plans a run without loading the package.

Seeded pairs come from ``ExperimentConfig(seed=...)``/``random_pair``,
but not every draw is kept.  The cost of a task is set mostly by the
shape of its presentations (see ``pair_class``: generators and relation
degrees relative to the lowest twist explain 97% of the variance of
symmetry task times), and costly shapes are rare enough that a few
hundred free draws vary a run's total work by 15-30% between seeds.  So
each task kind has a fixed mix of shape classes, ``mix.json`` (written by
``calibrate.py`` from 20000 draws of seed 0), ``quotas`` turns it into a
number of tasks per class that depends on the run length alone, and a run
walks the seed's draws in order, keeping each pair whose class still has
room.  Which pairs run depends on the seed; how many of each shape does
not.

Task sizes were calibrated on a 2-core x86-64 box (Python 3.11, numpy
2.4, one BLAS thread, each kind's pair list in one process).  ``KINDS`` gives the nominal seconds per task of
each seeded task kind there; a plan spends the run length on the canned
scripts first and splits the rest between the seeded kinds by ``share``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from math import comb, floor
from pathlib import Path

HERE = Path(__file__).resolve().parent

RING_RELATIONS = {
    "quadric": (("w", "x", "y", "z"), ("w*x - y*z",)),
    "nilsquares": (("x", "y"), ("x^2", "y^2")),
    "gor5": (("x", "y", "z"), ("x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2")),
}

# Default ExperimentConfig draws up to three generators.  On the quadric
# (symmetry pairs) and in the gor5 route exchange such pairs have a heavy
# tail: 4 of 30 seed-1 quadric pairs ran past 15 s, one gor5 route pair
# took 12.6 s.  A run of a few tens of seconds cannot absorb those, so
# these two task kinds draw cyclic modules.  The tail that remains is
# still the widest in the benchmark and shows in task_tail_ms.
CYCLIC = {"max_generators": 1}


@dataclass(frozen=True)
class Kind:
    seconds: float  # nominal seconds per task
    ring: str
    config: dict = field(default_factory=dict)  # ExperimentConfig overrides
    # Which arguments set a task's cost: "pair" (symmetry runs both
    # directions) or "left" (the first argument's resolution dominates,
    # the second's generator count scales it).
    cost_from: str = "left"


KINDS = {
    "symmetry": Kind(0.069, "quadric", CYCLIC, cost_from="pair"),
    "lemma36": Kind(0.052, "gor5"),
    "harness_scan": Kind(0.011, "nilsquares"),
    "routes_gor5": Kind(1.19, "gor5", CYCLIC),
    "routes_nil": Kind(0.065, "nilsquares"),
}

# canned scripts: (nominal seconds, --seed).  Each runs as its header
# says to; lemma-3-6-search.gor names --seed 7 for its canned report.
SCRIPTS = {"example-2-3": (4.7, 0), "koszul": (0.05, 0), "lemma-3-6-search": (3.3, 7)}

WORKLOADS = {
    "quadric-groebner": {
        "scripts": ["example-2-3"],
        "share": {"symmetry": 1.0},
    },
    "artinian-search": {
        "scripts": ["lemma-3-6-search", "koszul"],
        "share": {"lemma36": 0.75, "harness_scan": 0.25},
    },
    "gorenstein-routes": {
        "scripts": [],
        "share": {"routes_gor5": 0.25, "routes_nil": 0.75},
    },
}


@dataclass(frozen=True)
class Job:
    """The task list of one child process."""

    kind: str  # "script" or a key of KINDS
    seed: int
    indices: tuple = ()  # pair indices of a seeded kind
    script: str = ""

    @property
    def count(self) -> int:
        return 1 if self.kind == "script" else len(self.indices)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Job":
        d = json.loads(text)
        return cls(**{**d, "indices": tuple(d["indices"])})


def draws(workload: str, seconds: float) -> dict[str, int]:
    """Seeded tasks of each kind that fill the run length."""
    spec = WORKLOADS[workload]
    left = max(seconds - sum(SCRIPTS[n][0] for n in spec["scripts"]), seconds / 4)
    return {kind: max(2, round(left * share / KINDS[kind].seconds))
            for kind, share in spec["share"].items()}


def coarse(c: str, level: int) -> str:
    """A shape class seen coarser: level 1 keeps each side's numbers of
    generators and relations and the pair's total relative relation
    degree, level 2 only the numbers of generators and relations."""
    sides = []
    for x in c.split(" "):
        if ":" not in x:
            sides.append(x)  # the right argument's generator count
            continue
        gens, rels = (part.split(",") if part else [] for part in x.split(":"))
        sides.append(f"{len(gens)}g{len(rels)}r")
    key = " ".join(sides)
    return f"{key} {degree(c)}d" if level == 1 else key


def degree(c: str) -> int:
    """Total relative relation degree of a shape class."""
    return sum(int(d) for x in c.split(" ") if ":" in x
               for d in x.split(":")[1].split(",") if d)


def quotas(kind: str, n: int) -> dict[str, int]:
    """How many of the n tasks each shape class gets.

    A class with at least 1/n of the mix gets its share of the n tasks.
    Rarer classes are pooled: with the other rare classes of their coarse
    class (``coarse`` level 1), which cost about the same; a pool still
    below one task joins its level-2 pool, and what is left below one task
    forms one last pool.  The n tasks are split over classes and pools by
    largest remainder.  A pool's tasks go to its classes in proportion to
    their share (systematic sampling over the classes in order of degree),
    so which classes run, and how many of each, depends on n alone; the
    seed picks only the pairs.  Every class runs in proportion to the mix
    within its pool; a class rarer than its pool's 1/n may not run at a
    given n, but its pool, and so its kind of work, does.
    """
    mix = json.loads((HERE / "mix.json").read_text())[kind]
    total = sum(mix.values())
    share = {c: n * k / total for c, k in mix.items()}
    exact = {(c,): x for c, x in share.items() if x >= 1}
    rare = [c for c, x in share.items() if x < 1]
    for level in (1, 2):
        pools: dict[str, list[str]] = {}
        for c in rare:
            pools.setdefault(coarse(c, level), []).append(c)
        rare = []
        for members in pools.values():
            x = sum(share[c] for c in members)
            if x >= 1:
                exact[tuple(members)] = x
            else:
                rare += members
    if rare:
        exact[tuple(rare)] = sum(share[c] for c in rare)
    count = {g: floor(x) for g, x in exact.items()}
    rest = sorted(exact, key=lambda g: (count[g] - exact[g], g))
    for g in rest[: n - sum(count.values())]:
        count[g] += 1
    out: dict[str, int] = {}
    for group, q in count.items():
        members = sorted(group, key=lambda c: (degree(c), c))
        step = sum(share[c] for c in members) / q if q else 0.0
        for j in range(q):
            at, acc = (j + 0.5) * step, 0.0
            for c in members:
                acc += share[c]
                if acc > at:
                    break
            out[c] = out.get(c, 0) + 1
    return out


def plan(workload: str, seed: int, selected: dict[str, list[int]]) -> list[Job]:
    jobs = [Job("script", seed, script=name) for name in WORKLOADS[workload]["scripts"]]
    return jobs + [Job(kind, seed, tuple(idx)) for kind, idx in selected.items()]


# -- child side: building inputs and running tasks -------------------------
#
# Everything below imports extlab and runs only in a child process.


def make_ctx(ring: str):
    from extlab.groebner import RingCtx
    from extlab.poly import FieldSpec, PolyRing

    names, rels = RING_RELATIONS[ring]
    pring = PolyRing(FieldSpec(101), names)
    return RingCtx(pring, [pring.parse(r) for r in rels])


class WrongAnswer(Exception):
    """A task's output disagrees with its independent reference."""


def _expect(cond: bool, what: str):
    if not cond:
        raise WrongAnswer(what)


def _script_result(report: dict) -> dict:
    """Report minus timing fields, the part that must repeat exactly."""
    out = dict(report)
    out["statements"] = [
        {k: v for k, v in st.items() if k != "elapsed_ms"} for st in report["statements"]
    ]
    return out


def _check_script(name: str, report: dict):
    _expect(report["exit_code"] == 0, f"{name}: exit code {report['exit_code']}")
    stmts = report["statements"]
    _expect(all(st["status"] == "ok" for st in stmts), f"{name}: a statement failed")
    if name == "example-2-3":
        scan = next(st["result"]["scan"] for st in stmts if st["kind"] == "scan")
        dims = [scan["dims"][str(i)] for i in range(1, 11)]
        # Ext^i(k, dual N) over the quadric: 0, 1, then the residue
        # field's stable Betti number 8 from i = 3 on.
        _expect(dims == [0, 1] + [8] * 8, f"example-2-3: Ext dims {dims}")
        check = next(st["result"]["report"] for st in stmts if st["kind"] == "check")
        _expect(check["verdict"] == "consistent", f"example-2-3: theorem21 {check['verdict']}")
    elif name == "koszul":
        betti = next(st["result"]["betti"] for st in stmts if st["kind"] == "betti")
        want = [comb(3, i) for i in range(4)]
        _expect(betti["totals"][:4] == want and not any(betti["totals"][4:]),
                f"koszul: Betti totals {betti['totals']}")
        scan = next(st["result"]["scan"] for st in stmts if st["kind"] == "scan")
        dims = [scan["dims"][str(i)] for i in range(1, 7)]
        _expect(dims == want[1:] + [0, 0, 0], f"koszul: Ext(k, k) dims {dims}")
    elif name == "lemma-3-6-search":
        res = next(st["result"] for st in stmts if st["kind"] == "search")
        _expect(res["violations"] == 0 and res["ran"] == res["trials"],
                f"lemma-3-6-search: {res}")


def build_tasks(job: Job, repo: Path):
    """Inputs for one job: a list of (label, zero-argument callable).

    Each callable runs one task through the package's public functions,
    checks its output and returns a JSON-able result for the digest.
    """
    if job.kind == "script":
        from extlab.script import RunFlags, parse_script, report_json, run_script

        text = (repo / "scripts" / f"{job.script}.gor").read_text(encoding="utf-8")

        def run_canned():
            report = run_script(parse_script(text), RunFlags(seed=SCRIPTS[job.script][1]))
            json.loads(report_json(report))  # the rendering users read
            _check_script(job.script, report)
            return _script_result(report)

        return [(job.script, run_canned)]

    from extlab.vanishing import ExperimentConfig, random_pair

    kind = KINDS[job.kind]
    ctx = make_ctx(kind.ring)
    cfg = ExperimentConfig(seed=job.seed, **kind.config)
    run = _RUNNERS[job.kind]
    tasks = []
    for idx in job.indices:
        A, B = random_pair(cfg, ctx, idx)
        tasks.append((f"{job.kind}[{idx}]", _bind(run, A, B)))
    return tasks


def _shape(M) -> str:
    """Size of a presentation: the generators' twists and the relations'
    degrees, both relative to the lowest twist.  An overall twist shifts
    a module's grading without changing the work on it; the degrees of
    the relation polynomials set that work."""
    lo = min(M.row_twists, default=0)
    return (",".join(str(t - lo) for t in sorted(M.row_twists)) + ":"
            + ",".join(str(d - lo) for d in M.col_degrees))


def pair_class(kind: str, A, B) -> str:
    if KINDS[kind].cost_from == "pair":
        return f"{_shape(A)} {_shape(B)}"
    return f"{_shape(A)} {B.rank0}"


def select(kind: str, seed: int, n: int) -> list[int]:
    """Indices of the seed's draws that fill the kind's class quotas,
    taken in draw order.  Gives up after 200 n draws."""
    from extlab.vanishing import ExperimentConfig, random_pair

    k = KINDS[kind]
    ctx = make_ctx(k.ring)
    cfg = ExperimentConfig(seed=seed, **k.config)
    room = quotas(kind, n)
    picked = []
    idx = 0
    while sum(room.values()) and idx < 200 * n:
        c = pair_class(kind, *random_pair(cfg, ctx, idx))
        if room.get(c):
            room[c] -= 1
            picked.append(idx)
        idx += 1
    return picked


def _bind(fn, A, B):
    return lambda: fn(A, B)


def _symmetry(A, B):
    from extlab.vanishing import symmetry_check

    rep = symmetry_check(A, B, 12)
    _expect(rep.verdict == "consistent", f"symmetry verdict {rep.verdict}")
    for side in ("forward", "reverse"):
        pat = rep.details[side]
        # over a complete intersection a vanishing tail starts by dim R
        _expect(not pat.tail_vanishing or (pat.last_nonzero or 0) <= A.ctx.dim,
                f"{side} tail past ring dimension")
    return rep.to_json_dict()


def _lemma36(A, B):
    from extlab.vanishing import free_or_nonvanishing_check

    rep = free_or_nonvanishing_check(A, B)
    _expect(rep.verdict == "consistent", f"lemma36 verdict {rep.verdict}")
    return rep.to_json_dict()


def _harness_scan(A, B):
    """One trial of the search harness: a full Ext scan under the rank
    budget, then the harness's candidate test (which must never fire over
    a complete intersection)."""
    from extlab.vanishing import ExperimentConfig, scan_ext

    cfg = ExperimentConfig()
    d = A.ctx.dim
    H = max(cfg.window, d + 3)
    pat = scan_ext(A, B, H, full=True, rank_budget=cfg.rank_budget)
    last = pat.last_nonzero
    candidate = (
        last is not None and last > d and H - last >= 3
        and all(pat.dims[i] == 0 for i in range(last + 1, H + 1))
    )
    _expect(not candidate, f"harness candidate at last_nonzero {last}")
    return pat.to_json_dict()


def _routes(A, B):
    """Direct and complete-resolution routes must agree on every total."""
    from extlab.resolution import ext, ext_via_complete, tor, tor_via_complete

    idx = [1, 2, 3]
    er, tr = ext(A, B, idx), tor(A, B, idx)
    ev, tv = ext_via_complete(A, B, idx, t=5), tor_via_complete(A, B, idx, t=5)
    out = {}
    for i in idx:
        pair = {"ext": er.total(i), "tor": tr.total(i)}
        _expect(pair == {"ext": ev.total(i), "tor": tv.total(i)},
                f"routes disagree at i={i}")
        out[str(i)] = pair
    return out


_RUNNERS = {
    "symmetry": _symmetry,
    "lemma36": _lemma36,
    "harness_scan": _harness_scan,
    "routes_gor5": _routes,
    "routes_nil": _routes,
}
