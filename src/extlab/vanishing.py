"""Vanishing-window experiments and consistency checkers.

Everything here observes finite windows.  A scan records the total
dimensions of Ext or Tor over a homological window [1, H] and renders a
verdict ("tail-vanishing") that is only ever a statement about that
window; nothing in this module extrapolates, and the search harness in
particular logs replay data for suspicious patterns instead of claiming
counterexamples.

Checkers compare scans or dimension formulas and report one of:

* ``consistent``      - the asserted relation held on the window,
* ``VIOLATION``       - it failed, after a confirmation pass at a wider
                        window (H + 4) for the pattern-based checkers,
* ``not established`` / ``hypothesis not established`` - data
  (infinite-length values, formulas with unchecked side conditions) that
  the window cannot decide.

Inputs outside a statement's hypotheses are refused by raising
`HypothesisNotMet`, never by a verdict.

Verdicts are pure functions of the recorded data; `VanishingPattern`
re-derives its own flags on construction so a hand-built inconsistent
pattern is rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from .errors import HypothesisNotMet, InvariantViolation, ResourceCapError
from .groebner import RingCtx, tp_exact_quotient
from .modules import (
    PresentedModule,
    dual_module,
    hom_module,
    stable_hom,
    tensor_module,
    vec_from_entries,
)
from .poly import Polynomial, PolyRing
from .resolution import (
    _check_pair,
    derived_dims,
    gorenstein_check,
    is_mcm,
    resolution_of,
    syzygy,
    tor_profile,
)

__all__ = [
    "VanishingPattern",
    "GapReport",
    "CheckReport",
    "ExperimentConfig",
    "scan_ext",
    "scan_tor",
    "gap_analysis",
    "ext_index_estimate",
    "tail_equivalence_check",
    "symmetry_check",
    "tor_duality_check",
    "lescot_betti_check",
    "free_or_nonvanishing_check",
    "tensor_mcm_check",
    "stable_suite_check",
    "quotient_context",
    "restrict_through_quotient",
    "change_of_rings_check",
    "external_tensor",
    "external_product_check",
    "random_module",
    "random_pair",
    "search_harness",
    "module_replay",
    "ring_replay",
]


# -- replay data -------------------------------------------------------------


def module_replay(mod: PresentedModule) -> dict:
    """Everything needed to rebuild `mod` by hand: degrees and a string matrix."""
    return {
        "generator_degrees": list(mod.row_twists),
        "relation_matrix": [[str(e) for e in row] for row in mod.presentation_matrix()],
    }


def ring_replay(ctx: RingCtx) -> dict:
    return {
        "characteristic": ctx.ring.field.p,
        "variables": list(ctx.ring.variables),
        "relations": [str(f) for f in ctx.relations],
    }


def _jsonable(x):
    if hasattr(x, "to_json_dict"):
        return x.to_json_dict()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# -- window scans ------------------------------------------------------------


@dataclass
class VanishingPattern:
    """Total dimensions of Ext or Tor over the homological window [1, H].

    ``dims[i]`` is the k-dimension of the i-th value, with ``None``
    standing for infinite length (which counts as nonzero).  A scan in
    verdict mode may stop early once a nonzero value past the ring
    dimension settles the question; ``computed_to`` records how far it
    got, and indices above it were never evaluated.  ``tail_vanishing``
    means: the window was fully computed and every dimension on
    (ring_dim, H] is zero.  Both flags are re-derived here, so they can
    never drift from the stored dimensions.
    """

    kind: str
    labels: tuple[str, str]
    window: tuple[int, int]
    ring_dim: int
    dims: dict[int, int | None]
    computed_to: int
    tail_vanishing: bool = field(init=False)
    last_nonzero: int | None = field(init=False)

    def __post_init__(self):
        if self.kind not in ("ext", "tor"):
            raise ValueError(f"unknown scan kind {self.kind!r}")
        lo, hi = self.window
        if lo != 1 or hi < self.ring_dim + 3:
            raise ValueError(
                f"window {self.window} invalid: must start at 1 and reach "
                f"ring dimension + 3 = {self.ring_dim + 3}"
            )
        if set(self.dims) != set(range(1, self.computed_to + 1)):
            raise InvariantViolation("scan recorded a ragged dimension table")
        nz = [i for i, v in self.dims.items() if v != 0]
        self.last_nonzero = max(nz) if nz else None
        self.tail_vanishing = self.computed_to == hi and all(
            self.dims[i] == 0 for i in range(self.ring_dim + 1, hi + 1)
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "labels": list(self.labels),
            "window": list(self.window),
            "ring_dim": self.ring_dim,
            "dims": {str(i): ("infinite" if v is None else v) for i, v in sorted(self.dims.items())},
            "computed_to": self.computed_to,
            "tail_vanishing": self.tail_vanishing,
            "last_nonzero": self.last_nonzero,
        }


def _scan(kind, M, N, H, labels, full, rank_budget):
    _check_pair(M, N)
    ctx = M.ctx
    d = ctx.dim
    if H < d + 3:
        raise ValueError(f"window top {H} is below ring dimension + 3 = {d + 3}")
    Mm = M.minimal_presentation()
    Nm = N.minimal_presentation()
    res = resolution_of(Mm)
    # A free or zero second argument settles Tor immediately.  Ext over a
    # free target vanishes only when free modules are injective, i.e. over
    # a zero-dimensional Gorenstein context; without that shortcut an
    # all-zero pattern would drag the resolution out to the full window.
    n_trivial = Nm.rank0 == 0 or (kind == "tor" and Nm.is_free())
    if not n_trivial and kind == "ext" and Nm.is_free():
        n_trivial = ctx.is_artinian and gorenstein_check(ctx)
    dims: dict[int, int | None] = {}
    computed_to = 0
    for i in range(1, H + 1):
        pd = res.known_pd()
        if n_trivial or (pd is not None and i > pd):
            dims[i] = 0
            computed_to = i
            continue
        res.extend_to(i + 1, rank_budget=rank_budget)
        graded = derived_dims(kind, Mm, Nm, i)
        val = None if graded is None else sum(graded.values())
        dims[i] = val
        computed_to = i
        if not full and i > d and val != 0:
            break
    return VanishingPattern(
        kind=kind, labels=tuple(labels), window=(1, H), ring_dim=d,
        dims=dims, computed_to=computed_to,
    )


def scan_ext(M, N, H, *, labels=("M", "N"), full=True, rank_budget=None) -> VanishingPattern:
    """Record dim Ext^i(M, N) for i in [1, H].

    With full=False the scan stops at the first nonzero value past the
    ring dimension: that already decides tail_vanishing, and over rings
    with fast Betti growth it is the difference between milliseconds
    and minutes.  rank_budget caps the total resolution width and makes
    the scan abort with ResourceCapError instead of thrashing.
    """
    return _scan("ext", M, N, H, labels, full, rank_budget)


def scan_tor(M, N, H, *, labels=("M", "N"), full=True, rank_budget=None) -> VanishingPattern:
    return _scan("tor", M, N, H, labels, full, rank_budget)


@dataclass(frozen=True)
class GapReport:
    """A maximal run of `length` zero values starting right after index `start`,
    with nonzero values on both flanks."""

    start: int
    length: int

    def to_json_dict(self) -> dict:
        return {"start": self.start, "length": self.length}


def gap_analysis(pattern: VanishingPattern) -> list[GapReport]:
    nz = [i for i in range(1, pattern.computed_to + 1) if pattern.dims[i] != 0]
    return [
        GapReport(start=a, length=b - a - 1)
        for a, b in zip(nz, nz[1:])
        if b - a > 1
    ]


def ext_index_estimate(pairs, H) -> dict:
    """Largest last_nonzero among tail-vanishing Ext patterns of `pairs`.

    The result is explicitly window-bounded: a wider window can only
    grow it, and pairs whose pattern never vanishes in-window contribute
    nothing.
    """
    best = None
    for j, (M, N) in enumerate(pairs):
        pat = scan_ext(M, N, H, labels=(f"pair{j}.left", f"pair{j}.right"), full=False)
        if pat.tail_vanishing:
            best = max(best or 0, pat.last_nonzero or 0)
    return {
        "estimate": best if best is not None else "no tail-vanishing pair observed",
        "window": H,
        "note": "window-bounded estimate",
    }


# -- check reports -----------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    verdict: str
    window: int | None = None
    details: dict = field(default_factory=dict)
    replay: dict | None = None

    @property
    def is_violation(self) -> bool:
        return self.verdict == "VIOLATION"

    @property
    def ok(self) -> bool:
        return self.verdict == "consistent"

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict, "details": _jsonable(self.details)}
        if self.window is not None:
            out["window"] = self.window
        if self.replay is not None:
            out["replay"] = _jsonable(self.replay)
        return out


def _pattern_agreement(make_scans, H):
    """Run the scans; on disagreement retry once at H + 4 so a verdict of
    VIOLATION is never an artifact of a window that was barely legal."""
    pats = make_scans(H)
    if len({p.tail_vanishing for p in pats}) == 1:
        return "consistent", pats, H
    wider = H + 4
    pats = make_scans(wider)
    verdict = "consistent" if len({p.tail_vanishing for p in pats}) == 1 else "VIOLATION"
    return verdict, pats, wider


def _pair_replay(M, N) -> dict:
    return {
        "ring": ring_replay(M.ctx),
        "left": module_replay(M),
        "right": module_replay(N),
    }


def _report(name, verdict, window, details, M, N) -> CheckReport:
    """A checker's report; a VIOLATION carries the pair's replay data."""
    replay = _pair_replay(M, N) if verdict == "VIOLATION" else None
    return CheckReport(name, verdict, window, details, replay=replay)


# -- pattern checkers --------------------------------------------------------


def _require_gorenstein_mcm(M, N):
    """Gate for the statements about MCM modules over a Gorenstein ring."""
    if not gorenstein_check(M.ctx):
        raise HypothesisNotMet("ring is not Gorenstein")
    for lab, X in (("left", M), ("right", N)):
        if X.rank0 and not is_mcm(X):
            raise HypothesisNotMet(f"{lab} argument not maximal Cohen-Macaulay")


def tail_equivalence_check(M, N, H) -> CheckReport:
    """Tail-vanishing of Tor(M,N), Ext(M,dual N) and Ext(N,dual M) must agree
    for maximal Cohen-Macaulay modules over a Gorenstein ring.

    Other modules are refused (`HypothesisNotMet`): a VIOLATION from a
    run with the gate bypassed shows that the gate is load-bearing, and
    is not a counterexample.
    """
    _require_gorenstein_mcm(M, N)
    Ms, Ns = dual_module(M), dual_module(N)

    def scans(h):
        return [
            scan_tor(M, N, h, labels=("M", "N"), full=False),
            scan_ext(M, Ns, h, labels=("M", "dual(N)"), full=False),
            scan_ext(N, Ms, h, labels=("N", "dual(M)"), full=False),
        ]

    verdict, pats, window = _pattern_agreement(scans, H)
    return _report("tail_equivalence", verdict, window, {"patterns": pats}, M, N)


def symmetry_check(M, N, H) -> CheckReport:
    """Tail-vanishing of Ext(M,N) and Ext(N,M) must agree."""
    def scans(h):
        return [
            scan_ext(M, N, h, labels=("M", "N"), full=False),
            scan_ext(N, M, h, labels=("N", "M"), full=False),
        ]

    verdict, pats, window = _pattern_agreement(scans, H)
    return CheckReport(
        "ext_symmetry", verdict, window,
        {"forward": pats[0], "reverse": pats[1]},
        replay=_pair_replay(M, N),
    )


def tor_duality_check(M, N, H) -> CheckReport:
    """Tail-vanishing of Tor(M,N) and of Ext(dual M, N) must agree for
    maximal Cohen-Macaulay modules over a Gorenstein ring."""
    _require_gorenstein_mcm(M, N)
    Ms = dual_module(M)

    def scans(h):
        return [
            scan_tor(M, N, h, labels=("M", "N"), full=False),
            scan_ext(Ms, N, h, labels=("dual(M)", "N"), full=False),
        ]

    verdict, pats, window = _pattern_agreement(scans, H)
    return _report("tor_duality", verdict, window, {"patterns": pats}, M, N)


# -- numerical checkers ------------------------------------------------------


def _require_short_gorenstein(ctx) -> int:
    """Gate for the minimal-multiplicity statements: artinian, one-dimensional
    socle, length = embdim + 2, embdim > 2.  Returns the embedding dimension."""
    if not ctx.is_artinian:
        raise HypothesisNotMet("ring is not artinian")
    if not gorenstein_check(ctx):
        raise HypothesisNotMet("ring is not Gorenstein: its socle is not one-dimensional")
    emb = ctx.hilbert_function(1)
    if ctx.length != emb + 2:
        raise HypothesisNotMet(
            f"length {ctx.length} differs from embedding dimension + 2 = {emb + 2}")
    if emb <= 2:
        raise HypothesisNotMet(f"embedding dimension {emb}, need more than 2")
    return emb


def lescot_betti_check(M) -> CheckReport:
    """Lescot's closed Betti formulas for the first syzygy of M.

    Over a short Gorenstein ring (see the gate) with embedding dimension
    n, a first syzygy M' with b0 generators and s = dim(m M') satisfies
    b1 = n b0 - s, b2 = b0 (n^2 - 1) - s n, b3 = b0 (n^3 - 2n) - s (n^2 - 1).
    A formula miss is reported as "hypothesis not established", not as a
    violation: these formulas carry side conditions a random module need
    not satisfy, and the checker refuses to adjudicate them.
    """
    ctx = M.ctx
    n = _require_short_gorenstein(ctx)
    M1 = syzygy(M, 1)
    if M1.rank0 == 0:
        return CheckReport("lescot_betti", "consistent", None,
                           {"note": "first syzygy is zero; nothing to test"})
    b0 = M1.rank0
    s = M1.length() - b0  # dim of (maximal ideal) * M1, by minimality
    res = resolution_of(M1)
    res.extend_to(3)
    expected = [n * b0 - s, b0 * (n * n - 1) - s * n, b0 * (n ** 3 - 2 * n) - s * (n * n - 1)]
    formulas = {}
    for i, want in enumerate(expected, start=1):
        got = res.rank(i)
        formulas[f"b{i}"] = {"expected": want, "actual": got, "ok": want == got}
    verdict = "consistent" if all(v["ok"] for v in formulas.values()) else "hypothesis not established"
    return CheckReport("lescot_betti", verdict, None, {
        "b0": b0, "socle_defect": s, "embedding_dimension": n, "formulas": formulas,
    })


def _smaller_resolution_first(Mm, Nm):
    """(Mm, Nm), or (Nm, Mm) when Nm's resolution looks smaller: both are
    extended to step 2 and compared by (rank F_2, rank F_1, rank F_0).
    A tie keeps the given order.  Both resolutions then hold d_2, so the
    first syzygy of either side is presented with no further step."""
    def key(X):
        res = resolution_of(X).extend_to(2)
        return res.rank(2), res.rank(1), res.rank(0)

    return (Nm, Mm) if key(Nm) < key(Mm) else (Mm, Nm)


def free_or_nonvanishing_check(M, N) -> CheckReport:
    """Over a short Gorenstein ring, two non-free modules cannot have
    Tor_3 = Tor_4 = Tor_5 = 0.  A VIOLATION here fails the build.

    Tor is balanced: Tor_i(M, N) and Tor_i(N, M) have the same graded
    dimensions.  So the check resolves whichever argument's resolution is
    smaller (`_smaller_resolution_first`), A, and takes the other one, B,
    to its first syzygy: for i >= 2, Tor_i(A, B) = Tor_{i-1}(A, Omega B)
    as graded vector spaces, from 0 -> Omega B -> F_0 -> B -> 0, since
    Tor_{>= 1}(A, F_0) = 0.  Omega B is presented on B's F_1 by the
    columns of d_2, which the side choice has built.  So Tor_3, Tor_4 and
    Tor_5 are read as Tor_2, Tor_3 and Tor_4 of (A, Omega B), and A is
    resolved to F_4, whose top cokernel is read off d_4
    (`resolution._coker_series`).  Over a short Gorenstein ring the ranks
    grow about geometrically (the residue field's go 1, 3, 8, 21, 55,
    ...), so F_5 would be the largest term.  Only this check picks the
    side: it asks for Tor alone, while the other Tor callers resolve M
    for Ext as well.  The report names M and N in the order given."""
    _check_pair(M, N)
    _require_short_gorenstein(M.ctx)
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    if Mm.is_free() or Nm.is_free():
        return CheckReport("free_or_nonvanishing", "consistent", None,
                           {"note": "a free member makes the statement vacuous"})
    A, B = _smaller_resolution_first(Mm, Nm)
    omega = syzygy(B, 1)
    dims = {i: sum(tor_profile(A, omega, i - 1).values()) for i in (3, 4, 5)}
    verdict = "consistent" if any(dims.values()) else "VIOLATION"
    return _report("free_or_nonvanishing", verdict, None, {"tor_dims": dims}, M, N)


def tensor_mcm_check(M, N) -> CheckReport:
    """Two-sided test of: dual(M) (x) N is maximal Cohen-Macaulay exactly when
    Ext^1..Ext^dim(N, M) vanish, for MCM modules over a Gorenstein ring.

    The forward direction (vanishing forces MCM) is always checked; the
    converse only when the Ext values have finite length, since without
    that the statement carries no promise.  When both sides hold, the
    attached conclusions are checked too: Hom(N, M) is MCM and the graded
    dimensions of dual(M) (x) N match those of dual(Hom(N, M)).
    """
    _check_pair(M, N)
    _require_gorenstein_mcm(M, N)
    d = M.ctx.dim
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    graded = [derived_dims("ext", Nm, Mm, i) for i in range(1, d + 1)]
    totals = [None if g is None else sum(g.values()) for g in graded]
    ext_vanishes = all(t == 0 for t in totals)
    finite = all(t is not None for t in totals)
    T = tensor_module(dual_module(Mm), Nm)
    tensor_mcm = T.rank0 == 0 or is_mcm(T)
    details = {
        "ext_totals_1_to_dim": ["infinite" if t is None else t for t in totals],
        "ext_vanishes": ext_vanishes,
        "tensor_is_mcm": tensor_mcm,
        "ext_finite_length": finite,
    }
    verdict = "consistent"
    if ext_vanishes and not tensor_mcm:
        verdict = "VIOLATION"
        details["reason"] = "Ext vanished but the tensor product is not maximal Cohen-Macaulay"
    elif tensor_mcm and finite and not ext_vanishes:
        verdict = "VIOLATION"
        details["reason"] = "tensor product maximal Cohen-Macaulay but Ext did not vanish"
    elif tensor_mcm and not finite:
        verdict = "not established"
        details["reason"] = "Ext values of infinite length; converse not covered"
    if ext_vanishes and tensor_mcm:
        hm = hom_module(Nm, Mm)
        hom_mcm = hm.rank0 == 0 or is_mcm(hm)
        dims_match = T.hilbert_numerator() == dual_module(hm).hilbert_numerator()
        details["hom_is_mcm"] = hom_mcm
        details["tensor_matches_dual_hom"] = dims_match
        if not (hom_mcm and dims_match):
            verdict = "VIOLATION"
            details["reason"] = "vanishing held but an attached conclusion failed"
    return _report("tensor_mcm", verdict, None, details, M, N)


def stable_suite_check(M, N, indices=(2, 3, 4)) -> CheckReport:
    """Dimension bookkeeping that ties Ext to stable Hom, for MCM M.

    Per index i >= 2, the four-term exact sequence
    0 -> Ext^{i-1}(M,N) -> dual(M_i) (x) N -> Hom(M_i, N) -> Ext^i(M,N) -> 0
    forces a zero alternating sum of graded dimensions, and stable
    Hom(M_i, N) must have the total dimension of Ext^i(M,N).  Finally the
    stable Hom of the pair itself is compared with its syzygy shift and
    with the dual-swapped pair.  A term of infinite length (possible off
    the artinian locus) leaves its comparison "not established".
    """
    _check_pair(M, N)
    if M.rank0 and not is_mcm(M):
        raise HypothesisNotMet("left argument not maximal Cohen-Macaulay")
    if any(i < 2 for i in indices):
        raise ValueError("four-term identity needs indices >= 2")
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    egr = {i: derived_dims("ext", Mm, Nm, i) for i in range(min(indices) - 1, max(indices) + 1)}
    per_index = {}
    broken = False
    undecided = False
    for i in sorted(indices):
        e_prev = egr[i - 1]
        e_here = egr[i]
        Mi = syzygy(Mm, i)
        Tg = tensor_module(dual_module(Mi), Nm)._finite_hf()
        Hg = hom_module(Mi, Nm)._finite_hf()
        entry = {}
        if None in (e_prev, e_here, Tg, Hg):
            entry["four_term"] = "not established (infinite length)"
            undecided = True
        else:
            degs = set(e_prev) | set(e_here) | set(Tg) | set(Hg)
            bad = {
                t: e_prev.get(t, 0) - Tg.get(t, 0) + Hg.get(t, 0) - e_here.get(t, 0)
                for t in degs
                if e_prev.get(t, 0) - Tg.get(t, 0) + Hg.get(t, 0) - e_here.get(t, 0)
            }
            entry["four_term"] = "ok" if not bad else f"defect {bad}"
            broken |= bool(bad)
        want = None if e_here is None else sum(e_here.values())
        got = stable_hom(Mi, Nm).length()
        if want is None or got is None:
            entry["stable_hom_dim"] = "not established (infinite length)"
            undecided = True
        else:
            entry["stable_hom_dim"] = {"expected": want, "actual": got, "ok": got == want}
            broken |= got != want
        per_index[i] = entry
    base = stable_hom(Mm, Nm).length()
    shifted = stable_hom(syzygy(Mm, 1), syzygy(Nm, 1)).length()
    swapped = stable_hom(dual_module(Nm), dual_module(Mm)).length()
    shift_detail = {"base": base, "syzygy_shift": shifted, "dual_swap": swapped}
    if None in (base, shifted, swapped):
        undecided = True
    else:
        broken |= not (base == shifted == swapped)
    verdict = "VIOLATION" if broken else ("not established" if undecided else "consistent")
    return _report("stable_suite", verdict, None,
                   {"per_index": per_index, "stable_shifts": shift_detail}, M, N)


# -- change of rings ---------------------------------------------------------


def quotient_context(Sctx: RingCtx, f: Polynomial) -> RingCtx:
    """The ring of Sctx with one more homogeneous nonzerodivisor relation f.

    Cached on Sctx so repeated calls share Groebner state.  Raises
    ValueError when f is inhomogeneous or kills something: the Hilbert
    numerator of the quotient must factor exactly as numerator(S) * (1 - t^deg f).
    """
    if not isinstance(f, Polynomial) or f.ring is not Sctx.ring:
        raise ValueError("relation must be a polynomial of the base ring")
    if not f.is_homogeneous() or f.degree() <= 0:
        raise ValueError("relation must be homogeneous of positive degree")
    key = tuple(sorted(f.raw().items()))
    cache = Sctx.scratch.setdefault("quotient_ctx", {})
    hit = cache.get(key)
    if hit is None:
        hit = RingCtx(Sctx.ring, list(Sctx.relations) + [f])
        back = tp_exact_quotient(hit.numerator, f.degree())
        if back != dict(Sctx.numerator):
            raise ValueError("relation is a zerodivisor on the base ring")
        cache[key] = hit
    return hit


def restrict_through_quotient(mod: PresentedModule, Sctx: RingCtx, f: Polynomial) -> PresentedModule:
    """View a module over Sctx/(f) as a module over Sctx.

    Presentations are ring-level data, so the columns carry over verbatim;
    only the rows f*e_j must be added to kill f on each generator.
    """
    if mod.ctx.ring is not Sctx.ring:
        raise ValueError("module does not live over a quotient of the given ring")
    codec = mod.ctx.codec
    extra = []
    for j in range(mod.rank0):
        extra.append({codec.mkey(mk, j): c for mk, c in f.raw().items()})
    return PresentedModule(Sctx, mod.row_twists, list(mod.columns) + extra)


def _same_quotient(Rctx: RingCtx, Sctx: RingCtx, f: Polynomial) -> bool:
    if Rctx.ring is not Sctx.ring:
        return False
    want = {tuple(sorted(g.raw().items())) for g in Sctx.relations}
    want.add(tuple(sorted(f.raw().items())))
    have = {tuple(sorted(g.raw().items())) for g in Rctx.relations}
    return have == want


def _le_with_shift(small, big0, big1, shift):
    """small[t] <= big0[t] + big1[t + shift] for every degree t; returns the
    offending degrees."""
    bad = {}
    for t, v in small.items():
        cap = big0.get(t, 0) + big1.get(t + shift, 0)
        if v > cap:
            bad[t] = {"value": v, "bound": cap}
    return bad


def change_of_rings_check(Sctx: RingCtx, f: Polynomial, M, N, H) -> CheckReport:
    """Graded comparisons between homological algebra over S and over S/(f).

    For modules M, N over R = S/(f) with f a homogeneous nonzerodivisor
    of degree w on S, the window [1, H] is checked for:

    * dim_t Ext^i_S <= dim_t Ext^i_R + dim_{t+w} Ext^{i-1}_R,
    * dim_t Tor^S_i <= dim_t Tor^R_i + dim_{t-w} Tor^R_{i-1},
    * two-step periodicity over R, Ext^{i+2}_R(t) = Ext^i_R(t + w),
      on every subwindow where Ext^{i+1}_S and Ext^{i+2}_S both vanish,
    * the syzygy transfer: for A a first syzygy over S of the restricted
      module (f is automatically regular on a submodule of a free), the
      graded dimensions of Ext^i_S(A, N) and Ext^i_R(A/fA, N) agree.

    Indices with an infinite-length value on either side are reported as
    undecidable rather than compared.
    """
    Rctx = quotient_context(Sctx, f)
    if M.ctx is not N.ctx or not _same_quotient(M.ctx, Sctx, f):
        raise ValueError("modules must live over the quotient of Sctx by f")
    if M.ctx is not Rctx:
        Rctx = M.ctx  # equivalent presentation of the same quotient
    w = f.degree()
    MS = restrict_through_quotient(M, Sctx, f)
    NS = restrict_through_quotient(N, Sctx, f)
    eR = {i: derived_dims("ext", M, N, i) for i in range(0, H + 1)}
    tR = {i: derived_dims("tor", M, N, i) for i in range(0, H + 1)}
    eS = {i: derived_dims("ext", MS, NS, i) for i in range(0, H + 1)}
    tS = {i: derived_dims("tor", MS, NS, i) for i in range(0, H + 1)}
    details: dict = {"relation_degree": w}
    undecided = []
    violations = []

    ext_ineq = {}
    tor_ineq = {}
    for i in range(1, H + 1):
        if None in (eS[i], eR[i], eR[i - 1]):
            ext_ineq[i] = "undecided (infinite length)"
            undecided.append(("ext_inequality", i))
        else:
            bad = _le_with_shift(eS[i], eR[i], eR[i - 1], w)
            ext_ineq[i] = "ok" if not bad else bad
            if bad:
                violations.append(("ext_inequality", i))
        if None in (tS[i], tR[i], tR[i - 1]):
            tor_ineq[i] = "undecided (infinite length)"
            undecided.append(("tor_inequality", i))
        else:
            bad = _le_with_shift(tS[i], tR[i], tR[i - 1], -w)
            tor_ineq[i] = "ok" if not bad else bad
            if bad:
                violations.append(("tor_inequality", i))
    details["ext_inequality"] = ext_ineq
    details["tor_inequality"] = tor_ineq

    periodicity = {}
    for i in range(1, H - 1):
        if eS[i + 1] is None or eS[i + 2] is None or eS[i + 1] or eS[i + 2]:
            continue  # connecting window not silent over S
        if eR[i] is None or eR[i + 2] is None:
            periodicity[i] = "undecided (infinite length)"
            undecided.append(("periodicity", i))
            continue
        want = {t - w: v for t, v in eR[i].items()}
        ok = want == eR[i + 2]
        periodicity[i] = "ok" if ok else {"expected": want, "actual": eR[i + 2]}
        if not ok:
            violations.append(("periodicity", i))
    details["periodicity"] = periodicity

    A = syzygy(MS, 1)
    if A.rank0 == 0:
        A = PresentedModule.free(Sctx, (0,))
        details["syzygy_transfer_note"] = "restricted module was free; used S itself"
    AR = PresentedModule(Rctx, A.row_twists, A.columns)  # A/fA has the same presentation over R
    transfer = {}
    for i in range(0, H + 1):
        left = derived_dims("ext", A, NS, i)
        right = derived_dims("ext", AR, N, i)
        if left is None or right is None:
            transfer[i] = "undecided (infinite length)"
            undecided.append(("syzygy_transfer", i))
            continue
        ok = left == right
        transfer[i] = "ok" if ok else {"over_base": left, "over_quotient": right}
        if not ok:
            violations.append(("syzygy_transfer", i))
    details["syzygy_transfer"] = transfer

    if violations:
        verdict = "VIOLATION"
        details["failures"] = [f"{kind} at {i}" for kind, i in violations]
    elif undecided:
        verdict = "not established"
    else:
        verdict = "consistent"
    return _report("change_of_rings", verdict, H, details, M, N)


# -- external tensor product -------------------------------------------------


def _fresh_name(base: str, taken: set[str]) -> str:
    # Walk the alphabet starting just past the colliding letter, so the
    # second x of k[x] (x) k[x] lands on y rather than a.  Two factors of
    # at most 12 variables each (`PolyRing`'s limit) take at most 24
    # names, so some letter is always free.
    letters = "abcdefghijklmnopqrstuvwxyz"
    start = letters.index(base) + 1 if len(base) == 1 and base in letters else 0
    return next(c for c in letters[start:] + letters[:start] if c not in taken)


def external_tensor(ctx_r: RingCtx, ctx_s: RingCtx):
    """Coproduct of two quotient rings over the same prime field.

    Returns (ctx, carry_left, carry_right) where ctx is the quotient of
    the polynomial ring on the disjoint union of the variables by both
    relation sets, and the carries send a module over a factor to its
    scalar extension over ctx (same generator degrees, transported
    columns).  A variable of the right factor that collides with a left
    name is renamed to the first unused single letter, so the product of
    two copies of GF(p)[x]/(x^2) has variables (x, y).
    """
    pr, ps = ctx_r.ring, ctx_s.ring
    if pr.field.p != ps.field.p:
        raise ValueError("factors live over different prime fields")
    taken = set(pr.variables) | set(ps.variables)
    names_s = []
    for nm in ps.variables:
        if nm in pr.variables:
            nm = _fresh_name(nm, taken)
        names_s.append(nm)
        taken.add(nm)
    ring = PolyRing(
        pr.field,
        tuple(pr.variables) + tuple(names_s),
        weights=pr.weights + ps.weights,
        degree_cap=max(pr.degree_cap, ps.degree_cap),
    )
    pad_r = len(ps.variables)
    pad_s = len(pr.variables)

    def lift_poly(src_ring, raw, left):
        out = {}
        for mk, c in raw.items():
            exps = src_ring.decode_monomial(mk)
            full = tuple(exps) + (0,) * pad_r if left else (0,) * pad_s + tuple(exps)
            out[ring.encode_monomial(full)] = c
        return out

    rels = [Polynomial(ring, lift_poly(pr, g.raw(), True)) for g in ctx_r.relations]
    rels += [Polynomial(ring, lift_poly(ps, g.raw(), False)) for g in ctx_s.relations]
    ctx = RingCtx(ring, rels)

    def carry(src_ctx, left):
        def move(mod: PresentedModule) -> PresentedModule:
            if mod.ctx is not src_ctx:
                raise ValueError("module does not live over the matching factor")
            cols = []
            for col in mod.columns:
                new = {}
                for key, c in col.items():
                    mk = src_ctx.codec.mono_of(key)
                    comp = src_ctx.codec.comp_of(key)
                    lifted = lift_poly(src_ctx.ring, {mk: c}, left)
                    for nmk, nc in lifted.items():
                        new[ctx.codec.mkey(nmk, comp)] = nc
                cols.append(new)
            return PresentedModule(ctx, mod.row_twists, cols)
        return move

    return ctx, carry(ctx_r, True), carry(ctx_s, False)


def external_product_check(M_R, N_S, H) -> CheckReport:
    """Over the coproduct A of two Gorenstein rings, Ext_A between a module
    carried from each factor must vanish strictly above dim A (and A must
    itself pass the Gorenstein test)."""
    for lab, X in (("left", M_R.ctx), ("right", N_S.ctx)):
        if not gorenstein_check(X):
            raise HypothesisNotMet(f"{lab} factor ring is not Gorenstein")
    ctx, carry_l, carry_r = external_tensor(M_R.ctx, N_S.ctx)
    MA, NA = carry_l(M_R), carry_r(N_S)
    product_gorenstein = gorenstein_check(ctx)
    pat = scan_ext(MA, NA, H, labels=("M", "N"), full=False)
    verdict = "consistent" if product_gorenstein and pat.tail_vanishing else "VIOLATION"
    rep = CheckReport("external_product", verdict, H, {
        "product_ring": ring_replay(ctx),
        "product_dim": ctx.dim,
        "gorenstein": product_gorenstein,
        "pattern": pat,
    })
    if verdict == "VIOLATION":
        rep.replay = {"left": module_replay(M_R), "right": module_replay(N_S)}
    return rep


# -- random modules and the search harness -----------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for randomized runs.

    The generator cap is a hard limit (small presentations keep every
    scan tractable); `random_module` fixes the rest of a draw's shape.
    window and trials scale the work.  rank_budget bounds the total width
    of any one resolution so a single bad draw aborts with
    ResourceCapError instead of eating the run.
    """

    window: int = 10
    seed: int = 0
    trials: int = 20
    max_generators: int = 3
    rank_budget: int | None = 6000

    def __post_init__(self):
        if not 1 <= self.max_generators <= 3:
            raise ValueError("generator cap must lie in 1..3")
        if self.window < 1 or self.trials < 0:
            raise ValueError("window must be positive and trials nonnegative")

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def random_module(cfg: ExperimentConfig, ctx: RingCtx, index: int = 0) -> PresentedModule:
    """Seeded homogeneous presentation, reproducible across runs.

    Draws 1..max_generators generators with twists in 0..1, then up to
    generators+1 relation columns: each column picks a total degree in
    1..3 and fills every component whose forced entry degree is positive
    with a dense-ish random form (uniform coefficients over all monomials
    of that degree, each kept with probability 0.7).  The same (seed,
    index) always yields the same module.
    """
    rng = random.Random(cfg.seed * 1_000_003 + index)
    g = rng.randint(1, cfg.max_generators)
    twists = tuple(sorted(rng.randint(0, 1) for _ in range(g)))
    cols = []
    for _ in range(rng.randint(1, g + 1)):
        d = rng.randint(1, 3)
        entries = []
        for a in twists:
            e = d - a
            if e > 0:
                entries.append(ctx.ring.random_homogeneous(rng, e, 0.7))
            else:
                # Constant entries would just cancel a generator; keep the
                # draw honest by leaving the slot empty instead.
                entries.append(Polynomial(ctx.ring, {}))
        col = vec_from_entries(ctx, entries)
        if col:
            cols.append(col)
    return PresentedModule(ctx, twists, cols)


def random_pair(cfg: ExperimentConfig, ctx: RingCtx, index: int = 0):
    return random_module(cfg, ctx, 2 * index), random_module(cfg, ctx, 2 * index + 1)


def search_harness(cfg: ExperimentConfig, ctx: RingCtx) -> dict:
    """Scan seeded random pairs for Ext patterns that vanish on a final
    segment of the window yet stay nonzero past the ring dimension.

    Such a pattern contradicts what holds over the rings this package
    ships, so each one is logged with full replay data and re-confirmed
    at a wider window first.  The report never claims a counterexample:
    every candidate is an observation about one finite window.  Trials
    whose resolution outgrows the rank budget are logged as unresolved.
    """
    d = ctx.dim
    H = max(cfg.window, d + 3)
    margin = 3  # zeros required after last_nonzero before a tail counts
    trials = []
    candidates = []
    for t in range(cfg.trials):
        M, N = random_pair(cfg, ctx, t)
        entry: dict = {"trial": t, "left": module_replay(M), "right": module_replay(N)}
        try:
            pat = scan_ext(M, N, H, full=True, rank_budget=cfg.rank_budget)
        except ResourceCapError as stop:
            entry["status"] = "unresolved"
            entry["reason"] = str(stop)
            trials.append(entry)
            continue
        entry["pattern"] = pat
        suspicious = (
            pat.last_nonzero is not None
            and pat.last_nonzero > d
            and H - pat.last_nonzero >= margin
            and all(pat.dims[i] == 0 for i in range(pat.last_nonzero + 1, H + 1))
        )
        if suspicious:
            wide = scan_ext(M, N, H + 4, full=True, rank_budget=cfg.rank_budget)
            entry["widened"] = wide
            still = (
                wide.last_nonzero == pat.last_nonzero
                and all(wide.dims[i] == 0 for i in range(wide.last_nonzero + 1, H + 5))
            )
            if still:
                entry["status"] = "candidate"
                candidates.append(entry)
            else:
                entry["status"] = "retracted at wider window"
        else:
            entry["status"] = "resolved"
        trials.append(entry)
    return {
        "ring": ring_replay(ctx),
        "config": cfg.to_json_dict(),
        "window": H,
        "trials": _jsonable(trials),
        "candidates": _jsonable(candidates),
        "note": "window-bounded observations; a logged candidate is replay data, not a counterexample claim",
    }
