"""End-to-end acceptance runs over the canned ring corpus.

Each test covers one shipped guarantee and ends by printing a single
[PASS]/[FAIL] line (visible with ``pytest -s``) before asserting, so a
full run reads as a checklist.  Everything is seeded; reruns see the
same modules.  Expected values come from three sources only: hand
calculations over the tiny rings, closed binomial formulas over
polynomial rings, and agreement between two independently implemented
routes to the same number.  The slowest test here is the 200-pair
symmetry sweep; the whole file stays within a few minutes.
"""

import time
from math import comb

import pytest

from extlab import resolution
from extlab.groebner import RingCtx
from extlab.modules import PresentedModule, dual_module
from extlab.poly import FieldSpec, PolyRing
from extlab.resolution import (
    derived_dims,
    ext,
    ext_profile,
    ext_via_complete,
    gorenstein_check,
    minimal_free_resolution,
    negative_syzygy,
    resolution_of,
    syzygy,
    tor,
    tor_via_complete,
)
from extlab.vanishing import (
    ExperimentConfig,
    change_of_rings_check,
    external_product_check,
    external_tensor,
    free_or_nonvanishing_check,
    quotient_context,
    random_pair,
    scan_ext,
    search_harness,
    stable_suite_check,
    symmetry_check,
    tail_equivalence_check,
    tensor_mcm_check,
)


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, line


_PAIR_POOL: dict = {}


def _pairs(ctx: RingCtx, seed: int, count: int):
    """Seeded module pairs, memoized so tests sharing a corpus also share
    the per-module caches (resolutions, duals) built along the way."""
    key = (id(ctx), seed, count)
    if key not in _PAIR_POOL:
        cfg = ExperimentConfig(seed=seed, trials=count)
        _PAIR_POOL[key] = [random_pair(cfg, ctx, i) for i in range(count)]
    return _PAIR_POOL[key]


def _syz(mod: PresentedModule, s: int) -> PresentedModule:
    return syzygy(mod, s) if s >= 0 else negative_syzygy(mod, s)


def test_quadric_column_module_regression(quadric):
    """The cokernel N of the variable column (w,x,y,z)^T over the quadric
    hypersurface has projective dimension one, so Tor_i(k, N) dies from
    i = 2 on; its dual nevertheless resolves forever, with a nonzero
    Betti number in every computed degree and a nonzero Ext^4(k, dual N).
    The whole computation must finish inside a minute.
    """
    t0 = time.perf_counter()
    N = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    k = PresentedModule.residue_field(quadric)

    res = resolution_of(N.minimal_presentation())
    res.extend_to(4)
    pd_ok = res.known_pd() == 1

    tors = tor(k, N, list(range(2, 11)))
    tor_ok = all(tors.total(i) == 0 for i in range(2, 11))

    Nd = dual_module(N)
    totals = minimal_free_resolution(Nd, 8)[1].totals()
    dual_betti_ok = len(totals) >= 9 and all(totals[i] > 0 for i in range(1, 9))

    e4 = ext(k, Nd, [4]).total(4)
    ext_ok = e4 is not None and e4 > 0

    elapsed = time.perf_counter() - t0
    _report(
        "quadric column-module regression",
        pd_ok and tor_ok and dual_betti_ok and ext_ok and elapsed < 60.0,
        f"pd(N)=1: {pd_ok}; Tor_2..10(k,N)=0: {tor_ok}; "
        f"dual Betti b_1..b_8 nonzero: {dual_betti_ok}; "
        f"dim Ext^4(k, dual N) = {e4}; elapsed {elapsed:.1f}s",
    )


def test_koszul_binomial_oracle():
    """Over GF(101)[x_1..x_n] the residue field is resolved by the exterior
    algebra, so Betti numbers and Ext(k,k) dimensions are binomial
    coefficients and the resolution stops exactly at step n."""
    failures = []
    for n in (2, 3):
        ring = PolyRing(FieldSpec(101), tuple("xyz"[:n]))
        ctx = RingCtx(ring, [])
        k = PresentedModule.residue_field(ctx)
        want = [comb(n, i) for i in range(n + 1)]

        totals = minimal_free_resolution(k, n + 1)[1].totals()
        if totals[: n + 1] != want or any(totals[n + 1 :]):
            failures.append((n, "betti", totals))

        res = resolution_of(k.minimal_presentation())
        res.extend_to(n + 2)
        if res.known_pd() != n:
            failures.append((n, "pd", res.known_pd()))

        er = ext(k, k, list(range(1, n + 1)))
        got = [er.total(i) for i in range(1, n + 1)]
        if got != want[1:]:
            failures.append((n, "ext", got))
    _report(
        "Koszul binomial oracle (n = 2, 3)",
        not failures,
        f"failures: {failures or 'none'}",
    )


def test_direct_and_complete_resolution_routes_agree(gor5, nilsquares):
    """Values of Ext and Tor in degrees 1..3 recomputed through the
    complete-resolution exchange at t = 5 must equal the finite-resolution
    values, pair by pair, over both artinian rings.  The two routes share
    no homology code, so agreement here is the cross-check."""
    mismatches = []
    compared = 0
    for ctx in (gor5, nilsquares):
        tag = "/".join(ctx.ring.variables)
        for idx, (A, B) in enumerate(_pairs(ctx, 23, 20)):
            er = ext(A, B, [1, 2, 3])
            ev = ext_via_complete(A, B, [1, 2, 3], t=5)
            tr = tor(A, B, [1, 2, 3])
            tv = tor_via_complete(A, B, [1, 2, 3], t=5)
            for i in (1, 2, 3):
                compared += 2
                if er.total(i) != ev.total(i):
                    mismatches.append((tag, idx, "ext", i, er.total(i), ev.total(i)))
                if tr.total(i) != tv.total(i):
                    mismatches.append((tag, idx, "tor", i, tr.total(i), tv.total(i)))
    _report(
        "direct route vs complete-resolution route",
        not mismatches,
        f"{compared} comparisons over 40 pairs; mismatches: {mismatches or 'none'}",
    )


def test_routes_share_no_homology_body(quadric, gor5, nilsquares):
    """The route agreement above is an anchor only while the two routes
    share no homology code.  Over the quadric hypersurface and both
    artinian rings, the complete route must run with the direct route's
    body (`_direct_modules`) disabled, the direct route must run with the
    complete route's (`derived_dims`) disabled, and the two must agree.
    Over the quadric the pairs are drawn from three maximal Cohen-Macaulay
    modules: the matrix factorization modules coker [[w, y], [z, x]] and
    coker [[x, -y], [-z, w]], and the third syzygy of the residue field,
    each also against k."""

    def disabled(*args, **kwargs):
        raise AssertionError("a route called the other route's homology body")

    k = PresentedModule.residue_field(quadric)
    mcm = [
        PresentedModule.from_matrix(quadric, [["w", "y"], ["z", "x"]]),
        PresentedModule.from_matrix(quadric, [["x", "-y"], ["-z", "w"]]),
        syzygy(k, 3),
    ]
    cases = [("quadric", M, N, [1, 2], 4) for M in mcm for N in [k] + mcm[:2]]
    for ctx in (gor5, nilsquares):
        tag = "/".join(ctx.ring.variables)
        cases += [(tag, A, B, [1, 2, 3], 5) for A, B in _pairs(ctx, 37, 3)]
    mismatches = []
    nonzero = 0
    for tag, M, N, idx, t in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolution, "_direct_modules", disabled)
            via = {"ext": ext_via_complete(M, N, idx, t=t), "tor": tor_via_complete(M, N, idx, t=t)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolution, "derived_dims", disabled)
            direct = {"ext": ext(M, N, idx), "tor": tor(M, N, idx)}
        for kind in direct:
            for i in idx:
                nonzero += bool(direct[kind].total(i))
                if direct[kind].total(i) != via[kind].total(i):
                    mismatches.append((tag, kind, i, direct[kind].total(i), via[kind].total(i)))
    _report(
        "routes share no homology body",
        not mismatches and nonzero > 0,
        f"{len(cases)} pairs, each route run with the other's body disabled, "
        f"{nonzero} nonzero values; mismatches: {mismatches or 'none'}",
    )


def test_hilbert_series_route_agrees_with_homology_modules(quadric, affine_plane):
    """Off the artinian locus `derived_dims` reads Ext and Tor off Hilbert
    series of cokernels and builds no homology module, while `ext`/`tor`
    build the modules.  Their graded dimensions at i = 0..5, for both
    functors, must agree exactly on 30 seeded cyclic pairs over the quadric
    hypersurface and 8 seeded pairs over GF(101)[x,y], where values of
    infinite length (None) are compared too."""
    mismatches = []
    compared = infinite = 0
    corpora = (
        (quadric, ExperimentConfig(seed=31, trials=30, max_generators=1)),
        (affine_plane, ExperimentConfig(seed=31, trials=8)),
    )
    for ctx, cfg in corpora:
        tag = "/".join(ctx.ring.variables)
        for idx in range(cfg.trials):
            A, B = random_pair(cfg, ctx, idx)
            for kind, route in (("ext", ext), ("tor", tor)):
                modules = route(A, B, range(6))
                for i in range(6):
                    got = derived_dims(kind, A, B, i)
                    compared += 1
                    infinite += got is None
                    if got != modules.graded_of(i):
                        mismatches.append((tag, idx, kind, i, got, modules.graded_of(i)))
    _report(
        "Hilbert-series route vs homology modules",
        not mismatches and infinite > 0,
        f"{compared} graded values over 38 pairs, {infinite} of infinite length; "
        f"mismatches: {mismatches or 'none'}",
    )


def test_duality_swaps_preserve_dimensions_and_betti(gor5, nilsquares):
    """Dualizing both arguments and swapping them preserves Ext dimensions
    in degrees 1..4; dualizing the s-th syzygy (s in -2..2, through the
    complete resolution for s < 0) gives the (-s)-th syzygy of the dual,
    graded Betti table for graded Betti table.  The three-scan tail
    agreement check must come back consistent on every pair at H = 10.
    """
    offenders = []
    for ctx in (gor5, nilsquares):
        tag = "/".join(ctx.ring.variables)
        for idx, (A, B) in enumerate(_pairs(ctx, 23, 20)):
            Am, Bm = A.minimal_presentation(), B.minimal_presentation()
            Ad, Bd = dual_module(Am), dual_module(Bm)
            for i in range(1, 5):
                lhs = sum(ext_profile(Am, Bm, i).values())
                rhs = sum(ext_profile(Bd, Ad, i).values())
                if lhs != rhs:
                    offenders.append((tag, idx, "ext swap", i, lhs, rhs))
            for s in range(-2, 3):
                left = minimal_free_resolution(dual_module(_syz(Am, s)), 3)[1]
                right = minimal_free_resolution(_syz(Ad, -s), 3)[1]
                if left != right:
                    offenders.append((tag, idx, "syzygy dual betti", s))
            rep = tail_equivalence_check(Am, Bm, 10)
            if rep.verdict != "consistent":
                offenders.append((tag, idx, "tail agreement", rep.verdict))
    _report(
        "duality swaps preserve dimensions and Betti tables",
        not offenders,
        f"40 pairs; offenders: {offenders or 'none'}",
    )


def test_ext_symmetry_and_tail_bound_over_complete_intersections(nilsquares, quadric):
    """Over the two complete intersections, Ext(M,N) and Ext(N,M) must agree
    on tail-vanishing for 100 seeded pairs per ring at H = 12, and any
    tail-vanishing pattern must have its last nonzero value at or below
    the ring dimension.  One violation fails the run."""
    violations = []
    tail_bad = []
    checked = 0
    for ctx in (nilsquares, quadric):
        tag = "/".join(ctx.ring.variables)
        for idx, (A, B) in enumerate(_pairs(ctx, 17, 100)):
            rep = symmetry_check(A, B, 12)
            checked += 1
            if rep.is_violation:
                violations.append((tag, idx))
            for side in ("forward", "reverse"):
                pat = rep.details[side]
                if pat.tail_vanishing and (pat.last_nonzero or 0) > ctx.dim:
                    tail_bad.append((tag, idx, side, pat.last_nonzero))
    _report(
        "Ext symmetry and tail bound over complete intersections",
        not violations and not tail_bad,
        f"{checked} pairs at H=12; symmetry violations: {violations or 'none'}; "
        f"tail bound breaches: {tail_bad or 'none'}",
    )


def test_short_gorenstein_tor_rigidity(gor5):
    """Over the length-5 Gorenstein ring (embedding dimension 3, socle
    dimension 1, as the hypothesis gate verifies), 50 seeded pairs with
    both members non-free must each keep one of Tor_3, Tor_4, Tor_5
    alive, and none of them may show a tail-vanishing Ext pattern."""
    cfg = ExperimentConfig(seed=41, trials=200)
    pairs = []
    draws = 0
    while len(pairs) < 50:
        A, B = random_pair(cfg, gor5, draws)
        draws += 1
        if A.minimal_presentation().is_free() or B.minimal_presentation().is_free():
            continue
        pairs.append((A, B))
    offenders = []
    for idx, (A, B) in enumerate(pairs):
        rep = free_or_nonvanishing_check(A, B)
        if rep.verdict != "consistent" or "tor_dims" not in rep.details:
            offenders.append((idx, "tor", rep.verdict))
        if scan_ext(A, B, 10, full=False).tail_vanishing:
            offenders.append((idx, "ext tail vanished"))
    _report(
        "short Gorenstein Tor rigidity",
        not offenders,
        f"50 non-free pairs from {draws} draws; offenders: {offenders or 'none'}",
    )


def test_stable_hom_suite_and_matrix_factorization_pairs(gor5, quadric):
    """The four-term dimension identity, the stable-Hom/Ext dimension match
    and the syzygy/dual shift invariance must hold on 20 seeded pairs over
    the Gorenstein ring; the two matrix factorizations of the quadric
    relation must pass the two-sided tensor test in every ordering."""
    offenders = []
    for idx, (A, B) in enumerate(_pairs(gor5, 23, 20)):
        rep = stable_suite_check(A, B)
        if rep.verdict != "consistent":
            offenders.append(("stable suite", idx, rep.verdict))
    mf1 = PresentedModule.from_matrix(quadric, [["w", "y"], ["z", "x"]])
    mf2 = PresentedModule.from_matrix(quadric, [["x", "-y"], ["-z", "w"]])
    for a, b in ((mf1, mf2), (mf2, mf1), (mf1, mf1), (mf2, mf2)):
        rep = tensor_mcm_check(a, b)
        if rep.verdict != "consistent":
            offenders.append(("matrix factorization", rep.verdict, rep.details))
    _report(
        "stable Hom suite and matrix factorization pairs",
        not offenders,
        f"20 pairs + 4 factorization orderings; offenders: {offenders or 'none'}",
    )


def test_external_square_is_gorenstein_with_vanishing_cross_ext():
    """Gluing two copies of GF(101)[x]/(x^2) gives GF(101)[x,y]/(x^2,y^2);
    the coproduct must pass the Gorenstein test and modules carried from
    different factors must have no Ext in degrees 1..10."""
    ring = PolyRing(FieldSpec(101), ("x",))
    base = RingCtx(ring, [ring.parse("x^2")])
    kx = PresentedModule.from_matrix(base, [["x"]])

    prod, carry_l, carry_r = external_tensor(base, base)
    names_ok = prod.ring.variables == ("x", "y")
    gor = gorenstein_check(prod)

    pat = scan_ext(carry_l(kx), carry_r(kx), 10, full=True)
    zeros = pat.computed_to == 10 and all(pat.dims[i] == 0 for i in range(1, 11))

    rep = external_product_check(kx, kx, 10)
    _report(
        "external square Gorenstein with vanishing cross Ext",
        names_ok and gor and zeros and rep.verdict == "consistent",
        f"variables {prod.ring.variables}; gorenstein {gor}; "
        f"Ext^1..10 zero: {zeros}; product check {rep.verdict}",
    )


def test_change_of_rings_window(affine_plane):
    """Comparisons between GF(101)[x,y] and its quotient by x^2 at H = 10:
    graded inequalities in both directions, two-step periodicity on silent
    subwindows, and the syzygy transfer, on a small finite-length corpus."""
    f = affine_plane.ring.parse("x^2")
    R = quotient_context(affine_plane, f)
    k = PresentedModule.residue_field(R)
    fin = PresentedModule.from_matrix(R, [["x", "y^2"]])
    verdicts = []
    for M, N in ((k, k), (k, fin), (fin, fin), (fin, k)):
        verdicts.append(change_of_rings_check(affine_plane, f, M, N, 10).verdict)
    _report(
        "change of rings window",
        all(v == "consistent" for v in verdicts),
        f"verdicts over 4 pairs: {verdicts}",
    )


def test_search_harness_reproducible_and_quiet(nilsquares, quadric):
    """Rerunning the harness with a fixed seed must reproduce the report
    verbatim, and neither canned complete intersection may produce a
    candidate pattern."""
    rows = []
    ok = True
    for ctx, trials in ((nilsquares, 10), (quadric, 5)):
        cfg = ExperimentConfig(seed=3, trials=trials)
        first = search_harness(cfg, ctx)
        second = search_harness(cfg, ctx)
        same = first == second
        quiet = first["candidates"] == []
        ok &= same and quiet
        rows.append(
            f"{'/'.join(ctx.ring.variables)}: {trials} trials, "
            f"reproducible {same}, candidates {len(first['candidates'])}"
        )
    _report("search harness reproducible and quiet", ok, "; ".join(rows))
