"""Resolutions, Betti numbers, Ext/Tor along both routes, depth.

Frozen expectations and where they come from:

* over GF(101)[x,y]/(x^2,y^2) the residue field has b_i = i + 1, all
  generators of the i-th term in degree i (count syzygies of (x, y) by
  hand: (x,0), (0,y), (y,-x) in degree 2, and induct);
* over the quadric hypersurface GF(101)[w,x,y,z]/(wx - yz) the residue
  field has b = 1, 4, 7, 8, 8, ... (Koszul on four variables corrected by
  the single quadric from homological degree 2 on);
* over GF(101)[x,y,z]/(xy, xz, yz, x^2-y^2, x^2-z^2) the recursion
  b_{i+1} = 3 b_i - b_{i-1} gives 1, 3, 8, 21;
* B/(x) and B/(y) over GF(101)[x,y]/(x^2,y^2): annihilators are principal,
  resolutions are rank one and periodic, Hom(B/x, B/y) is spanned by
  1 |-> x in degree 1, and all higher Ext/Tor vanish (multiplication by x
  on B/(y) = span{1, x} has image exactly span{x} = kernel).
"""

import gc
import inspect
import weakref
from collections import Counter

import pytest

from extlab import groebner, modules, resolution
from extlab.errors import DegreeCapError, HypothesisNotMet, InvariantViolation, ResourceCapError
from extlab.groebner import RingCtx, quotient_helpers, reduce_vec_by_ideal
from extlab.linalg import _reduce_row, rank_rows
from extlab.modules import (
    ModuleMap,
    PresentedModule,
    _combine_columns,
    _kernel_generators,
    _kernel_generators_gb,
    _sum_of_shifts,
    dual_module,
    entries_from_vec,
    subquotient,
    tensor_module,
    vec_from_entries,
)
from extlab.poly import FieldSpec, PolyRing
from extlab.resolution import (
    CACHE_BOUND,
    BettiTable,
    CompleteResolution,
    Resolution,
    _STEP,
    _incoming_cols,
    _step_cols,
    _term_shifts,
    complete_resolution,
    depth,
    derived_dims,
    ext,
    ext_profile,
    ext_via_complete,
    gorenstein_check,
    is_mcm,
    minimal_free_resolution,
    negative_syzygy,
    resolution_of,
    syzygy,
    tor,
    tor_profile,
    tor_via_complete,
)
from extlab.rows import (
    FiniteLengthRealization,
    _block_builder,
    _echelon_hf,
    _echelon_of,
    _entry_blocks,
    _map_kernel,
    _span_rows,
    kernel_generators,
)
from extlab.vanishing import (
    ExperimentConfig,
    free_or_nonvanishing_check,
    random_module,
    random_pair,
    scan_ext,
    scan_tor,
    symmetry_check,
)

from conftest import make_ctx
from test_groebner import _reference_buchberger, _tagged


def k_of(ctx):
    return PresentedModule.residue_field(ctx)


def cyclic(ctx, gen):
    """R/(gen) as a module."""
    return PresentedModule.from_matrix(ctx, [[gen]])


def no_step_memo(mp):
    """Make every resolution step run its kernel walk: `_cached` misses
    the step memo, and every other cache behaves as before."""
    real = resolution._cached
    mp.setattr(
        resolution, "_cached",
        lambda ctx, name, key, build: build() if name == "step" else real(ctx, name, key, build),
    )


def groebner_resolution(M, n):
    """A resolution of M to step n whose every step takes its kernel
    through Groebner bases (`_kernel_generators_gb` patched in for
    `_kernel_generators`), none served from the step memo: the reference
    for the row steps over an artinian context."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_kernel_generators", _kernel_generators_gb)
        no_step_memo(mp)
        return Resolution(M).extend_to(n)


# -- resolutions --------------------------------------------------------------


def test_betti_of_k_both_backends_nilsquares(nilsquares):
    k = k_of(nilsquares)
    lin = Resolution(k).extend_to(4)
    gro = groebner_resolution(k, 4)
    assert [lin.rank(i) for i in range(5)] == [1, 2, 3, 4, 5]
    assert [gro.rank(i) for i in range(5)] == [1, 2, 3, 4, 5]
    for i in range(5):
        # every generator of the i-th term sits in degree i
        assert lin.twists_of(i) == (i,) * (i + 1)
        assert gro.twists_of(i) == (i,) * (i + 1)


def test_betti_of_k_quadric(quadric):
    res, table = minimal_free_resolution(k_of(quadric), 4)
    assert table.totals() == [1, 4, 7, 8, 8]
    assert res.known_pd() is None


def test_betti_of_k_gor5(gor5):
    res, table = minimal_free_resolution(k_of(gor5), 3)
    assert table.totals() == [1, 3, 8, 21]
    gro = groebner_resolution(k_of(gor5), 3)
    assert [gro.rank(i) for i in range(4)] == [1, 3, 8, 21]


def test_koszul_pd_and_graded_betti(affine_plane):
    res, table = minimal_free_resolution(k_of(affine_plane), 5)
    assert res.known_pd() == 2
    assert table.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert res.rank(3) == 0 and res.twists_of(7) == ()


def test_column_module_over_quadric_has_pd_one(quadric):
    # coker of the single column (w, x, y, z): one relation among four
    # generators, and no second syzygy because the ring is a domain.
    n = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    res = resolution_of(n)
    res.extend_to(3)
    assert res.known_pd() == 1
    assert res.rank(0) == 4 and res.rank(1) == 1


def _check_resolution_invariants(res, steps):
    """d_i o d_{i+1} = 0 modulo the ideal on the first `steps` steps; when
    M has finite length, also sum_{i<=n} (-1)^i HS(F_i) = HS(M) in every
    degree below the first twist of F_{n+1}, where the n-th syzygy, the
    only other term of that Euler characteristic, is still zero."""
    ctx = res.ctx
    res.extend_to(steps)
    for i in range(1, steps):
        for col in res.diff(i + 1):
            composite = _combine_columns(ctx, res.diff(i), col)
            assert not reduce_vec_by_ideal(composite, ctx), i
    M = res.module
    if not M.is_finite_length():
        return
    ring = PresentedModule.ring_module(ctx)
    lo = min(res.twists_of(0), default=0) - 1
    for n in range(steps):
        nxt = res.twists_of(n + 1)
        hi = min(nxt) if nxt else max(res.twists_of(n), default=lo) + 6
        for d in range(lo, hi):
            euler = sum(
                (-1) ** i * ring.hilbert_function(d - a)
                for i in range(n + 1)
                for a in res.twists_of(i)
            )
            assert euler == M.hilbert_function(d), (n, d)


@pytest.mark.parametrize(
    "ring,steps", [("gor5", "linear"), ("nilsquares", "linear"), ("quadric", "groebner")]
)
def test_resolution_invariants_on_seeded_modules(ring, steps, request):
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=53, trials=3, max_generators=2)
    mods = [k_of(ctx)]
    for t in range(cfg.trials):
        mods += random_pair(cfg, ctx, t)
    for M in mods:
        res = Resolution(M.minimal_presentation())
        _check_resolution_invariants(res, 6)
        if steps == "linear":
            # The row and Groebner steps choose generators differently but
            # must agree on every twist.
            gb = groebner_resolution(M.minimal_presentation(), 6)
            for i in range(6):
                assert gb.twists_of(i) == res.twists_of(i), i


def test_resolution_of_zero_and_free(nilsquares):
    z = PresentedModule.zero(nilsquares)
    assert resolution_of(z).known_pd() == -1
    f = PresentedModule.free(nilsquares, (0, 2))
    res = resolution_of(f)
    res.extend_to(3)
    assert res.known_pd() == 0
    assert res.twists_of(0) == (0, 2)


def test_syzygy_shifts_betti_tail(nilsquares):
    s2 = syzygy(k_of(nilsquares), 2)
    assert s2.row_twists == (2, 2, 2)
    _, table = minimal_free_resolution(s2, 2)
    assert table.totals() == [3, 4, 5]


def test_rank_budget_cap(gor5):
    res = Resolution(k_of(gor5))
    with pytest.raises(ResourceCapError):
        res.extend_to(9, rank_budget=30)


def test_betti_table_rendering(nilsquares):
    table = minimal_free_resolution(k_of(nilsquares), 2)[1]
    text = table.render_text()
    assert "total:" in text and "1 2 3" in text
    assert table.to_json_dict()["totals"] == [1, 2, 3]
    assert table == BettiTable({(0, 0): 1, (1, 1): 2, (2, 2): 3})


# -- Ext and Tor, direct route -------------------------------------------------


def test_ext_k_k_affine_plane(affine_plane):
    k = k_of(affine_plane)
    result = ext(k, k, range(4))
    assert result.graded_of(0) == {0: 1}
    assert result.graded_of(1) == {-1: 2}
    assert result.graded_of(2) == {-2: 1}
    assert result.is_zero(3)


def test_ext_and_tor_k_k_nilsquares(nilsquares):
    k = k_of(nilsquares)
    e = ext(k, k, range(5))
    t = tor(k, k, range(5))
    for i in range(5):
        assert e.graded_of(i) == {-i: i + 1}
        assert t.graded_of(i) == {i: i + 1}
        assert ext_profile(k, k, i) == {-i: i + 1}
        assert tor_profile(k, k, i) == {i: i + 1}


def test_ext_tor_of_principal_cyclic_pair(nilsquares):
    a = cyclic(nilsquares, "x")
    b = cyclic(nilsquares, "y")
    e = ext(a, b, range(4))
    assert e.graded_of(0) == {1: 1}
    assert all(e.is_zero(i) for i in (1, 2, 3))
    t = tor(a, b, range(4))
    assert t.graded_of(0) == {0: 1}
    assert all(t.is_zero(i) for i in (1, 2, 3))
    for i in range(1, 4):
        assert ext_profile(a, b, i) == {}
        assert tor_profile(a, b, i) == {}


def test_ext_of_free_source_vanishes_positively(nilsquares):
    r = PresentedModule.ring_module(nilsquares)
    k = k_of(nilsquares)
    e = ext(r, k, range(3))
    assert e.graded_of(0) == {0: 1}
    assert e.is_zero(1) and e.is_zero(2)


def test_ext_into_ring_detects_socle_degree(nilsquares):
    # Hom(k, B) is the socle; everything higher dies because an artinian
    # Gorenstein ring is self-injective.
    k = k_of(nilsquares)
    r = PresentedModule.ring_module(nilsquares)
    e = ext(k, r, range(3))
    assert e.graded_of(0) == {2: 1}
    assert e.is_zero(1) and e.is_zero(2)


def test_profile_matches_modules_on_gor5(gor5):
    k = k_of(gor5)
    a = cyclic(gor5, "x")
    for i in range(4):
        assert ext_profile(k, a, i) == (ext(k, a, [i]).graded_of(i) or {})
        assert tor_profile(k, a, i) == (tor(k, a, [i]).graded_of(i) or {})
        assert derived_dims("ext", k, a, i) == ext_profile(k, a, i)
        assert derived_dims("tor", k, a, i) == tor_profile(k, a, i)


def test_infinite_length_values_are_reported(quadric):
    # B/(w) against the ring itself: the first derived Hom is B/(w) again,
    # which has infinite length.
    a = cyclic(quadric, "w")
    r = PresentedModule.ring_module(quadric)
    e = ext(a, r, [0, 1, 2])
    assert e.totals[1] is None and not e.is_zero(1)
    assert e.is_zero(2)
    with pytest.raises(ValueError):
        ext_profile(a, r, 1)
    assert derived_dims("ext", a, r, 1) is None


def test_hilbert_series_route_matches_homology_modules(quadric, affine_plane, gor5, nilsquares):
    # derived_dims reads each value as C_i + C_o - HS(X_o): off the artinian
    # locus from Hilbert series of cokernels, over an artinian ring from
    # ranks of degreewise matrices; ext/tor take homology as subquotients.
    # The graded dimensions must agree exactly, None (infinite length)
    # included.
    pairs = []
    for ctx, gens, count in ((quadric, 1, 8), (quadric, 3, 6), (gor5, 1, 4), (gor5, 2, 3),
                             (nilsquares, 3, 6)):
        cfg = ExperimentConfig(seed=29, trials=count, max_generators=gens)
        pairs += [random_pair(cfg, ctx, j) for j in range(count)]
    assert any(N.minimal_presentation().rank0 > 1 for M, N in pairs if M.ctx.is_artinian)
    x = cyclic(affine_plane, "x")
    pairs += [(x, PresentedModule.ring_module(affine_plane)), (x, cyclic(affine_plane, "y^2"))]
    infinite = 0
    for M, N in pairs:
        for kind, route in (("ext", ext), ("tor", tor)):
            modules = route(M, N, range(6))
            for i in range(6):
                got = derived_dims(kind, M, N, i)
                assert got == modules.graded_of(i), (kind, i)
                infinite += got is None
    assert infinite


def test_hilbert_series_route_checks_composites():
    # A differential that breaks d o d = 0 must be caught by the Hilbert
    # series route rather than turned into wrong dimensions.  A context of
    # its own keeps the corrupted resolution out of the shared fixtures.
    ctx = make_ctx(("w", "x", "y", "z"), ("w*x - y*z",))
    M = PresentedModule.from_matrix(ctx, [["w", "y"], ["z", "x"]])
    R = PresentedModule.ring_module(ctx)
    res = resolution_of(M.minimal_presentation()).extend_to(3)
    assert derived_dims("ext", M, R, 1) == {}
    res._diffs[1][0] = {key: 1 for key in res._diffs[1][0]}
    with pytest.raises(InvariantViolation):
        derived_dims("ext", M, R, 2)
    with pytest.raises(InvariantViolation):
        derived_dims("tor", M, R, 1)
    # The module route checks the same composites before taking homology.
    with pytest.raises(InvariantViolation):
        ext(M, R, [2])
    with pytest.raises(InvariantViolation):
        tor(M, R, [1])


QUADRIC = (("w", "x", "y", "z"), ("w*x - y*z",))
CUBIC = (("w", "x", "y", "z"), ("w^3 + x^3 + y^3 + z^3",))
GOR5 = (("x", "y", "z"), ("x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"))
NILSQUARES = (("x", "y"), ("x^2", "y^2"))
NONGOR = (("x", "y", "z"), ("x^2", "y^2", "z^2", "x*y", "x*y*z"))  # artinian, socle of dimension 2


def _resolve_all(mods, n, budget):
    """Fresh resolutions of `mods`, each extended to step n or until the
    rank budget stops it."""
    out = []
    for M in mods:
        res = Resolution(M)
        try:
            res.extend_to(n, rank_budget=budget)
        except ResourceCapError:
            pass
        out.append(res)
    return out


def test_steps_served_from_the_memo_equal_computed_ones(monkeypatch):
    # Over an artinian ring a resolution step is served from the context's
    # step memo when one with the same differential and the same relative
    # twists was taken before, by another resolution or by the same one,
    # and shifted to its twists.  On fresh contexts, seeded modules, k and
    # R/(x) are resolved to step 8 under a rank budget with the memo and
    # then with every step computed, and the two must agree term by term.
    real_step, real_cached = Resolution._step, resolution._cached
    current = []  # the resolution taking a step
    made_by = {}  # step key -> the resolution whose step filled it
    hits = Counter()

    def step(self):
        current.append(self)
        try:
            real_step(self)
        finally:
            current.pop()

    def cached(ctx, name, key, build):
        if name == "step":
            if key in ctx.scratch.get("step", {}):
                hits[("self" if made_by[key] is current[-1] else "cross", id(current[-1]))] += 1
            else:
                made_by[key] = current[-1]
        return real_cached(ctx, name, key, build)

    monkeypatch.setattr(Resolution, "_step", step)
    monkeypatch.setattr(resolution, "_cached", cached)
    cfg = ExperimentConfig(seed=5)
    for ring in (NILSQUARES, GOR5, NONGOR):
        ctx = make_ctx(*ring)
        mods = [random_module(cfg, ctx, idx) for idx in range(8)] + [k_of(ctx), cyclic(ctx, "x")]
        served = _resolve_all(mods, 8, 300)
        with pytest.MonkeyPatch.context() as mp:
            no_step_memo(mp)
            computed = _resolve_all(mods, 8, 300)
        for a, b in zip(served, computed):
            assert a._twists == b._twists
            assert a._diffs == b._diffs
            assert a.known_pd() == b.known_pd()
        assert len(ctx.scratch["step"]) <= CACHE_BOUND
        if ring is NILSQUARES:
            # R/(x): d_n = (x) on F_n = R(-n) from n = 1 on, so every step
            # from the second on repeats the one before it, one degree up.
            assert served[-1].rank(8) == 1
            assert hits[("self", id(served[-1]))] == 6
    assert sum(n for (kind, _), n in hits.items() if kind == "cross")


def test_nilsquares_scan_kernel_steps_are_pinned(kernel_steps, resolution_rank):
    # Seeded nilsquares harness scans on a fresh context, pinned by the
    # resolution steps that ran the kernel walk: a step the context took
    # before, up to a twist shift, is served from its step memo.  The
    # terms built are pinned beside it, served ones included: a served
    # term counts as built (every step ran the walk before the memo, 250
    # of them).
    ctx = make_ctx(*NILSQUARES)
    cfg = ExperimentConfig(seed=1)
    pairs = [random_pair(cfg, ctx, idx) for idx in range(40)]
    kernel_steps.reset()
    resolution_rank.reset()
    for M, N in pairs:
        scan_ext(M, N, 10, full=True, rank_budget=cfg.rank_budget)
    assert kernel_steps.count == 106
    assert resolution_rank.count == 1424


def _module_with_generators(ctx, cfg, n, twists=None):
    """The first seeded module (`random_module`) minimally presented on
    n generators, with relations, and with generators in exactly the
    degrees `twists` when it is given."""
    for idx in range(200):
        N = random_module(cfg, ctx, idx).minimal_presentation()
        if N.rank0 == n and N.columns and twists in (None, set(N.row_twists)):
            return N
    raise AssertionError(f"no seeded module on {n} generators")


def _tor_cases(ctx, cfg, pairs):
    """Seeded pairs plus M against k, against R (no relations) and
    against a module on three generators."""
    cases = [random_pair(cfg, ctx, idx) for idx in range(pairs)]
    M = cases[0][0]
    N3 = _module_with_generators(ctx, cfg, 3)
    return cases + [(M, k_of(ctx)), (M, PresentedModule.ring_module(ctx)), (M, N3)]


def test_coker_numerators_shared_by_span_match_fresh_presentations(monkeypatch):
    # Each C_j must be the series of a freshly presented cokernel
    # X_j / im(in).  Off the artinian locus that is its Hilbert numerator,
    # also when cokernels with the same span share one Groebner basis and
    # its twist-free component numerators, made under other twists.  Over
    # an artinian ring it is its Hilbert function, read off its own
    # relation echelon, where C_j comes from ranks of degreewise matrices:
    # of the incoming map, or, for tor when F_{j+1} is not built yet, of
    # the image of d_j (x) del_N, C_j being HS(Omega_j (x) N).  Tor values
    # read in ascending order on fresh contexts, before any scan, take
    # that path, over gor5, nilsquares and a ring that is not Gorenstein;
    # every cokernel is presented only after the values are read, since
    # presenting one builds F_{j+1}.
    real_coker, real_cached = resolution._coker_series, resolution._cached
    real_omega = resolution._syzygy_tensor_series
    twists = []  # of the cokernel being computed
    made_with = {}  # "coker" key -> twists of the cokernel that built it
    hits = Counter()
    pending = []  # (kind, res, Nm, j, X_j, C_j, whether it took the Omega path)

    def coker(kind, res, Nm, j):
        X = _sum_of_shifts(Nm, _term_shifts(kind, res, j))
        twists.append(X.row_twists)
        before = hits["omega"]
        got = real_coker(kind, res, Nm, j)
        twists.pop()
        pending.append((kind, res, Nm, j, X, got, hits["omega"] > before))
        return got

    def omega(res, Nm, j):
        hits["omega"] += 1
        return real_omega(res, Nm, j)

    def check_pending():
        for kind, res, Nm, j, X, got, _ in pending:
            cols = list(X.columns) + _incoming_cols(kind, res, j, Nm.rank0)
            fresh = PresentedModule(res.ctx, X.row_twists, cols)
            if res.ctx.is_artinian:
                assert got == fresh._finite_hf(), (kind, j)
                hits["rows"] += 1
            else:
                assert got == fresh.hilbert_numerator()
                hits["checked"] += 1
        pending.clear()

    def cached(ctx, name, key, build):
        if name == "coker":
            if key in ctx.scratch.get("coker", {}):
                hits["same" if made_with[key] == twists[-1] else "shifted"] += 1
            else:
                made_with[key] = twists[-1]
        return real_cached(ctx, name, key, build)

    monkeypatch.setattr(resolution, "_coker_series", coker)
    monkeypatch.setattr(resolution, "_syzygy_tensor_series", omega)
    monkeypatch.setattr(resolution, "_cached", cached)
    quadric = make_ctx(*QUADRIC)
    cfg = ExperimentConfig(seed=1, max_generators=1)
    for idx in range(10):
        assert symmetry_check(*random_pair(cfg, quadric, idx), 12).verdict == "consistent"
    N = PresentedModule.from_matrix(quadric, [["w", "y"], ["z", "x"]])  # not cyclic
    M = random_pair(cfg, quadric, 11)[0]
    scan_ext(k_of(quadric), N, 6), scan_ext(N, M, 6), scan_tor(M, N, 6)
    cubic = make_ctx(*CUBIC)
    k = k_of(cubic)
    for N in (k, cyclic(cubic, "w + x")):
        scan_ext(k, N, 12), scan_tor(k, N, 12)
    check_pending()
    assert hits["checked"] and hits["shifted"] and not hits["omega"]
    for ctx in (quadric, cubic):
        assert len(ctx.scratch["coker"]) <= CACHE_BOUND
    cfg = ExperimentConfig(seed=43)
    for ring in (GOR5, NILSQUARES, NONGOR):
        ctx = make_ctx(*ring)
        cases = _tor_cases(ctx, cfg, 4)
        if ring is NONGOR:
            # Generators of N in two degrees give the copies of F_{j-1}
            # (x) G_0 two sizes, so the Omega path must place each copy.
            cases.append((cases[0][0], _module_with_generators(ctx, cfg, 3, {0, 1})))
        for i in range(1, 6):
            for M, N in cases:
                tor_profile(M, N, i)
        omega_for = Counter(id(Nm) for _, _, Nm, _, _, _, took in pending if took)
        for M, N in cases:
            if not M.minimal_presentation().is_free():
                assert omega_for[id(N.minimal_presentation())] >= 5, ring
        check_pending()
        for idx in range(12):
            M, N = random_pair(cfg, ctx, idx)
            scan_ext(M, N, 6), scan_tor(M, N, 6)
        check_pending()
        assert "coker" not in ctx.scratch
    assert hits["rows"] and hits["omega"]


@pytest.mark.parametrize("ring", [GOR5, NILSQUARES], ids=["gor5", "nilsquares"])
def test_tor_top_cokernel_agrees_with_direct_route(monkeypatch, ring):
    # On fresh caches, Tor values read in ascending order through
    # `derived_dims` take each top cokernel C_i as Omega_i (x) N, since
    # F_{i+1} is not built yet; they must equal the direct route's, graded,
    # which `tor` computes afterwards on the same resolutions.
    real_omega = resolution._syzygy_series
    seen = []

    def omega(res, j):
        seen.append(j)
        return real_omega(res, j)

    monkeypatch.setattr(resolution, "_syzygy_series", omega)
    ctx = make_ctx(*ring)
    cases = _tor_cases(ctx, ExperimentConfig(seed=43), 4)
    profiles = {}
    for i in range(1, 5):
        for c, (A, B) in enumerate(cases):
            profiles[c, i] = tor_profile(A, B, i)
    assert set(seen) == {1, 2, 3, 4}
    nonzero = 0
    for c, (A, B) in enumerate(cases):
        direct = tor(A, B, range(1, 5))
        for i in range(1, 5):
            assert profiles[c, i] == direct.graded_of(i), (c, i)
            nonzero += bool(direct.total(i))
    assert nonzero


def _resolved(M, n):
    """Twists, differentials and pd of a fresh resolution of M to step n."""
    res = Resolution(M.minimal_presentation()).extend_to(n)
    return (
        [res.twists_of(i) for i in range(n + 1)],
        [res.diff(i) for i in range(1, n + 1)],
        res.known_pd(),
    )


@pytest.mark.parametrize(
    "ring,line",
    [(QUADRIC, ("w - 7*y", "z - 7*x")), (CUBIC, ("w + x", "y + z"))],
    ids=["quadric", "cubic"],
)
def test_certified_steps_equal_groebner_steps(monkeypatch, ring, line):
    # Off the artinian locus, the steps of a cyclic module whose one or two
    # relations form a regular sequence are read off Hilbert series, with
    # no syzygy run: its resolution must equal, twist for twist and column
    # for column, the one Groebner steps give.  A line on the hypersurface
    # (w = 7y, z = 7x on wx = yz; w = -x, z = -y on the cubic) is cut out
    # by two linear forms that are not a regular sequence, and has Betti
    # numbers 1, 2, 2, 2, ...: it must take the Groebner steps.
    ctx = make_ctx(*ring)
    cfg = ExperimentConfig(seed=61, max_generators=1)
    mods = [random_module(cfg, ctx, i).minimal_presentation() for i in range(40)]
    L = PresentedModule.from_matrix(ctx, [list(line)]).minimal_presentation()
    real = resolution._certified_step
    served = []  # (relations, step, whether it built a term)

    def spy(res, n):
        got = real(res, n)
        if got is not None:
            assert res.module is not L
            served.append((len(res.module.columns), n, bool(got[0])))
        return got

    monkeypatch.setattr(resolution, "_certified_step", spy)
    got = [_resolved(M, 5) for M in [*mods, L]]
    monkeypatch.setattr(resolution, "_certified_step", lambda res, n: None)
    assert got == [_resolved(M, 5) for M in [*mods, L]]
    assert {(1, 1, False), (2, 1, True), (2, 2, False)} <= set(served)
    assert [len(t) for t in got[-1][0]] == [1, 2, 2, 2, 2, 2]


def _reference_syzygies(ctx, vectors, rank):
    """`syzygies_for` with the criterion-free reference run of
    tests/test_groebner.py in place of the signature body, on the same
    inputs: the vectors tagged, the lifting helpers not."""
    helpers = quotient_helpers(ctx, rank)
    _, syz, _ = _reference_buchberger(_tagged(ctx, vectors) + helpers, ctx.ring)
    out = (reduce_vec_by_ideal(s, ctx) for s in syz)
    return sorted((v for v in out if v), key=max)


@pytest.mark.parametrize("ring", [QUADRIC, CUBIC], ids=["quadric", "cubic"])
def test_groebner_steps_match_the_reference_syzygies(monkeypatch, ring):
    # Off the artinian locus a step that Hilbert series do not certify
    # takes its kernel from `syzygies_for`, a tagged run of the signature
    # body.  The first 12 seed-1 draws of up to three generators, most of
    # them not cyclic, resolved to step 5 with the certified path off,
    # must take the twists they take when the reference run gives the
    # syzygies.
    ctx = make_ctx(*ring)
    cfg = ExperimentConfig(seed=1)
    monkeypatch.setattr(resolution, "_certified_step", lambda res, n: None)
    got = [_resolved(random_module(cfg, ctx, i), 5)[0] for i in range(12)]
    assert sum(len(t[0]) > 1 for t in got) >= 6
    monkeypatch.setattr(modules, "syzygies_for", _reference_syzygies)
    assert got == [_resolved(random_module(cfg, ctx, i), 5)[0] for i in range(12)]


def _no_factorization(mp):
    """Make every resolution step past a matrix factorization computed:
    `_matrix_factorization` never finds one."""
    mp.setattr(resolution, "_matrix_factorization", lambda *args: None)


# Per hypersurface: the line cut out by two linear forms that are not a
# regular sequence (Betti numbers 1, 2, 2, 2, ...), and a matrix
# factorization of f, whose cokernel has Betti numbers 2, 2, 2, ...
HYPERSURFACES = {
    "quadric": (("w - 7*y", "z - 7*x"), [["w", "y"], ["z", "x"]]),
    "cubic": (("w + x", "y + z"), [["w + x", "-y^2 + y*z - z^2"], ["y + z", "w^2 - w*x + x^2"]]),
}


def _hypersurface_modules(ring, name):
    """A fresh context of `ring`, the line on the hypersurface, and the
    modules to resolve: k, dual(N) for N the cokernel of the variable
    column (`example-2-3.gor`), the line, the matrix factorization's
    cokernel, the first 20 seed-1 cyclic draws and their third syzygies."""
    ctx = make_ctx(*ring)
    rels, mf = HYPERSURFACES[name]
    N = PresentedModule.from_matrix(ctx, [["w"], ["x"], ["y"], ["z"]])
    line = PresentedModule.from_matrix(ctx, [list(rels)])
    cfg = ExperimentConfig(seed=1, max_generators=1)
    draws = [random_module(cfg, ctx, i) for i in range(20)]
    mods = [k_of(ctx), dual_module(N), line, PresentedModule.from_matrix(ctx, mf)]
    return line, mods + draws + [syzygy(M, 3) for M in draws]


def _windowed(line, mods, tops):
    """For each module, resolved to its top: twists, Betti table, the dims
    of scan_ext and scan_tor against k and against the line on the window
    [1, top - 1] (ext at H reads F_{H+1}), and the graded dims of each
    value there."""
    k = k_of(line.ctx)
    out = []
    for M, top in zip(mods, tops):
        res = resolution_of(M.minimal_presentation()).extend_to(top)
        scans = [scan(M, N, top - 1).dims for scan in (scan_ext, scan_tor) for N in (k, line)]
        graded = [derived_dims(kind, M, N, i) for kind in _STEP for N in (k, line) for i in range(top)]
        out.append(([res.twists_of(i) for i in range(top + 1)], res.betti_table(top), scans, graded))
    return out


@pytest.mark.parametrize("ring", [QUADRIC, CUBIC], ids=["quadric", "cubic"])
def test_served_steps_equal_computed_ones(monkeypatch, ring, request):
    # Over a hypersurface, once d_n and d_{n+1} C^{-1} form a matrix
    # factorization, the resolution serves d_m = d_{m-2} with twists
    # raised by deg f, and `derived_dims` reads an index past the seam as
    # the one two below it, shifted.  Each module, resolved three periods
    # past the start n of its tail, must have the twists, Betti table and
    # Ext/Tor dims that computing every step gives.  The tail starts at 4
    # for k (Betti numbers 1, 4, 7, 8, 8, ... over both rings), at 2 for
    # dual(N) and the line, and at 1 for the matrix factorization.  The
    # seeded cyclic draws are complete intersections of projective
    # dimension at most 2, so their third syzygies are zero, and none of
    # them gets a tail.
    name = request.node.callspec.id
    line, mods = _hypersurface_modules(ring, name)
    starts = []
    for M in mods:
        res = resolution_of(M.minimal_presentation()).extend_to(8)
        starts.append(None if res._period is None else res._period[0])
        assert (res._period is None) == (res.known_pd() is not None)
    assert starts[:4] == [4, 2, 2, 1]
    assert starts[4:] == [None] * 40
    tops = [7 if s is None else max(s + 6, 7) for s in starts]
    served = _windowed(line, mods, tops)
    _no_factorization(monkeypatch)
    line, again = _hypersurface_modules(ring, name)
    computed = _windowed(line, again, tops)
    assert all(resolution_of(M.minimal_presentation())._period is None for M in again)
    assert served == computed


@pytest.mark.parametrize(
    "ring", [(("x",), ("x^3",)), (("x", "y"), ("x^2*y",))], ids=["x3-artinian", "x2y"]
)
def test_served_steps_equal_computed_ones_on_small_hypersurfaces(monkeypatch, ring):
    # The tail is served on every hypersurface: over GF(101)[x]/(x^3),
    # which is artinian, and over GF(101)[x, y]/(x^2 y), whose f is not
    # reduced, k, R/(x) and seeded modules must have the twists and graded
    # Ext/Tor values that computing every step gives, to step 14.
    def record():
        ctx = make_ctx(*ring)
        cfg = ExperimentConfig(seed=3, max_generators=2)
        mods = [k_of(ctx), cyclic(ctx, "x")] + [random_module(cfg, ctx, i) for i in range(6)]
        out = []
        for M in mods:
            res = resolution_of(M.minimal_presentation()).extend_to(14)
            values = [derived_dims(kind, M, N, i) for kind in _STEP for N in mods[:2] for i in range(13)]
            out.append(([res.twists_of(i) for i in range(15)], values, res._period is not None))
        return out

    served = record()
    assert served[0][2] and served[1][2]
    _no_factorization(monkeypatch)
    computed = record()
    assert [a[:2] for a in served] == [b[:2] for b in computed]


@pytest.mark.parametrize(
    "ring",
    [NILSQUARES, GOR5, (("w", "x", "y", "z"), ("w*x", "y*z")), (("w", "x", "y", "z"), ())],
    ids=["nilsquares", "gor5", "wx-yz", "polynomial"],
)
def test_no_tail_off_hypersurfaces(monkeypatch, ring):
    # Only an ideal with a one-element Groebner basis is tested for a
    # matrix factorization: k and seeded modules over these rings, two of
    # them artinian, one a complete intersection of codimension 2 and one
    # a polynomial ring, never get a tail, and the test never runs.
    calls = []
    monkeypatch.setattr(resolution, "_matrix_factorization", lambda *args: calls.append(args))
    ctx = make_ctx(*ring)
    cfg = ExperimentConfig(seed=1)
    for M in [k_of(ctx)] + [random_module(cfg, ctx, i) for i in range(8)]:
        res = _resolve_all([M.minimal_presentation()], 8, 200)[0]
        assert res._period is None
    assert not calls


def test_served_steps_count_against_the_rank_budget(monkeypatch):
    # `extend_to` checks the budget before every step, served or not:
    # k over the quadric (tail from step 4, ranks 8 from F_3 on) stops
    # where every step computed stops.
    ctx = make_ctx(*QUADRIC)
    budgets = (40, 100, 200)
    served = [_resolve_all([k_of(ctx)], 60, b)[0] for b in budgets]
    assert all(res._period == (4, 2) for res in served)
    _no_factorization(monkeypatch)
    fresh = make_ctx(*QUADRIC)
    computed = [_resolve_all([k_of(fresh)], 60, b)[0] for b in budgets]
    for a, b, budget in zip(served, computed, budgets):
        assert a._twists == b._twists
        assert sum(map(len, a._twists[:-1])) <= budget < sum(map(len, a._twists))


def test_served_steps_pass_the_degree_cap_where_computed_ones_do(monkeypatch):
    # A served step forms no monomial, so it raises no DegreeCapError,
    # although its twists pass the cap: under cap 3 over the quadric, k,
    # dual(N) and the line resolve to step 40 (twists 40 and above).  With
    # every step computed, they resolve to step 12 under the same cap,
    # with the same twists.  Under cap 2 k and dual(N) raise at the same
    # step both ways, before any tail is found.
    def resolve(cap, top):
        ring = PolyRing(FieldSpec(101), QUADRIC[0], degree_cap=cap)
        ctx = RingCtx(ring, [ring.parse(QUADRIC[1][0])])
        N = PresentedModule.from_matrix(ctx, [["w"], ["x"], ["y"], ["z"]])
        line = PresentedModule.from_matrix(ctx, [list(HYPERSURFACES["quadric"][0])])
        out = []
        for M in (k_of(ctx), dual_module(N), line):
            res = Resolution(M.minimal_presentation())
            try:
                res.extend_to(top)
                out.append([res.twists_of(i) for i in range(top + 1)])
            except DegreeCapError:
                out.append(("raised at", len(res._twists), res._period))
        return out

    served = resolve(3, 40)
    assert all(min(twists[40]) >= 40 for twists in served)
    low = resolve(2, 12)
    assert low[:2] == [("raised at", 3, None), ("raised at", 2, None)]
    _no_factorization(monkeypatch)
    assert resolve(3, 12) == [twists[:13] for twists in served]
    assert resolve(2, 12)[:2] == low[:2]


def test_wide_window_groebner_work_is_pinned(buchberger_runs):
    # scan_ext(k, dual(N), H) of `example-2-3.gor`, on a fresh context for
    # each H, makes 12 Groebner runs at H = 10, 40 and 160: k's tail
    # starts at step 4, so the scan computes indices up to 5 and reads
    # every later one off them, shifted, and the served steps form
    # nothing.  It made 22, 52 and 172 when every step and every index was
    # computed: 6 more syzygy runs for the steps to F_11, 4 more cokernel
    # bases up to index 10 and one more basis for each index past 10.
    runs = []
    for H in (10, 40, 160):
        ctx = make_ctx(*QUADRIC)
        Nd = dual_module(PresentedModule.from_matrix(ctx, [["w"], ["x"], ["y"], ["z"]]))
        buchberger_runs.reset()
        dims = scan_ext(k_of(ctx), Nd, H).dims
        assert list(dims.values()) == [0, 1] + [8] * (H - 2)
        runs.append(buchberger_runs.count)
    assert runs == [12, 12, 12]


def test_groebner_steps_work_is_pinned(monkeypatch, buchberger_runs, buchberger_reductions):
    # The quadric half of those resolutions, pinned by its Groebner work:
    # 24 runs making 211 reductions (272 in as many runs when tagged runs
    # used the Gebauer-Moeller body).
    ctx = make_ctx(*QUADRIC)
    cfg = ExperimentConfig(seed=1)
    mods = [random_module(cfg, ctx, i) for i in range(12)]
    monkeypatch.setattr(resolution, "_certified_step", lambda res, n: None)
    buchberger_runs.reset()
    buchberger_reductions.reset()
    for M in mods:
        _resolved(M, 5)
    assert (buchberger_runs.count, buchberger_reductions.count) == (24, 211)


def test_certified_step_passes_a_degree_cap_groebner_steps_do_not(monkeypatch):
    # A certified step reads only a plain Groebner basis of M, while the
    # tagged syzygy run it replaces forms higher monomials.  Under degree
    # cap 4, seed-1 draw 10 over the quadric, cut out by a regular
    # sequence of a linear and a cubic form, resolves with pd 2, where the
    # Groebner steps pass the cap.  The syzygy run passes caps 5 and 6 (it
    # raised up to cap 6 when tagged runs used the Gebauer-Moeller body,
    # which applies no product criterion).
    ring = PolyRing(FieldSpec(101), QUADRIC[0], degree_cap=4)
    ctx = RingCtx(ring, [ring.parse(QUADRIC[1][0])])
    M = random_module(ExperimentConfig(seed=1, max_generators=1), ctx, 10)
    twists, _, pd = _resolved(M, 5)
    assert twists[:3] == [(0,), (1, 3), (4,)] and pd == 2
    monkeypatch.setattr(resolution, "_certified_step", lambda res, n: None)
    with pytest.raises(DegreeCapError):
        _resolved(M, 5)


def test_symmetry_groebner_work_is_pinned(buchberger_runs):
    # The symmetry checks of the first 40 seed-1 cyclic quadric pairs make
    # 155 Buchberger runs.  The relations of every side form a regular
    # sequence, so its resolution is certified by Hilbert series, read off
    # one plain basis of the module, with no tagged syzygy run (224 when
    # every step ran one, 255 with one basis per cokernel besides).
    ctx = make_ctx(*QUADRIC)
    cfg = ExperimentConfig(seed=1, max_generators=1)
    pairs = [random_pair(cfg, ctx, idx) for idx in range(40)]
    buchberger_runs.reset()
    assert all(symmetry_check(A, B, 12).verdict == "consistent" for A, B in pairs)
    assert buchberger_runs.count == 155


def test_symmetry_zero_reductions_are_pinned(monkeypatch):
    # The plain runs of those symmetry checks are signature-based: of the
    # 454 S-pairs they reduce, 12 reduce to zero.  The Gebauer-Moeller
    # body they replace reduced 978 S-pairs, 601 of them to zero.  It was
    # 453 while an S-vector whose lead only a multiple at its own
    # signature reduces was dropped, which the rewritten criterion does
    # not allow (see `signature_gb`): one such vector now joins the
    # elements, and one more pair of it is reduced.  An
    # S-vector is reduced once its input's own member has joined the run,
    # so a reduction past `start` is an S-pair's.
    ctx = make_ctx(*QUADRIC)
    cfg = ExperimentConfig(seed=1, max_generators=1)
    pairs = [random_pair(cfg, ctx, idx) for idx in range(40)]
    real = groebner._SignatureSet.reduce_below
    counts = Counter()

    def counted(self, vec, sig):
        out = real(self, vec, sig)
        if len(self.vecs) > self.start:
            counts["pairs"] += 1
            counts["zero"] += out == {}
        return out

    monkeypatch.setattr(groebner._SignatureSet, "reduce_below", counted)
    assert all(symmetry_check(A, B, 12).verdict == "consistent" for A, B in pairs)
    assert counts == {"pairs": 454, "zero": 12}


def test_module_route_checks_composites_on_rows(buchberger_runs):
    # Over an artinian ring the module route leaves the check of d o d to
    # the row kernel of `subquotient`'s map, with no Groebner basis: it is
    # seeded with X_i / im(in), and an incoming column whose image is
    # nonzero in X_o, after reduction by X_o's relation echelon, is a seed
    # row outside the kernel.  That walk is the one that finds the
    # generators and the dimensions, so it raises although no
    # `module(i)` is ever read.  A fresh context keeps the corrupted
    # resolution out of the shared fixtures.
    ctx = make_ctx(("x", "y"), ("x^2", "y^2"))
    k = k_of(ctx)
    res = resolution_of(k.minimal_presentation()).extend_to(3)
    # d_1 = (f0, f1) with {f0, f1} = {x, y}; a first column f1 e_0 for d_2
    # makes d_1 d_2 = f0 f1 = x*y, nonzero in R.
    f1 = entries_from_vec(ctx, res.diff(1)[1], 1)[0]
    res._diffs[1][0] = vec_from_entries(ctx, [f1, ctx.ring.parse("0")])
    both = PresentedModule.from_matrix(ctx, [["0"], ["x"]])  # R (+) R/(x)
    buchberger_runs.reset()
    seed_outside = "a seed row outside it"
    with pytest.raises(InvariantViolation, match=seed_outside):
        ext(k, both, [2])
    with pytest.raises(InvariantViolation, match=seed_outside):
        tor(k, both, [1])
    # Over R/(x) the composite x*y is zero in X_o: the remainder is
    # reduced by the relations, not only by the ideal, so nothing raises.
    assert ext(k, cyclic(ctx, "x"), [2]).total(2) is not None
    assert tor(k, cyclic(ctx, "x"), [1]).total(1) is not None
    assert buchberger_runs.count == 0


def test_module_route_groebner_work_is_pinned(buchberger_runs):
    # Buchberger runs are deterministic, so the module route's Groebner
    # work on a fresh quadric context is pinned as an exact count: 28 with
    # each value's series read as HS(Q) - HS(Q / kernel generators), the
    # generators unpruned (37 when the kernel was pruned and presented to
    # read its Hilbert function, 46 when the incoming image was read off a
    # tagged basis of the kernel).  It was 27 while tagged runs used the
    # Gebauer-Moeller body: the signature run's syzygies of the fifth
    # resolution step hold one beyond the eight minimal ones, in a higher
    # degree, so pruning them takes one basis.
    ctx = make_ctx(("w", "x", "y", "z"), ("w*x - y*z",))
    k = k_of(ctx)
    N = PresentedModule.from_matrix(ctx, [["w"], ["x"], ["y"], ["z"]])
    buchberger_runs.reset()
    e = ext(k, dual_module(N), range(4))
    t = tor(k, N, range(4))
    assert [e.total(i) for i in range(4)] == [0, 0, 1, 8]
    assert [t.total(i) for i in range(4)] == [4, 1, 0, 0]
    assert buchberger_runs.count == 28


@pytest.mark.parametrize(
    "names, rels, left, t, totals, runs",
    [
        # k against k over gor5: no run.  The dual is a kernel on sparse rows
        # and its realization is read off its relation echelon (5 runs when
        # that kernel took syzygies and pruned through Groebner bases, 1
        # when the realization still came from a Groebner basis).
        (("x", "y", "z"), ("x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"), None, 5,
         [3, 8, 21], 0),
        # coker [[w, y], [z, x]] against k over the quadric: 25 runs.  The
        # route reads each value off Hilbert series of cokernels
        # (`derived_dims`), one Groebner basis per complex term; it took 39
        # when it presented each value as a subquotient module (kernel
        # syzygies, pruning, relations), the direct route's own body.  It
        # took 28 while tagged runs used the Gebauer-Moeller body: one
        # kernel's syzygies from the signature run hold a generator beyond
        # the minimal ones, in a higher degree, and pruning it takes a basis.
        # It took 29 before resolutions over a hypersurface served their
        # periodic tail: M is a matrix factorization, so its steps from 3
        # on are served, and 4 syzygy runs are gone.
        (("w", "x", "y", "z"), ("w*x - y*z",), [["w", "y"], ["z", "x"]], 4, [2, 2], 25),
    ],
    ids=["gor5", "quadric"],
)
def test_complete_route_groebner_work_is_pinned(buchberger_runs, names, rels, left, t, totals, runs):
    ctx = make_ctx(names, rels)
    k = k_of(ctx)
    M = k if left is None else PresentedModule.from_matrix(ctx, left)
    buchberger_runs.reset()
    idx = range(1, len(totals) + 1)
    e = ext_via_complete(M, k, idx, t=t)
    tt = tor_via_complete(M, k, idx, t=t)
    assert [e.total(i) for i in idx] == [tt.total(i) for i in idx] == totals
    assert buchberger_runs.count == runs


@pytest.mark.parametrize("ring, now", [("gor5", 794), ("nilsquares", 126)])
def test_complete_route_row_work_is_pinned(axpy_calls, ring, now):
    # The complete route over an artinian ring, pinned by its row work:
    # ext_via_complete and tor_via_complete on [1, 2, 3] at t = 5 of six
    # seed-37 pairs on a fresh context, with the resolutions of the
    # dualized syzygies and the minimal presentations of N warmed first,
    # make `now` row additions, nearly all of them the rank eliminations
    # behind C_j (`_coker_series`).  The count was the same when the
    # artinian locus ranked each map per index and degree in a body of
    # its own.
    ctx = make_ctx(*{"gor5": GOR5, "nilsquares": NILSQUARES}[ring])
    pairs = [random_pair(ExperimentConfig(seed=37), ctx, j) for j in range(6)]
    for M, N in pairs:
        resolution_of(dual_module(syzygy(M, 5))).extend_to(4)
        N.minimal_presentation()
    idx = [1, 2, 3]
    axpy_calls.reset()
    complete = [(ext_via_complete(M, N, idx, t=5), tor_via_complete(M, N, idx, t=5)) for M, N in pairs]
    assert axpy_calls.count == now
    for (M, N), results in zip(pairs, complete):
        for route, result in zip((ext, tor), results):
            assert [result.total(i) for i in idx] == [route(M, N, idx).total(i) for i in idx]


# -- depth, MCM, Gorenstein ----------------------------------------------------


def test_depth_and_mcm(quadric):
    n = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    assert depth(n) == 2  # dimension 3 minus projective dimension 1
    assert not is_mcm(n)
    m1 = PresentedModule.from_matrix(quadric, [["w", "y"], ["z", "x"]])
    assert depth(m1) == 3 and is_mcm(m1)
    assert depth(PresentedModule.ring_module(quadric)) == 3
    assert is_mcm(PresentedModule.zero(quadric))
    with pytest.raises(ValueError):
        depth(PresentedModule.zero(quadric))


def test_gorenstein_check(quadric, nilsquares, gor5):
    assert gorenstein_check(quadric)
    assert gorenstein_check(nilsquares)
    assert gorenstein_check(gor5)
    bad = make_ctx(("x", "y"), ("x^2", "x*y", "y^3"))
    assert not gorenstein_check(bad)  # socle is {x, y^2}, dimension 2


# -- complete resolutions and negative syzygies ----------------------------------


def test_complete_resolution_fully_periodic(nilsquares):
    m = cyclic(nilsquares, "x")
    cres = complete_resolution(m, -3, 3)
    for i in range(-3, 4):
        assert cres.term(i) == (i,)
    # Every differential is multiplication by x; composites vanish mod x^2.
    for i in range(-2, 4):
        src = PresentedModule.free(nilsquares, cres.term(i))
        step = ModuleMap(src, PresentedModule.free(nilsquares, cres.term(i - 1)), cres.diff(i), check=False)
        again = ModuleMap(
            PresentedModule.free(nilsquares, cres.term(i - 1)),
            PresentedModule.free(nilsquares, cres.term(i - 2)),
            cres.diff(i - 1),
            check=False,
        )
        target = again.target
        assert not any(target.normal_form(c) for c in again.compose(step).columns)


def test_negative_syzygy_periodicity(nilsquares):
    m = cyclic(nilsquares, "x")
    assert negative_syzygy(m, -1) == m.shifted(-1).minimal_presentation()
    assert negative_syzygy(m, -3) == m.shifted(-3).minimal_presentation()


def test_complete_resolution_exactness_gor5(gor5):
    k = k_of(gor5)
    cres = complete_resolution(k, -2, 2)
    p = gor5.ring.field.p
    ring = FiniteLengthRealization.of_ring(gor5)

    def matrix_at(i):
        # d_i : term(i) -> term(i - 1), degreewise as F (x) R -> F' (x) R.
        blocks = _entry_blocks(gor5, cres.diff(i))
        return _block_builder(ring, blocks, cres.term(i - 1), cres.term(i), -1)

    for i in range(-1, 2):
        at, at_up = matrix_at(i), matrix_at(i + 1)
        for d in range(-6, 7):
            src_dim = sum(ring.dim(d - a) for a in cres.term(i))
            if not src_dim:
                continue
            kernel_dim = src_dim - rank_rows(at(d), p)
            assert kernel_dim == rank_rows(at_up(d), p), (i, d)


def test_complete_resolution_hypotheses(quadric):
    n = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    with pytest.raises(HypothesisNotMet):
        CompleteResolution(n)
    bad = make_ctx(("x", "y"), ("x^2", "x*y", "y^3"))
    with pytest.raises(HypothesisNotMet):
        CompleteResolution(PresentedModule.residue_field(bad))


def test_dual_of_syzygy_matches_negative_syzygy_of_dual(nilsquares):
    # For the periodic module B/(x): dualizing the i-th syzygy agrees with
    # the -i-th syzygy of the dual, a sanity anchor for index conventions.
    m = cyclic(nilsquares, "x")
    for i in (1, 2):
        left = dual_module(syzygy(m, i))
        right = negative_syzygy(dual_module(m), -i)
        assert left.hilbert_numerator() == right.hilbert_numerator()


# -- the two routes agree --------------------------------------------------------


def test_routes_agree_nilsquares(nilsquares):
    k = k_of(nilsquares)
    a = cyclic(nilsquares, "x")
    b = cyclic(nilsquares, "y")
    for (M, N) in [(k, k), (a, b), (a, k), (k, a)]:
        direct_e = ext(M, N, [1, 2, 3])
        dual_e = ext_via_complete(M, N, [1, 2, 3], t=5)
        direct_t = tor(M, N, [1, 2, 3])
        dual_t = tor_via_complete(M, N, [1, 2, 3], t=5)
        for i in (1, 2, 3):
            assert direct_e.total(i) == dual_e.total(i), (i, "ext")
            assert direct_t.total(i) == dual_t.total(i), (i, "tor")


def test_routes_agree_gor5(gor5):
    k = k_of(gor5)
    a = cyclic(gor5, "x")
    direct = ext(k, a, [1, 2])
    via = ext_via_complete(k, a, [1, 2], t=4)
    assert [direct.total(i) for i in (1, 2)] == [via.total(i) for i in (1, 2)]


def test_dual_route_validation(nilsquares, quadric):
    k = k_of(nilsquares)
    with pytest.raises(ValueError):
        ext_via_complete(k, k, [4], t=5)
    n = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    with pytest.raises(HypothesisNotMet):
        ext_via_complete(n, k_of(quadric), [1], t=4)


def _holds(value, kind) -> bool:
    """Whether a cache value, through plain containers, holds a `kind`."""
    if isinstance(value, kind):
        return True
    if isinstance(value, dict):
        return any(_holds(k, kind) or _holds(v, kind) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds(v, kind) for v in value)
    return False


def test_resolution_cache_is_bounded_and_owns_its_memos():
    # A long seeded search on a fresh gor5 context resolves more modules
    # than the caches hold: on every pair the Lemma 3.6 Tor check, the
    # route exchange (dualized syzygies) and a negative syzygy (complete
    # resolutions).
    ctx = make_ctx(*GOR5)
    cfg = ExperimentConfig(seed=14)
    seen = set()
    for idx in range(80):
        A, B = random_pair(cfg, ctx, idx)
        seen.add(A.minimal_presentation().value_key())
        assert free_or_nonvanishing_check(A, B).verdict == "consistent"
        assert ext_via_complete(A, B, [1, 2], t=4).totals == ext(A, B, [1, 2]).totals
        negative_syzygy(A, -2)
    assert len(seen) > CACHE_BOUND
    cache = ctx.scratch["res"]
    assert len(cache) == CACHE_BOUND
    assert len(ctx.scratch["step"]) <= CACHE_BOUND
    gc.collect()
    alive = [r for r in gc.get_objects() if isinstance(r, Resolution) and r.ctx is ctx]
    assert len(alive) <= CACHE_BOUND
    for r in alive:
        # the cache is the one holder of a resolution
        holders = [h for h in gc.get_referrers(r) if h is not alive and not inspect.isframe(h)]
        assert len(holders) == 1 and holders[0] is cache
    mods = [m for m in gc.get_objects() if isinstance(m, PresentedModule) and m.ctx is ctx]
    assert mods and not any(_holds(m._cache, Resolution) for m in mods)


@pytest.mark.parametrize("ring", ["gor5", "nilsquares"])
def test_evicted_resolution_is_rebuilt_identically(request, ring):
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=41)
    M, N = random_pair(cfg, ctx, 0)
    res = resolution_of(M).extend_to(5)
    twists = [res.twists_of(i) for i in range(6)]
    cols = [[list(c.items()) for c in res.diff(i)] for i in range(1, 6)]
    patterns = scan_ext(M, N, 6).to_json_dict(), scan_tor(M, N, 6).to_json_dict()
    first = weakref.ref(res)
    del res
    key = M.minimal_presentation().value_key()
    cache = ctx.scratch["res"]
    idx = 1
    while key in cache:
        for X in random_pair(cfg, ctx, idx):
            resolution_of(X)
        idx += 1
    assert first() is None  # dropped from the cache, and so freed
    again = resolution_of(M).extend_to(5)
    assert [again.twists_of(i) for i in range(6)] == twists
    assert [[list(c.items()) for c in again.diff(i)] for i in range(1, 6)] == cols
    assert (scan_ext(M, N, 6).to_json_dict(), scan_tor(M, N, 6).to_json_dict()) == patterns


def _eager_homology(kind, M, N, i):
    """The i-th value of the direct route as `subquotient` presents it
    when called on the complex right away (index 0 of tor is M (x) N)."""
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    if kind == "tor" and i == 0:
        return tensor_module(Mm, Nm)
    res = resolution_of(Mm).extend_to(i + 1)
    if not res.twists_of(i) or not Nm.rank0:
        return PresentedModule.zero(M.ctx)
    o = i + _STEP[kind]
    X = _sum_of_shifts(Nm, _term_shifts(kind, res, i))
    Xout = _sum_of_shifts(Nm, _term_shifts(kind, res, o))
    out_cols = _step_cols(kind, res, max(i, o), Nm.rank0)
    return subquotient(X, _incoming_cols(kind, res, i, Nm.rank0), Xout, out_cols)


@pytest.mark.parametrize("ring, seed", [("gor5", 73), ("nilsquares", 74)])
def test_direct_route_dims_match_eager_homology(request, ring, seed):
    # Over an artinian ring ext/tor take each value's graded dimensions
    # from the kernel walk alone.  They must be the Hilbert function of
    # the module `subquotient` builds eagerly on the same complex, both as
    # that module keeps it and as its own relation echelon gives it, read
    # after the resolution they came from has left the cache and been
    # freed, which the result must not prevent.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=seed)
    idx = 0
    evicted = nonzero = 0
    for pair in range(4):
        M, N = random_pair(cfg, ctx, pair)
        eager = {(kind, i): _eager_homology(kind, M, N, i) for kind in _STEP for i in range(4)}
        results = {"ext": ext(M, N, range(4)), "tor": tor(M, N, range(4))}
        # Half the pairs are read only once their resolution is gone.
        if pair % 2:
            res = weakref.ref(resolution_of(M.minimal_presentation()))
            key = M.minimal_presentation().value_key()
            while key in ctx.scratch["res"]:
                idx += 1
                for X in random_pair(ExperimentConfig(seed=seed + 100), ctx, idx):
                    resolution_of(X)
            gc.collect()
            assert res() is None
            evicted += 1
        for (kind, i), ref in eager.items():
            got = results[kind].graded_of(i)
            assert got == ref._finite_hf() == _echelon_hf(ref), (pair, kind, i)
            nonzero += bool(results[kind].total(i))
    assert evicted and nonzero


def _complex_at(kind, M, N, i):
    """(X_i, incoming columns, X_o, outgoing columns) of the direct
    route's complex at index i, or None where no map leaves X_i or X_i is
    zero."""
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    res = resolution_of(Mm).extend_to(i + 1)
    o = i + _STEP[kind]
    if not (res.rank(i) and Nm.rank0 and o >= 0 and res.rank(o)):
        return None
    X = _sum_of_shifts(Nm, _term_shifts(kind, res, i))
    Xout = _sum_of_shifts(Nm, _term_shifts(kind, res, o))
    rb = Nm.rank0
    return X, _incoming_cols(kind, res, i, rb), Xout, _step_cols(kind, res, max(i, o), rb)


def _walk_on_quotient(X, in_cols, Xout, out_cols):
    """Graded dimensions of ker(X / im(in) -> X_o) by the walk the direct
    route made before it read terms copy by copy: on the map out of
    Q = X / im(in), presented, seeded with every multiple of Q's
    relations, into a copy of X_o that is no sum, so that its columns
    are reduced by an echelon eliminated from X_o's own span."""
    ctx = X.ctx
    Q = PresentedModule(ctx, X.row_twists, list(X.columns) + in_cols, _reduced=True)
    whole = PresentedModule(ctx, Xout.row_twists, Xout.columns, _reduced=True)
    return _kernel_generators(out_cols, Q, whole)[2]


def _kernel_by_whole_echelon(cols, twists, target):
    """Unseeded kernel generators and dimensions of the map F -> target
    with columns `cols`, each degree-d column reduced by the echelon
    `_echelon_of` eliminates from the target's own relation span."""
    ctx = target.ctx
    p = ctx.ring.field.p
    at = _span_rows(ctx, target.row_twists, cols, twists)
    span = _span_rows(ctx, target.row_twists, target.columns, target.col_degrees)

    def reduced_at(d):
        piece = _echelon_of(ctx, target.row_twists, span, d)
        by_col = {}
        for r, row in enumerate(at(d)):
            for s, x in row.items():
                by_col.setdefault(s, {})[piece.col[r]] = x
        rows = {}
        for s, vec in by_col.items():
            for c, x in _reduce_row(piece.basis, vec, p).items():
                rows.setdefault(c, {})[s] = x
        return list(rows.values())

    degrees = range(min(twists), max(twists) + ctx.top_degree + 1)
    return kernel_generators(ctx, twists, reduced_at, degrees)


@pytest.mark.parametrize("ring, seed", [("gor5", 75), ("nilsquares", 76)])
def test_direct_route_reads_terms_copy_by_copy(request, ring, seed):
    # Over an artinian ring the direct route reduces the outgoing map's
    # columns copy by copy by N's echelons and seeds its walk with X_i's
    # relation echelon, read off the same pieces, plus the multiples of
    # the incoming columns.  Its dimensions must be those of the walk on
    # the presented quotient X_i / im(in) into X_o as a whole, and the
    # kernel of a map into a sum, reduced copy by copy, must be the one
    # reduced by the sum's own echelon: the same generators, term for
    # term, and the same dimensions.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=seed)
    compared = nonzero = reduced = 0
    for pair in range(3):
        M, N = random_pair(cfg, ctx, pair)
        for kind, route in (("ext", ext), ("tor", tor)):
            result = route(M, N, range(5))
            for i in range(5):
                at = _complex_at(kind, M, N, i)
                if at is None:
                    continue
                X, in_cols, Xout, out_cols = at
                assert result.graded_of(i) == _walk_on_quotient(*at), (pair, kind, i)
                gens, _, dims = _map_kernel(ctx, out_cols, X.row_twists, Xout)
                ref_gens, _, ref_dims = _kernel_by_whole_echelon(out_cols, X.row_twists, Xout)
                assert [list(g.items()) for g in gens] == [list(g.items()) for g in ref_gens]
                assert dims == ref_dims
                compared += 1
                nonzero += bool(result.total(i))
                reduced += bool(Xout.columns)
    assert nonzero and reduced and compared >= 20


def test_direct_route_builds_each_term_once(monkeypatch):
    # One call builds each term X_j of the complex once, as the source at
    # its own index and as the target of its neighbour's map: ext on
    # [1, 2, 3] needs X_1 .. X_4 and tor X_0 .. X_3, 4 sums each (6 when
    # every index built both of its terms).
    ctx = make_ctx(*GOR5)
    M, N = random_pair(ExperimentConfig(seed=1, max_generators=1), ctx, 1)
    real = resolution._sum_of_shifts
    built = []

    def counted(base, shifts):
        built.append(tuple(shifts))
        return real(base, shifts)

    monkeypatch.setattr(resolution, "_sum_of_shifts", counted)
    for route in (ext, tor):
        built.clear()
        result = route(M, N, [1, 2, 3])
        assert all(result.totals.values())
        assert len(built) == len(set(built)) == 4


@pytest.mark.parametrize(
    "names, rels, gens, pair, eager, now",
    [
        (("x", "y"), ("x^2", "y^2"), 3, 2, 569, 422),
        (*GOR5, 1, 1, 535, 185),
    ],
)
def test_direct_route_row_work_is_pinned(axpy_calls, names, rels, gens, pair, eager, now):
    # The direct route over an artinian ring, pinned by its row work: ext
    # and tor on [1, 2, 3] of one seed-1 pair (cyclic over gor5, as in the
    # route benchmark) on a fresh context make `now` row additions, with
    # the walk seeded by X_i's relation echelon read off N's and the map
    # reduced copy by copy, a pivot's row at a time (477 and 224 when the
    # map's columns were reduced one by one, 497 and 312 when the walk
    # was seeded with every multiple of X_i / im(in)'s relations and the
    # columns were reduced by X_o's whole echelon; `eager` when each
    # homology module was presented as it was computed, its Hilbert
    # function read off its own echelon, and the walk was seeded with the
    # reduced relation echelon).
    ctx = make_ctx(names, rels)
    M, N = random_pair(ExperimentConfig(seed=1, max_generators=gens), ctx, pair)
    axpy_calls.reset()
    e, t = ext(M, N, [1, 2, 3]), tor(M, N, [1, 2, 3])
    assert all(e.totals.values()) and all(t.totals.values())
    assert axpy_calls.count == now < eager
