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
from extlab.groebner import (
    RingCtx,
    component_numerators,
    quotient_helpers,
    reduce_vec_by_ideal,
    twisted_numerator,
)
from extlab.linalg import _reduce_row, rank_rows
from extlab.modules import (
    PresentedModule,
    _combine_columns,
    _dual_generators,
    _hom_columns,
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
    STEP_BOUND,
    BettiTable,
    Resolution,
    _STEP,
    _incoming_cols,
    _step_cols,
    _term_shifts,
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
    _packed,
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
    the step table, and every other cache behaves as before."""
    real = resolution._cached
    mp.setattr(
        resolution, "_cached",
        lambda ctx, name, key, build: build() if name == "step" else real(ctx, name, key, build),
    )


def groebner_resolution(M, n):
    """A resolution of M to step n whose every step takes its kernel
    through Groebner bases (`_kernel_generators_gb` patched in for
    `_kernel_generators`), none served from the step table: the reference
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


@pytest.mark.parametrize("ring", ["nilsquares", "gor5", "quadric"])
def test_syzygy_is_its_own_minimal_presentation(ring, request):
    # A minimal resolution presents its syzygies minimally, so
    # `syzygy_module` marks each as its own minimal presentation; pruning
    # a fresh copy of it must give the same value.  The seeded draws over
    # the quadric resolve in a step or two, so k is taken too.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=41, max_generators=2)
    for t, M in enumerate([random_module(cfg, ctx, t) for t in range(4)] + [k_of(ctx)]):
        for i in (1, 2, 3):
            S = syzygy(M, i)
            assert S.minimal_presentation() is S, (t, i)
            fresh = PresentedModule(ctx, S.row_twists, [dict(c) for c in S.columns])
            assert modules._minimalize(fresh).value_key() == S.value_key(), (t, i)


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
WXYZ = (("w", "x", "y", "z"), ("w*x", "y*z"))  # codimension-2 complete intersection
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
    # step table when one with the same differential and the same relative
    # twists was taken before, by another resolution or by the same one,
    # and shifted to its twists.  On fresh contexts, seeded modules, k and
    # R/(x) are resolved to step 8 under a rank budget with the table and
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
        assert len(ctx.scratch["step"]) <= STEP_BOUND
        if ring is NILSQUARES:
            # R/(x): d_n = (x) on F_n = R(-n) from n = 1 on, so d_2 repeats
            # d_1 one degree up.  The tail is certified there, period 1 and
            # shift 1, and every later step is served by it with no table
            # lookup: no step of its own comes from the table (6 did, one
            # per step from the third on, while only hypersurfaces had
            # tails served).
            assert served[-1].rank(8) == 1
            assert served[-1]._period == (1, 1, 1)
            assert hits[("self", id(served[-1]))] == 0
    assert sum(n for (kind, _), n in hits.items() if kind == "cross")


def test_nilsquares_scan_kernel_steps_are_pinned(kernel_steps, resolution_rank):
    # Seeded nilsquares harness scans on a fresh context, pinned by the
    # resolution steps that ran the kernel walk: a step the context took
    # before, up to a twist shift, is served from its step table, and a
    # step past a tail that repeats literally is served by the tail.  The
    # terms built are pinned beside it, served ones included: a served
    # term counts as built (every step ran the walk before the table, 250
    # of them; 106 while the table kept only as many steps as the "res"
    # cache keeps resolutions, 32).
    ctx = make_ctx(*NILSQUARES)
    cfg = ExperimentConfig(seed=1)
    pairs = [random_pair(cfg, ctx, idx) for idx in range(40)]
    kernel_steps.reset()
    resolution_rank.reset()
    for M, N in pairs:
        scan_ext(M, N, 10, full=True, rank_budget=cfg.rank_budget)
    assert kernel_steps.count == 104
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
    # read off a Groebner basis of its own, also when modules with the same
    # span share twist-free component numerators from the context's span
    # cache (`modules._span_numerators`), made under other twists.  Over
    # an artinian ring it is its Hilbert function, read off its own
    # relation echelon, where C_j comes from ranks of degreewise matrices:
    # of the incoming map, or, for tor when F_{j+1} is not built yet, of
    # the image of d_j (x) del_N, C_j being HS(Omega_j (x) N).  Tor values
    # read in ascending order on fresh contexts, before any scan, take
    # that path, over gor5, nilsquares and a ring that is not Gorenstein;
    # every cokernel is presented only after the values are read, since
    # presenting one builds F_{j+1}.
    real_coker, real_span = resolution._coker_series, modules._span_numerators
    real_omega = resolution._syzygy_tensor_series
    twists = []  # of the cokernel being computed
    made_with = {}  # span key -> twists of the module that built its entry
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
                parts = component_numerators(res.ctx, fresh.gb(), fresh.rank0)
                assert got == twisted_numerator(parts, fresh.row_twists)
                hits["checked"] += 1
        pending.clear()

    def span(mod):
        # A cokernel's own lookup is the one under the twists of its X_j.
        key = (mod.rank0, frozenset(frozenset(c.items()) for c in mod.columns))
        if key not in mod.ctx.scratch.get("span", {}):
            made_with[key] = mod.row_twists
        elif twists and mod.row_twists == twists[-1]:
            hits["same" if made_with.get(key) == twists[-1] else "shifted"] += 1
        return real_span(mod)

    monkeypatch.setattr(resolution, "_coker_series", coker)
    monkeypatch.setattr(resolution, "_syzygy_tensor_series", omega)
    monkeypatch.setattr(modules, "_span_numerators", span)
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
        assert len(ctx.scratch["span"]) <= CACHE_BOUND
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
        assert "span" not in ctx.scratch
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


def _no_tails(mp):
    """Make every resolution step computed: neither `_matrix_factorization`
    nor `_literal_period` finds a tail."""
    mp.setattr(resolution, "_matrix_factorization", lambda *args: None)
    mp.setattr(resolution, "_literal_period", lambda *args: None)


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
    _no_tails(monkeypatch)
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
    _no_tails(monkeypatch)
    computed = record()
    assert [a[:2] for a in served] == [b[:2] for b in computed]


def test_matrix_factorization_needs_an_invertible_c(quadric):
    # Over wx - yz, d = [[w, y], [z, x]] from twists (1, 1) to (0, 0).  With
    # e = [[x, x], [-z, -z]], d e = f [[1, 1], [0, 0]]: C is singular, so
    # no step is returned.  With e = [[x, -y], [-z, w]], d e = f I: e C^{-1}
    # is e itself, on F_{n-1}'s twists plus deg f.
    def cols(rows):
        return [vec_from_entries(quadric, [quadric.ring.parse(r[j]) for r in rows]) for j in range(2)]

    d = cols([["w", "y"], ["z", "x"]])
    singular = cols([["x", "x"], ["-z", "-z"]])
    assert resolution._matrix_factorization(quadric, d, singular, (0, 0), (2, 2)) is None
    e = cols([["x", "-y"], ["-z", "w"]])
    assert resolution._matrix_factorization(quadric, d, e, (0, 0), (2, 2)) == (e, (2, 2))


# Tails of k and the first eight seed-1 draws that `_literal_period`
# certifies off the hypersurfaces, by draw index: (start, p, shift).
LITERAL_TAILS = {
    "nilsquares": {3: (2, 2, 2), 7: (1, 1, 1)},
    "gor5": {},
    "wx-yz": {4: (4, 2, 2)},
    "polynomial": {},
}


@pytest.mark.parametrize(
    "ring",
    [NILSQUARES, GOR5, WXYZ, (("w", "x", "y", "z"), ())],
    ids=["nilsquares", "gor5", "wx-yz", "polynomial"],
)
def test_no_tail_off_hypersurfaces(monkeypatch, ring, request):
    # Only an ideal with a one-element Groebner basis is tested for a
    # matrix factorization: over these rings, two of them artinian, one a
    # complete intersection of codimension 2 and one a polynomial ring,
    # the test never runs, so no resolution gets a hypersurface tail.
    # Tails that repeat literally are certified on every ring, so k and
    # the first eight seed-1 draws get exactly the literal tails of
    # LITERAL_TAILS: two nilsquares draws and one over (wx, yz) repeat,
    # while gor5, whose Betti numbers grow, and the polynomial ring, where
    # every resolution ends, get none.  (Before literal tails were served,
    # this test asserted that no resolution here got any tail.)
    calls = []
    monkeypatch.setattr(resolution, "_matrix_factorization", lambda *args: calls.append(args))
    ctx = make_ctx(*ring)
    cfg = ExperimentConfig(seed=1)
    tails = {}
    for idx, M in enumerate([random_module(cfg, ctx, i) for i in range(8)] + [k_of(ctx)]):
        res = _resolve_all([M.minimal_presentation()], 8, 200)[0]
        if res._period is not None:
            tails[idx] = res._period
    assert not calls
    assert tails == LITERAL_TAILS[request.node.callspec.id]


def _wxyz_lines(ctx):
    """The six lines over (wx, yz) in four variables: M_s = R/(w - s y,
    z - s x), with support variety (1:0), and N_s = R/(w - s y, z + s x),
    with (0:1), for s = 2, 3, 5."""
    return [
        PresentedModule.from_matrix(ctx, [[f"w - {s}*y", f"z {sign} {s}*x"]])
        for sign in "-+"
        for s in (2, 3, 5)
    ]


def _literal_cases(name):
    """A fresh context, modules whose resolutions repeat literally, the
    tail each must get, and the second arguments to take values with."""
    cfg = ExperimentConfig(seed=1)
    if name == "wx-yz":
        ctx = make_ctx(*WXYZ)
        lines = _wxyz_lines(ctx)
        return lines, [(4, 2, 2)] * 6, [lines[0], lines[3]]
    ctx = make_ctx(*(NILSQUARES if name == "nilsquares" else NONGOR))
    k = k_of(ctx)
    if name == "nilsquares":
        draws = {3: (2, 2, 2), 13: (4, 2, 2), 22: (2, 1, 1)}
        mods = [cyclic(ctx, "x")] + [random_module(cfg, ctx, i) for i in draws]
        return mods + [k], [(1, 1, 1), *draws.values(), None], [k, mods[1]]
    draws = {3: (2, 2, 2), 11: (2, 1, 1), 19: (4, 2, 2)}
    mods = [random_module(cfg, ctx, i) for i in draws]
    return mods, list(draws.values()), [k, mods[0]]


def _tail_record(mods, Ns, top):
    """For each module, resolved to step top: its twists, and the graded
    Ext and Tor values against each of Ns at 0..top - 1 from both routes'
    bodies, `derived_dims` and `ext` / `tor`."""
    out = []
    for M in mods:
        res = resolution_of(M.minimal_presentation()).extend_to(top)
        values = [derived_dims(kind, M, N, i) for kind in _STEP for N in Ns for i in range(top)]
        values += [route(M, N, range(top)).graded for route in (ext, tor) for N in Ns]
        out.append(([res.twists_of(i) for i in range(top + 1)], values))
    return out


@pytest.mark.parametrize("name", ["nilsquares", "wx-yz", "nongor"])
def test_literal_tails_equal_computed_ones(monkeypatch, name):
    # On every ring a resolution whose d_{n+1} repeats d_{n+1-p}, p = 1
    # or 2, with the twists of F_{n+1} and F_n those of F_{n+1-p} and
    # F_{n-p} raised by s, serves every later step (d_m = d_{m-p}, twists
    # plus s), and both routes read an index past the seam as their own
    # value at its base index, shifted.  Over nilsquares R/(x) repeats
    # with p = 1 from step 1 and seeded draws with p = 1 and 2; over (wx,
    # yz) the six lines of support varieties (1:0) and (0:1) repeat with p
    # = 2 from step 4 (they are resolved by Groebner steps); over the
    # artinian ring with a socle of dimension 2 seeded draws repeat with p
    # = 1 and 2.  Each module, resolved well past its seam, must have the
    # differentials, twists and graded Ext and Tor values of both routes
    # that computing every step gives: a literal repeat is served as the
    # very columns a computed step takes.
    mods, tails, Ns = _literal_cases(name)
    got = [resolution_of(M.minimal_presentation()).extend_to(14) for M in mods]
    assert [res._period for res in got] == tails
    served = _tail_record(mods, Ns, 14), [res._diffs for res in got]
    _no_tails(monkeypatch)
    again, _, Ns = _literal_cases(name)
    got = [resolution_of(M.minimal_presentation()).extend_to(14) for M in again]
    computed = _tail_record(again, Ns, 14), [res._diffs for res in got]
    assert all(res._period is None for res in got)
    assert served == computed


@pytest.mark.parametrize("name", ["quadric", "wx-yz"])
def test_both_routes_past_the_seam_equal_computed_ones(monkeypatch, name, buchberger_runs):
    # Past the seam of a tail, the direct route reads index i as its own
    # value at the base index b, shifted, and `derived_dims` (the complete
    # route's body) reads its own: over the quadric k against dual(N) of
    # `example-2-3.gor` (tail from step 4, by matrix factorization) and
    # over (wx, yz) the line M_2 against N_2 and M_3 (tail from step 4,
    # literal), ext and tor on [0, 13] of both routes must equal the
    # values with every step and every index computed.  With the tail,
    # the direct route's Groebner work does not grow with the window.
    def case():
        if name == "quadric":
            ctx = make_ctx(*QUADRIC)
            N = PresentedModule.from_matrix(ctx, [["w"], ["x"], ["y"], ["z"]])
            return k_of(ctx), [dual_module(N)]
        lines = _wxyz_lines(make_ctx(*WXYZ))
        return lines[0], [lines[3], lines[1]]

    M, Ns = case()
    res = resolution_of(M.minimal_presentation()).extend_to(15)
    assert res._period[:2] == (4, 2)
    assert sum(res._tail_base(i)[0] != i for i in range(14)) == 8
    served = _tail_record([M], Ns, 14)
    runs = []
    for top in (8, 14):
        M, Ns = case()
        buchberger_runs.reset()
        ext(M, Ns[0], range(1, top))
        runs.append(buchberger_runs.count)
    assert runs[0] == runs[1]
    _no_tails(monkeypatch)
    M, Ns = case()
    assert served == _tail_record([M], Ns, 14)
    assert resolution_of(M.minimal_presentation())._period is None


def test_served_steps_count_against_the_rank_budget(monkeypatch):
    # `extend_to` checks the budget before every step, served or not:
    # k over the quadric (tail from step 4, ranks 8 from F_3 on) stops
    # where every step computed stops.
    ctx = make_ctx(*QUADRIC)
    budgets = (40, 100, 200)
    served = [_resolve_all([k_of(ctx)], 60, b)[0] for b in budgets]
    assert all(res._period == (4, 2, 2) for res in served)
    _no_tails(monkeypatch)
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
    _no_tails(monkeypatch)
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
    # 144 Buchberger runs.  The relations of every side form a regular
    # sequence, so its resolution is certified by Hilbert series, read off
    # one plain basis of the module, with no tagged syzygy run (224 when
    # every step ran one, 255 with one basis per cokernel besides).  It
    # was 155 while a module's own numerator built a private basis: it now
    # reads the span cache the cokernels fill, so a module whose span a
    # cokernel or another module already had, up to a twist, runs none.
    ctx = make_ctx(*QUADRIC)
    cfg = ExperimentConfig(seed=1, max_generators=1)
    pairs = [random_pair(cfg, ctx, idx) for idx in range(40)]
    buchberger_runs.reset()
    assert all(symmetry_check(A, B, 12).verdict == "consistent" for A, B in pairs)
    assert buchberger_runs.count == 144


def test_symmetry_zero_reductions_are_pinned(monkeypatch):
    # The plain runs of those symmetry checks are signature-based: of the
    # 439 S-pairs they reduce, 12 reduce to zero (454 before module
    # numerators shared the cokernels' span cache, which drops 11 runs).  The Gebauer-Moeller
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
    assert counts == {"pairs": 439, "zero": 12}


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
        # coker [[w, y], [z, x]] against k over the quadric: 23 runs.  The
        # route reads each value off Hilbert series of cokernels
        # (`derived_dims`), one Groebner basis per complex term span,
        # shared with every module of that span: it took 25 while a
        # module's own numerator built a private basis.  It took 39
        # when it presented each value as a subquotient module (kernel
        # syzygies, pruning, relations), the direct route's own body.  It
        # took 28 while tagged runs used the Gebauer-Moeller body: one
        # kernel's syzygies from the signature run hold a generator beyond
        # the minimal ones, in a higher degree, and pruning it takes a basis.
        # It took 29 before resolutions over a hypersurface served their
        # periodic tail: M is a matrix factorization, so its steps from 3
        # on are served, and 4 syzygy runs are gone.
        (("w", "x", "y", "z"), ("w*x - y*z",), [["w", "y"], ["z", "x"]], 4, [2, 2], 23),
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


def _complete_resolution(mod):
    """(term, diff) of the complete resolution of a maximal Cohen-Macaulay
    module, spliced here from three public pieces: the resolution of M
    for indices >= 0, the resolution of Hom(M, R) dualized, its
    differentials transposed, for indices < 0, and in degree zero the
    evaluation pairing d_0, M's dual generators transposed.  diff(i) maps
    term(i) to term(i - 1)."""
    ctx, mm = mod.ctx, mod.minimal_presentation()
    pos, neg = resolution_of(mm), resolution_of(dual_module(mm))
    d0 = _hom_columns(ctx, _dual_generators(mm)[1], mm.rank0, 1)

    def term(i):
        if i >= 0:
            return pos.twists_of(i)
        return tuple(-a for a in neg.twists_of(-i - 1))

    def diff(i):
        if i >= 1:
            return pos.diff(i)
        if i == 0:
            return d0
        return _hom_columns(ctx, neg.diff(-i), neg.rank(-i - 1), 1)

    return term, diff


def test_complete_resolution_fully_periodic(nilsquares):
    m = cyclic(nilsquares, "x")
    term, diff = _complete_resolution(m)
    for i in range(-3, 4):
        assert term(i) == (i,)
    # Every differential is multiplication by x; composites vanish mod x^2.
    for i in range(-2, 4):
        target = PresentedModule.free(nilsquares, term(i - 2))
        composite = [_combine_columns(nilsquares, diff(i - 1), c) for c in diff(i)]
        assert composite and not any(target.normal_form(c) for c in composite)


def test_negative_syzygy_periodicity(nilsquares):
    m = cyclic(nilsquares, "x")
    assert negative_syzygy(m, -1) == m.shifted(-1).minimal_presentation()
    assert negative_syzygy(m, -3) == m.shifted(-3).minimal_presentation()


def test_complete_resolution_exactness_gor5(gor5):
    k = k_of(gor5)
    term, diff = _complete_resolution(k)
    p = gor5.ring.field.p
    ring = FiniteLengthRealization.of_ring(gor5)

    def matrix_at(i):
        # d_i : term(i) -> term(i - 1), degreewise as F (x) R -> F' (x) R.
        blocks = _entry_blocks(gor5, diff(i))
        return _block_builder(ring, blocks, term(i - 1), term(i), -1)

    for i in range(-1, 2):
        at, at_up = matrix_at(i), matrix_at(i + 1)
        for d in range(-6, 7):
            src_dim = sum(ring.dim(d - a) for a in term(i))
            if not src_dim:
                continue
            kernel_dim = src_dim - rank_rows(at(d), p)
            assert kernel_dim == rank_rows(at_up(d), p), (i, d)


def test_complete_resolution_hypotheses(quadric):
    n = PresentedModule.from_matrix(quadric, [["w"], ["x"], ["y"], ["z"]])
    with pytest.raises(HypothesisNotMet, match="module is not maximal Cohen-Macaulay"):
        negative_syzygy(n, -1)
    bad = make_ctx(("x", "y"), ("x^2", "x*y", "y^3"))
    with pytest.raises(HypothesisNotMet, match="complete resolutions need a Gorenstein context"):
        negative_syzygy(PresentedModule.residue_field(bad), -1)


def test_dual_of_syzygy_matches_negative_syzygy_of_dual(nilsquares, gor5, quadric):
    # For the periodic module B/(x): dualizing the i-th syzygy agrees with
    # the -i-th syzygy of the dual, a sanity anchor for index conventions.
    m = cyclic(nilsquares, "x")
    for i in (1, 2):
        left = dual_module(syzygy(m, i))
        right = negative_syzygy(dual_module(m), -i)
        assert left.hilbert_numerator() == right.hilbert_numerator()
    # Over a Gorenstein context the cosyzygy of an MCM module is the dual
    # of the syzygy of its dual, up to isomorphism.  Both sides read the
    # resolution of Hom(M, R), but negative_syzygy takes the cokernel of a
    # transposed differential and the other side a dual (a kernel), so
    # they agree by duality, not by construction.
    # Seed-2 draws 0-11 over the artinian rings (all MCM) and the quadric's
    # matrix-factorization module, i = 1, 2, 3: 75 cases.
    cfg = ExperimentConfig(seed=2)
    mods = [random_module(cfg, ctx, idx) for ctx in (nilsquares, gor5) for idx in range(12)]
    mods = [m for m in mods if m.minimal_presentation().rank0]
    mods.append(PresentedModule.from_matrix(quadric, [["w", "y"], ["z", "x"]]))
    assert len(mods) == 25
    for n, m in enumerate(mods):
        for i in (1, 2, 3):
            left = negative_syzygy(m, -i)
            right = dual_module(syzygy(dual_module(m), i))
            assert sorted(left.row_twists) == sorted(right.row_twists), (n, i)
            assert sorted(left.col_degrees) == sorted(right.col_degrees), (n, i)
            assert minimal_free_resolution(left, 4)[1] == minimal_free_resolution(right, 4)[1], (n, i)


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
    k = k_of(make_ctx(("x", "y"), ("x^2", "x*y", "y^2")))
    with pytest.raises(HypothesisNotMet, match="the dual route needs a Gorenstein context"):
        ext_via_complete(k, k, [1, 2, 3])


def test_dual_route_defaults_to_syzygy_two_past_the_top_index(nilsquares):
    # Without t the pass goes through syzygy max(indices) + 2; no indices
    # give an empty result.
    M, N = random_pair(ExperimentConfig(seed=3), nilsquares, 0)
    idx = [1, 2, 3]
    default, explicit = ext_via_complete(M, N, idx), ext_via_complete(M, N, idx, t=5)
    assert any(explicit.total(i) for i in idx)
    assert [default.graded_of(i) for i in idx] == [explicit.graded_of(i) for i in idx]
    empty = ext_via_complete(M, N, [])
    assert empty.indices == [] and empty.totals == {}


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
    assert len(ctx.scratch["step"]) <= STEP_BOUND
    gc.collect()
    alive = [r for r in gc.get_objects() if isinstance(r, Resolution) and r.ctx is ctx]
    assert len(alive) <= CACHE_BOUND
    for r in alive:
        # the cache is the one holder of a resolution
        holders = [h for h in gc.get_referrers(r) if h is not alive and not inspect.isframe(h)]
        assert len(holders) == 1 and holders[0] is cache
    mods = [m for m in gc.get_objects() if isinstance(m, PresentedModule) and m.ctx is ctx]
    assert mods and not any(_holds(m._cache, Resolution) for m in mods)


def test_rebuilt_resolution_runs_no_kernel_walk(kernel_steps):
    # The step table keeps steps, not resolutions, so it outlives them: on
    # a fresh gor5 context, 40 seed-41 draws resolved to step 4 push the
    # first ones out of the "res" cache, and the first, built again,
    # follows the table with no kernel walk and takes the same steps (87
    # walks, then 3 for the rebuild, while the table kept only 32 steps).
    ctx = make_ctx(*GOR5)
    cfg = ExperimentConfig(seed=41)
    mods = [random_module(cfg, ctx, i).minimal_presentation() for i in range(CACHE_BOUND + 8)]
    kernel_steps.reset()
    first = resolution_of(mods[0]).extend_to(4)
    steps = (list(first._twists), list(first._diffs))
    for M in mods[1:]:
        resolution_of(M).extend_to(4)
    assert kernel_steps.count == 86
    assert mods[0].value_key() not in ctx.scratch["res"]
    kernel_steps.reset()
    again = resolution_of(mods[0]).extend_to(4)
    assert again is not first
    assert kernel_steps.count == 0
    assert (again._twists, again._diffs) == steps


def test_step_table_keeps_its_own_bound(monkeypatch):
    # The step table drops its least recently used step past STEP_BOUND
    # steps, whatever the "res" cache keeps: with the bound patched to 16,
    # seeded nilsquares and gor5 scans keep at most 16 steps, and take
    # the values they take with the full bound.
    def scans():
        out = []
        for ring in (NILSQUARES, GOR5):
            ctx = make_ctx(*ring)
            cfg = ExperimentConfig(seed=2)
            for idx in range(12):
                M, N = random_pair(cfg, ctx, idx)
                out.append(scan_ext(M, N, 6, full=True, rank_budget=cfg.rank_budget).to_json_dict())
            out.append(len(ctx.scratch["step"]))
        return out

    full = scans()
    monkeypatch.setattr(resolution, "STEP_BOUND", 16)
    small = scans()
    assert small[12] == small[-1] == 16 < min(full[12], full[-1])
    assert small[:12] + small[13:-1] == full[:12] + full[13:-1]


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


def _cover_homology(kind, M, N, i):
    """ker(out) / im(in) at X_i of the direct route's complex, taken on
    the free cover: `subquotient` of the sum of shifted copies of N
    (`_sum_of_shifts`) by the incoming columns (`_incoming_cols`), into
    the next term by the outgoing `_step_cols`, or into the zero module
    where no map leaves X_i."""
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    res = resolution_of(Mm).extend_to(i + 1)
    if not res.twists_of(i) or not Nm.rank0:
        return PresentedModule.zero(M.ctx)
    rb = Nm.rank0
    o = i + _STEP[kind]
    X = _sum_of_shifts(Nm, _term_shifts(kind, res, i))
    in_cols = _incoming_cols(kind, res, i, rb)
    target, out_cols = PresentedModule.zero(M.ctx), []
    if o >= 0 and res.rank(o):
        target = _sum_of_shifts(Nm, _term_shifts(kind, res, o))
        out_cols = _step_cols(kind, res, max(i, o), rb)
    return subquotient(X, in_cols, target, out_cols)


def _eager_homology(kind, M, N, i):
    """The i-th value of the direct route as `subquotient` presents it
    when called on the complex right away (index 0 of tor is M (x) N)."""
    if kind == "tor" and i == 0:
        return tensor_module(M.minimal_presentation(), N.minimal_presentation())
    return _cover_homology(kind, M, N, i)


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


@pytest.mark.parametrize("ring, seed", [("gor5", 83), ("nilsquares", 84)])
def test_direct_route_matches_free_cover_subquotient(request, ring, seed):
    # Oracle for the direct route over an artinian ring, which takes each
    # value on N's realization: its graded dimensions at i = 0..3, for
    # ext and tor, must be the Hilbert function of the subquotient built
    # on the free cover.  The corpus holds N with two or more generators,
    # and the indices where no map leaves X_i: tor at 0, and ext at 0 of
    # a free M, whose projective dimension is 0.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=seed)
    pairs = [random_pair(cfg, ctx, idx) for idx in range(5)]
    pairs += [(PresentedModule.free(ctx, (0, 1)), N) for _, N in pairs[:2]]
    compared = wide = closed = nonzero = 0
    for M, N in pairs:
        wide += N.minimal_presentation().rank0 >= 2
        res = resolution_of(M.minimal_presentation())
        for kind, route in (("ext", ext), ("tor", tor)):
            result = route(M, N, range(4))
            for i in range(4):
                assert result.graded_of(i) == _cover_homology(kind, M, N, i)._finite_hf(), (kind, i)
                o = i + _STEP[kind]
                closed += bool(res.rank(i)) and not (o >= 0 and res.rank(o))
                nonzero += bool(result.total(i))
                compared += 1
    assert wide and closed >= len(pairs) + 2 and nonzero >= compared // 2


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
    real = FiniteLengthRealization.of_ring(ctx)
    gens, degs, dims = kernel_generators(real, twists, reduced_at, degrees)
    return _packed(ctx, twists, gens, degs), degs, dims


@pytest.mark.parametrize("ring, seed", [("gor5", 75), ("nilsquares", 76)])
def test_direct_route_reads_terms_copy_by_copy(request, ring, seed):
    # Over an artinian ring the direct route walks each term on N's
    # realization.  Its dimensions must be those of the walk on the
    # presented quotient X_i / im(in) into X_o as a whole, on the free
    # cover; and the kernel of a map into a sum, its columns reduced copy
    # by copy by the sum's base's echelons (`_map_kernel`), must be the
    # one reduced by the sum's own echelon: the same generators, term for
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
    # Over an artinian ring one call lays out each induced map once, as
    # the outgoing map of one index and the incoming map of its
    # neighbour, and builds no term: ext and tor on [1, 2, 3] over gor5
    # need the maps induced by d_1 .. d_4, 4 builders each (6 sums each
    # when every index built both of its terms, 4 when each term was
    # built once).  Off the artinian locus each term X_j is built once:
    # over the quadric ext of k against R/(w, y) on [1, 2, 3] needs X_1 ..
    # X_4 and tor X_0 .. X_3, 4 sums each.
    real_builder = resolution._matrix_builder
    real_sum = resolution._sum_of_shifts
    built = []
    summed = []

    def builder(kind, nreal, res, j):
        built.append((kind, j))
        return real_builder(kind, nreal, res, j)

    def counted(base, shifts):
        summed.append(tuple(shifts))
        return real_sum(base, shifts)

    monkeypatch.setattr(resolution, "_matrix_builder", builder)
    monkeypatch.setattr(resolution, "_sum_of_shifts", counted)
    gor5 = make_ctx(*GOR5)
    quadric = make_ctx(*QUADRIC)
    cases = [
        (random_pair(ExperimentConfig(seed=1, max_generators=1), gor5, 1), 4, 0),
        ((k_of(quadric), PresentedModule.from_matrix(quadric, [["w", "y"]])), 0, 4),
    ]
    for (M, N), maps, sums in cases:
        for route in (ext, tor):
            built.clear()
            summed.clear()
            result = route(M, N, [1, 2, 3])
            assert any(result.totals.values())
            assert len(built) == len(set(built)) == maps
            assert len(summed) == len(set(summed)) == sums


@pytest.mark.parametrize(
    "names, rels, gens, pair, eager, now",
    [
        (("x", "y"), ("x^2", "y^2"), 3, 2, 569, 297),
        (*GOR5, 1, 1, 535, 91),
    ],
)
def test_direct_route_row_work_is_pinned(axpy_calls, names, rels, gens, pair, eager, now):
    # The direct route over an artinian ring, pinned by its row work: ext
    # and tor on [1, 2, 3] of one seed-1 pair (cyclic over gor5, as in the
    # route benchmark) on a fresh context make `now` row additions, with
    # each term walked on N's realization and the walk seeded with the
    # incoming map's columns (422 and 185 when the walk ran on the free
    # cover, seeded by X_i's relation echelon read off N's and the map
    # reduced copy by copy, a pivot's row at a time; 477 and 224 when the
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
