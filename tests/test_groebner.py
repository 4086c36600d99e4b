"""Engine-level checks: bases, normal forms, syzygies, Hilbert data.

Expected values here were worked out by hand (S-polynomial by S-polynomial
for the small bases, dimension counts by listing monomials) before the
engine existed; they are frozen, not regenerated.
"""

import heapq
import random

import pytest

from extlab import groebner
from extlab.errors import DegreeCapError
from extlab.groebner import (
    RingCtx,
    component_numerators,
    module_codec,
    module_gb,
    monomial_quotient_numerator,
    quotient_helpers,
    reduce_vec_by_ideal,
    signature_gb,
    syzygies_for,
    tp_exact_quotient,
    tp_one_minus_t_valuation,
    tp_series,
    tp_value_at_one,
    twisted_numerator,
)
from extlab.modules import PresentedModule
from extlab.poly import FieldSpec, Polynomial, PolyRing
from extlab.realize import FiniteLengthRealization
from extlab.vanishing import ExperimentConfig, random_pair, symmetry_check

from conftest import make_ctx


def ring_with(names, p=101, **kw):
    return PolyRing(FieldSpec(p), names, **kw)


def poly_vec(f, comp=0):
    codec = module_codec(f.ring)
    return {codec.mkey(k, comp): c for k, c in f.raw().items()}


def entries_vec(entries):
    ring = entries[0].ring
    codec = module_codec(ring)
    out = {}
    for comp, f in enumerate(entries):
        for k, c in f.raw().items():
            out[codec.mkey(k, comp)] = c
    return out


def vec_entries(vec, ring, rank):
    codec = module_codec(ring)
    polys = [dict() for _ in range(rank)]
    for k, c in vec.items():
        polys[codec.comp_of(k)][codec.mono_of(k)] = c
    return [Polynomial(ring, d) for d in polys]


def nf_poly(ctx, f):
    """Normal form of the polynomial f modulo ctx's defining ideal."""
    red = reduce_vec_by_ideal(poly_vec(f), ctx)
    return vec_entries(red, f.ring, 1)[0]


def gb_strings(gbv, rank=1):
    ring = gbv.ring
    out = []
    for vec in gbv:
        parts = [str(f) for f in vec_entries(vec, ring, rank)]
        out.append(parts[0] if rank == 1 else tuple(parts))
    return out


def test_hand_worked_basis():
    ring = ring_with(["x", "y"])
    x, y = ring.gens()
    gbv, _ = signature_gb([poly_vec(x**2), poly_vec(x * y + y**2)], ring)
    # By hand: S(x^2, xy+y^2) -> -xy^2 -> +y^3 after one more step.
    # Canonical output order is ascending lead: xy < x^2 < y^3 in grevlex.
    assert gb_strings(gbv) == ["x*y + y^2", "x^2", "y^3"]


def test_basis_canonical_under_input_shuffle():
    ring = ring_with(["x", "y", "z"])
    rng = random.Random(17)
    for _ in range(8):
        polys = [ring.random_homogeneous(rng, rng.randrange(1, 4)) for _ in range(4)]
        polys = [f for f in polys if f]
        vecs = [poly_vec(f) for f in polys]
        gb1, _ = signature_gb(vecs, ring)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        gb2, _ = signature_gb(shuffled, ring)
        assert gb1.elements == gb2.elements
        # Membership: every generator reduces to zero.
        for v in vecs:
            assert not gb1.reduce(v)
        for f in polys:
            assert not gb1.reduce(poly_vec(f * polys[0]))


def test_quadric_quotient_normal_forms():
    ring = ring_with(["w", "x", "y", "z"])
    ctx = RingCtx(ring, [ring.parse("w*x - y*z")])
    assert [str(Polynomial(ring, g)) for g in ctx.ideal_gb] == ["w*x - y*z"]
    assert str(nf_poly(ctx, ring.parse("w*x"))) == "y*z"
    assert str(nf_poly(ctx, ring.parse("w*x*y"))) == "y^2*z"
    assert nf_poly(ctx, ring.parse("w*x - y*z")).is_zero()
    assert ctx.dim == 3
    # Graded pieces of the quadric hypersurface: 4, 10-1, 20-4, ...
    assert [ctx.hilbert_function(d) for d in range(4)] == [1, 4, 9, 16]


def test_koszul_syzygy_of_two_variables():
    ring = ring_with(["x", "y"])
    ctx = RingCtx(ring)
    x, y = ring.gens()
    syz = syzygies_for(ctx, [poly_vec(x), poly_vec(y)], rank=1)
    gbv = module_gb(ctx, syz, rank=2)
    want = module_gb(ctx, [entries_vec([y, -x])], rank=2)
    assert gbv.elements == want.elements


def test_syzygy_over_nilpotent_line():
    ring = ring_with(["x"])
    ctx = RingCtx(ring, [ring.parse("x^2")])
    (xv,) = ring.gens()
    syz = syzygies_for(ctx, [poly_vec(xv)], rank=1)
    gbv = module_gb(ctx, syz, rank=1)
    want = module_gb(ctx, [poly_vec(xv)], rank=1)
    assert gbv.elements == want.elements


def test_residue_field_syzygies_over_two_nilpotents():
    ring = ring_with(["x", "y"])
    ctx = RingCtx(ring, [ring.parse("x^2"), ring.parse("y^2")])
    x, y = ring.gens()
    zero = ring.zero
    syz = syzygies_for(ctx, [poly_vec(x), poly_vec(y)], rank=1)
    gbv = module_gb(ctx, syz, rank=2)
    want = module_gb(
        ctx,
        [entries_vec([x, zero]), entries_vec([zero, y]), entries_vec([y, -x])],
        rank=2,
    )
    assert gbv.elements == want.elements


def test_syzygies_satisfy_defining_relations():
    # Independent check: plug each syzygy back into the generators.
    ring = ring_with(["x", "y", "z"])
    ctx = RingCtx(ring, [ring.parse("x*y"), ring.parse("y*z")])
    rng = random.Random(23)
    for _ in range(6):
        cols = [ring.random_homogeneous(rng, rng.randrange(1, 3)) for _ in range(3)]
        cols = [nf_poly(ctx, f) for f in cols]
        if not all(cols):
            continue
        syz = syzygies_for(ctx, [poly_vec(f) for f in cols], rank=1)
        assert syz
        for s in syz:
            coords = vec_entries(s, ring, len(cols))
            total = ring.zero
            for f, g in zip(coords, cols):
                total = total + f * g
            assert nf_poly(ctx, total).is_zero()


def test_zero_and_duplicate_columns_give_unit_syzygies():
    ring = ring_with(["x", "y"])
    ctx = RingCtx(ring)
    x, _ = ring.gens()
    syz = syzygies_for(ctx, [poly_vec(x), {}, poly_vec(x)], rank=1)
    gbv = module_gb(ctx, syz, rank=3)
    one = ring.one
    zero = ring.zero
    want = module_gb(
        ctx,
        [entries_vec([zero, one, zero]), entries_vec([one, zero, -one])],
        rank=3,
    )
    assert gbv.elements == want.elements


def test_gorenstein_artinian_ring_data():
    ring = ring_with(["x", "y", "z"])
    rels = [ring.parse(s) for s in ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"]]
    ctx = RingCtx(ring, rels)
    assert gb_strings_from_ideal(ctx) == [
        "y*z",
        "x*z",
        "y^2 - z^2",
        "x*y",
        "x^2 - z^2",
        "z^3",
    ]
    assert ctx.dim == 0
    assert ctx._hf == {0: 1, 1: 3, 2: 1}
    assert ctx.length == 5
    assert ctx.top_degree == 2
    assert FiniteLengthRealization.of_ring(ctx).socle_profile() == {2: 1}


def gb_strings_from_ideal(ctx):
    return [str(Polynomial(ctx.ring, g)) for g in ctx.ideal_gb]


def test_complete_intersection_ring_data():
    ring = ring_with(["x", "y"])
    ctx = RingCtx(ring, [ring.parse("x^2"), ring.parse("y^2")])
    assert ctx.dim == 0
    assert ctx._hf == {0: 1, 1: 2, 2: 1}
    assert ctx.length == 4
    assert FiniteLengthRealization.of_ring(ctx).socle_profile() == {2: 1}
    uni = ring_with(["x"])
    line = RingCtx(uni, [uni.parse("x^2")])
    line_socle = FiniteLengthRealization.of_ring(line).socle_profile()
    assert (line.length, line.top_degree, line_socle) == (2, 1, {1: 1})


def test_action_matrices_square_to_zero_mod_relations():
    ring = ring_with(["x", "y"])
    ctx = RingCtx(ring, [ring.parse("x^2"), ring.parse("y^2")])
    real = FiniteLengthRealization.of_ring(ctx)
    a0 = real.action_columns(0, 0)
    a01 = real.action_columns(0, 1)
    assert (len(a0), real.dim(1), len(a01), real.dim(2)) == (1, 2, 2, 1)
    # x * 1 = x and x * y = xy, but x * (x * 1) = 0 in this quotient.
    assert a0 == [{0: 1}] and a01 == [{}, {0: 1}]
    assert real.monomial_columns(ring.encode_monomial((2, 0)), 0) == [{}]
    std1 = ctx.std_monomials(1)
    assert [ring.format_monomial(k) for k in std1] == ["x", "y"]


def test_hilbert_helpers():
    one_minus_t2 = {0: 1, 2: -1}
    assert tp_one_minus_t_valuation(one_minus_t2) == 1
    sq = {0: 1, 2: -2, 4: 1}
    assert tp_exact_quotient(sq, 2) == one_minus_t2
    assert tp_exact_quotient({0: 1, 1: 1}, 1) is None
    assert tp_value_at_one(sq) == 0
    # 1/(1-t)^2 = 1 + 2t + 3t^2 + ...
    assert tp_series({0: 1}, (1, 1), 3) == {0: 1, 1: 2, 2: 3, 3: 4}
    assert monomial_quotient_numerator(((2, 0), (0, 2)), (1, 1)) == sq
    assert monomial_quotient_numerator((), (1, 1)) == {0: 1}
    assert monomial_quotient_numerator(((0, 0),), (1, 1)) == {}


def test_numerator_memo_is_bounded(monkeypatch):
    # The memo keeps the NUMERATOR_BOUND most recently used numerators and
    # drops the rest; numerators stay right across evictions, checked
    # against a count of the standard monomials of each degree.
    monkeypatch.setattr(groebner, "_numerator_memo", {})
    rng = random.Random(43)
    weights = (1, 1, 1, 1)
    ideals = [
        tuple(tuple(rng.randrange(0, 4) for _ in range(4)) for _ in range(rng.randrange(2, 7)))
        for _ in range(150)
    ]
    ideals = [g for g in ideals if all(sum(e) for e in g)]
    nums = [monomial_quotient_numerator(g, weights) for g in ideals]
    assert len(groebner._numerator_memo) == groebner.NUMERATOR_BOUND
    ring = ring_with(["a", "b", "c", "d"])
    for gens, num in zip(ideals[-40:], nums[-40:]):
        series = tp_series(num, weights, 5)
        for d in range(6):
            std = [
                m for m in ring.monomials_of_degree(d)
                if not any(all(x <= y for x, y in zip(g, m)) for g in gens)
            ]
            assert series.get(d, 0) == len(std)


def _monomials_up_to(weights, top):
    """Exponent vectors of weighted degree at most `top`, with it."""
    if not weights:
        yield (), 0
        return
    for rest, d in _monomials_up_to(weights[1:], top):
        for e in range((top - d) // weights[0] + 1):
            yield (e, *rest), d + e * weights[0]


def test_numerator_matches_standard_monomial_counts():
    # 1,200 seeded monomial ideals in 1 to 6 variables, a quarter of them
    # over weights (1, 1, 2, 3), some with repeated, dividing or unit
    # generators: the series of each numerator must count the standard
    # monomials, those no generator divides, in every degree up to 6.
    rng = random.Random(35)
    top = 6
    for _ in range(1200):
        weights = (1, 1, 2, 3) if rng.random() < 0.25 else (1,) * rng.randint(1, 6)
        n = len(weights)
        gens = [tuple(rng.randrange(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 7))]
        if gens and rng.random() < 0.2:
            gens.append(tuple(a + rng.randrange(0, 2) for a in rng.choice(gens)))
        series = tp_series(monomial_quotient_numerator(tuple(gens), weights), weights, top)
        counts = [0] * (top + 1)
        for exps, d in _monomials_up_to(weights, top):
            if not any(all(a <= b for a, b in zip(g, exps)) for g in gens):
                counts[d] += 1
        assert [series.get(d, 0) for d in range(top + 1)] == counts, (gens, weights)


def test_twisted_component_numerators():
    ring = ring_with(["x", "y"])
    ctx = RingCtx(ring, [ring.parse("x^2"), ring.parse("y^2")])
    x, y = ring.gens()
    # R(0) + R(-1) modulo (x e_0, y e_1): leads split by component.
    gbv = module_gb(ctx, [poly_vec(x, 0), poly_vec(y, 1)], rank=2)
    num = twisted_numerator(component_numerators(ctx, gbv, 2), (0, 1))
    hf = tp_exact_quotient(tp_exact_quotient(num, 1), 1)
    # Component 0 is k[y]/(y^2), component 1 k[x]/(x^2) raised by one.
    assert hf is not None
    assert sum(hf.values()) > 0


def test_top_order_leads():
    ring = ring_with(["x", "y"])
    x, y = ring.gens()
    codec = module_codec(ring)
    vec = entries_vec([x, y])
    assert codec.comp_of(max(vec)) == 0 and codec.mono_of(max(vec)) == max(x.raw())
    # Same monomial in both slots: lower component wins.
    vec2 = entries_vec([y, y])
    assert codec.comp_of(max(vec2)) == 0


def test_degree_cap_aborts_runs():
    ring = ring_with(["x", "y"], degree_cap=3)
    f = ring.parse("x^2*y")
    g = ring.parse("x*y^2 + y^3")
    with pytest.raises(DegreeCapError):
        signature_gb([poly_vec(f), poly_vec(g)], ring)
    with pytest.raises(DegreeCapError):
        module_gb(RingCtx(ring), [poly_vec(f), poly_vec(g)], rank=1)
    # In a syzygy run tag terms may outgrow their working lead (t_j is the
    # tag of input j): input 2 reduces by e1 to e0 + t2 - z^2 t1, and
    # reducing input 0, x*y e0 + t0 - z^3 t1 once e1 has reduced it, by
    # that would reach x*y*z^2.
    ring = ring_with(["x", "y", "z"], degree_cap=3)
    inputs = ["x*y", "z^3"], ["0", "1"], ["1", "z^2"]
    vecs = [entries_vec([ring.parse(f) for f in fs]) for fs in inputs]
    with pytest.raises(DegreeCapError, match="reduction would pass degree 4 > cap 3"):
        syzygies_for(RingCtx(ring), vecs, 2)


def test_degree_cap_checked_before_s_vectors():
    # The S-vector of x^2 e0 + e1 and y e0 is y e1 + y t0 - x^2 t1 (t_j the
    # tag of input j); pairing it with y*z^2 e1 multiplies it by z^2, which
    # would take x^2 t1 past the cap before any reduction runs.
    inputs = ["x^2", "1"], ["y", "0"], ["0", "y*z^2"]
    ring = ring_with(["x", "y", "z"], degree_cap=3)
    vecs = [entries_vec([ring.parse(f) for f in fs]) for fs in inputs]
    with pytest.raises(DegreeCapError, match="S-vector would pass degree 4 > cap 3"):
        syzygies_for(RingCtx(ring), vecs, 2)
    # One degree more of room, and the syzygy holds the degree-4 term.
    ring = ring_with(["x", "y", "z"], degree_cap=4)
    vecs = [entries_vec([ring.parse(f) for f in fs]) for fs in inputs]
    syz = syzygies_for(RingCtx(ring), vecs, 2)
    assert max(ring.mono_degree(module_codec(ring).mono_of(k)) for v in syz for k in v) == 4


def test_reduce_vec_by_ideal_touches_all_components():
    ring = ring_with(["w", "x", "y", "z"])
    ctx = RingCtx(ring, [ring.parse("w*x - y*z")])
    vec = entries_vec([ring.parse("w*x"), ring.parse("w*x*y + z")])
    red = reduce_vec_by_ideal(vec, ctx)
    ents = vec_entries(red, ring, 2)
    assert [str(e) for e in ents] == ["y*z", "y^2*z + z"]


@pytest.mark.parametrize("p", [7, 101, 32003])
def test_ideal_basis_matches_sympy(p):
    # The reduced Groebner basis of an ideal is unique, so RingCtx's basis
    # must equal sympy's term for term once both are made monic over GF(p).
    sympy = pytest.importorskip("sympy")
    names = ("x", "y", "z")
    ring = PolyRing(FieldSpec(p), names)
    syms = sympy.symbols(names)
    rng = random.Random(p)

    def monic(terms):
        lead = max(terms)  # terms are keyed by `_grevlex`
        inv = pow(terms[lead] % p, p - 2, p)
        return frozenset((e, c * inv % p) for e, c in terms.items() if c % p)

    checked = 0
    while checked < 12:
        polys = [ring.random_homogeneous(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5))]
        polys = [f for f in polys if not f.is_zero()]
        if not polys:
            continue
        ctx = RingCtx(ring, polys)
        ours = {
            monic({_grevlex(ring.decode_monomial(m)): c for m, c in g.items()})
            for g in ctx.ideal_gb
        }
        exprs = [
            sum(c * sympy.Mul(*(s**e for s, e in zip(syms, ring.decode_monomial(m)))) for m, c in f.raw().items())
            for f in polys
        ]
        basis = sympy.groebner(exprs, *syms, modulus=p, order="grevlex")
        theirs = {
            monic({_grevlex(e): int(c) for e, c in sympy.Poly(g, *syms, modulus=p).terms()})
            for g in basis.exprs
        }
        assert ours == theirs
        checked += 1


def _grevlex(exps):
    """Sort key of an exponent vector in grevlex with x > y > z: total
    degree, then the reversed, negated exponents."""
    return (sum(exps), tuple(-e for e in reversed(exps)), exps)


# -- pair criteria against every pair -------------------------------------------


def _shift_add(dst, src, coeff, delta, p):
    """dst += coeff * (src shifted by delta), dropping zeros."""
    for k, c in src.items():
        v = (dst.get(k + delta, 0) + coeff * c) % p
        if v:
            dst[k + delta] = v
        else:
            dst.pop(k + delta, None)


def _normal_form(vec, by, ring):
    """Full normal form of vec, dividing each term by the first vector of
    `by` whose lead divides it (same component and block)."""
    codec = module_codec(ring)
    p = ring.field.p
    leads = [(max(g), g) for g in by]
    work, out = dict(vec), {}
    while work:
        k = max(work)
        for lead, g in leads:
            same = lead & codec.identmask == k & codec.identmask
            if same and ring.mono_divides(codec.mono_of(lead), codec.mono_of(k)):
                quot = ring._codec.div(codec.mono_of(k), codec.mono_of(lead))
                factor = -work[k] * pow(g[lead], p - 2, p)
                _shift_add(work, g, factor, codec.delta(quot), p)
                break
        else:
            out[k] = work.pop(k)
    return out


def _reference_buchberger(inputs, ring, collect_syz=False):
    """Buchberger with no criterion: every S-pair of two elements with the
    same lead component and block is reduced, those of lower lcm degree
    first and otherwise in the order made, and the minimal elements are
    then tail-reduced, made monic and sorted.  With `collect_syz` every
    input carries a unit tag, the ideal helpers too; inputs that carry
    tags already (`_tagged`) leave the syzygies of the tagged ones.
    Returns (reduced basis, syzygies, reductions made)."""
    codec = module_codec(ring)
    p = ring.field.p
    basis, syz, pairs = [], [], []  # pairs: heap of (lcm degree, j, i), i < j
    reductions = 0

    def insert(vec):
        nonlocal reductions
        reductions += 1
        r = _normal_form(vec, basis, ring)
        if not r:
            return
        if not max(r) & codec.tagbit:
            syz.append({k | codec.tagbit: c for k, c in r.items()})
        else:
            ident = max(r) & codec.identmask
            mono = codec.mono_of(max(r))
            for i, g in enumerate(basis):
                if max(g) & codec.identmask == ident:
                    tau = ring.mono_lcm(codec.mono_of(max(g)), mono)
                    heapq.heappush(pairs, (ring.mono_degree(tau), len(basis), i))
        basis.append(r)

    for j, vec in enumerate(inputs):
        if collect_syz:
            vec = dict(vec)
            vec[codec.mkey(ring.unit_key, j, tag=True)] = 1
        elif not vec:
            continue
        insert(vec)
    while pairs:
        _, j, i = heapq.heappop(pairs)
        f, g = basis[i], basis[j]
        mf, mg = codec.mono_of(max(f)), codec.mono_of(max(g))
        tau = ring.mono_lcm(mf, mg)
        s = {}
        _shift_add(s, f, pow(f[max(f)], p - 2, p), codec.delta(ring._codec.div(tau, mf)), p)
        _shift_add(s, g, -pow(g[max(g)], p - 2, p), codec.delta(ring._codec.div(tau, mg)), p)
        insert(s)

    work = [g for g in basis if max(g) & codec.tagbit]
    minimal = [
        g for g in work
        if not any(
            h is not g
            and max(h) & codec.identmask == max(g) & codec.identmask
            and ring.mono_divides(codec.mono_of(max(h)), codec.mono_of(max(g)))
            for h in work
        )
    ]
    out = []
    for g in minimal:
        r = _normal_form(g, [h for h in minimal if h is not g], ring)
        inv = pow(r[max(r)], p - 2, p)
        out.append({k: c * inv % p for k, c in r.items() if k & codec.tagbit})
    return sorted(out, key=max), syz, reductions


def _cubic_ctx():
    ring = ring_with(["w", "x", "y", "z"])
    return RingCtx(ring, [ring.parse("w^3 + x^3 + y^3 + z^3")])


def _family(ctx, rng, rank):
    """A few homogeneous vectors of R^rank(-twists), and the twists."""
    ring = ctx.ring
    codec = ctx.codec
    twists = tuple(rng.randrange(0, 2) for _ in range(rank))
    vecs = []
    for _ in range(rng.randrange(2, 4)):
        d = max(twists) + rng.randrange(1, 3)
        vec = {}
        for c, a in enumerate(twists):
            f = ring.random_homogeneous(rng, d - a, density=0.3)
            vec.update({codec.mkey(k, c): v for k, v in f.raw().items()})
        if vec:
            vecs.append(vec)
    return vecs, twists


def _tagged(ctx, vecs):
    """The vectors with the unit tag e_j on vector j, as `syzygies_for`
    passes them."""
    codec, unit = ctx.codec, ctx.ring.unit_key
    return [{**v, codec.mkey(unit, j, tag=True): 1} for j, v in enumerate(vecs)]


def _syzygy_span(ctx, syz, m):
    """Reduced basis over R of the span of the syzygies `syz`, tag-block
    vectors of a run or working-block ones of the reference, cut to their
    first m components."""
    codec = ctx.codec
    cut = [{k | codec.tagbit: c for k, c in s.items() if codec.comp_of(k) < m} for s in syz]
    return module_gb(ctx, [v for v in cut if v], m).elements


@pytest.mark.parametrize("ring", ["quadric", "cubic"])
def test_pair_criteria_match_every_pair(request, ring, buchberger_reductions):
    # The body sees the vectors plus the lifting helpers, as `module_gb`
    # and `syzygies_for` pass them, the latter with the vectors tagged.
    # Both runs' reduced bases must be the reference's; syzygies are
    # compared as spans over R, since the criteria change which ones are
    # found and the tagged run leaves the helpers' coordinates out.
    ctx = _cubic_ctx() if ring == "cubic" else request.getfixturevalue(ring)
    rng = random.Random(31)
    fewer = 0
    for rank in (1, 2, 3, 1, 2, 3):
        vecs, _ = _family(ctx, rng, rank)
        helpers = quotient_helpers(ctx, rank)
        inputs = vecs + helpers
        want, _, want_used = _reference_buchberger(inputs, ctx.ring)
        before = buchberger_reductions.count
        assert groebner.signature_gb(inputs, ctx.ring)[0].elements == want
        fewer += buchberger_reductions.count - before < want_used
        _, want_syz, want_used = _reference_buchberger(inputs, ctx.ring, collect_syz=True)
        before = buchberger_reductions.count
        gbv, syz = groebner.signature_gb(_tagged(ctx, vecs) + helpers, ctx.ring)
        fewer += buchberger_reductions.count - before < want_used
        assert gbv.elements == want
        assert _syzygy_span(ctx, syz, len(vecs)) == _syzygy_span(ctx, want_syz, len(vecs))
    assert fewer


def _weighted_ctx():
    ring = ring_with(["x", "y", "z"], weights=(1, 2, 3))
    return RingCtx(ring, [ring.parse("x^4 + x*z + y^2"), ring.parse("y^3 - z^2")])


@pytest.mark.parametrize("ring", ["weighted", "gor5"])
def test_signature_basis_matches_the_reference(request, ring):
    # The plain body on more rings: seeded families with the lifting
    # helpers over a weighted ring and over gor5, and the ideal basis of
    # each ring from its relations, against the reference.
    ctx = _weighted_ctx() if ring == "weighted" else request.getfixturevalue(ring)
    rng = random.Random(43)
    runs = [[poly_vec(f) for f in ctx.relations]]
    for rank in (1, 2, 3, 1, 2, 3):
        vecs, _ = _family(ctx, rng, rank)
        runs.append(vecs + quotient_helpers(ctx, rank))
    for inputs in runs:
        got = groebner.signature_gb(inputs, ctx.ring)[0].elements
        assert got == _reference_buchberger(inputs, ctx.ring)[0]


# -- the Buchberger criterion on seeded families ----------------------------------

_CRITERION_RINGS = {
    "quadric": (("w", "x", "y", "z"), None, ["w*x - y*z"]),
    "cubic": (("w", "x", "y", "z"), None, ["w^3 + x^3 + y^3 + z^3"]),
    "weighted": (("x", "y", "z"), (1, 2, 3), ["x^4 + x*z + y^2", "y^3 - z^2"]),
    "xy": (("x", "y", "z"), None, ["x*y", "x^2 - z^2"]),
}


def _meets_buchberger_criterion(gbv, inputs):
    """Whether every input's working part, and the S-vector of every pair
    of members of the minimal basis with one lead component and block,
    reduce to zero by `VectorGB.reduce`: then the basis is a Groebner
    basis of the span of the inputs."""
    tagbit = gbv.codec.tagbit
    if any(gbv.reduce({k: c for k, c in v.items() if k & tagbit}) for v in inputs):
        return False
    red, div = gbv._red, gbv.ring._codec.div
    for j in range(len(red.vecs)):
        for i in range(j):
            if red.idents[i] == red.idents[j]:
                tau = gbv.ring.mono_lcm(red.monos[i], red.monos[j])
                if gbv.reduce(red.s_vector(i, div(tau, red.monos[i]), j, div(tau, red.monos[j]))):
                    return False
    return True


@pytest.mark.parametrize("p", [2, 3, 101, 32003])
@pytest.mark.parametrize("ring", list(_CRITERION_RINGS))
def test_signature_runs_meet_the_buchberger_criterion(ring, p):
    # 64 seeded families per ring and prime, 1024 in all, of ranks 1-3
    # with the lifting helpers, some with a zero or a repeated vector, each
    # run plain and with the vectors tagged.  The plain basis must pass the
    # Buchberger criterion, and the tagged run's must have its reduced
    # basis, so that it passes too; 5 plain bases over the cubic failed
    # while an S-vector whose lead only a multiple at its own signature
    # reduces was dropped.  Over GF(2) and GF(3), at ranks 1 and 2, where
    # the criterion-free reference stays small, the tagged run's syzygies
    # must span over R what the reference's span.
    names, weights, rels = _CRITERION_RINGS[ring]
    R = PolyRing(FieldSpec(p), names, weights=weights)
    ctx = RingCtx(R, [R.parse(f) for f in rels])
    rng = random.Random(f"{ring}-{p}")
    for n in range(64):
        rank = 1 + n % 3
        vecs, _ = _family(ctx, rng, rank)
        if vecs and rng.random() < 0.25:
            vecs.insert(rng.randrange(len(vecs) + 1), dict(rng.choice(vecs)))
        if rng.random() < 0.25:
            vecs.insert(rng.randrange(len(vecs) + 1), {})
        helpers = quotient_helpers(ctx, rank)
        gbv, syz = signature_gb(vecs + helpers, R)
        assert not syz and _meets_buchberger_criterion(gbv, vecs + helpers), n
        tagged, syz = signature_gb(_tagged(ctx, vecs) + helpers, R)
        assert tagged.elements == gbv.elements, n
        if p < 5 and rank < 3:
            _, want, _ = _reference_buchberger(vecs + helpers, R, collect_syz=True)
            assert _syzygy_span(ctx, syz, len(vecs)) == _syzygy_span(ctx, want, len(vecs)), n


def test_quadric_module_over_gf32003_has_hilbert_function_55_at_degree_6():
    # Three columns over GF(32003)[w,x,y,z]/(wx - yz) whose plain basis
    # missed a pair, and so a lead, while the signature body dropped an
    # S-vector whose lead only a multiple at its own signature reduces:
    # the Hilbert function read 56 at degree 6.
    R = PolyRing(FieldSpec(32003), ("w", "x", "y", "z"))
    ctx = RingCtx(R, [R.parse("w*x - y*z")])
    cols = [
        ("12564*w^2 + 15821*w*y - 4519*x*y - 5915*w*z + 7162*x*z + 12720*z^2",
         "-6515*w - 11253*x", "-12883*w - 2572*y"),
        ("4178*w*y + 8474*w*z", "-5438*x", "-1343*w - 14462*x + 8200*y + 14987*z"),
        ("9285*w^2*x - 11982*w^2*y - 14191*w*x*y - 2578*x*y^2 - 11724*w^2*z"
         " + 6563*w*z^2 + 10063*y*z^2", "-2552*w^2 - 7329*w*x + 794*w*z", "2859*x^2"),
    ]
    M = PresentedModule.from_matrix(ctx, [[c[r] for c in cols] for r in range(3)], row_twists=(0, 1, 1))
    assert M.col_degrees == (2, 2, 3)
    assert M.hilbert_function(6) == 55
    gbv = module_gb(ctx, list(M.columns), 3)
    assert _meets_buchberger_criterion(gbv, list(M.columns) + quotient_helpers(ctx, 3))


def _first_divisor_reduce(self, vec, skip=-1):
    """Reference for `_ReducerSet.reduce`: each term is matched against its
    bucket member by member, and the first member whose lead divides it
    reduces it."""
    rc = self.ring._codec
    codec = self.codec
    p = self.p
    work, out = dict(vec), {}
    while work:
        k = max(work)
        mono = codec.mono_of(k)
        hit = -1
        for i in self.buckets.get(k & codec.identmask, ()):
            if i != skip and rc.divides(self.monos[i], mono):
                hit = i
                break
        if hit < 0:
            out[k] = work.pop(k)
            continue
        quot = rc.div(mono, self.monos[hit])
        _shift_add(work, self.vecs[hit], -work[k] * self.invs[hit], codec.delta(quot), p)
    return out


def _symmetry_runs(monkeypatch, count):
    """The inputs of every Buchberger run of `symmetry_check(A, B, 12)` on
    the first `count` seed-1 cyclic pairs over a fresh quadric context."""
    ctx = make_ctx(("w", "x", "y", "z"), ("w*x - y*z",))
    cfg = ExperimentConfig(seed=1, max_generators=1)
    runs = []

    def record(inputs, ring):
        runs.append(list(inputs))
        return signature_gb(inputs, ring)

    monkeypatch.setattr(groebner, "signature_gb", record)
    for i in range(count):
        symmetry_check(*random_pair(cfg, ctx, i), 12)
    return ctx, runs


def _terms(vecs):
    return [list(v.items()) for v in vecs]


@pytest.mark.parametrize("source", ["quadric", "cubic", "symmetry"])
def test_reducer_lookup_keeps_runs_identical(request, monkeypatch, source):
    # Remembering each term's first dividing member must pick the reducer
    # the member-by-member scan picks, so every reduced basis, of tagged
    # and plain runs, comes out the same term for term.
    if source == "symmetry":
        ctx, runs = _symmetry_runs(monkeypatch, 71)
    else:
        ctx = _cubic_ctx() if source == "cubic" else request.getfixturevalue(source)
        rng = random.Random(31)
        runs = []
        for rank in (1, 2, 3, 1, 2, 3):
            vecs, _ = _family(ctx, rng, rank)
            helpers = quotient_helpers(ctx, rank)
            runs += [_tagged(ctx, vecs) + helpers, vecs + helpers]
    got = [_terms(signature_gb(inputs, ctx.ring)[0].elements) for inputs in runs]
    monkeypatch.setattr(groebner._ReducerSet, "reduce", _first_divisor_reduce)
    for inputs, elements in zip(runs, got):
        assert elements == _terms(signature_gb(inputs, ctx.ring)[0].elements)


def test_reducer_lookup_forgets_dropped_members():
    # A term first reduced by g must not go to g again once a newer member
    # h, whose lead divides g's, has taken g out: over GF(101)[x, y], x^2 y
    # reduces to -y^3 by g = x^2 + y^2 and to y^3 by h = x + y.
    ring = ring_with(["x", "y"])
    red = groebner._ReducerSet(ring, module_codec(ring))
    vec = poly_vec(ring.parse("x^2*y"))
    red.add(poly_vec(ring.parse("x^2 + y^2")))
    assert red.reduce(vec) == _first_divisor_reduce(red, vec) == poly_vec(ring.parse("-y^3"))
    h = red.add(poly_vec(ring.parse("x + y")))
    red.drop_multiples(h)
    assert red.reduce(vec) == _first_divisor_reduce(red, vec) == poly_vec(ring.parse("y^3"))
    assert red.reduce(vec, skip=h) == _first_divisor_reduce(red, vec, skip=h) == vec


def test_reducer_lookup_after_a_skip_keeps_the_first_divisor():
    # Reducing with a member skipped finds a later divisor, which must not
    # be remembered as the term's first: x y^2 reduces to -y z^2 by
    # a = x y + z^2, the first divisor, and to -x^2 z by b = y^2 + x z.
    ring = ring_with(["x", "y", "z"])
    red = groebner._ReducerSet(ring, module_codec(ring))
    a = red.add(poly_vec(ring.parse("x*y + z^2")))
    red.add(poly_vec(ring.parse("y^2 + x*z")))
    vec = poly_vec(ring.parse("x*y^2"))
    assert red.reduce(vec, skip=a) == poly_vec(ring.parse("-x^2*z"))
    assert red.reduce(vec) == _first_divisor_reduce(red, vec) == poly_vec(ring.parse("-y*z^2"))


def test_minimal_basis_reduces_like_the_reduced_basis(quadric):
    rng = random.Random(37)
    codec = quadric.codec
    ring = quadric.ring
    for rank in (1, 2, 3):
        vecs, _ = _family(quadric, rng, rank)
        gbv = module_gb(quadric, vecs, rank)
        probes = []
        for _ in range(8):
            vec = {}
            for c in range(rank):
                f = ring.random_homogeneous(rng, rng.randrange(1, 4), density=0.3)
                vec.update({codec.mkey(k, c): v for k, v in f.raw().items()})
            probes.append(vec)
        forms = [gbv.reduce(v) for v in probes]
        assert gbv._elements is None  # reducing did not build the reduced basis
        assert forms == [_normal_form(v, gbv.elements, ring) for v in probes]
        assert gbv.leads() == tuple(max(v) for v in gbv.elements)


def test_hilbert_numerator_leaves_the_basis_unreduced(quadric):
    vecs, twists = _family(quadric, random.Random(41), 2)
    mod = PresentedModule(quadric, twists, vecs)
    num = mod.hilbert_numerator()
    assert mod.gb()._elements is None
    assert num == twisted_numerator(component_numerators(quadric, module_gb(quadric, vecs, 2), 2), twists)

