"""Finite-length realizations and the conversions back to presentations.

The running examples live over GF(101)[x,y]/(x^2,y^2): length 4, socle
spanned by x*y in degree 2, so duals and Hom values can be written down by
hand.  Hom, tensor and stable Hom come from the module layer; their
realizations are held to hand values and to what the realizations of their
arguments give directly (socles, generator degrees).  The relation
echelons behind realizations are held to Groebner bases.
"""

import random
from collections import Counter

import pytest

from extlab.groebner import RingCtx, component_numerators, reduce_vec_by_ideal, twisted_numerator
from extlab.linalg import rank_rows
from extlab.modules import (
    PresentedModule,
    _finite_series,
    dual_module,
    hom_module,
    stable_hom,
    tensor_module,
)
from extlab.poly import FieldSpec, PolyRing
from extlab.realize import FiniteLengthRealization, to_presentation
from extlab.resolution import syzygy
from extlab.rows import _block_builder, _entry_blocks, _from_module_rows
from extlab.vanishing import ExperimentConfig, random_module


@pytest.fixture(scope="module")
def nilpl():
    ring = PolyRing(FieldSpec(101), ("x", "y"))
    return RingCtx(ring, [ring.parse("x^2"), ring.parse("y^2")])


@pytest.fixture(scope="module")
def kmod(nilpl):
    return PresentedModule.residue_field(nilpl)


@pytest.fixture(scope="module")
def xcyc(nilpl):
    """R/(x): basis 1, y."""
    return PresentedModule.from_matrix(nilpl, [["x"]])


def _dims(mod):
    return FiniteLengthRealization.from_module(mod).dims


def test_from_module_refuses_a_context_that_is_not_artinian(quadric):
    # k has finite length over the quadric, but a realization is refused
    # before any work: no Groebner basis is built for it.
    k = PresentedModule.residue_field(quadric)
    with pytest.raises(ValueError, match="realizations need an artinian context"):
        FiniteLengthRealization.from_module(k)
    assert "gb" not in k._cache and "real" not in k._cache


def test_ring_realization(nilpl):
    r = FiniteLengthRealization.of_ring(nilpl)
    assert r.dims == {0: 1, 1: 2, 2: 1}
    assert sum(r.dims.values()) == 4
    assert r.socle_profile() == {2: 1}
    assert to_presentation(r).row_twists == (0,)


def test_from_module_dims(nilpl, kmod, xcyc):
    assert FiniteLengthRealization.from_module(kmod).dims == {0: 1}
    assert FiniteLengthRealization.from_module(xcyc).dims == {0: 1, 1: 1}
    big = xcyc.direct_sum(kmod.shifted(3))
    assert FiniteLengthRealization.from_module(big).dims == {0: 1, 1: 1, 3: 1}


def test_actions_square_to_zero(nilpl, xcyc):
    real = FiniteLengthRealization.from_module(xcyc)
    # y^2 = 0 in the ring, so acting twice by y must vanish, though y
    # acts on degree 0.
    assert any(real.action_columns(1, 0))
    assert not any(real.monomial_columns(nilpl.ring.encode_monomial((0, 2)), 0))


def test_matlis_dual_of_ring(nilpl):
    # Hom_k(R, k) = R(2) for this Gorenstein ring (socle in degree 2).
    r = FiniteLengthRealization.of_ring(nilpl)
    d = r.matlis_dual()
    assert d.dims == {-2: 1, -1: 2, 0: 1}
    assert d.socle_profile() == {0: 1}
    assert to_presentation(d).row_twists == (-2,)


def test_matlis_dual_to_presentation(nilpl, xcyc):
    # Hom_k(R/(x), k) = (R/(x))(1).
    real = FiniteLengthRealization.from_module(xcyc)
    back = to_presentation(real.matlis_dual())
    assert back == xcyc.minimal_presentation().shifted(-1)


def test_hom_realization_socle(nilpl, kmod):
    # Hom(k, R) is the socle x*y, in degree 2.
    assert _dims(dual_module(kmod)) == {2: 1}


def test_hom_realization_matches_module_layer(nilpl, kmod, xcyc):
    # Hom(k, B) is the socle of B, which B's own realization gives as the
    # joint kernel of the variable actions.
    big = xcyc.direct_sum(kmod.shifted(3))
    for b in (kmod, xcyc, big, PresentedModule.ring_module(nilpl)):
        assert _dims(hom_module(kmod, b)) == FiniteLengthRealization.from_module(b).socle_profile()


def test_hom_from_ring_is_identity_on_dims(nilpl, xcyc):
    r = PresentedModule.ring_module(nilpl)
    assert _dims(hom_module(r, xcyc)) == _dims(xcyc)


def test_tensor_realization(nilpl, kmod, xcyc):
    r = PresentedModule.ring_module(nilpl)
    assert _dims(tensor_module(r, xcyc)) == _dims(xcyc)
    assert _dims(tensor_module(xcyc, r)) == _dims(xcyc)
    assert _dims(tensor_module(kmod, kmod)) == {0: 1}
    # R/(x) (x) R/(x) = R/(x).
    assert _dims(tensor_module(xcyc, xcyc)) == _dims(xcyc)


def test_tensor_matches_module_layer(nilpl, kmod, xcyc):
    # B (x) k = B / mB has one basis vector per minimal generator of B, in
    # that generator's degree.
    big = xcyc.direct_sum(kmod.shifted(3)).direct_sum(xcyc.shifted(1))
    for b in (kmod, xcyc, big, PresentedModule.ring_module(nilpl)):
        assert _dims(tensor_module(b, kmod)) == Counter(b.minimal_presentation().row_twists)


def test_to_presentation_roundtrip(nilpl, kmod, xcyc):
    for mod in (kmod, xcyc, PresentedModule.ring_module(nilpl)):
        back = to_presentation(FiniteLengthRealization.from_module(mod))
        assert back == mod.minimal_presentation()


def test_free_block_matrix_counts_syzygies(nilpl, kmod):
    # Map R(-1)^2 -> R by (x, y): at degree 2 the kernel of the piece map
    # is 3-dimensional (a*x + b*y with b = -c plus two free parameters).
    ring = FiniteLengthRealization.of_ring(nilpl)
    at = _block_builder(ring, _entry_blocks(nilpl, kmod.columns), (0,), (1, 1), -1)
    rows = at(2)
    assert len(rows) == 1 and max(rows[0]) < 4  # R_2 by R_1 + R_1
    assert 4 - rank_rows(rows, 101) == 3


def test_zero_module(nilpl, kmod):
    zmod = PresentedModule.zero(nilpl)
    z = FiniteLengthRealization.from_module(zmod)
    assert z.is_zero()
    assert to_presentation(z).is_zero()
    assert hom_module(zmod, zmod).is_zero()
    assert tensor_module(zmod, kmod).is_zero()
    assert stable_hom(kmod, zmod).is_zero()


def test_stable_hom_profile_hand_values(nilpl, kmod):
    # Hom(k, k) = k and the identity does not factor through a free module,
    # so one stable dimension survives in degree 0.
    assert _dims(stable_hom(kmod, kmod)) == {0: 1}
    # Everything out of a free module factors through it.
    free = PresentedModule.free(nilpl, (0,))
    assert _dims(stable_hom(free, kmod)) == {}
    # Maps k -> R land in the socle and extend to R -> R, so none survive.
    assert _dims(stable_hom(kmod, free)) == {}


# -- relation echelons against Groebner bases ---------------------------------


def _echelon_corpus(ctx, seed, count):
    """Seeded modules over an artinian ring as drawn (not minimized), their
    minimal presentations, syzygies 1-3 of those, and non-minimal sums:
    a module plus a shifted copy of itself, a free summand and R/(x)."""
    cfg = ExperimentConfig(seed=seed)
    x = ctx.ring.gens()[0]
    cyc = PresentedModule.from_matrix(ctx, [[x]])
    out = []
    for i in range(count):
        M = random_module(cfg, ctx, i)
        mm = M.minimal_presentation()
        out += [M, mm] + [syzygy(mm, j) for j in (1, 2, 3)]
        out.append(M.direct_sum(mm.shifted(1)).direct_sum(PresentedModule.free(ctx, (2,))))
        out.append(cyc.shifted(-1).direct_sum(M))
    return out


def _from_module_gb(mod) -> FiniteLengthRealization:
    """The reference realization, through the module's Groebner basis:
    basis keys are those no lead divides, copy after copy, and each action
    column is one normal form."""
    ctx = mod.ctx
    hf = mod._finite_hf()
    ring = ctx.ring
    codec = ctx.codec
    gbv = mod.gb()
    leads: list[list[int]] = [[] for _ in range(mod.rank0)]
    for k in gbv.leads():
        leads[codec.comp_of(k)].append(codec.mono_of(k))
    divides = ring.mono_divides
    basis: dict[int, list[int]] = {}
    index: dict[int, dict[int, int]] = {}
    if hf:
        for d in range(min(hf), max(hf) + 1):
            keys = []
            for j, tw in enumerate(mod.row_twists):
                for m in ctx.std_monomials(d - tw):
                    if not any(divides(L, m) for L in leads[j]):
                        keys.append(codec.mkey(m, j))
            assert len(keys) == hf.get(d, 0)
            if keys:
                basis[d] = keys
                index[d] = {k: i for i, k in enumerate(keys)}
    dims = {d: len(ks) for d, ks in basis.items()}
    actions = {}
    for v, w in enumerate(ring.weights):
        delta = codec.delta(ring._var_keys[v])
        for d, keys in basis.items():
            tgt = index.get(d + w)
            if tgt is not None:
                reds = (gbv.reduce(reduce_vec_by_ideal({k + delta: 1}, ctx)) for k in keys)
                actions[(v, d)] = [{tgt[kk]: c for kk, c in red.items()} for red in reds]
    return FiniteLengthRealization(ctx, dims, actions)


@pytest.mark.parametrize("ring, seed", [("gor5", 41), ("nilsquares", 42)])
def test_relation_echelon_matches_groebner_basis(request, ring, seed):
    # Over an artinian ring the Hilbert function, the Hilbert numerator,
    # normal forms and the realization are read off the per-degree reduced
    # echelon of the relation span, whose pivots are the Groebner leads.
    # Each must equal its Groebner counterpart exactly: the same numbers,
    # the same basis order, the same action matrices.
    ctx = request.getfixturevalue(ring)
    p = ctx.ring.field.p
    rng = random.Random(seed)
    corpus = _echelon_corpus(ctx, seed, 6)
    nontrivial = 0
    for mod in corpus:
        gbv = mod.gb()
        numerator = twisted_numerator(component_numerators(ctx, gbv, mod.rank0), mod.row_twists)
        assert mod.hilbert_numerator() == numerator
        assert mod._finite_hf() == _finite_series(ctx, numerator)
        by_rows, by_gb = _from_module_rows(mod), _from_module_gb(mod)
        assert by_rows.dims == by_gb.dims
        assert by_rows._cols == by_gb._cols
        nontrivial += any(any(cols) for cols in by_gb._cols.values())
        # Normal forms of random vectors in each degree of the free cover.
        for d in range(min(mod.row_twists, default=0), max(mod.row_twists, default=-1) + 3):
            keys = [
                ctx.codec.mkey(m, j)
                for j, a in enumerate(mod.row_twists)
                for m in ctx.std_monomials(d - a)
            ]
            for _ in range(3):
                vec = {k: rng.randrange(1, p) for k in keys if rng.random() < 0.6}
                assert mod.normal_form(vec) == gbv.reduce(reduce_vec_by_ideal(vec, ctx))
    assert nontrivial >= len(corpus) // 2
