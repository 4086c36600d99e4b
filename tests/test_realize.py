"""Linear-algebra realizations of finite-length modules.

The running examples live over GF(101)[x,y]/(x^2,y^2): length 4, socle
spanned by x*y in degree 2, so duals and Hom values can be written down by
hand.  Cross-checks against the Groebner-based module layer keep the two
backends honest against each other.
"""

import random

import numpy as np
import pytest

from extlab.groebner import RingCtx, presented_numerator, reduce_vec_by_ideal
from extlab.modules import PresentedModule, _finite_series, hom_module, tensor_module
from extlab.poly import FieldSpec, PolyRing
from extlab.linalg import rank_rows
from extlab.realize import (
    FiniteLengthRealization,
    _block_builder,
    _entry_blocks,
    _from_module_gb,
    _from_module_rows,
    dual_realization,
    hom_realization,
    stable_hom_profile,
    tensor_realization,
)
from extlab.resolution import syzygy
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


def test_ring_realization(nilpl):
    r = FiniteLengthRealization.of_ring(nilpl)
    assert r.dims == {0: 1, 1: 2, 2: 1}
    assert sum(r.dims.values()) == 4
    assert r.socle_profile() == {2: 1}
    assert r.to_presentation().row_twists == (0,)


def test_from_module_dims(nilpl, kmod, xcyc):
    assert FiniteLengthRealization.from_module(kmod).dims == {0: 1}
    assert FiniteLengthRealization.from_module(xcyc).dims == {0: 1, 1: 1}
    big = xcyc.direct_sum(kmod.shifted(3))
    assert FiniteLengthRealization.from_module(big).dims == {0: 1, 1: 1, 3: 1}


def test_actions_square_to_zero(nilpl, xcyc):
    real = FiniteLengthRealization.from_module(xcyc)
    # y^2 = 0 in the ring, so acting twice by y must vanish.
    twice = real.action(1, 1) @ real.action(1, 0)
    assert not (twice % 101).any()


def test_matlis_dual_of_ring(nilpl):
    # Hom_k(R, k) = R(2) for this Gorenstein ring (socle in degree 2).
    r = FiniteLengthRealization.of_ring(nilpl)
    d = r.matlis_dual()
    assert d.dims == {-2: 1, -1: 2, 0: 1}
    assert d.socle_profile() == {0: 1}
    assert d.to_presentation().row_twists == (-2,)


def test_matlis_dual_to_presentation(nilpl, xcyc):
    # Hom_k(R/(x), k) = (R/(x))(1).
    real = FiniteLengthRealization.from_module(xcyc)
    back = real.matlis_dual().to_presentation()
    assert back == xcyc.minimal_presentation().shifted(-1)


def test_hom_realization_socle(nilpl, kmod):
    h = dual_realization(FiniteLengthRealization.from_module(kmod))
    assert h.dims == {2: 1}


def test_hom_realization_matches_module_layer(nilpl, kmod, xcyc):
    for a, b in [(kmod, kmod), (xcyc, xcyc), (kmod, xcyc), (xcyc, kmod)]:
        viareal = hom_realization(
            FiniteLengthRealization.from_module(a),
            FiniteLengthRealization.from_module(b),
        )
        viagb = FiniteLengthRealization.from_module(hom_module(a, b))
        assert viareal.dims == viagb.dims


def test_hom_from_ring_is_identity_on_dims(nilpl, xcyc):
    r = FiniteLengthRealization.of_ring(nilpl)
    m = FiniteLengthRealization.from_module(xcyc)
    assert hom_realization(r, m).dims == m.dims


def test_tensor_realization(nilpl, kmod, xcyc):
    r = FiniteLengthRealization.of_ring(nilpl)
    k = FiniteLengthRealization.from_module(kmod)
    m = FiniteLengthRealization.from_module(xcyc)
    assert tensor_realization(r, m).dims == m.dims
    assert tensor_realization(m, r).dims == m.dims
    assert tensor_realization(k, k).dims == {0: 1}
    # R/(x) (x) R/(x) = R/(x).
    assert tensor_realization(m, m).dims == m.dims


def test_tensor_matches_module_layer(nilpl, kmod, xcyc):
    viareal = tensor_realization(
        FiniteLengthRealization.from_module(xcyc),
        FiniteLengthRealization.from_module(kmod),
    )
    viagb = FiniteLengthRealization.from_module(tensor_module(xcyc, kmod))
    assert viareal.dims == viagb.dims


def test_to_presentation_roundtrip(nilpl, kmod, xcyc):
    for mod in (kmod, xcyc, PresentedModule.ring_module(nilpl)):
        back = FiniteLengthRealization.from_module(mod).to_presentation()
        assert back == mod.minimal_presentation()


def test_free_block_matrix_counts_syzygies(nilpl, kmod):
    # Map R(-1)^2 -> R by (x, y): at degree 2 the kernel of the piece map
    # is 3-dimensional (a*x + b*y with b = -c plus two free parameters).
    ring = FiniteLengthRealization.of_ring(nilpl)
    at = _block_builder(ring, _entry_blocks(nilpl, kmod.columns), (0,), (1, 1), -1)
    rows = at(2)
    assert len(rows) == 1 and max(rows[0]) < 4  # R_2 by R_1 + R_1
    assert 4 - rank_rows(rows, 101) == 3


def test_shift_realization(nilpl, kmod):
    real = FiniteLengthRealization.from_module(kmod)
    assert real.shifted(5).dims == {5: 1}


def test_zero_module(nilpl):
    z = FiniteLengthRealization.from_module(PresentedModule.zero(nilpl))
    assert z.is_zero()
    assert z.to_presentation().is_zero()
    assert hom_realization(z, z).is_zero()


def test_stable_hom_profile_hand_values(nilpl, kmod):
    # Hom(k, k) = k and the identity does not factor through a free module,
    # so one stable dimension survives in degree 0.
    assert stable_hom_profile(kmod, kmod) == {0: 1}
    # Everything out of a free module factors through it.
    free = PresentedModule.free(nilpl, (0,))
    assert stable_hom_profile(free, kmod) == {}
    # Maps k -> R land in the socle and extend to R -> R, so none survive.
    assert stable_hom_profile(kmod, free) == {}


def test_stable_hom_profile_matches_module_layer(nilpl, kmod, xcyc, gor5):
    from extlab.modules import dual_module, stable_hom
    from extlab.resolution import syzygy

    s1 = syzygy(kmod, 1)
    # Over the length-5 Gorenstein ring: first syzygy of k against R/(x),
    # five stable dimensions in degree 0.
    g_s1 = syzygy(PresentedModule.residue_field(gor5), 1)
    g_x = PresentedModule.from_matrix(gor5, [["x"]])
    pairs = [(kmod, xcyc), (xcyc, kmod), (xcyc, xcyc),
             (s1, kmod), (s1, s1), (dual_module(s1), s1), (g_s1, g_x)]
    for a, b in pairs:
        prof = stable_hom_profile(a, b)
        ref = FiniteLengthRealization.from_module(stable_hom(a, b))
        assert prof == {d: ref.dim(d) for d in ref.degrees()}, (a, b)


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
        numerator = presented_numerator(ctx, gbv, mod.rank0, mod.row_twists)
        assert mod.hilbert_numerator() == numerator
        assert mod._finite_hf() == _finite_series(ctx, numerator)
        by_rows, by_gb = _from_module_rows(mod), _from_module_gb(mod)
        assert by_rows.dims == by_gb.dims
        assert by_rows._act.keys() == by_gb._act.keys()
        for key, mat in by_gb._act.items():
            assert by_rows._act[key].dtype == mat.dtype
            assert np.array_equal(by_rows._act[key], mat), key
        nontrivial += any(m.any() for m in by_gb._act.values())
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
