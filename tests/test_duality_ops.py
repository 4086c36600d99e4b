"""Matlis duals, socles, and dimension identities between Hom, tensor and
the derived functors.

Over GF(101)[x,y]/(x^2,y^2) the socle is x*y in degree 2, so the dual of
the residue field concentrates there; over the length-5 Gorenstein ring in
three variables the standard monomial spanning the socle is z^2 (x^2 and
y^2 are congruent to it modulo the relations).
"""

import pytest

from extlab.modules import (
    PresentedModule,
    hom_module,
    tensor_module,
)
from extlab.realize import matlis_dual_module, socle_generators, socle_module


def k_of(ctx):
    return PresentedModule.residue_field(ctx)


def cyclic(ctx, gen):
    return PresentedModule.from_matrix(ctx, [[gen]])


def test_socle_module_and_generators(nilsquares, gor5):
    s = socle_module(nilsquares)
    assert s.row_twists == (2,)
    assert s == k_of(nilsquares).shifted(2)
    assert [str(f) for f in socle_generators(nilsquares)] == ["x*y"]
    assert socle_module(gor5).row_twists == (2,)
    assert [str(f) for f in socle_generators(gor5)] == ["z^2"]


def test_matlis_dual_is_an_involution(nilsquares):
    for m in (k_of(nilsquares), cyclic(nilsquares, "x"), socle_module(nilsquares)):
        twice = matlis_dual_module(matlis_dual_module(m))
        assert twice == m.minimal_presentation()


def test_matlis_dual_flips_hilbert_function(nilsquares):
    m = cyclic(nilsquares, "y")  # dims 1, 1 in degrees 0, 1
    d = matlis_dual_module(m)
    assert d._finite_hf() == {-1: 1, 0: 1}


def test_matlis_pairing_dimensions(nilsquares):
    # The i-th derived Hom into a Matlis dual matches the i-th derived
    # tensor against the module itself, dimension by dimension.
    from extlab.resolution import ext, tor

    m = k_of(nilsquares)
    n = cyclic(nilsquares, "x")
    nd = matlis_dual_module(n)
    e = ext(m, nd, range(4))
    t = tor(m, n, range(4))
    for i in range(4):
        assert e.total(i) == t.total(i), i


def test_hom_tensor_adjunction_dimensions(nilsquares):
    r = PresentedModule.ring_module(nilsquares)
    a = cyclic(nilsquares, "x")
    b = k_of(nilsquares)
    left = hom_module(tensor_module(a, b), r)
    right = hom_module(a, hom_module(b, r))
    assert left.hilbert_numerator() == right.hilbert_numerator()
