"""Field, packed monomial codec, term order, parser and printer."""

import random

import pytest

from extlab.errors import DegreeCapError, ParseError
from extlab.poly import FieldSpec, PolyRing


def ref_compare(exps_a, exps_b, weights):
    """Reference weighted grevlex comparison on raw exponent vectors."""
    da = sum(w * e for w, e in zip(weights, exps_a))
    db = sum(w * e for w, e in zip(weights, exps_b))
    if da != db:
        return 1 if da > db else -1
    for v in reversed(range(len(exps_a))):
        if exps_a[v] != exps_b[v]:
            # Smaller exponent in the last differing slot wins.
            return 1 if exps_a[v] < exps_b[v] else -1
    return 0


def test_field_validation():
    assert FieldSpec(101).p == 101
    assert FieldSpec(2).p == 2
    for bad in [0, 1, 4, 100, 2**21 + 1, "x"]:
        with pytest.raises(ValueError):
            FieldSpec(bad)


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(FieldSpec(101), ["x", "x"])
    with pytest.raises(ValueError):
        PolyRing(FieldSpec(101), ["2bad"])
    with pytest.raises(ValueError):
        PolyRing(FieldSpec(101), ["x"], degree_cap=128)
    with pytest.raises(ValueError):
        PolyRing(FieldSpec(101), ["x", "y"], weights=[1])
    # Error messages embed module reprs, so the order's name stays printed.
    assert repr(PolyRing(FieldSpec(101), ("x",))) == "GF(101)[x] (grevlex)"


@pytest.mark.parametrize("order", ["grevlex"])
@pytest.mark.parametrize("weights", [None, (1, 2, 1)])
def test_codec_roundtrip_and_compare(order, weights):
    ring = PolyRing(FieldSpec(101), ["x", "y", "z"], weights=weights)
    assert repr(ring).endswith(f"({order})")
    w = ring.weights
    rng = random.Random(42)
    vecs = [tuple(rng.randrange(0, 9) for _ in range(3)) for _ in range(60)]
    for ea in vecs:
        key = ring.encode_monomial(ea)
        assert ring.decode_monomial(key) == ea
        assert ring.mono_degree(key) == sum(wi * e for wi, e in zip(w, ea))
    for ea in vecs[:25]:
        for eb in vecs[:25]:
            ka, kb = ring.encode_monomial(ea), ring.encode_monomial(eb)
            assert (ka > kb) - (ka < kb) == ref_compare(ea, eb, w)


def test_grevlex_degree_two_chain():
    ring = PolyRing(FieldSpec(101), ["x", "y", "z"])
    named = ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]
    keys = [max(ring.parse(s).raw()) for s in named]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("order", ["grevlex"])
def test_monomial_arithmetic(order):
    ring = PolyRing(FieldSpec(101), ["w", "x", "y", "z"])
    assert repr(ring).endswith(f"({order})")
    rng = random.Random(5)
    for _ in range(80):
        ea = tuple(rng.randrange(0, 7) for _ in range(4))
        eb = tuple(rng.randrange(0, 7) for _ in range(4))
        ka, kb = ring.encode_monomial(ea), ring.encode_monomial(eb)
        kab = ring.mono_mul(ka, kb)
        assert ring.decode_monomial(kab) == tuple(a + b for a, b in zip(ea, eb))
        assert ring.mono_divides(ka, kab) and ring.mono_divides(kb, kab)
        assert ring._codec.div(kab, kb) == ka
        divides = all(b <= a for a, b in zip(ea, eb))
        assert ring.mono_divides(kb, ka) == divides
        lcm = ring.mono_lcm(ka, kb)
        assert lcm == ring.encode_monomial(tuple(max(a, b) for a, b in zip(ea, eb)))


@pytest.mark.parametrize("order", ["grevlex"])
def test_weighted_lcm_and_degree_cap(order):
    ring = PolyRing(FieldSpec(101), ["w", "x", "y", "z"], weights=(1, 2, 3, 1))
    assert repr(ring).endswith(f"({order})")
    rng = random.Random(6)
    for _ in range(80):
        ea = tuple(rng.randrange(0, 5) for _ in range(4))
        eb = tuple(rng.randrange(0, 5) for _ in range(4))
        lcm = ring.mono_lcm(ring.encode_monomial(ea), ring.encode_monomial(eb))
        assert lcm == ring.encode_monomial(tuple(max(a, b) for a, b in zip(ea, eb)))
    ring = PolyRing(FieldSpec(101), ["x", "y"], weights=(1, 2), degree_cap=10)
    a, b = ring.encode_monomial((4, 3)), ring.encode_monomial((6, 1))
    assert ring.mono_lcm(a, ring.encode_monomial((2, 1))) == a
    with pytest.raises(DegreeCapError):
        ring.mono_lcm(a, b)  # x^6 y^3 has weighted degree 12


def test_degree_cap_enforced():
    ring = PolyRing(FieldSpec(101), ["x", "y"], degree_cap=10)
    x, y = ring.gens()
    with pytest.raises(DegreeCapError):
        ring.encode_monomial((11, 0))
    with pytest.raises(DegreeCapError):
        (x**5 * y**5) * x
    assert (x**5 * y**5).degree() == 10


def test_poly_arithmetic_identities():
    ring = PolyRing(FieldSpec(101), ["x", "y"])
    x, y = ring.gens()
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x + y) * (x - y) == x**2 - y**2
    assert x - x == ring.zero
    assert (x + 1) - 1 == x
    assert x**0 == ring.one
    ring2 = PolyRing(FieldSpec(2), ["x", "y"])
    x2, y2 = ring2.gens()
    assert (x2 + y2) ** 2 == x2**2 + y2**2


def test_homogeneity_and_degree():
    ring = PolyRing(FieldSpec(101), ["x", "y"], weights=(1, 2))
    x, y = ring.gens()
    assert y.degree() == 2
    assert (x**2 + y).is_homogeneous()
    assert not (x + y).is_homogeneous()
    assert ring.zero.is_homogeneous()
    assert ring.zero.degree() == -1


def test_monomials_of_degree_weighted():
    ring = PolyRing(FieldSpec(101), ["x", "y"], weights=(1, 2))
    assert set(ring.monomials_of_degree(4)) == {(4, 0), (2, 1), (0, 2)}
    ring1 = PolyRing(FieldSpec(101), ["x", "y", "z"])
    assert len(list(ring1.monomials_of_degree(2))) == 6


def test_parse_and_print_roundtrip():
    ring = PolyRing(FieldSpec(101), ["w", "x", "y", "z"])
    f = ring.parse("w*x - y*z")
    assert str(f) == "w*x - y*z"
    assert f == ring.variable("w") * ring.variable("x") - ring.variable("y") * ring.variable("z")
    rng = random.Random(9)
    for _ in range(25):
        g = ring.random_homogeneous(rng, rng.randrange(0, 4), density=0.7)
        g = g + ring.random_homogeneous(rng, rng.randrange(0, 3))
        assert ring.parse(str(g)) == g


def test_parse_precedence_and_forms():
    ring = PolyRing(FieldSpec(101), ["x", "y", "z"])
    x, y, z = ring.gens()
    assert ring.parse("x+y*z^2") == x + y * z**2
    assert ring.parse("x + y * z ** 2") == x + y * z**2
    assert ring.parse("-x^2") == -(x**2)
    assert ring.parse("(x+y)^2") == (x + y) ** 2
    assert ring.parse("2*(x - 3)*y") == 2 * (x - 3) * y
    assert ring.parse("100*x") == -x
    assert str(ring.parse("100*x")) == "-x"
    assert str(ring.parse("51*x")) == "-50*x"
    assert str(ring.parse("50*x")) == "50*x"
    assert str(ring.zero) == "0"
    assert str(ring.parse("x - x + 7")) == "7"


def test_parse_errors_carry_positions():
    ring = PolyRing(FieldSpec(101), ["x", "y"])
    with pytest.raises(ParseError) as e:
        ring.parse("x + q")
    assert "q" in str(e.value) and e.value.column == 5
    for bad in ["x +", "x ^ y", "(x", "x $ y", "x y"]:
        with pytest.raises(ParseError):
            ring.parse(bad)


def test_random_homogeneous_matches_per_draw_encoding():
    # The reference encodes every monomial of the degree on each draw; the
    # ring's cached keys must give the same polynomials from the same
    # random numbers, and leave the generator in the same state.
    ring = PolyRing(FieldSpec(101), ["x", "y", "z"], weights=(1, 2, 1), degree_cap=12)

    def reference(rng, degree, density):
        acc = {}
        for exps in ring.monomials_of_degree(degree):
            if density < 1.0 and rng.random() >= density:
                continue
            c = rng.randrange(101)
            if c:
                acc[ring.encode_monomial(exps)] = c
        return acc

    got, want = random.Random(5), random.Random(5)
    for degree in (0, 1, 2, 3, 3, 5, 2, -1, 12):
        for density in (1.0, 0.7):
            f = ring.random_homogeneous(got, degree, density)
            assert list(f.raw().items()) == list(reference(want, degree, density).items())
    assert got.getstate() == want.getstate()
    with pytest.raises(DegreeCapError):
        ring.random_homogeneous(got, 13)
