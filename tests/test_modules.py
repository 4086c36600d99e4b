"""Presented modules: minimal presentations, kernels, duals, Hom, tensor.

Expected values are worked out by hand in the comments next to each test;
the artinian cases use GF(101)[x,y]/(x^2,y^2), whose socle is spanned by
x*y in degree 2.
"""

import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import extlab
from extlab import modules, resolution, rows

from extlab.errors import InvariantViolation
from extlab.groebner import (
    RingCtx,
    module_gb,
    reduce_vec_by_ideal,
    syzygies_for,
    tp_one_minus_t_valuation,
)
from extlab.linalg import insert_row, nullspace_rows
from extlab.modules import (
    PresentedModule,
    _combine_columns,
    _dual_generators,
    _hom_columns,
    _hom_complex,
    _kernel_generators,
    _kernel_generators_gb,
    _minimal_generator_indices_gb,
    _sum_of_shifts,
    _tensor_columns,
    dual_module,
    entries_from_vec,
    hom_module,
    minimal_generator_indices,
    stable_hom,
    subquotient,
    tensor_module,
    vec_degree,
    vec_from_entries,
)
from extlab.poly import FieldSpec, PolyRing
from extlab.realize import FiniteLengthRealization, matlis_dual_module
from extlab.resolution import (
    Resolution,
    _step_cols,
    ext,
    ext_via_complete,
    is_mcm,
    minimal_free_resolution,
    resolution_of,
    syzygy,
    tor,
    tor_via_complete,
)
from extlab.rows import _Piece, _columns_of, _copy_pieces, _echelon_of, _span_rows
from extlab.vanishing import (
    ExperimentConfig,
    random_module,
    random_pair,
    scan_ext,
    stable_suite_check,
)


@pytest.fixture(scope="module")
def plane():
    """GF(101)[x,y], no relations."""
    return RingCtx(PolyRing(FieldSpec(101), ("x", "y")))


@pytest.fixture(scope="module")
def nilpl():
    """GF(101)[x,y]/(x^2,y^2): artinian, socle = <x*y>."""
    ring = PolyRing(FieldSpec(101), ("x", "y"))
    return RingCtx(ring, [ring.parse("x^2"), ring.parse("y^2")])


def test_unit_pivot_elimination(plane):
    # coker[(x, 1)] on gens of degree 0, 1: the second generator is x times
    # the first with a sign, so the module is free of rank one.
    m = PresentedModule.from_matrix(plane, [["x"], [1]], row_twists=(0, 1))
    mm = m.minimal_presentation()
    assert mm.row_twists == (0,)
    assert mm.columns == ()
    assert m.is_free() and mm.rank0 == 1
    assert mm.minimal_presentation() is mm


def test_minimal_presentation_drops_spanned_columns(plane):
    # Third relation x^2*e0 = x*(x*e0) is redundant.
    k_ish = PresentedModule.from_matrix(plane, [["x", "y", "x^2"]])
    mm = k_ish.minimal_presentation()
    assert len(mm.columns) == 2
    assert mm == PresentedModule.residue_field(plane)


@pytest.mark.parametrize("ring, seed", [("quadric", 61), ("gor5", 62), ("nilsquares", 63)])
def test_minimal_presentation_drops_unit_generators(request, ring, seed):
    # A generator g of twist a_j + e with the relation g - f*e_j (f a
    # nonzero constant when e = 0, a form of degree e otherwise) adds
    # nothing to M: the minimal presentation is M's up to the choice of
    # generators (for e = 0 it is e_j that goes, and g stays), and no
    # relation keeps a constant entry.
    ctx = request.getfixturevalue(ring)
    codec, unit, p = ctx.codec, ctx.ring.unit_key, ctx.ring.field.p
    rng = random.Random(seed)
    cfg = ExperimentConfig(seed=seed)
    for i in range(4):
        M = random_module(cfg, ctx, i)
        want = M.minimal_presentation()
        r = M.rank0
        j = rng.randrange(r)
        for e in range(3):
            f = ctx.ring.random_homogeneous(rng, e) if e else ctx.ring.constant(rng.randrange(1, p))
            rel = {codec.mkey(m, j): p - c for m, c in f.raw().items()}
            rel[codec.mkey(unit, r)] = 1
            bigger = PresentedModule(ctx, M.row_twists + (M.row_twists[j] + e,), [*M.columns, rel])
            got = bigger.minimal_presentation()
            assert sorted(got.row_twists) == sorted(want.row_twists)
            assert got.hilbert_numerator() == want.hilbert_numerator()
            assert len(got.columns) == len(want.columns)
            assert minimal_free_resolution(got, 3)[1] == minimal_free_resolution(want, 3)[1]
            assert not any(codec.mono_of(k) == unit for col in got.columns for k in col)
    assert PresentedModule.from_matrix(ctx, [[1]]).minimal_presentation() == PresentedModule.zero(ctx)


def test_column_order_is_canonical(plane):
    a = PresentedModule.from_matrix(plane, [["x", "y"], ["y", "0"]])
    b = PresentedModule.from_matrix(plane, [["y", "x"], ["0", "y"]])
    assert a == b
    assert hash(a) == hash(b)


def test_koszul_kernel(plane):
    # phi: R(-1)^2 -> R, (f,g) |-> f*x + g*y.  Kernel is spanned by
    # (y, -x), free on one generator of degree 2.
    free2 = PresentedModule.free(plane, (1, 1))
    ring = PresentedModule.ring_module(plane)
    phi = [vec_from_entries(plane, [plane.ring.parse(f)]) for f in ("x", "y")]
    K = subquotient(free2, [], ring, phi)
    assert K.row_twists == (2,)
    assert K.columns == ()
    gens, degs, _ = _kernel_generators(phi, free2, ring)
    assert degs == K.row_twists
    assert not any(ring.normal_form(_combine_columns(plane, phi, g)) for g in gens)
    # Cokernel is the residue field.
    cok = PresentedModule(plane, ring.row_twists, list(ring.columns) + phi).minimal_presentation()
    assert cok == PresentedModule.residue_field(plane)


def test_from_matrix_needs_one_twist_per_row(plane):
    with pytest.raises(ValueError, match="need 2 row twists, got 3"):
        PresentedModule.from_matrix(plane, [["x"], ["y"]], row_twists=(0, 0, 1))
    assert PresentedModule.from_matrix(plane, [["x"], ["y"]], row_twists=(0, 0)).rank0 == 2


def test_column_beyond_the_row_count_is_refused(plane):
    # Component 1 of a column over one row twist, raw or reduced.
    col = vec_from_entries(plane, [plane.ring.parse("x"), plane.ring.parse("y")])
    for reduced in (False, True):
        with pytest.raises(ValueError, match="component beyond the row count"):
            PresentedModule(plane, (0,), [col], _reduced=reduced)


def test_given_degrees_are_one_per_column(plane):
    # Degrees a caller passes in pair with the columns one to one; a
    # short or long list is refused, not cut to fit.
    cols = [vec_from_entries(plane, [plane.ring.parse(f)]) for f in ("x", "y")]
    assert PresentedModule(plane, (0,), cols, _degrees=(1, 1)).col_degrees == (1, 1)
    for degs in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError):
            PresentedModule(plane, (0,), cols, _degrees=degs)


def test_dual_of_free(plane):
    f = PresentedModule.free(plane, (1, 3))
    d = dual_module(f)
    assert sorted(d.row_twists) == [-3, -1]
    assert d.columns == ()


def test_dual_of_residue_field_is_socle_shift(nilpl):
    # Hom(k, R) picks out the socle: one map 1 |-> x*y, of degree 2.
    k = PresentedModule.residue_field(nilpl)
    d = dual_module(k)
    assert d.row_twists == (2,)
    assert d.length() == 1
    assert d.hilbert_function(2) == 1
    # The kernel behind the dual exposes the functional itself.
    functionals = _dual_generators(k)[1]
    assert len(functionals) == 1
    (u,) = functionals
    entries = {nilpl.ring.format_monomial(nilpl.codec.mono_of(mk)) for mk in u}
    assert entries == {"x*y"}


def test_double_dual_of_free_ring(nilpl):
    r = PresentedModule.ring_module(nilpl)
    assert dual_module(r) == r
    assert dual_module(dual_module(r)) == r


@pytest.mark.parametrize("ring, seed", [("gor5", 11), ("nilsquares", 12)])
def test_dual_hom_tensor_match_independent_oracles(request, ring, seed):
    # Each value is held to one computed without `_hom_complex` or
    # `subquotient`, on syzygies 1-4 of seeded modules.  Both rings are
    # Gorenstein with socle degree 2, so Hom(S, R) is the Matlis dual of S
    # shifted by 2; the presentations need not be equal (a minimal
    # presentation is not a canonical form), but the modules are
    # isomorphic: same generator degrees, Hilbert function and Betti
    # table.  Hom(k, S) is the socle of S, read off S's realization, and
    # S (x) k = S / mS has one basis vector per minimal generator of S.
    ctx = request.getfixturevalue(ring)
    k = PresentedModule.residue_field(ctx)
    cfg = ExperimentConfig(seed=seed)
    for pair in range(2):
        for mod in random_pair(cfg, ctx, pair):
            for i in range(1, 5):
                S = syzygy(mod, i)
                assert S.rank0
                by_kernel = dual_module(S)
                by_matlis = matlis_dual_module(S).shifted(2)
                assert sorted(by_kernel.row_twists) == sorted(by_matlis.row_twists)
                top = max(by_kernel._finite_hf())
                assert top == max(by_matlis._finite_hf())
                degrees = range(min(by_kernel.row_twists), top + 1)
                assert [by_kernel.hilbert_function(d) for d in degrees] == [
                    by_matlis.hilbert_function(d) for d in degrees
                ]
                assert (minimal_free_resolution(by_kernel, 3)[1]
                        == minimal_free_resolution(by_matlis, 3)[1])
                socle = FiniteLengthRealization.from_module(S).socle_profile()
                assert hom_module(k, S)._finite_hf() == socle
                gens = Counter(S.minimal_presentation().row_twists)
                assert tensor_module(S, k)._finite_hf() == gens


def _truncated(mod):
    """mod / m^2 mod: every quadratic monomial times every generator
    joins the relations."""
    ctx = mod.ctx
    ring = ctx.ring
    gens = ring.gens()
    cols = list(mod.columns)
    for j in range(mod.rank0):
        for a in range(len(gens)):
            for b in range(a, len(gens)):
                entries = [ring.constant(0)] * mod.rank0
                entries[j] = gens[a] * gens[b]
                cols.append(vec_from_entries(ctx, entries))
    return PresentedModule(ctx, mod.row_twists, cols)


def test_double_dual_of_mcm_syzygies_is_reflexive(quadric):
    # Over the Gorenstein quadric a maximal Cohen-Macaulay module is
    # reflexive.  Seeded modules there mostly have finite projective
    # dimension, so their third syzygies vanish; truncating them to
    # mod / m^2 mod gives nonzero ones.
    cfg = ExperimentConfig(seed=17)
    for i in range(3):
        S = syzygy(_truncated(random_module(cfg, quadric, i)), 3)
        assert S.rank0 and is_mcm(S)
        back = dual_module(dual_module(S))
        assert minimal_free_resolution(back, 3)[1] == minimal_free_resolution(S, 3)[1]


def test_hom_residue_field_endomorphisms(nilpl):
    # Hom(k, k) = k: scalars only.
    k = PresentedModule.residue_field(nilpl)
    h = hom_module(k, k)
    assert h.row_twists == (0,)
    assert h.length() == 1


def test_hom_from_ring_recovers_target(nilpl):
    k = PresentedModule.residue_field(nilpl)
    r = PresentedModule.ring_module(nilpl)
    assert hom_module(r, k) == k.minimal_presentation()


def test_hom_into_ring_matches_dual(nilpl):
    k = PresentedModule.residue_field(nilpl)
    r = PresentedModule.ring_module(nilpl)
    assert hom_module(k, r) == dual_module(k)


def test_tensor_with_ring_is_identity(nilpl):
    k = PresentedModule.residue_field(nilpl)
    r = PresentedModule.ring_module(nilpl)
    assert tensor_module(k, r) == k.minimal_presentation()
    assert tensor_module(r, k) == k.minimal_presentation()


def test_tensor_of_cyclics(plane):
    # S/(x) (x) S/(y) = S/(x,y) = k.
    a = PresentedModule.from_matrix(plane, [["x"]])
    b = PresentedModule.from_matrix(plane, [["y"]])
    t = tensor_module(a, b)
    assert t.length() == 1
    assert t == PresentedModule.residue_field(plane).minimal_presentation()


def test_tensor_hilbert_over_artinian(nilpl):
    # k (x) k = k over any ring.
    k = PresentedModule.residue_field(nilpl)
    assert tensor_module(k, k).length() == 1


def test_stable_hom_into_free_vanishes(nilpl):
    # Every map into R factors through R itself.
    k = PresentedModule.residue_field(nilpl)
    r = PresentedModule.ring_module(nilpl)
    assert stable_hom(r, r).is_zero()
    assert stable_hom(k, r).is_zero()


def test_stable_hom_of_residue_field(nilpl):
    # No nonzero map k -> k factors through a free module (the image of k
    # in a free module sits in the socle, which dies in any map back to k).
    k = PresentedModule.residue_field(nilpl)
    s = stable_hom(k, k)
    assert s.length() == 1


def test_direct_sum_and_shift(nilpl):
    k = PresentedModule.residue_field(nilpl)
    r = PresentedModule.ring_module(nilpl)
    s = k.direct_sum(r.shifted(1))
    for d in range(5):
        assert s.hilbert_function(d) == k.hilbert_function(d) + r.hilbert_function(d - 1)
    assert s.length() == k.length() + r.length()


def _krull_dim(M):
    """Dimension of M's support, read off its Hilbert numerator; -1 for
    the zero module."""
    num = M.hilbert_numerator()
    return M.ctx.ring.nvars - tp_one_minus_t_valuation(num) if num else -1


def test_krull_dim(plane, nilpl):
    assert _krull_dim(PresentedModule.ring_module(plane)) == 2
    assert _krull_dim(PresentedModule.from_matrix(plane, [["x"]])) == 1
    assert _krull_dim(PresentedModule.residue_field(plane)) == 0
    assert _krull_dim(PresentedModule.zero(plane)) == -1
    assert _krull_dim(PresentedModule.ring_module(nilpl)) == 0
    assert not PresentedModule.ring_module(plane).is_finite_length()
    assert PresentedModule.ring_module(nilpl).length() == 4


def test_vec_from_entries_roundtrip(plane):
    ring = plane.ring
    vec = vec_from_entries(plane, [ring.parse("x^2 + y"), ring.parse("3*x")])
    back = entries_from_vec(plane, vec, 2)
    assert [str(f) for f in back] == ["x^2 + y", "3*x"]


def test_presentation_matrix_splits_each_column_once(nilsquares, gor5):
    # Each column is split into its entries once; the matrix, and the
    # strings replays print from it, must be those of splitting the
    # column again for every entry.
    several = 0
    for ctx in (nilsquares, gor5):
        cfg = ExperimentConfig(seed=81)
        for i in range(6):
            M = random_module(cfg, ctx, i)
            ref = [
                [entries_from_vec(ctx, col, M.rank0)[j] for col in M.columns]
                for j in range(M.rank0)
            ]
            got = M.presentation_matrix()
            assert [[str(e) for e in row] for row in got] == [[str(e) for e in row] for row in ref]
            assert [[e.raw() for e in row] for row in got] == [[e.raw() for e in row] for row in ref]
            several += M.rank0 > 1 and len(M.columns) > 1
    assert several


# -- minimal generators: graded Nakayama against leave-one-out ----------------


def _leave_one_out(ctx, vecs, rank, twists, modulo):
    """Oracle: drop, top degree first, every candidate that the remaining
    ones plus `modulo` already span, one Groebner basis per candidate."""
    kept = {i: v for i, v in enumerate(vecs) if v}  # zero is never a generator
    order = sorted(kept, key=lambda i: (vec_degree(ctx, vecs[i], twists), max(vecs[i])), reverse=True)
    for i in order:
        others = [kept[j] for j in kept if j != i] + modulo
        if not module_gb(ctx, others, rank).reduce(kept[i]):
            del kept[i]
    return sorted(kept)


def _syzygy_family(mod):
    """Unpruned syzygies of a module's relation columns."""
    syz = syzygies_for(mod.ctx, list(mod.columns), mod.rank0)
    return syz, len(mod.columns), mod.col_degrees, []


def _multiplication_map(mod):
    """(source, target, columns) of (f_v) |-> sum_v x_v f_v from copies of
    mod(-1), one per variable, to mod."""
    ctx = mod.ctx
    codec = ctx.codec
    src = PresentedModule.zero(ctx)
    for _ in ctx.ring.gens():
        src = src.direct_sum(mod.shifted(1))
    cols = [
        {codec.mkey(max(g.raw()), j): 1}
        for g in ctx.ring.gens()
        for j in range(mod.rank0)
    ]
    return src, mod, cols


def _kernel_family(mod):
    """Unpruned kernel generators of `_multiplication_map(mod)`; the source
    relations are `modulo`."""
    ctx = mod.ctx
    codec = ctx.codec
    src, _, cols = _multiplication_map(mod)
    fam = cols + list(mod.columns)
    syz = syzygies_for(ctx, fam, mod.rank0)
    m = src.rank0
    gens = [{k: c for k, c in v.items() if codec.comp_of(k) < m} for v in syz]
    return [g for g in gens if g], m, src.row_twists, list(src.columns)


def _with_zero_and_copy(ctx, family):
    """The family plus a zero vector and a scalar multiple of its first
    member, both placed among the other candidates."""
    vecs, rank, twists, modulo = family
    p = ctx.ring.field.p
    double = {k: 2 * c % p for k, c in vecs[0].items()}
    return [vecs[0], {}] + vecs[1:] + [double], rank, twists, modulo


def _oracle_corpus(ctx, seed, pairs):
    cfg = ExperimentConfig(seed=seed)
    out = []
    for i in range(pairs):
        for mod in random_pair(cfg, ctx, i):
            mm = mod.minimal_presentation()
            if not mm.columns:
                continue
            syz = _syzygy_family(mm)
            if syz[0]:
                out.append(syz)
                out.append(_with_zero_and_copy(ctx, syz))
            ker = _kernel_family(mm)
            if ker[0]:
                out.append(ker)
    return out


@pytest.mark.parametrize("ring, seed, pairs", [("quadric", 5, 4), ("gor5", 6, 3), ("nilsquares", 7, 4)])
def test_minimal_generators_match_leave_one_out(request, ring, seed, pairs):
    ctx = request.getfixturevalue(ring)
    corpus = _oracle_corpus(ctx, seed, pairs)
    assert any(fam[3] for fam in corpus) and any({} in fam[0] for fam in corpus)
    for vecs, rank, twists, modulo in corpus:
        keep = minimal_generator_indices(ctx, vecs, rank, twists, modulo)
        oracle = _leave_one_out(ctx, vecs, rank, twists, modulo)

        def by_degree(idx):
            return Counter(vec_degree(ctx, vecs[i], twists) for i in idx)

        assert by_degree(keep) == by_degree(oracle)
        kept = [vecs[i] for i in keep]
        span = module_gb(ctx, kept + modulo, rank)
        whole = module_gb(ctx, [v for v in vecs if v] + modulo, rank)
        assert span.elements == whole.elements
        for i in keep:
            others = [vecs[j] for j in keep if j != i] + modulo
            assert module_gb(ctx, others, rank).reduce(vecs[i])


@pytest.mark.parametrize("ring, seed, pairs", [("gor5", 6, 3), ("nilsquares", 7, 4)])
def test_row_minimal_generators_match_groebner_body(request, ring, seed, pairs):
    # On an artinian context the pruning runs on sparse rows; it walks the
    # candidates in the Groebner body's order and applies its pivot rule,
    # so the kept indices must be identical, not merely equivalent.
    ctx = request.getfixturevalue(ring)
    corpus = _oracle_corpus(ctx, seed, pairs)
    assert corpus
    for vecs, rank, twists, modulo in corpus:
        assert minimal_generator_indices(ctx, vecs, rank, twists, modulo) == (
            _minimal_generator_indices_gb(ctx, vecs, rank, twists, modulo)
        )


def _naive_rank(vecs, p):
    """Rank over GF(p) of sparse vectors, by textbook elimination on dense
    copies: a reference that shares no code with `linalg`."""
    keys = sorted(set().union(*vecs))
    work = [[v.get(k, 0) % p for k in keys] for v in vecs]
    rank = 0
    for j in range(len(keys)):
        piv = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][j], p - 2, p)
        for i in range(rank + 1, len(work)):
            f = work[i][j] * inv % p
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _pivot_column_indices(ctx, vecs, rank, twists, modulo):
    """Reference for the Groebner pruning body: per degree, the normal forms
    as the columns of a matrix, kept where a column is independent of the
    columns before it (`_naive_rank`)."""
    p = ctx.ring.field.p
    live = [i for i, v in enumerate(vecs) if v]
    degs = {i: vec_degree(ctx, vecs[i], twists) for i in live}
    live.sort(key=lambda i: (degs[i], max(vecs[i])))
    kept = []
    for d in sorted(set(degs.values())):
        group = [i for i in live if degs[i] == d]
        span = [vecs[i] for i in kept] + modulo
        gbv = module_gb(ctx, span, rank) if span else None
        chosen = []
        for i in group:
            form = gbv.reduce(vecs[i]) if gbv else reduce_vec_by_ideal(vecs[i], ctx)
            if _naive_rank(chosen + [form], p) > len(chosen):
                chosen.append(form)
                kept.append(i)
    return sorted(kept)


def _with_sum(ctx, family):
    """The family plus, after its other candidates, the sum of its first
    two candidates of one degree, so a later candidate of that degree is
    dependent on earlier ones without being a multiple of either."""
    vecs, rank, twists, modulo = family
    p = ctx.ring.field.p
    live = [v for v in vecs if v]
    for a, b in zip(live, live[1:]):
        if vec_degree(ctx, a, twists) == vec_degree(ctx, b, twists):
            total = dict(a)
            for k, c in b.items():
                total[k] = (total.get(k, 0) + c) % p
            return vecs + [{k: c for k, c in total.items() if c}], rank, twists, modulo
    return family


@pytest.mark.parametrize("ring, seed, pairs", [("quadric", 5, 4), ("gor5", 6, 3), ("nilsquares", 7, 4)])
def test_groebner_minimal_generators_match_pivot_columns(request, ring, seed, pairs):
    # The Groebner body keeps a candidate when its normal form adds a pivot
    # to one echelon basis per degree: the candidates a dense matrix of the
    # normal forms has as pivot columns, index for index.
    ctx = request.getfixturevalue(ring)
    plain = _oracle_corpus(ctx, seed, pairs)
    corpus = [_with_sum(ctx, fam) for fam in plain]
    assert any(fam is not orig for fam, orig in zip(corpus, plain))
    for vecs, rank, twists, modulo in corpus:
        assert _minimal_generator_indices_gb(ctx, vecs, rank, twists, modulo) == (
            _pivot_column_indices(ctx, vecs, rank, twists, modulo)
        )


def _kernel_corpus(ctx, seed, pairs):
    """Seeded maps whose kernels the package takes, as (source, target,
    columns): the Hom complexes of seeded pairs, against each other and
    against R, and the `_multiplication_map` of one side."""
    cfg = ExperimentConfig(seed=seed)
    R = PresentedModule.ring_module(ctx)
    out = []
    for i in range(pairs):
        A, B = (m.minimal_presentation() for m in random_pair(cfg, ctx, i))
        for a, b in ((A, B), (B, A), (A, R), (B, R)):
            out.append(_hom_complex(a, b))
        out.append(_multiplication_map(A))
    return out


@pytest.mark.parametrize("ring, seed", [("gor5", 21), ("nilsquares", 22)])
def test_row_kernel_matches_groebner_kernel(request, monkeypatch, ring, seed):
    # The row kernel and the Groebner kernel (`subquotient` with the
    # Groebner body `_kernel_generators_gb` patched in for both of its
    # steps) choose different generators and relations, but must present
    # isomorphic modules, the row one included in the source by a
    # well-defined map that the original map kills.
    ctx = request.getfixturevalue(ring)
    maps = _kernel_corpus(ctx, seed, 3)
    assert any(src.columns for src, _, _ in maps)
    nonzero = 0
    for src, tgt, cols in maps:
        by_rows = subquotient(src, [], tgt, cols)
        with monkeypatch.context() as m:
            m.setattr(modules, "_kernel_generators", _kernel_generators_gb)
            by_gb = subquotient(src, [], tgt, cols)
        assert sorted(by_rows.row_twists) == sorted(by_gb.row_twists)
        # Both kernels come minimally presented: minimalizing a fresh copy
        # of the Groebner one gives it back, and both have beta_1 relations.
        fresh = PresentedModule(ctx, by_gb.row_twists, by_gb.columns)
        assert fresh.minimal_presentation() == by_gb
        assert len(by_gb.columns) == len(by_rows.columns)
        # The row kernel is presented on the generators `_kernel_generators`
        # returns; their inclusion must kill its relations and compose
        # with the map to zero.
        gens, degs, _ = _kernel_generators(cols, src, tgt)
        assert degs == by_rows.row_twists
        assert not any(src.normal_form(_combine_columns(ctx, gens, r)) for r in by_rows.columns)
        assert not any(tgt.normal_form(_combine_columns(ctx, cols, g)) for g in gens)
        if not by_rows.rank0:
            continue
        nonzero += 1
        top = max(by_rows._finite_hf())
        assert top == max(by_gb._finite_hf())
        degrees = range(min(by_rows.row_twists), top + 1)
        assert [by_rows.hilbert_function(d) for d in degrees] == [
            by_gb.hilbert_function(d) for d in degrees
        ]
        assert minimal_free_resolution(by_rows, 3)[1] == minimal_free_resolution(by_gb, 3)[1]
    assert nonzero >= len(maps) // 2


def test_artinian_kernels_build_no_groebner_basis(gor5, nilsquares, buchberger_runs):
    # Over an artinian ring every kernel, with its pruning, is linear
    # algebra on sparse rows, and Hilbert functions and realizations are
    # read off relation echelons: a Hom subquotient over nilsquares, the
    # dual kernel of a gor5 syzygy, the stable Hom suite on a seeded gor5
    # pair, and both routes to Ext and Tor on a seeded pair over each ring
    # make no Buchberger run.
    A, B = (m.minimal_presentation() for m in random_pair(ExperimentConfig(seed=31), nilsquares, 0))
    X, Y, psi = _hom_complex(A, B)
    S = syzygy(random_module(ExperimentConfig(seed=32), gor5, 0), 3)
    pairs = [
        random_pair(ExperimentConfig(seed=35), nilsquares, 0),
        random_pair(ExperimentConfig(seed=34), gor5, 0),
    ]
    suite_pair = random_pair(ExperimentConfig(seed=23, trials=20), gor5, 0)
    buchberger_runs.reset()
    H = subquotient(X, [], Y, psi)
    K, functionals = dual_module(S), _dual_generators(S)[1]
    assert buchberger_runs.count == 0
    assert H.rank0 and K.rank0 and len(functionals) == K.rank0
    # The stable Hom suite: duals, Hom, tensor and stable Hom of syzygies.
    assert stable_suite_check(*suite_pair).verdict == "consistent"
    assert buchberger_runs.count == 0
    idx = [1, 2, 3]
    for M, N in pairs:
        direct = [f(M, N, idx) for f in (ext, tor)]
        complete = [f(M, N, idx, t=5) for f in (ext_via_complete, tor_via_complete)]
        assert buchberger_runs.count == 0
        for a, b in zip(direct, complete):
            assert [a.total(i) for i in idx] == [b.total(i) for i in idx]
        assert any(a.total(i) for a in direct for i in idx)


def test_row_engine_imports_no_module_layer():
    # The row engine returns packed columns and builds no module, so it
    # loads without `modules` or `realize`: no import cycle to break.
    src = str(Path(extlab.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import extlab.rows; "
        "print(sorted(m for m in sys.modules if m in ('extlab.modules', 'extlab.realize')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_imports_only_the_standard_library():
    # No runtime dependency: importing the entry points in a fresh
    # interpreter loads no top-level module outside the standard library
    # and extlab, beyond those the interpreter had loaded already.
    src = str(Path(extlab.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import extlab.cli, extlab.script, extlab.vanishing, extlab.realize; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'extlab'}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_row_kernel_checks_the_map_is_well_defined(nilpl, quadric):
    # The row kernel seeds its span with the source relations, so its
    # closure check asserts that they lie in the kernel: 1 |-> 1 from R/(x)
    # to R is not a map of modules, since x |-> x.  Off the artinian locus
    # the Groebner body pushes each source relation through the map and
    # checks it is zero in the target: over the quadric, R/(w) to R.
    for ctx, var in ((nilpl, "x"), (quadric, "w")):
        src = PresentedModule.from_matrix(ctx, [[var]])
        one = [{ctx.codec.mkey(ctx.ring.unit_key, 0): 1}]
        with pytest.raises(InvariantViolation):
            subquotient(src, [], PresentedModule.ring_module(ctx), one)
        # The same map into R/(var) is the identity, with zero kernel.
        assert subquotient(src, [], src, one).rank0 == 0


@pytest.mark.parametrize("ring, seed", [("quadric", 51), ("gor5", 52), ("nilsquares", 53)])
def test_sum_of_shifts_matches_iterated_direct_sum(request, ring, seed):
    # One construction over all copies gives the module the iterated
    # direct sum gives: the same twists and the same columns, in order.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=seed)
    for i in range(4):
        for base in (random_module(cfg, ctx, i), random_module(cfg, ctx, i).minimal_presentation()):
            for shifts in ([], [0], [2, -1, 0, 3], [1, 1, -2]):
                slow = PresentedModule.zero(ctx)
                for s in shifts:
                    slow = slow.direct_sum(base.shifted(s))
                fast = _sum_of_shifts(base, shifts)
                assert fast.row_twists == slow.row_twists
                assert fast.columns == slow.columns
                assert fast.col_degrees == slow.col_degrees


def _psi_per_slot(a, b):
    """The Hom complex's psi columns built slot by slot, splitting every
    relation column of a once per (generator j, slot t): the reference
    for `_hom_complex`, which splits each column once."""
    ctx = a.ctx
    codec = ctx.codec
    p = ctx.ring.field.p
    rb = b.rank0
    out = []
    for j in range(a.rank0):
        for t in range(rb):
            vec: dict[int, int] = {}
            for c, col in enumerate(a.columns):
                entry = {codec.mono_of(k): x for k, x in col.items() if codec.comp_of(k) == j}
                for mk, cf in entry.items():
                    key = codec.mkey(mk, c * rb + t)
                    vec[key] = (vec.get(key, 0) + cf) % p
            out.append({k: c for k, c in vec.items() if c})
    return out


def _tensor_by_loops(a, b):
    """(twists, columns) of a (x) b before minimizing, re-keyed term by
    term: A (x) id, then id (x) B."""
    codec = a.ctx.codec
    rb = b.rank0
    cols = []
    for col in a.columns:
        for t in range(rb):
            cols.append({codec.mkey(codec.mono_of(k), codec.comp_of(k) * rb + t): c for k, c in col.items()})
    for j in range(a.rank0):
        for col in b.columns:
            cols.append({codec.mkey(codec.mono_of(k), j * rb + codec.comp_of(k)): c for k, c in col.items()})
    return tuple(x + y for x in a.row_twists for y in b.row_twists), cols


def _evals_by_loop(ctx, functionals, rb):
    """The functionals u (x) e_t of `stable_hom`, re-keyed term by term."""
    codec = ctx.codec
    return [
        {codec.mkey(codec.mono_of(k), codec.comp_of(k) * rb + t): c for k, c in u.items()}
        for u in functionals
        for t in range(rb)
    ]


def _transposed(ctx, cols, nrows):
    """Columns of the transposed matrix (entry (l, s) becomes (s, l))."""
    codec = ctx.codec
    out = [dict() for _ in range(nrows)]
    for s, col in enumerate(cols):
        for k, c in col.items():
            out[codec.comp_of(k)][codec.mkey(codec.mono_of(k), s)] = c
    return out


def _step_cols_by_entries(kind, res, j, rb):
    """The maps induced by d_j on sums of copies of N, from d_j's entries:
    Hom(d_j, N) transposed copy by copy for ext, d_j (x) N for tor."""
    codec = res.ctx.codec
    parts = []  # per column of d_j, its entries by component, key by key
    for col in res.diff(j):
        entries: dict[int, dict[int, int]] = {}
        for k, c in col.items():
            entries.setdefault(codec.comp_of(k), {})[codec.mono_of(k)] = c
        parts.append(entries)
    if kind == "ext":
        cols = [{} for _ in range(res.rank(j - 1) * rb)]
        for s, entries in enumerate(parts):
            for sp, f in entries.items():
                for t in range(rb):
                    cols[sp * rb + t].update({codec.mkey(mk, s * rb + t): c for mk, c in f.items()})
        return cols
    return [
        {codec.mkey(mk, sp * rb + t): c for sp, f in entries.items() for mk, c in f.items()}
        for entries in parts
        for t in range(rb)
    ]


def _terms(cols):
    return [list(v.items()) for v in cols]


@pytest.mark.parametrize("ring, seed", [("quadric", 54), ("gor5", 55), ("nilsquares", 56)])
def test_hom_complex_matches_per_slot_reference(request, ring, seed):
    # `_hom_columns`, `_tensor_columns` and `_sum_of_shifts` against the
    # term-by-term loops they replace: the same columns, with the same
    # terms in the same order, on seeded modules and on steps 1-3 of their
    # resolutions.  The one exception is the order of terms inside a tor
    # column of a step, which the old loop grouped by component and
    # `_tensor_columns` takes in d_j's own order: there the columns are
    # compared as vectors.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=seed)
    R = PresentedModule.ring_module(ctx)
    for i in range(3):
        A, B = random_pair(cfg, ctx, i)
        for a, b in ((A, B), (B, A), (A.minimal_presentation(), R), (A, A.direct_sum(B))):
            rb = b.rank0
            _, _, psi = _hom_complex(a, b)
            assert _terms(psi) == _terms(_psi_per_slot(a, b))
            twists, cols = _tensor_by_loops(a, b)
            B_sum = _sum_of_shifts(b, a.row_twists)
            assert B_sum.row_twists == twists
            n = len(a.columns) * rb
            assert _terms(_tensor_columns(ctx, a.columns, rb)) == _terms(cols[:n])
            # A presented module sorts its columns, and so does the sum.
            id_b = PresentedModule(ctx, twists, cols[n:], _reduced=True)
            assert _terms(B_sum.columns) == _terms(id_b.columns)
            assert tensor_module(a, b) == PresentedModule(ctx, twists, cols).minimal_presentation()
            functionals = _dual_generators(a)[1]
            assert _terms(_tensor_columns(ctx, functionals, rb)) == _terms(_evals_by_loop(ctx, functionals, rb))
            for d, nrows in ((a.columns, a.rank0), (functionals, a.rank0)):
                assert _terms(_hom_columns(ctx, d, nrows, 1)) == _terms(_transposed(ctx, d, nrows))
        for M in (A, B):
            res = resolution_of(M).extend_to(3)
            for j in range(1, 4):
                d, nrows = res.diff(j), res.rank(j - 1)
                assert _terms(_hom_columns(ctx, d, nrows, 1)) == _terms(_transposed(ctx, d, nrows))
                for rb in (1, 2, 3):
                    ref = _step_cols_by_entries("ext", res, j, rb)
                    assert _terms(_step_cols("ext", res, j, rb)) == _terms(ref)
                    assert _step_cols("tor", res, j, rb) == _step_cols_by_entries("tor", res, j, rb)


def _summed_piece(X, d):
    """The degree-d echelon of a sum of shifted copies assembled from its
    copies' pieces (`_copy_pieces`): copy c's keys are its base's with
    every component raised by c * base.rank0, and its rows re-indexed."""
    codec = X.ctx.codec
    r = X._cache["sum_of"][0].rank0
    copies = list(_copy_pieces(X, d))
    keys, offsets = [], []
    for c, (off, piece) in enumerate(copies):
        assert off == len(keys)
        offsets += [off + o for o in piece.offsets]
        keys += [codec.mkey(codec.mono_of(k), codec.comp_of(k) + c * r) for k in piece.keys]
    col, coord = _columns_of(keys)
    basis = {}
    for off, piece in copies:
        at = [col[off + i] for i in piece.coord]
        for lead, row in piece.basis.items():
            basis[at[lead]] = {at[b]: x for b, x in row.items()}
    return _Piece(keys, offsets, col, coord, basis)


@pytest.mark.parametrize("ring, seed", [("gor5", 57), ("nilsquares", 58)])
def test_sum_echelon_matches_echelon_from_scratch(request, ring, seed):
    # A sum of shifted copies is read copy by copy off its base's relation
    # echelons; re-keyed, the copies' pieces must be the echelon eliminated
    # from the sum's own relation span, piece for piece, in every degree.
    ctx = request.getfixturevalue(ring)
    cfg = ExperimentConfig(seed=seed)
    checked = nontrivial = 0
    for i in range(4):
        M = random_module(cfg, ctx, i)
        for base in (M, M.minimal_presentation()):
            for shifts in ([0], [2, -1, 0, 3], [1, 1, -2], [-3, -3], [0, 4, -2, 0, 1]):
                X = _sum_of_shifts(base, shifts)
                assert X._cache["sum_of"] == (base, tuple(shifts))
                span = None
                if X.columns:
                    span = _span_rows(ctx, X.row_twists, X.columns, X.col_degrees)
                lo = min(X.row_twists) - 1
                for d in range(lo, max(X.row_twists) + ctx.top_degree + 2):
                    piece = _summed_piece(X, d)
                    assert piece == _echelon_of(ctx, X.row_twists, span, d), (shifts, d)
                    checked += 1
                    nontrivial += bool(piece.basis)
    assert nontrivial >= checked // 4


def _reference_kernel_generators(real, twists, matrix_at, degrees, seed=None):
    """`rows.kernel_generators` with every elimination made: each seed
    row, each variable multiple of the kernels below and each kernel
    vector is inserted in every degree, and the closure check runs in
    every degree with a kernel vector or a seed row.  Returns the
    generators and the dimension of the kernel modulo the seed rows in
    each degree, where it is nonzero (the kernel's minus the rank of the
    seed rows, each inserted into a basis of its own), and also how many
    degrees had a zero matrix, and how many had kernel vectors but no seed
    rows and no nonzero multiples: the degrees where `kernel_generators`
    skips work."""
    ctx = real.ctx
    p = ctx.ring.field.p
    kernels = {}
    out = []
    dims = {}
    zero = fresh = 0
    for d in degrees:
        labels, offsets = [], {}
        for s, a in enumerate(twists):
            n = real.dim(d - a)
            if n:
                offsets[s] = len(labels)
                labels += [(s, i) for i in range(n)]
        if not labels:
            continue
        rows_d = matrix_at(d)
        zero += not any(rows_d)
        K = nullspace_rows(rows_d, len(labels), p)
        kernels[d] = (labels, K)
        span = seed(d) if seed else []
        if not K and not span:
            continue
        seed_basis = {}
        for row in span:
            insert_row(seed_basis, dict(row), p)
        if len(K) != len(seed_basis):
            dims[d] = len(K) - len(seed_basis)
        multiples = 0
        basis = {}
        for row in span:
            insert_row(basis, row, p)
        for v, w in enumerate(ctx.ring.weights):
            below_labels, below = kernels.get(d - w, ((), ()))
            for u in below:
                img = {}
                for k, c in u.items():
                    s, i = below_labels[k]
                    for r, x in real.action_columns(v, d - w - twists[s])[i].items():
                        img[r + offsets[s]] = img.get(r + offsets[s], 0) + c * x
                row = {r: x % p for r, x in img.items() if x % p}
                multiples += bool(row)
                insert_row(basis, row, p)
        fresh += not span and not multiples
        for u in K:
            if insert_row(basis, dict(u), p):
                out.append(u)
        if len(basis) != len(K):
            raise InvariantViolation("kernel not closed under the ring action")
    return out, dims, zero, fresh


@pytest.mark.parametrize("ring, seed", [("gor5", 61), ("nilsquares", 62)])
def test_kernel_shortcuts_match_full_elimination(request, monkeypatch, ring, seed):
    # kernel_generators skips eliminations whose outcome is fixed; on every
    # call the resolution steps (to step 6), the row kernel of maps into
    # non-free targets and the direct route's walks over N's realization
    # make, it must return the generators the full walk returns, column
    # for column, term for term, and the same dimensions of the kernel
    # modulo the seed rows, degree by degree.
    ctx = request.getfixturevalue(ring)
    fast = rows.kernel_generators
    seen = {"calls": 0, "zero": 0, "fresh": 0, "seeded": 0, "module": 0}

    def both(*args, **kwargs):
        got, degs, dims = fast(*args, **kwargs)
        ref, ref_dims, zero, fresh = _reference_kernel_generators(*args, **kwargs)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in ref]
        assert list(dims.items()) == list(ref_dims.items())
        seen["calls"] += 1
        seen["zero"] += zero
        seen["fresh"] += fresh
        seed = args[4] if len(args) > 4 else kwargs.get("seed")
        seen["seeded"] += seed is not None
        seen["module"] += args[0] is not FiniteLengthRealization.of_ring(ctx)
        return got, degs, dims

    monkeypatch.setattr(rows, "kernel_generators", both)
    monkeypatch.setattr(resolution, "kernel_generators", both)
    cfg = ExperimentConfig(seed=seed)
    for i in range(3):
        Resolution(random_module(cfg, ctx, i)).extend_to(6)
    maps = [(src, tgt, cols) for src, tgt, cols in _kernel_corpus(ctx, seed, 2) if tgt.columns]
    assert maps
    for src, tgt, cols in maps:
        subquotient(src, [], tgt, cols)
    for i in range(2):
        M, N = random_pair(cfg, ctx, i)
        ext(M, N, range(4))
        tor(M, N, range(4))
    assert seen["calls"] and seen["zero"] and seen["fresh"] and seen["seeded"] and seen["module"]


@pytest.mark.parametrize("ring, seed", [("quadric", 61), ("gor5", 62), ("nilsquares", 63)])
def test_internal_map_columns_are_normal_forms(request, monkeypatch, ring, seed):
    # The incoming columns of the Hom and tensor complexes, which the
    # direct route and the cokernels of `derived_dims` take as they come
    # off the artinian locus, must be normal forms, and so must the
    # outgoing columns that `subquotient` takes.  Over an artinian ring no
    # incoming column is built: both routes lay out the induced maps on
    # N's realization (`resolution._matrix_builder`).
    ctx = request.getfixturevalue(ring)
    real_incoming = resolution._incoming_cols
    real_subquotient = modules.subquotient
    incoming = []
    outgoing = []

    def incoming_cols(*args):
        cols = real_incoming(*args)
        assert all(c == reduce_vec_by_ideal(dict(c), ctx) for c in cols)
        incoming.append(len(cols))
        return cols

    def subquotient(X, in_cols, target, out_cols):
        assert all(c == reduce_vec_by_ideal(dict(c), ctx) for c in out_cols)
        outgoing.append(len(out_cols))
        return real_subquotient(X, in_cols, target, out_cols)

    monkeypatch.setattr(resolution, "_incoming_cols", incoming_cols)
    monkeypatch.setattr(modules, "subquotient", subquotient)
    cfg = ExperimentConfig(seed=seed, max_generators=1 if ring == "quadric" else 3)
    for i in range(3):
        A, B = random_pair(cfg, ctx, i)
        ext(A, B, [1, 2])
        tor(A, B, [1, 2])
        scan_ext(A, B, ctx.dim + 3)
        hom_module(A, B)
        dual_module(B)
    assert sum(outgoing) > 0
    assert (sum(incoming) > 0) == (ring == "quadric")
