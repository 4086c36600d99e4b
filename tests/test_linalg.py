"""Elimination kernels against a naive per-pivot reference."""

import random

import numpy as np
import pytest

from extlab.linalg import (
    _insert_rows,
    _reduce_columns,
    _reduce_row,
    insert_row,
    nullspace_rows,
    rank_rows,
)
from extlab.resolution import _matrix_builder, resolution_of
from extlab.rows import FiniteLengthRealization
from extlab.vanishing import ExperimentConfig, random_pair

PRIMES = [2, 3, 101, 65521]


def naive_rref(a, p):
    """Textbook one-entry-at-a-time RREF, the correctness oracle."""
    work = np.array(a, dtype=np.int64) % p
    m, n = work.shape
    piv = []
    r = 0
    for j in range(n):
        if r == m:
            break
        rows = [i for i in range(r, m) if work[i, j] % p]
        if not rows:
            continue
        work[[r, rows[0]]] = work[[rows[0], r]]
        work[r] = work[r] * pow(int(work[r, j]), p - 2, p) % p
        for i in range(m):
            if i != r and work[i, j]:
                work[i] = (work[i] - work[i, j] * work[r]) % p
        piv.append(j)
        r += 1
    return work, piv


def random_matrix(rng, m, n, p, rank_deficit=False):
    a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64)
    if rank_deficit and m > 2:
        # Force dependent rows so pivots skip columns.
        a[m // 2] = (a[0] * 2 + a[1]) % p
        a[-1] = a[0]
    return a


def as_rows(a):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in a]


def echelon(a, p, reduced=True):
    """`_insert_rows` on the rows of the dense matrix `a` (entries in
    [0, p)): its pivot columns and, in pivot order, their rows."""
    basis = _insert_rows(as_rows(a), p, reduced)
    pivots = sorted(basis)
    return pivots, [basis[c] for c in pivots]


def naive_echelon(a, p):
    """`naive_rref` as pivot columns and the rows that carry them."""
    want, wpiv = naive_rref(a, p)
    return wpiv, as_rows(want[: len(wpiv)])


def assert_echelon(pivots, rows):
    """Each row is monic at its own pivot and has nothing left of it."""
    for c, row in zip(pivots, rows):
        assert min(row) == c and row[c] == 1


def assert_killed(a, vecs, p):
    """Every sparse vector in `vecs` lies in the right nullspace of `a`."""
    dense = np.zeros((a.shape[1], len(vecs)), dtype=np.int64)
    for c, vec in enumerate(vecs):
        dense[list(vec), c] = list(vec.values())
    assert not (a @ dense % p).any()


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_naive(p):
    rng = random.Random(1000 + p)
    for _ in range(12):
        m = rng.randrange(1, 14)
        n = rng.randrange(1, 14)
        a = random_matrix(rng, m, n, p, rank_deficit=rng.random() < 0.5)
        assert echelon(a, p) == naive_echelon(a, p)


def test_rref_crosses_panel_boundaries():
    # 300 columns, with 40 rows in the span of 5 others.
    rng = random.Random(7)
    p = 101
    a = random_matrix(rng, 150, 300, p)
    a[40:80] = random_matrix(rng, 40, 5, p) @ random_matrix(rng, 5, 300, p) % p
    want = naive_echelon(a, p)
    assert echelon(a, p) == want
    piv, red = echelon(a, p, reduced=False)
    assert piv == want[0]
    # Echelon form shares the pivot skeleton even without back-substitution.
    assert_echelon(piv, red)


@pytest.mark.parametrize("p", [3, 101])
def test_nullspace_and_rank(p):
    rng = random.Random(2000 + p)
    for _ in range(10):
        m = rng.randrange(1, 12)
        n = rng.randrange(1, 12)
        a = random_matrix(rng, m, n, p, rank_deficit=True)
        null = nullspace_rows(as_rows(a), n, p)
        assert len(null) == n - rank_rows(as_rows(a), p)
        assert_killed(a, null, p)
        if null:
            assert rank_rows(null, p) == len(null)


def test_pivot_columns_pick_first_independent_set():
    p = 101
    a = np.array(
        [
            [1, 2, 0, 1],
            [2, 4, 1, 0],
            [3, 6, 1, 1],
        ],
        dtype=np.int64,
    )
    # Column 1 is twice column 0, column 3 = col0 + col2... check directly.
    assert echelon(a, p, reduced=False)[0] == naive_rref(a, p)[1]


def test_degenerate_shapes():
    p = 101
    for shape in [(0, 5), (5, 0), (0, 0), (3, 4)]:
        rows = as_rows(np.zeros(shape, dtype=np.int64))
        assert _insert_rows(rows, p, reduced=True) == {}
        assert rank_rows(rows, p) == 0
        assert nullspace_rows(rows, shape[1], p) == [{j: 1} for j in range(shape[1])]


# -- the sparse kernel against the naive reference ------------------------------


def sparse_matrix(rng, m, n, p, density, deficient):
    """Seeded m x n matrix with about `density` of its entries nonzero.
    With `deficient`, a quarter of the rows are combinations of two others
    and one column repeats another, so pivots skip rows and columns."""
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                a[i, j] = rng.randrange(1, p)
    if deficient and m > 3 and n > 3:
        for i in rng.sample(range(m), m // 4):
            s, t = rng.sample(range(m), 2)
            a[i] = (rng.randrange(p) * a[s] + rng.randrange(p) * a[t]) % p
        a[:, n - 1] = a[:, 0]
    return a


# (density, shapes): dense cases stay small because fill-in makes a pure
# Python row kernel pay per entry; sparse ones go past the old 128-column
# panel width up to 300 x 600.
DENSITY_CASES = [
    (0.002, [(300, 600), (120, 500), (40, 300)]),
    (0.02, [(200, 300), (60, 400), (150, 150)]),
    (0.2, [(40, 160), (90, 60), (25, 200)]),
    (1.0, [(30, 140), (50, 20), (8, 8)]),
]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("density,shapes", DENSITY_CASES)
def test_sparse_kernel_matches_naive(p, density, shapes):
    rng = random.Random(int(density * 1000) * 7 + p)
    for m, n in shapes:
        for deficient in (False, True):
            a = sparse_matrix(rng, m, n, p, density, deficient)
            want = naive_echelon(a, p)
            wpiv = want[0]
            assert echelon(a, p) == want, (m, n, deficient)
            piv, red = echelon(a, p, reduced=False)
            assert piv == wpiv
            assert_echelon(piv, red)
            rows = as_rows(a)
            assert rank_rows(rows, p) == len(wpiv)
            assert rows == as_rows(a)  # rank_rows leaves its input alone
            # The row nullspace: n - rank independent vectors killed by a.
            null = nullspace_rows(as_rows(a), n, p)
            assert len(null) == n - len(wpiv)
            assert rank_rows(null, p) == len(null)
            assert_killed(a, null, p)
            # Span of a's rows first, then unit vectors in order: the kept
            # ones are the earliest that complete the span.  e_j is implied
            # exactly when some vector of the span ends at j, i.e. when
            # n - 1 - j is a pivot of the column-reversed matrix.
            basis = {}
            for row in as_rows(a):
                insert_row(basis, row, p)
            kept = [j for j in range(n) if insert_row(basis, {j: 1}, p)]
            rpiv = naive_rref(a[:, ::-1], p)[1]
            assert kept == [j for j in range(n) if n - 1 - j not in rpiv]


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_columns_matches_reduce_row_per_column(p):
    # `_reduce_columns` works on a matrix's rows, a pivot's row at a time;
    # every column must come out as `_reduce_row` leaves it on its own,
    # with the echelon's columns scattered over a block of the rows (echelon
    # column c at row off + coord[c]) and the rows outside the block kept.
    rng = random.Random(p)
    shapes = ((12, 9, 5, 0.3), (40, 25, 30, 0.05), (8, 6, 8, 1.0), (30, 3, 12, 0.1))
    for m, t, k, density in shapes:
        basis = _insert_rows(as_rows(sparse_matrix(rng, k, m, p, density, True)), p, reduced=True)
        coord = rng.sample(range(m), m)
        off = rng.randrange(4)
        a = sparse_matrix(rng, off + m + 2, t, p, density, False)
        got = as_rows(a)
        _reduce_columns(got, basis, coord, off, p)
        want = as_rows(a)
        for s in range(t):
            col = {c: int(a[off + i, s]) for c, i in enumerate(coord) if a[off + i, s]}
            red = _reduce_row(basis, col, p)
            for c, i in enumerate(coord):
                want[off + i].pop(s, None)
                if c in red:
                    want[off + i][s] = red[c]
        assert got == want, (m, t, k)
        assert all(not got[off + coord[c]] for c in basis)


def test_rank_rows_reduces_coefficients():
    p = 7
    # Entries outside [0, p) and explicit zeros are read modulo p.
    rows = [{0: 8, 1: -6, 2: 0}, {0: 1, 1: 1}, {2: 14}, {}, {3: -7}]
    assert rank_rows(rows, p) == 1
    assert rank_rows([], p) == 0


def dense_degreewise_matrix(kind, nreal, res, j, d):
    """The degree-d matrix of `_matrix_builder`, assembled densely block by
    block, each block the sum of its terms' monomial actions: the
    reference for its sparse rows."""
    p = res.ctx.ring.field.p
    lo, hi = res.twists_of(j - 1), res.twists_of(j)
    row_tw, col_tw, sign = (hi, lo, 1) if kind == "ext" else (lo, hi, -1)
    rows = [nreal.dim(d + sign * a) for a in row_tw]
    cols = [nreal.dim(d + sign * a) for a in col_tw]
    codec = res.ctx.codec
    mat = np.zeros((sum(rows), sum(cols)), dtype=np.int64)
    for s, col in enumerate(res.diff(j)):
        for key, a in col.items():
            sp, mono = codec.comp_of(key), codec.mono_of(key)
            r, c = (s, sp) if kind == "ext" else (sp, s)
            if rows[r] and cols[c]:
                r0, c0 = sum(rows[:r]), sum(cols[:c])
                for k, vec in enumerate(nreal.monomial_columns(mono, d + sign * col_tw[c])):
                    for i, v in vec.items():
                        mat[r0 + i, c0 + k] = (mat[r0 + i, c0 + k] + a * v) % p
    return mat


@pytest.mark.parametrize("ring", ["gor5", "nilsquares"])
def test_rank_rows_on_degreewise_matrices(ring, request):
    # The rows `_coker_series` ranks for C_j over an artinian ring, from
    # seeded pairs: they must be the rows of the dense block matrix, and
    # rank_rows must agree with the naive rank of it.
    ctx = request.getfixturevalue(ring)
    p = ctx.ring.field.p
    cfg = ExperimentConfig(seed=41, trials=8)
    checked = 0
    for t in range(cfg.trials):
        M, N = random_pair(cfg, ctx, t)
        res = resolution_of(M.minimal_presentation()).extend_to(4)
        nreal = FiniteLengthRealization.from_module(N.minimal_presentation())
        if nreal.is_zero():
            continue
        for kind in ("ext", "tor"):
            for j in range(1, 4):
                if not (res.rank(j - 1) and res.rank(j)):
                    continue
                at = _matrix_builder(kind, nreal, res, j)
                for d in range(-8, 9):
                    rows = at(d)
                    dense = dense_degreewise_matrix(kind, nreal, res, j, d)
                    assert rows == as_rows(dense), (kind, j, d)
                    assert rank_rows(rows, p) == len(naive_rref(dense, p)[1]), (kind, j, d)
                    checked += bool(dense.any())
    assert checked
