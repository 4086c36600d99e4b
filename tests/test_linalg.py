"""Elimination kernels against a naive per-pivot reference."""

import random

import numpy as np
import pytest

from extlab.linalg import (
    _matmul_capped,
    echelon_mod,
    insert_row,
    matmul_mod,
    nullspace_mod,
    nullspace_rows,
    pivot_columns_mod,
    rank_mod,
    rank_rows,
)
from extlab.resolution import _matrix_builder, resolution_of
from extlab.rows import FiniteLengthRealization, _split_entries
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


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_naive(p):
    rng = random.Random(1000 + p)
    for _ in range(12):
        m = rng.randrange(1, 14)
        n = rng.randrange(1, 14)
        a = random_matrix(rng, m, n, p, rank_deficit=rng.random() < 0.5)
        got, gpiv = echelon_mod(a, p)
        want, wpiv = naive_rref(a, p)
        assert gpiv == wpiv
        assert np.array_equal(got, want)


def test_rref_crosses_panel_boundaries():
    # 300 columns spans three panels; exercises the blocked updates.
    rng = random.Random(7)
    p = 101
    a = random_matrix(rng, 150, 300, p)
    a[40:80] = matmul_mod(random_matrix(rng, 40, 5, p), random_matrix(rng, 5, 300, p), p)
    got, gpiv = echelon_mod(a, p)
    want, wpiv = naive_rref(a, p)
    assert gpiv == wpiv
    assert np.array_equal(got, want)
    red, piv = echelon_mod(a, p, reduced=False)
    assert piv == wpiv
    # Echelon form shares the pivot skeleton even without back-substitution.
    for i, c in enumerate(piv):
        assert red[i, c] == 1
        assert not red[i + 1 :, c].any()


@pytest.mark.parametrize("p", [3, 101])
def test_nullspace_and_rank(p):
    rng = random.Random(2000 + p)
    for _ in range(10):
        m = rng.randrange(1, 12)
        n = rng.randrange(1, 12)
        a = random_matrix(rng, m, n, p, rank_deficit=True)
        ns = nullspace_mod(a, p)
        assert ns.shape == (n, n - rank_mod(a, p))
        assert not matmul_mod(a, ns, p).any()
        if ns.shape[1]:
            assert rank_mod(ns, p) == ns.shape[1]


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
    assert pivot_columns_mod(a, p) == naive_rref(a, p)[1]


def test_degenerate_shapes():
    p = 101
    for shape in [(0, 5), (5, 0), (0, 0)]:
        a = np.zeros(shape, dtype=np.int64)
        red, piv = echelon_mod(a, p)
        assert red.shape == shape and piv == []
        assert rank_mod(a, p) == 0
        ns = nullspace_mod(a, p)
        assert ns.shape == (shape[1], shape[1])
    z = np.zeros((3, 4), dtype=np.int64)
    assert rank_mod(z, p) == 0
    assert nullspace_mod(z, p).shape == (4, 4)


def test_matmul_chunking_is_exact():
    # A tiny cap forces many inner-dimension chunks.
    rng = random.Random(11)
    p = 97
    a = random_matrix(rng, 9, 23, p)
    b = random_matrix(rng, 23, 7, p)
    want = matmul_mod(a, b, p)
    for cap in [(p - 1) ** 2 + 1, 3 * (p - 1) ** 2 + 5]:
        assert np.array_equal(_matmul_capped(a, b, p, cap), want)
    naive = np.zeros((9, 7), dtype=np.int64)
    for i in range(9):
        for j in range(7):
            naive[i, j] = sum(int(a[i, t]) * int(b[t, j]) for t in range(23)) % p
    assert np.array_equal(want, naive)


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


def as_rows(a):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in a]


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
            want, wpiv = naive_rref(a, p)
            got, gpiv = echelon_mod(a, p)
            assert gpiv == wpiv, (m, n, deficient)
            assert np.array_equal(got, want), (m, n, deficient)
            red, piv = echelon_mod(a, p, reduced=False)
            assert piv == wpiv
            assert red.shape == a.shape and not red[len(piv):].any()
            for i, c in enumerate(piv):
                assert red[i, c] == 1
                assert not red[i + 1 :, c].any()
                assert not red[i, :c].any()
            rows = as_rows(a)
            assert rank_rows(rows, p) == rank_mod(a, p) == len(wpiv)
            assert rows == as_rows(a)  # rank_rows leaves its input alone
            # The row nullspace: n - rank independent vectors killed by a.
            null = nullspace_rows(as_rows(a), n, p)
            assert len(null) == n - len(wpiv)
            assert rank_rows(null, p) == len(null)
            dense = np.zeros((n, len(null)), dtype=np.int64)
            for c, vec in enumerate(null):
                dense[list(vec), c] = list(vec.values())
            assert not matmul_mod(a, dense, p).any()
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


def test_rank_rows_reduces_coefficients():
    p = 7
    # Entries outside [0, p) and explicit zeros are read modulo p.
    rows = [{0: 8, 1: -6, 2: 0}, {0: 1, 1: 1}, {2: 14}, {}, {3: -7}]
    assert rank_rows(rows, p) == 1
    assert rank_rows([], p) == 0


def dense_degreewise_matrix(kind, nreal, res, j, d):
    """The degree-d matrix of `_matrix_builder`, assembled densely block by
    block from `poly_action`: the reference for its sparse rows."""
    lo, hi = res.twists_of(j - 1), res.twists_of(j)
    row_tw, col_tw, sign = (hi, lo, 1) if kind == "ext" else (lo, hi, -1)
    rows = [nreal.dim(d + sign * a) for a in row_tw]
    cols = [nreal.dim(d + sign * a) for a in col_tw]
    mat = np.zeros((sum(rows), sum(cols)), dtype=np.int64)
    for s, col in enumerate(res.diff(j)):
        for sp, f in enumerate(_split_entries(res.ctx, col)):
            r, c = (s, sp) if kind == "ext" else (sp, s)
            if f and rows[r] and cols[c]:
                blk = nreal.poly_action(f, d + sign * col_tw[c], sign * (row_tw[r] - col_tw[c]))
                mat[sum(rows[:r]):sum(rows[: r + 1]), sum(cols[:c]):sum(cols[: c + 1])] = blk
    return mat


@pytest.mark.parametrize("ring", ["gor5", "nilsquares"])
def test_rank_rows_on_degreewise_matrices(ring, request):
    # The rows `_degreewise_dims` ranks, from seeded pairs: they must be
    # the rows of the dense block matrix, and rank_rows must agree with
    # rank_mod on it.
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
                    assert rank_rows(rows, p) == rank_mod(dense, p), (kind, j, d)
                    checked += bool(dense.any())
    assert checked
