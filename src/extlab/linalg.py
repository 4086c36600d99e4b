"""Exact linear algebra over GF(p).

Every elimination runs through one step, `insert_row`: reduce a sparse row
(a dict column -> coefficient, plain Python ints) against an echelon basis
keyed by leading column, and store it if a new lead is left.  Its cost
follows the nonzero entries and their fill-in, not the cells.  The
matrices it sees, degree-d pieces of maps between finite-length modules,
are about 1% nonzero.  `_insert_rows` runs it over a whole matrix;
`rank_rows` and `nullspace_rows` take rows that were built sparse to begin
with, and the dense entry points (numpy int64 arrays with entries in
[0, p)) are adapters: `echelon_mod` feeds a dense matrix's nonzero entries
through it and writes the echelon form back out, `nullspace_mod` writes
out `nullspace_rows`.  Fed an image span first and candidate vectors after
it, in order, `insert_row` keeps the earliest candidates that extend the
span: the complement rule by which `rows` chooses minimal generators.

Products (`matmul_mod`) run through float64 BLAS, which is exact as long as
every dot product stays below 2**53; the inner dimension is chunked so that
bound holds for any modulus this package accepts.
"""

from __future__ import annotations

import numpy as np

_EXACT_CAP = 2**53


def _as_mod(a: np.ndarray, p: int) -> np.ndarray:
    out = np.asarray(a, dtype=np.int64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {out.shape}")
    return out % p


def _matmul_capped(a: np.ndarray, b: np.ndarray, p: int, cap: int) -> np.ndarray:
    """(a @ b) % p with dot products kept below `cap` so float64 stays exact."""
    inner = a.shape[1]
    out_shape = (a.shape[0], b.shape[1])
    if inner == 0 or not out_shape[0] or not out_shape[1]:
        return np.zeros(out_shape, dtype=np.int64)
    step = max(1, (cap - 1) // max((p - 1) ** 2, 1))
    if inner <= step:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(prod).astype(np.int64) % p
    acc = np.zeros(out_shape, dtype=np.int64)
    for lo in range(0, inner, step):
        hi = min(lo + step, inner)
        prod = a[:, lo:hi].astype(np.float64) @ b[lo:hi, :].astype(np.float64)
        acc = (acc + np.rint(prod).astype(np.int64)) % p
    return acc


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact matrix product over GF(p)."""
    a = _as_mod(a, p)
    b = _as_mod(b, p)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return _matmul_capped(a, b, p, _EXACT_CAP)


def insert_row(basis: dict[int, dict[int, int]], row: dict[int, int], p: int) -> bool:
    """Insert `row` into the echelon basis `basis` (leading column -> monic
    row); True when it adds a pivot, False when it lies in the span.

    The row's values must lie in [1, p); it is consumed.  Its leading column
    is cleared with the stored row leading there until its lead is a new
    column; the row is then made monic and stored.
    """
    while row:
        lead = min(row)
        prow = basis.get(lead)
        if prow is None:
            inv = pow(row[lead], p - 2, p)
            if inv != 1:
                row = {k: v * inv % p for k, v in row.items()}
            basis[lead] = row
            return True
        _axpy(row, p - row[lead], prow, p)
    return False


def _reduce_row(basis: dict[int, dict[int, int]], row: dict[int, int], p: int) -> dict[int, int]:
    """Clear every pivot column of a reduced echelon `basis` from `row`, in
    place, and return it: one pass, since each stored row is zero at the
    other pivots.  The result is the unique representative of row modulo
    the span with no entry in a pivot column."""
    for k in [k for k in row if k in basis]:
        _axpy(row, p - row[k], basis[k], p)
    return row


def _insert_rows(rows, p: int, reduced: bool) -> dict[int, dict[int, int]]:
    """Echelon basis of the span of `rows`, keyed by leading column.

    The nonzero rows (values in [1, p)) are consumed by `insert_row`,
    lightest first.  The leads of any echelon basis of a row space are its
    lexicographically first independent column set, so these are the
    pivots of Gaussian elimination by columns.  With `reduced`, each stored
    row is cleared of the later pivot columns, last pivot first, which
    leaves the (unique) reduced row echelon form.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in sorted(filter(None, rows), key=len):
        insert_row(basis, row, p)
    if reduced:
        for lead in sorted(basis, reverse=True):
            row = basis[lead]
            for k in [k for k in row if k != lead and k in basis]:
                _axpy(row, p - row[k], basis[k], p)
    return basis


def _axpy(row: dict[int, int], f: int, other: dict[int, int], p: int):
    """row += f * other over GF(p), in place; f and other's values are
    nonzero, so a sum can only vanish where row already had an entry."""
    get = row.get
    for k, v in other.items():
        x = (get(k, 0) + f * v) % p
        if x:
            row[k] = x
        else:
            del row[k]


def _dense_rows(a: np.ndarray) -> list[dict[int, int]]:
    """The nonzero rows of a reduced dense matrix, as dicts."""
    rows: list[dict[int, int]] = [{} for _ in range(a.shape[0])]
    nz_r, nz_c = np.nonzero(a)
    for i, j, v in zip(nz_r.tolist(), nz_c.tolist(), a[nz_r, nz_c].tolist()):
        rows[i][j] = v
    return [r for r in rows if r]


def echelon_mod(a: np.ndarray, p: int, reduced: bool = True):
    """Row echelon form of `a` over GF(p).

    Returns (r, pivot_cols).  Pivot entries are normalized to 1 and rows of
    zeros sink to the bottom; with `reduced` the entries above each pivot are
    cleared as well (RREF).
    """
    a = _as_mod(a, p)
    basis = _insert_rows(_dense_rows(a), p, reduced)
    pivots = sorted(basis)
    out = np.zeros(a.shape, dtype=np.int64)
    for i, lead in enumerate(pivots):
        row = basis[lead]
        out[i, list(row)] = list(row.values())
    return out, pivots


def rank_rows(rows, p: int) -> int:
    """Rank over GF(p) of the matrix whose rows are the dicts `rows`
    (column -> coefficient; absent columns are zero).  The rows are not
    modified."""
    clean = []
    for row in rows:
        r = {k: v % p for k, v in row.items() if v % p}
        if r:
            clean.append(r)
    return len(_insert_rows(clean, p, reduced=False))


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank of `a` over GF(p)."""
    return len(echelon_mod(a, p, reduced=False)[1])


def pivot_columns_mod(a: np.ndarray, p: int) -> list[int]:
    """Indices of the lexicographically first maximal independent column set."""
    return echelon_mod(a, p, reduced=False)[1]


def nullspace_rows(rows, n: int, p: int) -> list[dict[int, int]]:
    """Right nullspace of the matrix with `n` columns whose rows are the
    dicts `rows` (values in [1, p); consumed).

    One vector per non-pivot column f, in ascending order: 1 at f, and at
    each pivot column the negated entry of that pivot's reduced row at f.
    """
    basis = _insert_rows(rows, p, reduced=True)
    null = {f: {f: 1} for f in range(n) if f not in basis}
    for lead, row in basis.items():
        for k, v in row.items():
            if k != lead:
                null[k][lead] = p - v
    return list(null.values())


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Right nullspace basis of `a` over GF(p); columns form a basis
    (`nullspace_rows` on the nonzero entries of `a`)."""
    a = _as_mod(a, p)
    null = nullspace_rows(_dense_rows(a), a.shape[1], p)
    out = np.zeros((a.shape[1], len(null)), dtype=np.int64)
    for c, vec in enumerate(null):
        out[list(vec), c] = list(vec.values())
    return out
