"""Exact linear algebra over GF(p).

Every elimination runs through one step, `insert_row`: reduce a sparse row
(a dict column -> coefficient, plain Python ints) against an echelon basis
keyed by leading column, and store it if a new lead is left.  Its cost
follows the nonzero entries and their fill-in, not the cells.  The
matrices it sees, degree-d pieces of maps between finite-length modules,
are about 1% nonzero.  `_insert_rows` runs it over the rows of a whole
matrix, and `rank_rows` and `nullspace_rows` are read off that.  Fed an
image span first and candidate vectors after it, in order, `insert_row`
keeps the earliest candidates that extend the span: the complement rule
by which `rows` chooses minimal generators.
"""

from __future__ import annotations


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


def _reduce_columns(rows: list[dict[int, int]], basis, coord, off: int, p: int):
    """Clear every pivot of a reduced echelon `basis` (leading column ->
    monic row) from each column of the matrix with rows `rows`, in place,
    where echelon column c is row off + coord[c]: `_reduce_row` of every
    column at once.  A column loses, for each pivot, its entry there times
    that pivot's row, which is zero at the other pivots; on the matrix's
    rows, the row at each pivot, scaled by its echelon row's entries, comes
    off the rows at that echelon row's other columns, and is cleared."""
    for lead, brow in basis.items():
        src = rows[off + coord[lead]]
        if src:
            rows[off + coord[lead]] = {}
            for c, y in brow.items():
                if c != lead:
                    _axpy(rows[off + coord[c]], p - y, src, p)


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
