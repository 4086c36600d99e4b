"""The finite-length engine: realizations, relation echelons and row kernels.

A realization stores, for a module of finite length, the dimension of every
graded piece and the matrix of each variable's multiplication map between
consecutive pieces, as sparse columns; a monomial's matrix is composed
from them on first use.  `FiniteLengthRealization.from_module` reads the
piece bases and actions off a module's relation echelon (the non-pivots
and normal forms, below); `of_ring` is the ring's own realization.  Both
refuse a context that is not artinian: every use of a realization
(`realize.to_presentation`, the degreewise derived functors) goes
through the ring's realization too.

A free module F = (+) R(-a_s) over an artinian context needs no
realization of its own: F_d is copy after copy of R_{d - a_s}, each in
`ctx.std_monomials` order, and the ring's realization acts on each copy.
`_block_builder` writes the degree-d matrix of any map between sums of
shifted copies of a realization as sparse rows; over the ring's own
realization that is a map between free modules, over a module N's a map
between terms of a Hom or tensor complex into N.  `kernel_generators`
takes a degree-zero map out of such a sum, given the realization whose
copies make it up, as those rows and returns minimal generators of its
kernel, all on rows (`linalg`), with each generator's degree and the
kernel's dimension in each degree, read off the same walk.  Generators
come in the sum's coordinates; over the ring's realization `_packed`
turns them into vectors of F, for the free-module callers
(`_map_kernel`, `realize.to_presentation`).  The walk skips two
eliminations whose outcome is fixed: in a degree with no seed rows and
no nonzero multiples from below, every kernel vector is a generator
(each has its own unit free column), and in a degree where the map is
zero, insertion stops once the span is the whole piece.

A presented module M = F / U over an artinian context carries, per degree
and built on first use, the reduced row echelon form of U_d with the
coordinates of F_d ordered by descending packed key (`_echelon`).  Its
pivots are the Groebner leads of U in degree d and reducing by it gives
the Groebner normal form, so the Hilbert function (dim F_d minus the
rank), normal forms and `from_module` are read off it with no Groebner
basis.  A sum of shifted copies of one module (`modules._sum_of_shifts`)
is read copy by copy off its base's echelons, which the base keeps:
`_copy_pieces` gives each copy's piece and the offset of its coordinates
in F_d, and no other code knows that layout.
`_map_kernel` reduces a map's degree-d columns by the target's echelon,
copy by copy, and passes the nullspace to `kernel_generators` over the
ring's realization, seeded with the source's relation echelon rows,
copy by copy (`_copy_pieces`; a module that is no sum is one copy of
itself).  That is `modules._kernel_generators` on artinian contexts,
behind `modules.subquotient` (whose kernel module takes its Hilbert
function from that walk), every presentation built by
`modules._submodule` and, with a free target, every resolution step.
The direct route of `resolution.ext` / `tor` calls
`kernel_generators` itself, over N's realization
(`FiniteLengthRealization.from_module`), seeded with the incoming map's
columns: it never eliminates N's relations again.
`_minimal_generator_indices_rows` is the row body of
`modules.minimal_generator_indices`.

This module reads presented modules through their `row_twists`,
`columns`, `col_degrees` and `_cache` and returns packed columns; it
never builds a module, so it imports neither `modules` nor `realize`,
which build modules from what it returns.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, groupby
from typing import NamedTuple, Sequence

from .errors import InvariantViolation
from .groebner import COMP_BITS, COMP_MASK, RingCtx, reduce_vec_by_ideal
from .linalg import _insert_rows, _reduce_columns, _reduce_row, insert_row, nullspace_rows


def vec_degree(ctx: RingCtx, vec: dict, twists: Sequence[int]) -> int:
    """Degree of a homogeneous vector; raises if the terms disagree.  Keys
    are decoded inline (`ModuleCodec.mono_of`, `comp_of`, and the ring
    codec's `degree`, the bits above its exponents), as in
    `_component_entries`."""
    monomask = ctx.codec.monomask
    shift = COMP_BITS + ctx.ring._codec.expbits
    degs = {((k & monomask) >> shift) + twists[COMP_MASK - (k & COMP_MASK)] for k in vec}
    if len(degs) != 1:
        raise ValueError(f"vector is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


def _component_entries(ctx: RingCtx, vec: dict) -> list[tuple[int, dict[int, int]]]:
    """The nonzero entries of a vector as (j, entry j), in ascending
    component order, grouped in one pass over its keys: entry j maps the
    packed monomials of component j to their coefficients, in the
    vector's key order."""
    monomask = ctx.codec.monomask
    out: dict[int, dict[int, int]] = {}
    for k, c in vec.items():
        j = COMP_MASK - (k & COMP_MASK)
        entry = out.get(j)
        if entry is None:
            entry = out[j] = {}
        entry[(k & monomask) >> COMP_BITS] = c
    return sorted(out.items())


class FiniteLengthRealization:
    """Graded pieces (dimensions) plus the ring's action on them.

    `dims[d]` is the dimension of the degree-d piece (zero entries are
    dropped).  `monomial_columns(m, d)` is the matrix of multiplication by
    the packed ring monomial m from degree d to degree d + deg m, columns
    indexed by a fixed but unspecified basis of the source piece, each
    column a sparse dict row -> coefficient in [1, p).  A constructor gives
    the variables' columns (`action_columns`); those it leaves out act as
    zero.  Longer monomials are composed from them on first use, with exact
    ints mod p, and kept in the same cache.  `monomial_entries` lists a
    monomial's nonzero entries row by row, for `_block_builder`.
    """

    def __init__(self, ctx: RingCtx, dims: dict[int, int], actions: dict):
        self.ctx = ctx
        self.dims = {d: n for d, n in dims.items() if n}
        var_keys = ctx.ring._var_keys
        # (packed monomial, source degree) -> columns
        self._cols: dict[tuple[int, int], list[dict[int, int]]] = {
            (var_keys[v], d): cols for (v, d), cols in actions.items()
        }
        self._entries: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    # -- piece access ---------------------------------------------------------

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def is_zero(self) -> bool:
        return not self.dims

    @property
    def top(self) -> int | None:
        return max(self.dims) if self.dims else None

    def action_columns(self, var: int, d: int) -> list[dict[int, int]]:
        """Columns of multiplication by the var-th variable from degree d;
        cached, so callers copy a column before consuming it."""
        return self.monomial_columns(self.ctx.ring._var_keys[var], d)

    def monomial_columns(self, mono: int, d: int) -> list[dict[int, int]]:
        """Columns of multiplication by a packed ring monomial from degree
        d: x_v times the columns of mono / x_v, for the first variable x_v
        of mono.  Cached, so callers copy a column before consuming it."""
        key = (mono, d)
        hit = self._cols.get(key)
        if hit is None:
            ring = self.ctx.ring
            if mono == ring.unit_key:
                hit = [{i: 1} for i in range(self.dim(d))]
            else:
                exps = ring.decode_monomial(mono)
                v = next(i for i, e in enumerate(exps) if e)
                rest = list(exps)
                rest[v] -= 1
                sub = ring.encode_monomial(tuple(rest))
                if sub == ring.unit_key:  # a variable with no stored action
                    hit = [{} for _ in range(self.dim(d))]
                else:
                    outer = self.action_columns(v, d + ring.mono_degree(sub))
                    p = ring.field.p
                    hit = [_apply(outer, col, p) for col in self.monomial_columns(sub, d)]
            self._cols[key] = hit
        return hit

    def monomial_entries(self, mono: int, d: int) -> list[tuple[int, int, int]]:
        """Nonzero entries (row, column, value) of `monomial_columns(mono,
        d)` in row-major order; cached."""
        key = (mono, d)
        hit = self._entries.get(key)
        if hit is None:
            cols = self.monomial_columns(mono, d)
            hit = sorted((i, k, v) for k, col in enumerate(cols) for i, v in col.items())
            self._entries[key] = hit
        return hit

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_module(cls, mod) -> "FiniteLengthRealization":
        """Read the pieces off a presented module's relation echelon
        (`_from_module_rows`), over an artinian context only.

        The degree-d basis consists of the keys (generator j, standard
        monomial m) that are not Groebner leads, copy after copy; the action
        of a variable is the normal form of each basis element's multiple.
        """
        if not mod.ctx.is_artinian:
            raise ValueError("realizations need an artinian context")
        hit = mod._cache.get("real")
        if hit is None:
            hit = mod._cache["real"] = _from_module_rows(mod)
        return hit

    @classmethod
    def of_ring(cls, ctx: RingCtx) -> "FiniteLengthRealization":
        """The ring's own realization: piece d has the basis
        `ctx.std_monomials(d)`, and x_v sends a basis monomial to the normal
        form of its multiple."""
        hit = ctx.scratch.get("ring_real")
        if hit is None:
            if not ctx.is_artinian:
                raise ValueError("ring realization needs an artinian context")
            ring, codec = ctx.ring, ctx.codec
            actions = {}
            for v, w in enumerate(ring.weights):
                vkey = ring._var_keys[v]
                for d in range(ctx.top_degree + 1):
                    index = {m: i for i, m in enumerate(ctx.std_monomials(d + w))}
                    cols = []
                    for m in ctx.std_monomials(d):
                        red = reduce_vec_by_ideal({codec.mkey(ring.mono_mul(vkey, m), 0): 1}, ctx)
                        cols.append({index[codec.mono_of(k)]: c for k, c in red.items()})
                    actions[(v, d)] = cols
            hit = cls(ctx, ctx._hf, actions)
            ctx.scratch["ring_real"] = hit
        return hit

    # -- derived data --------------------------------------------------------------

    def socle(self, d: int) -> list[dict[int, int]]:
        """A basis of the degree-d socle, the elements every variable kills:
        `nullspace_rows` of the variables' actions from degree d, stacked."""
        rows: list[dict[int, int]] = []
        for v, w in enumerate(self.ctx.ring.weights):
            rows += _transpose(self.action_columns(v, d), self.dim(d + w))
        return nullspace_rows(rows, self.dim(d), self.ctx.ring.field.p)

    def socle_profile(self) -> dict[int, int]:
        """dim of the socle per degree, where it is nonzero."""
        return {d: n for d in self.dims if (n := len(self.socle(d)))}

    def matlis_dual(self) -> "FiniteLengthRealization":
        """Graded vector-space dual: piece d becomes piece -d, actions
        become transposes one weight over."""
        acts = {}
        for v, w in enumerate(self.ctx.ring.weights):
            for d in self.dims:
                n = self.dim(d + w)  # M_d -> M_{d+w}
                if n:
                    acts[(v, -d - w)] = _transpose(self.action_columns(v, d), n)
        return FiniteLengthRealization(self.ctx, {-d: n for d, n in self.dims.items()}, acts)


def _apply(cols: list[dict[int, int]], vec: dict[int, int], p: int) -> dict[int, int]:
    """The image of the sparse vector `vec` under the matrix with columns
    `cols`, over GF(p)."""
    acc: dict[int, int] = {}
    for r, x in vec.items():
        for k, y in cols[r].items():
            acc[k] = acc.get(k, 0) + x * y
    return {k: c % p for k, c in acc.items() if c % p}


def _transpose(cols: list[dict[int, int]], n: int) -> list[dict[int, int]]:
    """The rows of the matrix with `n` rows and columns `cols`: the columns
    of its transpose."""
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for c, col in enumerate(cols):
        for r, x in col.items():
            out[r][c] = x
    return out


# -- relation echelons on the artinian locus -------------------------------------


class _Piece(NamedTuple):
    """Degree-d part of a relation echelon (`_echelon_of`).

    Coordinates of F_d are `_block_builder`'s: copy after copy, copy j
    starting at `offsets[j]` and listing R_{d - a_j} in `ctx.std_monomials`
    order, with packed keys `keys`.  Echelon columns number the coordinates
    by descending key (coordinate i is column `col[i]`, column c is
    coordinate `coord[c]`), so a row's leading column is its Groebner
    lead.  `basis` is the reduced row echelon form of the degree-d
    relation span, pivot column -> monic row: its pivots are the Groebner
    leads in degree d, and `_reduce_row` by it gives the Groebner normal
    form (Lazard's Macaulay-matrix view of a Groebner basis).
    """

    keys: list[int]
    offsets: list[int]
    col: list[int]
    coord: list[int]
    basis: dict[int, dict[int, int]]

    def free_coords(self) -> list[int]:
        """Coordinates that are not pivots, in coordinate order."""
        return [i for i, c in enumerate(self.col) if c not in self.basis]


def _span_rows(ctx: RingCtx, twists, columns, degrees):
    """`_block_builder` over the ring's realization for the span of
    `columns` (of degrees `degrees`) in F = (+) R(-twists[j]): row r of
    the degree-d matrix is coordinate r of F_d, column s the s-th column's
    multiples."""
    real = FiniteLengthRealization.of_ring(ctx)
    return _block_builder(real, _entry_blocks(ctx, columns), twists, degrees, -1)


def _columns_of(keys: list[int]) -> tuple[list[int], list[int]]:
    """(col, coord) of a `_Piece` with coordinate keys `keys`."""
    coord = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    col = [0] * len(keys)
    for c, i in enumerate(coord):
        col[i] = c
    return col, coord


def _echelon_of(ctx: RingCtx, twists, span_at, d: int) -> _Piece:
    """The degree-d relation echelon of the span that `span_at`
    (`_span_rows`, or None for no relations) builds inside
    F = (+) R(-twists[j]): the columns of its degree-d matrix, eliminated
    with sparse pivoting (`linalg._insert_rows`)."""
    keys: list[int] = []
    offsets = []
    for j, a in enumerate(twists):
        offsets.append(len(keys))
        keys += [ctx.codec.mkey(m, j) for m in ctx.std_monomials(d - a)]
    col, coord = _columns_of(keys)
    span: dict[int, dict[int, int]] = {}
    if span_at is not None and keys:
        for r, row in enumerate(span_at(d)):
            for s, x in row.items():
                span.setdefault(s, {})[col[r]] = x
    basis = _insert_rows(span.values(), ctx.ring.field.p, reduced=True)
    return _Piece(keys, offsets, col, coord, basis)


def _copy_pieces(mod, d: int):
    """(offset, piece) for each copy making up F_d of `mod`, copy after
    copy.  For a sum of shifted copies of a base (`modules._sum_of_shifts`)
    the piece of copy c is base's relation echelon in degree d - shifts[c],
    kept with base, and copy c's coordinates of F_d are that piece's, from
    `offset` on.  Copy c's components are base's raised by c * base.rank0,
    which keeps the order of its packed keys, so reducing by the piece
    gives the normal form the sum's own echelon would.  A module that is
    no sum is one copy of itself, its own echelon at offset 0.  No other
    code knows how a sum's coordinates are laid out."""
    summed = mod._cache.get("sum_of")
    if summed is None:
        yield 0, _echelon(mod, d)
        return
    base, shifts = summed
    offset = 0
    for s in shifts:
        piece = _echelon(base, d - s)
        yield offset, piece
        offset += len(piece.keys)


def _echelon(mod, d: int) -> _Piece:
    """The degree-d relation echelon of a module over an artinian context,
    built on first use and kept with the module."""
    cache = mod._cache.setdefault("echelon", {})
    hit = cache.get(d)
    if hit is None:
        at = cache.get("rows")
        if at is None and mod.columns:
            at = _span_rows(mod.ctx, mod.row_twists, mod.columns, mod.col_degrees)
            cache["rows"] = at
        hit = cache[d] = _echelon_of(mod.ctx, mod.row_twists, at, d)
    return hit


def _echelon_hf(mod) -> dict[int, int]:
    """Hilbert function of a module over an artinian context: dim F_d minus
    the rank of the degree-d relation span, in every degree of F."""
    hf: dict[int, int] = {}
    if mod.rank0:
        for d in range(min(mod.row_twists), max(mod.row_twists) + mod.ctx.top_degree + 1):
            piece = _echelon(mod, d)
            n = len(piece.keys) - len(piece.basis)
            if n:
                hf[d] = n
    return hf


def _echelon_normal_form(mod, vec: dict) -> dict:
    """Normal form of a homogeneous free-cover vector, already reduced
    modulo the ideal, against the relation echelon of its degree."""
    if not vec:
        return {}
    piece = _echelon(mod, vec_degree(mod.ctx, vec, mod.row_twists))
    keys, coord = piece.keys, piece.coord
    col = dict(zip(keys, piece.col))
    row = _reduce_row(piece.basis, {col[k]: c for k, c in vec.items()}, mod.ctx.ring.field.p)
    return {keys[coord[c]]: x for c, x in row.items()}


def _from_module_rows(mod) -> FiniteLengthRealization:
    """`from_module` over an artinian context: the degree-d basis is the
    non-pivot coordinates of the relation echelon, and the action of x_v
    on a basis element is its multiple in R (the ring realization's
    action column) reduced by the echelon one weight up.  No Groebner
    basis is built."""
    ctx = mod.ctx
    p = ctx.ring.field.p
    ring_real = FiniteLengthRealization.of_ring(ctx)
    free = {d: _echelon(mod, d) for d in mod._finite_hf()}
    coords = {d: piece.free_coords() for d, piece in free.items()}
    actions = {}
    for v, w in enumerate(ctx.ring.weights):
        for d, piece in free.items():
            up = free.get(d + w)
            if up is None:
                continue
            pos = {up.col[i]: r for r, i in enumerate(coords[d + w])}
            cols = []
            for i in coords[d]:
                j = bisect_right(piece.offsets, i) - 1
                col = ring_real.action_columns(v, d - mod.row_twists[j])[i - piece.offsets[j]]
                img = {up.col[up.offsets[j] + r]: x for r, x in col.items()}
                cols.append({pos[k]: x for k, x in _reduce_row(up.basis, img, p).items()})
            actions[(v, d)] = cols
    return FiniteLengthRealization(ctx, {d: len(c) for d, c in coords.items()}, actions)


def _map_kernel(
    ctx: RingCtx, cols, twists, target, seed=None
) -> tuple[list[dict], list[int], dict[int, int]]:
    """Minimal generators of {x in F : sum_s x_s cols[s] = 0 in target},
    F = (+) R(-twists[s]), over an artinian context, modulo the relation
    span of `seed` (a module presented on F) when it is given, their
    degrees, and the Hilbert function of that kernel modulo the seed
    (`kernel_generators` over the ring's realization, its generators
    packed as vectors of F by `_packed`).

    The degree-d matrix is the span matrix of `cols` (`_span_rows`), each
    column reduced copy by copy by the target's relation echelon
    (`_copy_pieces`: for a sum of shifted copies, its base's pieces), so
    its nullspace is the degree-d kernel.  The seed's degree-d relation
    echelon rows, copy by copy (`_copy_pieces`; a module that is no sum
    is one copy of itself), seed `kernel_generators`' span, whose check
    then also asserts that they lie in the kernel.
    """
    if not twists:
        return [], [], {}
    p = ctx.ring.field.p
    at = _span_rows(ctx, target.row_twists, cols, twists)

    def reduced_at(d):
        rows = at(d)
        for off, piece in _copy_pieces(target, d):
            _reduce_columns(rows, piece.basis, piece.coord, off, p)
        return rows

    def seed_at(d):
        out = []
        for off, piece in _copy_pieces(seed, d):
            coord = piece.coord
            out += ({off + coord[c]: x for c, x in row.items()} for row in piece.basis.values())
        return out

    degrees = range(min(twists), max(twists) + ctx.top_degree + 1)
    real = FiniteLengthRealization.of_ring(ctx)
    seeded = seed is not None and bool(seed.columns)
    gens, degs, dims = kernel_generators(
        real, twists, reduced_at if target.columns else at, degrees, seed_at if seeded else None
    )
    return _packed(ctx, twists, gens, degs), degs, dims


def _packed(ctx: RingCtx, twists: Sequence[int], gens, degs) -> list[dict]:
    """Kernel vectors of a map out of F = (+) R(-twists[s]), as
    `kernel_generators` returns them over the ring's realization, as
    packed vectors of F: coordinate i of copy s in degree d is the i-th
    monomial of `ctx.std_monomials(d - twists[s])` in component s."""
    mkey = ctx.codec.mkey
    keys_at: dict[int, list[int]] = {}
    out = []
    for u, d in zip(gens, degs):
        keys = keys_at.get(d)
        if keys is None:
            keys = keys_at[d] = [
                mkey(m, s) for s, a in enumerate(twists) for m in ctx.std_monomials(d - a)
            ]
        out.append({keys[k]: u[k] for k in sorted(u)})
    return out


def kernel_generators(
    real: FiniteLengthRealization, twists: Sequence[int], matrix_at, degrees, seed=None
) -> tuple[list[dict], list[int], dict[int, int]]:
    """Minimal generators of the kernel of a degree-zero linear map out of
    X = (+) V(-twists[s]), V the finite-length module the realization
    `real` realizes, given by its degree-d matrix `matrix_at(d)` as sparse
    rows over X_d; with `seed(d)` (sparse rows over X_d spanning the
    degree-d part of a submodule of the kernel), minimal generators
    modulo that submodule.  Also returns each generator's degree, the
    degree of the walk that found it, and the dimension of the kernel
    modulo that submodule in each degree walked, where it is nonzero: the
    Hilbert function of the module the generators generate, when
    `degrees` covers X.  Over the ring's realization X is a free module;
    over a module N's, X is a term of a Hom or tensor complex into N.

    X_d lists copy after copy, each piece V_{d - twists[s]} in `real`'s
    basis order, and a generator is a sparse vector over those
    coordinates (`_packed` turns them into vectors of a free module).
    Walks `degrees` upward (they must include every degree of X up to the
    last kernel generator).  In each one the kernel is `nullspace_rows`,
    and the new generators are the kernel vectors, in order, that extend
    the span of the seed rows and the variable multiples of the kernels
    one weight below (graded Nakayama, through `insert_row`).  The seed
    rows go in first, so the rank of their span is the number of them
    that add a pivot, and the degree-d dimension is the kernel's minus
    that rank.

    Two eliminations are skipped because their outcome is already fixed,
    so the generators and the check are those of the full walk.  In a
    degree with no seed rows and no nonzero multiples every kernel vector
    is a generator: each has its own unit free column, so they are
    independent and the check holds.  In a degree where the matrix is
    zero the kernel is all of X_d, so insertion stops once the span has
    dimension dim X_d: no later vector can extend it, and none can lie
    outside the kernel, so the check cannot fail there.
    """
    p = real.ctx.ring.field.p
    weights = real.ctx.ring.weights
    # d -> ((copy, index) label of each coordinate of X_d, kernel vectors)
    kernels: dict[int, tuple[list[tuple[int, int]], list[dict[int, int]]]] = {}
    out: list[dict[int, int]] = []
    degs: list[int] = []
    dims: dict[int, int] = {}

    def multiples(d, offsets):
        """The nonzero variable multiples, in X_d, of the kernel vectors
        one weight below."""
        for v, w in enumerate(weights):
            below_labels, below = kernels.get(d - w, ((), ()))
            for u in below:
                img: dict[int, int] = {}
                for k, c in u.items():
                    s, i = below_labels[k]
                    for r, x in real.action_columns(v, d - w - twists[s])[i].items():
                        r += offsets[s]
                        img[r] = img.get(r, 0) + c * x
                row = {r: x % p for r, x in img.items() if x % p}
                if row:
                    yield row

    for d in degrees:
        labels: list[tuple[int, int]] = []
        offsets: dict[int, int] = {}
        for s, a in enumerate(twists):
            n = real.dim(d - a)
            if n:
                offsets[s] = len(labels)
                labels += [(s, i) for i in range(n)]
        if not labels:
            continue
        rows = matrix_at(d)
        whole = not any(rows)
        K = nullspace_rows(rows, len(labels), p)
        kernels[d] = (labels, K)
        span = seed(d) if seed else []
        if not K and not span:
            continue
        images = multiples(d, offsets)
        if not span:
            first = next(images, None)
            if first is None:
                out += K
                degs += [d] * len(K)
                dims[d] = len(K)
                continue
            images = chain([first], images)
        # With `whole`, everything lies in K = X_d: insertion stops at `full`.
        full = len(K) if whole else -1
        basis: dict[int, dict[int, int]] = {}
        for row in span:
            if len(basis) == full:
                break
            insert_row(basis, row, p)
        if len(K) > len(basis):
            dims[d] = len(K) - len(basis)
        for row in images:
            if len(basis) == full:
                break
            insert_row(basis, row, p)
        for u in K:
            if len(basis) == full:
                break
            if insert_row(basis, dict(u), p):
                out.append(u)
                degs.append(d)
        # The seed rows and the multiples lie in the kernel exactly when
        # they span no more than the kernel vectors do.
        if len(basis) != len(K):
            raise InvariantViolation(
                "kernel not closed under the ring action, or a seed row outside it"
            )
    return out, degs, dims


def _minimal_generator_indices_rows(ctx, vecs, twists, modulo) -> list[int]:
    """`modules.minimal_generator_indices` on an artinian context, on rows.

    The same walk as the Groebner body: candidates by (degree, lead), and
    in degree d the relation echelon of the span of `modulo` and the kept
    lower-degree candidates (`_echelon_of`), extended by each candidate in
    turn (`insert_row`); a candidate is kept when it adds a pivot.  That
    is the pivot-column rule the Groebner body applies to normal forms,
    so the kept indices are the same.
    """
    p = ctx.ring.field.p
    live = [i for i, v in enumerate(vecs) if v]
    degs = {i: vec_degree(ctx, vecs[i], twists) for i in live}
    live.sort(key=lambda i: (degs[i], max(vecs[i])))
    modulo = [v for v in modulo if v]
    modulo_degs = [vec_degree(ctx, v, twists) for v in modulo]
    kept: list[int] = []
    for d, group in groupby(live, key=degs.__getitem__):
        span = modulo + [vecs[i] for i in kept]
        at = _span_rows(ctx, twists, span, modulo_degs + [degs[i] for i in kept]) if span else None
        piece = _echelon_of(ctx, twists, at, d)
        col = dict(zip(piece.keys, piece.col))
        basis = dict(piece.basis)
        for i in group:
            if insert_row(basis, {col[k]: c for k, c in reduce_vec_by_ideal(vecs[i], ctx).items()}, p):
                kept.append(i)
    return sorted(kept)


def _entry_blocks(ctx, cols) -> list[tuple[int, int, dict]]:
    """(sp, s, f) for each nonzero entry f of a matrix given by columns:
    f is the sp-th component of the s-th column."""
    return [(sp, s, f) for s, col in enumerate(cols) for sp, f in _component_entries(ctx, col)]


def _block_builder(nreal, blocks, row_tw, col_tw, sign):
    """Degree-d matrices, as a function of d, of a map between sums of
    shifted copies of the finite-length realization `nreal`.  Copy r of
    the target is N_{d + sign * row_tw[r]} in degree d, copy c of the
    source N_{d + sign * col_tw[c]}, and block (r, c, f) multiplies copy c
    by f into copy r.  Rows list the copies in order, each piece in
    `nreal`'s basis order.  A matrix comes as its list of rows, each a
    dict column -> nonzero coefficient, for `linalg`'s row kernels: the
    blocks are sums of monomial actions and nearly empty, so each is
    summed from the monomials' cached nonzero entries.

    Each degree reads `nreal`'s dimensions once per copy, and a block
    whose source or target copy is zero there is skipped before its
    polynomial is read.
    """
    p = nreal.ctx.ring.field.p
    dims = nreal.dims
    entries = nreal.monomial_entries

    def at(d):
        rows = [dims.get(d + sign * a, 0) for a in row_tw]
        cols = [dims.get(d + sign * a, 0) for a in col_tw]
        roff = [0, *accumulate(rows)]
        coff = [0, *accumulate(cols)]
        out: list[dict[int, int]] = [{} for _ in range(roff[-1])]
        for r, c, f in blocks:
            if not (rows[r] and cols[c]):
                continue
            r0, c0 = roff[r], coff[c]
            src = d + sign * col_tw[c]
            for mono, a in f.items():
                for i, k, v in entries(mono, src):
                    row = out[r0 + i]
                    x = (row.get(c0 + k, 0) + a * v) % p
                    if x:
                        row[c0 + k] = x
                    else:
                        del row[c0 + k]
        return out

    return at
