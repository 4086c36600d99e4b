"""Finite-length graded modules as explicit linear data.

A realization stores, for a module of finite length, the dimension of every
graded piece and the matrix of each variable's multiplication map between
consecutive pieces.  Everything downstream (Hom, tensor, duals, socles,
minimal generators) is then plain linear algebra over GF(p), with no
Groebner steps.  The two viewpoints convert both ways:
`FiniteLengthRealization.from_module` reads the piece bases and actions
off a module's relation span (the non-leads and normal forms), and
`to_presentation` rebuilds a minimal presentation by choosing generators
with Nakayama and cutting out the kernel of the induced cover.  Relations
of that cover live in degrees at most top(M) + max weight, because above
the generators every piece of a free module is spanned by variable
multiples from one weight below.

A free module F = (+) R(-a_s) over an artinian context needs no
realization of its own: F_d is copy after copy of R_{d - a_s}, each in
`ctx.std_monomials` order, and the ring's realization acts on each copy.
`_block_builder` writes the degree-d matrix of any map between sums of
shifted copies of a realization as sparse rows; over the ring's own
realization that is a map between free modules.  `kernel_generators`
takes a degree-zero map out of such an F as those rows and returns
minimal generators of its kernel, all on rows (`linalg`).

A presented module M = F / U over an artinian context carries, per degree
and built on first use, the reduced row echelon form of U_d with the
coordinates of F_d ordered by descending packed key (`_echelon`).  Its
pivots are the Groebner leads of U in degree d and reducing by it gives
the Groebner normal form, so the Hilbert function (dim F_d minus the
rank), normal forms and `from_module` are read off it with no Groebner
basis.  `_map_kernel` reduces a map's degree-d columns by the target's
echelon and passes the nullspace to `kernel_generators`, seeded with the
source's echelon rows: that is `modules.ModuleMap.kernel` on artinian
contexts (`_kernel_rows`) and, with a free target, the linear resolution
engine.  Every kernel, dual, Hom and homology module over an artinian
ring, with its Hilbert function and realization, is built without a
Groebner basis.  `_minimal_generator_indices_rows` is the row body of
`modules.minimal_generator_indices`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, groupby
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolation
from .groebner import RingCtx, reduce_vec_by_ideal
from .linalg import (
    _insert_rows,
    _reduce_row,
    insert_row,
    matmul_mod,
    nullspace_mod,
    nullspace_rows,
    rank_mod,
    rref_mod,
    solve_mod,
)
from .modules import ModuleMap, PresentedModule, _split_entries, vec_degree
from .poly import Polynomial


class FiniteLengthRealization:
    """Graded pieces (dimensions) plus variable action matrices.

    `dims[d]` is the dimension of the degree-d piece (zero entries are
    dropped); `action(v, d)` is the matrix of multiplication by the v-th
    variable from degree d to degree d + weight(v), columns indexed by a
    fixed but unspecified basis of the source piece.
    """

    def __init__(self, ctx: RingCtx, dims: dict[int, int], actions: dict | None = None):
        self.ctx = ctx
        self.dims = {d: int(n) for d, n in dims.items() if n}
        self._act: dict[tuple[int, int], np.ndarray] = dict(actions or {})
        self._mono_act: dict[tuple[int, int], np.ndarray] = {}
        self._mono_nz: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self._act_cols: dict[tuple[int, int], list[dict[int, int]]] = {}

    # -- piece access ---------------------------------------------------------

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def is_zero(self) -> bool:
        return not self.dims

    @property
    def bottom(self) -> int | None:
        return min(self.dims) if self.dims else None

    @property
    def top(self) -> int | None:
        return max(self.dims) if self.dims else None

    def action(self, var: int, d: int) -> np.ndarray:
        key = (var, d)
        hit = self._act.get(key)
        if hit is None:
            w = self.ctx.ring.weights[var]
            hit = np.zeros((self.dim(d + w), self.dim(d)), dtype=np.int64)
            self._act[key] = hit
        return hit

    def action_columns(self, var: int, d: int) -> list[dict[int, int]]:
        """Columns of `action(var, d)` as sparse dicts row -> coefficient;
        cached, so callers copy a column before consuming it."""
        key = (var, d)
        hit = self._act_cols.get(key)
        if hit is None:
            mat = self.action(var, d)
            hit = [{} for _ in range(mat.shape[1])]
            nz_r, nz_c = np.nonzero(mat)
            for i, j, c in zip(nz_r.tolist(), nz_c.tolist(), mat[nz_r, nz_c].tolist()):
                hit[j][i] = c
            self._act_cols[key] = hit
        return hit

    def monomial_action(self, mono: int, d: int) -> np.ndarray:
        """Matrix of multiplication by a packed ring monomial from degree d."""
        ring = self.ctx.ring
        if mono == ring.unit_key:
            return np.eye(self.dim(d), dtype=np.int64)
        key = (mono, d)
        hit = self._mono_act.get(key)
        if hit is not None:
            return hit
        exps = ring.decode_monomial(mono)
        v = next(i for i, e in enumerate(exps) if e)
        rest = list(exps)
        rest[v] -= 1
        sub = ring.encode_monomial(tuple(rest))
        inner = self.monomial_action(sub, d)
        out = matmul_mod(
            self.action(v, d + ring.mono_degree(sub)), inner, self.ctx.ring.field.p
        )
        self._mono_act[key] = out
        return out

    def monomial_entries(self, mono: int, d: int) -> list[tuple[int, int, int]]:
        """Nonzero entries (row, column, value) of `monomial_action(mono, d)`;
        cached."""
        key = (mono, d)
        hit = self._mono_nz.get(key)
        if hit is None:
            mat = self.monomial_action(mono, d)
            nz_r, nz_c = np.nonzero(mat)
            hit = list(zip(nz_r.tolist(), nz_c.tolist(), mat[nz_r, nz_c].tolist()))
            self._mono_nz[key] = hit
        return hit

    def poly_action(self, f_raw: dict[int, int], d: int, shift: int) -> np.ndarray:
        """Matrix of multiplication by a homogeneous f of degree `shift`."""
        p = self.ctx.ring.field.p
        out = np.zeros((self.dim(d + shift), self.dim(d)), dtype=np.int64)
        for mono, c in f_raw.items():
            out = (out + c * self.monomial_action(mono, d)) % p
        return out

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, ctx: RingCtx) -> "FiniteLengthRealization":
        return cls(ctx, {})

    @classmethod
    def from_module(cls, mod: PresentedModule) -> "FiniteLengthRealization":
        """Read the pieces off the module's relation span.

        The degree-d basis consists of the keys (generator j, standard
        monomial m) that are not Groebner leads, copy after copy; the action
        of a variable is the normal form of each basis element's multiple.
        Over an artinian context both come from the relation echelon
        (`_from_module_rows`), elsewhere from a Groebner basis
        (`_from_module_gb`); the two give identical realizations.
        """
        hit = mod._cache.get("real")
        if hit is None:
            if mod._finite_hf() is None:
                raise ValueError("module has infinite length")
            body = _from_module_rows if mod.ctx.is_artinian else _from_module_gb
            hit = mod._cache["real"] = body(mod)
        return hit

    @classmethod
    def of_ring(cls, ctx: RingCtx) -> "FiniteLengthRealization":
        hit = ctx.scratch.get("ring_real")
        if hit is None:
            if not ctx.is_artinian:
                raise ValueError("ring realization needs an artinian context")
            dims = dict(ctx._hf)
            actions = {}
            for v in range(ctx.ring.nvars):
                for d in range(ctx.top_degree + 1):
                    actions[(v, d)] = ctx.action_matrix(v, d)
            hit = cls(ctx, dims, actions)
            ctx.scratch["ring_real"] = hit
        return hit

    # -- derived data --------------------------------------------------------------

    def socle_profile(self) -> dict[int, int]:
        """dim of the socle (elements killed by every variable) per degree."""
        p = self.ctx.ring.field.p
        out = {}
        for d, n in self.dims.items():
            stacked = np.vstack([self.action(v, d) for v in range(self.ctx.ring.nvars)])
            r = rank_mod(stacked, p) if stacked.size else 0
            if n - r:
                out[d] = n - r
        return out

    def _materialize(self):
        for v in range(self.ctx.ring.nvars):
            for d in self.dims:
                self.action(v, d)

    def shifted(self, s: int) -> "FiniteLengthRealization":
        self._materialize()
        dims = {d + s: n for d, n in self.dims.items()}
        acts = {(v, d + s): m for (v, d), m in self._act.items()}
        return FiniteLengthRealization(self.ctx, dims, acts)

    def matlis_dual(self) -> "FiniteLengthRealization":
        """Graded vector-space dual: piece d becomes piece -d, actions
        become transposes one weight over."""
        weights = self.ctx.ring.weights
        dims = {-d: n for d, n in self.dims.items()}
        acts = {}
        for v, w in enumerate(weights):
            for d in self.dims:
                src = self.action(v, d)  # M_d -> M_{d+w}
                if src.size:
                    acts[(v, -d - w)] = src.T.copy()
        return FiniteLengthRealization(self.ctx, dims, acts)

    # -- back to a presentation ---------------------------------------------------

    def to_presentation(self) -> PresentedModule:
        """Minimal presentation built from generators chosen by Nakayama.

        In each degree the generators are the earliest unit vectors that
        extend the span of the variable images from below (`insert_row`);
        the relations are `kernel_generators` of the induced cover.
        """
        ctx = self.ctx
        p = ctx.ring.field.p
        if self.is_zero():
            return PresentedModule.zero(ctx)
        weights = ctx.ring.weights
        gens: list[tuple[int, int]] = []  # (degree, index of the unit vector)
        for d in self.degrees():
            basis: dict[int, dict[int, int]] = {}
            for v, w in enumerate(weights):
                for col in self.action_columns(v, d - w):
                    insert_row(basis, dict(col), p)
            gens += [(d, i) for i in range(self.dim(d)) if insert_row(basis, {i: 1}, p)]
        twists = tuple(d for d, _ in gens)

        def matrix_at(d: int) -> list[dict[int, int]]:
            # Column (s, m) of the cover is the monomial m acting on gen s.
            if not self.dim(d):
                return []
            rows: list[dict[int, int]] = [{} for _ in range(self.dim(d))]
            c = 0
            for a, i in gens:
                for m in ctx.std_monomials(d - a):
                    for r, x in enumerate(self.monomial_action(m, a)[:, i].tolist()):
                        if x:
                            rows[r][c] = x
                    c += 1
            return [r for r in rows if r]

        hi = (self.top or 0) + max(weights)
        degrees = range(min(twists), hi + 1)
        return PresentedModule(ctx, twists, kernel_generators(ctx, twists, matrix_at, degrees))


def _from_module_gb(mod: PresentedModule) -> FiniteLengthRealization:
    """`from_module` through the module's Groebner basis: basis keys are
    those no lead divides, and each action column is one normal form."""
    ctx = mod.ctx
    hf = mod._finite_hf()
    ring = ctx.ring
    codec = ctx.codec
    p = ring.field.p
    gbv = mod.gb()
    leads: list[list[int]] = [[] for _ in range(mod.rank0)]
    for vec in gbv:
        k = max(vec)
        leads[codec.comp_of(k)].append(codec.mono_of(k))
    divides = ring.mono_divides
    basis: dict[int, list[int]] = {}
    index: dict[int, dict[int, int]] = {}
    if hf:
        lo, hi = min(hf), max(hf)
        for d in range(lo, hi + 1):
            keys = []
            for j, tw in enumerate(mod.row_twists):
                for m in ctx.std_monomials(d - tw):
                    if not any(divides(L, m) for L in leads[j]):
                        keys.append(codec.mkey(m, j))
            if len(keys) != hf.get(d, 0):
                raise InvariantViolation(
                    f"piece basis size {len(keys)} != series value {hf.get(d, 0)}"
                )
            if keys:
                basis[d] = keys
                index[d] = {k: i for i, k in enumerate(keys)}
    dims = {d: len(ks) for d, ks in basis.items()}
    actions: dict[tuple[int, int], np.ndarray] = {}
    for v in range(ring.nvars):
        w = ring.weights[v]
        vkey = ring._var_keys[v]
        for d, keys in basis.items():
            tgt = index.get(d + w)
            if tgt is None:
                continue
            mat = np.zeros((len(tgt), len(keys)), dtype=np.int64)
            for col, k in enumerate(keys):
                shifted = k + codec.delta(vkey)
                red = gbv.reduce(reduce_vec_by_ideal({shifted: 1}, ctx))
                for kk, c in red.items():
                    mat[tgt[kk], col] = c
            actions[(v, d)] = mat % p
    return FiniteLengthRealization(ctx, dims, actions)


# -- relation echelons on the artinian locus -------------------------------------


class _Piece(NamedTuple):
    """Degree-d part of a module's relation echelon (`_echelon`).

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


def _echelon(mod: PresentedModule, d: int) -> _Piece:
    """The degree-d relation echelon of a module over an artinian context,
    built on first use and kept with the module.  Its rows are the columns
    of the `_block_builder` matrix of the relation columns over the ring's
    realization, eliminated with sparse pivoting (`linalg._insert_rows`)."""
    cache = mod._cache.setdefault("echelon", {})
    hit = cache.get(d)
    if hit is not None:
        return hit
    ctx = mod.ctx
    keys: list[int] = []
    offsets = []
    for j, a in enumerate(mod.row_twists):
        offsets.append(len(keys))
        keys += [ctx.codec.mkey(m, j) for m in ctx.std_monomials(d - a)]
    coord = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    col = [0] * len(keys)
    for c, i in enumerate(coord):
        col[i] = c
    span: dict[int, dict[int, int]] = {}
    if mod.columns and keys:
        at = cache.get("rows")
        if at is None:
            real = FiniteLengthRealization.of_ring(ctx)
            blocks = _entry_blocks(ctx, mod.columns)
            at = cache["rows"] = _block_builder(real, blocks, mod.row_twists, mod.col_degrees, -1)
        for r, row in enumerate(at(d)):
            for s, x in row.items():
                span.setdefault(s, {})[col[r]] = x
    basis = _insert_rows(span.values(), ctx.ring.field.p, reduced=True)
    hit = cache[d] = _Piece(keys, offsets, col, coord, basis)
    return hit


def _echelon_hf(mod: PresentedModule) -> dict[int, int]:
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


def _echelon_normal_form(mod: PresentedModule, vec: dict) -> dict:
    """Normal form of a homogeneous free-cover vector, already reduced
    modulo the ideal, against the relation echelon of its degree."""
    if not vec:
        return {}
    piece = _echelon(mod, vec_degree(mod.ctx, vec, mod.row_twists))
    keys, coord = piece.keys, piece.coord
    col = dict(zip(keys, piece.col))
    row = _reduce_row(piece.basis, {col[k]: c for k, c in vec.items()}, mod.ctx.ring.field.p)
    return {keys[coord[c]]: x for c, x in row.items()}


def _from_module_rows(mod: PresentedModule) -> FiniteLengthRealization:
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
    actions: dict[tuple[int, int], np.ndarray] = {}
    for v, w in enumerate(ctx.ring.weights):
        for d, piece in free.items():
            up = free.get(d + w)
            if up is None:
                continue
            pos = {up.col[i]: r for r, i in enumerate(coords[d + w])}
            mat = np.zeros((len(pos), len(coords[d])), dtype=np.int64)
            for c, i in enumerate(coords[d]):
                j = bisect_right(piece.offsets, i) - 1
                col = ring_real.action_columns(v, d - mod.row_twists[j])[i - piece.offsets[j]]
                img = {up.col[up.offsets[j] + r]: x for r, x in col.items()}
                for k, x in _reduce_row(up.basis, img, p).items():
                    mat[pos[k], c] = x
            actions[(v, d)] = mat
    return FiniteLengthRealization(ctx, {d: len(c) for d, c in coords.items()}, actions)


def _map_kernel(ctx: RingCtx, cols, twists, target: PresentedModule, seed=None) -> list[dict]:
    """Minimal generators of {x in F : sum_s x_s cols[s] = 0 in target},
    F = (+) R(-twists[s]), over an artinian context, modulo the relation
    span of `seed` (a module presented on F) when one is given.

    The degree-d matrix is `_block_builder`'s tor layout of `cols` over the
    ring's realization, each column reduced by the target's relation
    echelon, so its nullspace is the degree-d kernel.  The seed's echelon
    rows seed `kernel_generators`' span, whose check then also asserts that
    the seed's relations lie in the kernel.
    """
    if not twists:
        return []
    p = ctx.ring.field.p
    real = FiniteLengthRealization.of_ring(ctx)
    at = _block_builder(real, _entry_blocks(ctx, cols), target.row_twists, twists, -1)

    def reduced_at(d):
        piece = _echelon(target, d)
        if not piece.basis:
            return at(d)
        by_col: dict[int, dict[int, int]] = {}
        for r, row in enumerate(at(d)):
            for s, x in row.items():
                by_col.setdefault(s, {})[piece.col[r]] = x
        rows: dict[int, dict[int, int]] = {}
        for s, vec in by_col.items():
            for c, x in _reduce_row(piece.basis, vec, p).items():
                rows.setdefault(c, {})[s] = x
        return list(rows.values())

    def seed_at(d):
        piece = _echelon(seed, d)
        return [{piece.coord[c]: x for c, x in row.items()} for row in piece.basis.values()]

    degrees = range(min(twists), max(twists) + ctx.top_degree + 1)
    return kernel_generators(
        ctx, twists, reduced_at if target.columns else at, degrees,
        seed_at if seed is not None and seed.columns else None,
    )


def _kernel_rows(f: ModuleMap) -> tuple[PresentedModule, ModuleMap]:
    """`modules.ModuleMap.kernel` over an artinian context.  K's generators
    are `_map_kernel` of f modulo the source relations, and its relations
    are `_map_kernel` of the map from K's generators into the source: both
    are minimal, so K is its own minimal presentation."""
    ctx = f.ctx
    src = f.source
    gens = _map_kernel(ctx, f.columns, src.row_twists, f.target, seed=src)
    degs = tuple(vec_degree(ctx, g, src.row_twists) for g in gens)
    K = PresentedModule(ctx, degs, _map_kernel(ctx, gens, degs, src), _reduced=True)
    K._cache["min"] = K
    return K, ModuleMap(K, src, gens, check=False)


def kernel_generators(ctx: RingCtx, twists: Sequence[int], matrix_at, degrees, seed=None) -> list[dict]:
    """Minimal generators of the kernel of a degree-zero linear map out of
    F = (+) R(-twists[s]) over an artinian context, given by its degree-d
    matrix `matrix_at(d)` as sparse rows over F_d; with `seed(d)` (sparse
    rows over F_d spanning the degree-d part of a submodule of the
    kernel), minimal generators modulo that submodule.

    F_d lists copy after copy, each piece R_{d - twists[s]} in
    `ctx.std_monomials` order.  Walks `degrees` upward (they must include
    every degree of F up to the last kernel generator).  In each one the
    kernel is `nullspace_rows`, and the new generators are the kernel
    vectors, in order, that extend the span of the seed rows and the
    variable multiples of the kernels one weight below (graded Nakayama,
    through `insert_row`).
    """
    real = FiniteLengthRealization.of_ring(ctx)
    p = ctx.ring.field.p
    weights = ctx.ring.weights
    mkey = ctx.codec.mkey
    # d -> ((copy, index) label of each coordinate of F_d, kernel vectors)
    kernels: dict[int, tuple[list[tuple[int, int]], list[dict[int, int]]]] = {}
    out = []
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
        K = nullspace_rows(matrix_at(d), len(labels), p)
        kernels[d] = (labels, K)
        span = seed(d) if seed else []
        if not K and not span:
            continue
        basis: dict[int, dict[int, int]] = {}
        for row in span:
            insert_row(basis, row, p)
        for v, w in enumerate(weights):
            below_labels, below = kernels.get(d - w, ((), ()))
            for u in below:
                img: dict[int, int] = {}
                for k, c in u.items():
                    s, i = below_labels[k]
                    for r, x in real.action_columns(v, d - w - twists[s])[i].items():
                        r += offsets[s]
                        img[r] = img.get(r, 0) + c * x
                insert_row(basis, {r: x % p for r, x in img.items() if x % p}, p)
        for u in K:
            if insert_row(basis, dict(u), p):
                vec = {}
                for k in sorted(u):
                    s, i = labels[k]
                    vec[mkey(ctx.std_monomials(d - twists[s])[i], s)] = u[k]
                out.append(vec)
        # The seed rows and the multiples lie in the kernel exactly when
        # they span no more than the kernel vectors do.
        if len(basis) != len(K):
            raise InvariantViolation(
                "kernel not closed under the ring action, or a seed row outside it"
            )
    return out


def _minimal_generator_indices_rows(ctx, vecs, twists, modulo) -> list[int]:
    """`modules.minimal_generator_indices` on an artinian context, on rows.

    The same walk as the Groebner body: candidates by (degree, lead), and
    in degree d the relation echelon of the span of `modulo` and the kept
    lower-degree candidates, extended by each candidate in turn
    (`insert_row`); a candidate is kept when it adds a pivot.  That is the
    pivot-column rule the Groebner body applies to normal forms, so the
    kept indices are the same.
    """
    p = ctx.ring.field.p
    live = [i for i, v in enumerate(vecs) if v]
    degs = {i: vec_degree(ctx, vecs[i], twists) for i in live}
    live.sort(key=lambda i: (degs[i], max(vecs[i])))
    kept: list[int] = []
    for d, group in groupby(live, key=degs.__getitem__):
        piece = _echelon(PresentedModule(ctx, twists, modulo + [vecs[i] for i in kept]), d)
        col = dict(zip(piece.keys, piece.col))
        basis = dict(piece.basis)
        for i in group:
            if insert_row(basis, {col[k]: c for k, c in reduce_vec_by_ideal(vecs[i], ctx).items()}, p):
                kept.append(i)
    return sorted(kept)


def _entry_blocks(ctx, cols, first: int = 0) -> list[tuple[int, int, dict]]:
    """(sp, s, f) for each nonzero entry f of a matrix given by columns:
    f is the sp-th component of the s-th column, columns numbered from
    `first`."""
    return [
        (sp, s, f)
        for s, col in enumerate(cols, first)
        for sp, f in enumerate(_split_entries(ctx, col))
        if f
    ]


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
    """
    p = nreal.ctx.ring.field.p

    def at(d):
        rows = [nreal.dim(d + sign * a) for a in row_tw]
        cols = [nreal.dim(d + sign * a) for a in col_tw]
        roff = [0, *accumulate(rows)]
        coff = [0, *accumulate(cols)]
        out: list[dict[int, int]] = [{} for _ in range(roff[-1])]
        for r, c, f in blocks:
            if rows[r] and cols[c]:
                r0, c0 = roff[r], coff[c]
                for mono, a in f.items():
                    for i, k, v in nreal.monomial_entries(mono, d + sign * col_tw[c]):
                        row = out[r0 + i]
                        x = (row.get(c0 + k, 0) + a * v) % p
                        if x:
                            row[c0 + k] = x
                        else:
                            del row[c0 + k]
        return out

    return at


# -- binary constructions ------------------------------------------------------


def hom_realization(
    a: FiniteLengthRealization, b: FiniteLengthRealization
) -> FiniteLengthRealization:
    """Hom_R(a, b) as a realization.

    A degree-d element is a family of matrices phi_e : a_e -> b_{e+d}
    commuting with every variable action; the pieces are nullspaces of the
    assembled commutation constraints, and the variable actions postcompose
    with b's action and re-express in the chosen nullspace bases.
    """
    return _hom_realization_data(a, b)[0]


def _hom_realization_data(a, b):
    """hom_realization plus its ambient layouts and nullspace bases.

    layouts[d][e] is the offset of the phi_e block (rows b.dim(e+d) by
    a.dim(e), flattened with the target index major) inside the ambient
    degree-d coordinate space; bases[d] holds the chosen basis of the hom
    piece as columns over that space.
    """
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("hom across different contexts")
    p = ctx.ring.field.p
    weights = ctx.ring.weights
    if a.is_zero() or b.is_zero():
        return FiniteLengthRealization.zero(ctx), {}, {}
    adegs = a.degrees()
    dmin = b.bottom - a.top
    dmax = b.top - a.bottom

    layouts: dict[int, dict[int, int]] = {}
    totals: dict[int, int] = {}
    for d in range(dmin, dmax + 1):
        offs = {}
        u = 0
        for e in adegs:
            if b.dim(e + d):
                offs[e] = u
                u += b.dim(e + d) * a.dim(e)
        if u:
            layouts[d] = offs
            totals[d] = u

    bases: dict[int, np.ndarray] = {}
    for d, offs in layouts.items():
        u = totals[d]
        rows = []
        for v, w in enumerate(weights):
            for e in adegs:
                out_rows = b.dim(e + d + w) * a.dim(e)
                if not out_rows:
                    continue
                block = np.zeros((out_rows, u), dtype=np.int64)
                touched = False
                if e + w in offs and a.dim(e + w):
                    av = a.action(v, e)
                    seg = np.kron(np.eye(b.dim(e + d + w), dtype=np.int64), av.T)
                    o = offs[e + w]
                    block[:, o : o + b.dim(e + d + w) * a.dim(e + w)] = seg
                    touched = touched or av.any()
                if e in offs:
                    bv = b.action(v, e + d)
                    seg = np.kron(bv, np.eye(a.dim(e), dtype=np.int64))
                    o = offs[e]
                    block[:, o : o + b.dim(e + d) * a.dim(e)] = (
                        block[:, o : o + b.dim(e + d) * a.dim(e)] - seg
                    ) % p
                    touched = touched or bv.any()
                if touched:
                    rows.append(block % p)
        system = np.vstack(rows) if rows else np.zeros((0, u), dtype=np.int64)
        null = nullspace_mod(system, p)
        if null.shape[1]:
            bases[d] = null

    dims = {d: nb.shape[1] for d, nb in bases.items()}
    actions: dict[tuple[int, int], np.ndarray] = {}
    for v, w in enumerate(weights):
        for d, nb in bases.items():
            tb = bases.get(d + w)
            if tb is None:
                continue
            image = np.zeros((totals[d + w], nb.shape[1]), dtype=np.int64)
            offs_d = layouts[d]
            offs_t = layouts[d + w]
            for e, o_t in offs_t.items():
                rows_t = b.dim(e + d + w) * a.dim(e)
                if e not in offs_d:
                    continue
                bv = b.action(v, e + d)
                if not bv.size:
                    continue
                o_s = offs_d[e]
                rows_s = b.dim(e + d) * a.dim(e)
                seg = matmul_mod(
                    np.kron(bv, np.eye(a.dim(e), dtype=np.int64)),
                    nb[o_s : o_s + rows_s, :],
                    p,
                )
                image[o_t : o_t + rows_t, :] = seg
            coords = solve_mod(tb, image, p)
            if coords is None:
                raise InvariantViolation("variable action left the hom space")
            actions[(v, d)] = coords
    return FiniteLengthRealization(ctx, dims, actions), layouts, bases


def tensor_realization(
    a: FiniteLengthRealization, b: FiniteLengthRealization
) -> FiniteLengthRealization:
    """a (x)_R b as a realization.

    The ambient degree-d space is (+)_e a_e (x) b_{d-e}; dividing by the
    span of (x*u) (x) w - u (x) (x*w) leaves the tensor product over the
    ring.  Pieces are tracked as the non-pivot coordinates of that span's
    reduced echelon form.
    """
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("tensor across different contexts")
    p = ctx.ring.field.p
    weights = ctx.ring.weights
    if a.is_zero() or b.is_zero():
        return FiniteLengthRealization.zero(ctx)
    adegs = a.degrees()

    layouts: dict[int, dict[int, int]] = {}
    totals: dict[int, int] = {}
    for d in range(a.bottom + b.bottom, a.top + b.top + 1):
        offs = {}
        u = 0
        for e in adegs:
            if b.dim(d - e):
                offs[e] = u
                u += a.dim(e) * b.dim(d - e)
        if u:
            layouts[d] = offs
            totals[d] = u

    # Relation span, echelon data, and the projection to free coordinates.
    proj: dict[int, tuple[np.ndarray, list[int], np.ndarray]] = {}
    for d, offs in layouts.items():
        u = totals[d]
        cols = []
        for v, w in enumerate(weights):
            for e in adegs:
                ad, bd = a.dim(e), b.dim(d - w - e)
                if not (ad and bd):
                    continue
                # Columns indexed by basis pairs (i < ad, j < bd), row-major.
                block = np.zeros((u, ad * bd), dtype=np.int64)
                if e + w in offs:
                    av = a.action(v, e)  # a_{e+w} x a_e
                    seg = np.kron(av, np.eye(bd, dtype=np.int64))
                    o = offs[e + w]
                    block[o : o + a.dim(e + w) * bd, :] = seg
                if e in offs:
                    bv = b.action(v, d - w - e)  # b_{d-e} x b_{d-w-e}
                    seg = np.kron(np.eye(ad, dtype=np.int64), bv)
                    o = offs[e]
                    block[o : o + ad * b.dim(d - e), :] = (
                        block[o : o + ad * b.dim(d - e), :] - seg
                    ) % p
                if block.any():
                    cols.append(block % p)
        span = np.hstack(cols) if cols else np.zeros((u, 0), dtype=np.int64)
        red, piv = rref_mod(span.T, p)
        in_piv = np.zeros(u, dtype=bool)
        if piv:
            in_piv[np.array(piv)] = True
        free = np.nonzero(~in_piv)[0]
        proj[d] = (red[: len(piv), :], piv, free)

    def project(d: int, umat: np.ndarray) -> np.ndarray:
        red, piv, free = proj[d]
        if len(piv):
            umat = (umat - red.T @ umat[np.array(piv), :]) % p
        return umat[free, :]

    dims = {d: len(proj[d][2]) for d in proj if len(proj[d][2])}
    actions: dict[tuple[int, int], np.ndarray] = {}
    for v, w in enumerate(weights):
        for d in dims:
            if (d + w) not in proj or not len(proj[d + w][2]):
                continue
            free = proj[d][2]
            offs_d = layouts[d]
            offs_t = layouts[d + w]
            amb = np.zeros((totals[d + w], len(free)), dtype=np.int64)
            for col, flat in enumerate(free):
                # Locate (e, i, j) for the flat ambient index.
                e = max(ee for ee, off in offs_d.items() if off <= flat)
                i, j = divmod(flat - offs_d[e], b.dim(d - e))
                if e + w in offs_t:
                    av = a.action(v, e)
                    o = offs_t[e + w]
                    rows = av[:, i]
                    for ii, cval in enumerate(rows):
                        if cval:
                            amb[o + ii * b.dim(d - e) + j, col] = cval
            actions[(v, d)] = project(d + w, amb)
    return FiniteLengthRealization(ctx, dims, actions)


def dual_realization(a: FiniteLengthRealization) -> FiniteLengthRealization:
    """Hom(a, R): functionals into the ring itself."""
    return hom_realization(a, FiniteLengthRealization.of_ring(a.ctx))


def stable_hom_profile(a_mod: PresentedModule, b_mod: PresentedModule) -> dict[int, int]:
    """Graded dimensions of Hom(a, b) modulo maps factoring through frees.

    A map factors through a free module exactly when it lies in the image
    of the evaluation pairing Hom(a, R) (x) b -> Hom(a, b) sending u (x) n
    to m -> u(m) n, so the stable dimension in each degree is the hom piece
    minus the rank of those evaluation columns.  Everything happens on the
    realizations; no Groebner work beyond building them once.
    """
    ctx = a_mod.ctx
    if b_mod.ctx is not ctx:
        raise ValueError("stable hom arguments live over different contexts")
    key = ("sthom_prof", b_mod.value_key())
    hit = a_mod._cache.get(key)
    if hit is not None:
        return dict(hit)
    p = ctx.ring.field.p
    A = FiniteLengthRealization.from_module(a_mod)
    B = FiniteLengthRealization.from_module(b_mod)
    H, hlay, hbases = _hom_realization_data(A, B)
    out: dict[int, int] = {}
    if not H.is_zero():
        R = FiniteLengthRealization.of_ring(ctx)
        U, ulay, ubases = _hom_realization_data(A, R)
        for d in H.degrees():
            offs = hlay[d]
            basis = hbases[d]
            cols = []
            for f, ub in ubases.items():
                bn = B.dim(d - f)
                if not bn:
                    continue
                uoffs = ulay[f]
                nu = ub.shape[1]
                block = np.zeros((basis.shape[0], nu * bn), dtype=np.int64)
                placed = False
                for e, o in offs.items():
                    if e not in uoffs:
                        continue  # every functional vanishes on a_e
                    ad, bd_out = A.dim(e), B.dim(e + d)
                    re = R.dim(e + f)
                    uo = uoffs[e]
                    ue = ub[uo : uo + re * ad, :].reshape(re, ad, nu)
                    acts = np.stack(
                        [B.monomial_action(m, d - f) for m in ctx.std_monomials(e + f)]
                    )
                    phi = np.einsum("rmu,rbn->bmun", ue, acts) % p
                    block[o : o + bd_out * ad, :] = phi.reshape(bd_out * ad, nu * bn)
                    placed = True
                if placed:
                    cols.append(block)
            if cols:
                coords = solve_mod(basis, np.hstack(cols) % p, p)
                if coords is None:
                    raise InvariantViolation("evaluation image left the hom space")
                stable = H.dim(d) - rank_mod(coords, p)
            else:
                stable = H.dim(d)
            if stable:
                out[d] = stable
    a_mod._cache[key] = dict(out)
    return out


def matlis_dual_module(mod: PresentedModule) -> PresentedModule:
    """Graded Matlis dual of a finite-length module, as a presentation.

    Pieces transpose and degrees negate, so the result of applying this
    twice is the original module again (up to canonical presentation).
    """
    hit = mod._cache.get("matlis")
    if hit is None:
        hit = FiniteLengthRealization.from_module(mod).matlis_dual().to_presentation()
        mod._cache["matlis"] = hit
    return hit


def socle_module(ctx: RingCtx) -> PresentedModule:
    """The socle of the ring as an abstract module: one residue-field copy
    per socle dimension, placed in the socle degrees."""
    twists: list[int] = []
    for d, s in sorted(FiniteLengthRealization.of_ring(ctx).socle_profile().items()):
        twists.extend([d] * s)
    ring = ctx.ring
    cols = []
    for j in range(len(twists)):
        for v in range(ring.nvars):
            cols.append({ctx.codec.mkey(ring._var_keys[v], j): 1})
    return PresentedModule(ctx, tuple(twists), cols)


def socle_generators(ctx: RingCtx) -> list[Polynomial]:
    """Polynomials spanning the socle of the ring, lowest degree first."""
    real = FiniteLengthRealization.of_ring(ctx)
    out = []
    for d, cnt in sorted(real.socle_profile().items()):
        std = ctx.std_monomials(d)
        weights = ctx.ring.weights
        blocks = [real.action(v, d) for v in range(ctx.ring.nvars) if real.dim(d + weights[v])]
        if blocks:
            basis = nullspace_mod(np.vstack(blocks), ctx.ring.field.p)
        else:
            basis = np.eye(real.dim(d), dtype=np.int64)
        # std_monomials lists descending; realization bases follow that order.
        for c in range(basis.shape[1]):
            raw = {std[i]: int(basis[i, c]) for i in range(len(std)) if basis[i, c]}
            out.append(Polynomial(ctx.ring, raw))
    return out
