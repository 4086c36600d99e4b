"""Finitely presented graded modules over a quotient ring context.

A module is the cokernel of a graded map between free modules, recorded as
the degrees of the target's generators (`row_twists`, where degree a means
the summand R(-a)) plus one packed vector per relation column.  Columns are
kept reduced modulo the defining ideal and sorted, so equal presentations
compare equal term for term.

Degree bookkeeping used throughout: an entry in row j of a column of
degree d is a homogeneous polynomial of degree d - row_twists[j]; dualizing
a free module negates generator degrees; Hom(M, N) shifts copy j of N down
by M's j-th generator degree, and tensors add generator degrees.

Hom, tensor, duals and stable Hom have one construction each, over every
context, and Hom and tensor complexes one layout (`_hom_columns`).  Over
an artinian context the kernels, minimal generators, Hilbert functions
and normal forms behind them run on sparse GF(p) rows in `rows`, which
returns packed columns from which this module builds every
`PresentedModule`; elsewhere they run on Groebner bases.  Each step reads
the locus off its context; the Groebner bodies (`_kernel_generators_gb`,
`_minimal_generator_indices_gb`) run anywhere, as the tests' reference.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence

from .errors import InvariantViolation
from .groebner import (
    RingCtx,
    VectorGB,
    _lru_get,
    _tp_shift,
    _tp_sub,
    component_numerators,
    module_gb,
    reduce_vec_by_ideal,
    syzygies_for,
    tp_exact_quotient,
    tp_series,
    tp_value_at_one,
    twisted_numerator,
)
from .linalg import insert_row
from .poly import Polynomial
from .rows import (
    _component_entries,
    _echelon_hf,
    _echelon_normal_form,
    _map_kernel,
    _minimal_generator_indices_rows,
    vec_degree,
)


# -- packed vector helpers ---------------------------------------------------


def vec_from_entries(ctx: RingCtx, entries: Sequence[Polynomial]) -> dict:
    """Pack a column of polynomials (one per component) into a flat vector."""
    codec = ctx.codec
    out: dict[int, int] = {}
    for comp, f in enumerate(entries):
        for k, c in f.raw().items():
            out[codec.mkey(k, comp)] = c
    return out


def entries_from_vec(ctx: RingCtx, vec: dict, rank: int) -> list[Polynomial]:
    codec = ctx.codec
    raw: list[dict[int, int]] = [{} for _ in range(rank)]
    for k, c in vec.items():
        raw[codec.comp_of(k)][codec.mono_of(k)] = c
    return [Polynomial(ctx.ring, d) for d in raw]


def vec_poly_submul(dst: dict, f: dict[int, int], src: dict, ctx: RingCtx) -> dict:
    """dst -= f * src for a ring element f given as a monomial dict."""
    ring = ctx.ring
    p = ring.field.p
    codec = ctx.codec
    for mk, mc in f.items():
        delta = codec.delta(mk)
        for k, c in src.items():
            kk = k + delta
            v = (dst.get(kk, 0) - mc * c) % p
            if v:
                dst[kk] = v
            else:
                dst.pop(kk, None)
    return dst


def _freeze(vec: dict) -> tuple:
    return tuple(sorted(vec.items()))


class PresentedModule:
    """coker of a column family inside a graded free module over ctx.

    Callers inside the package pass `_reduced=True` for columns that are
    normal forms already, and `_degrees`, one per column, when they hold
    the columns' degrees (a kernel walk's generator degrees).  Those are
    then not read off the columns again, so the check that no column has
    a component beyond the row count is skipped too."""

    def __init__(
        self,
        ctx: RingCtx,
        row_twists: Sequence[int],
        columns: Iterable[dict] = (),
        *,
        _reduced: bool = False,
        _degrees: Sequence[int] | None = None,
    ):
        self.ctx = ctx
        self.row_twists = tuple(map(int, row_twists))
        p = ctx.ring.field.p
        columns = list(columns)
        given = [0] * len(columns) if _degrees is None else _degrees
        cols, degs = [], []
        for vec, deg in zip(columns, given, strict=True):
            if not _reduced:
                vec = reduce_vec_by_ideal(dict(vec), ctx)
            if not vec:
                continue
            inv = pow(vec[max(vec)], p - 2, p)
            if inv != 1:
                vec = {k: c * inv % p for k, c in vec.items()}
            cols.append(vec)
            degs.append(deg)
        if _degrees is None:
            try:
                # vec_degree indexes the row twists by each key's component
                degs = [vec_degree(ctx, v, self.row_twists) for v in cols]
            except IndexError:
                raise ValueError("column has a component beyond the row count") from None
        order = sorted(range(len(cols)), key=lambda i: (degs[i], max(cols[i])))
        self.columns = tuple(cols[i] for i in order)
        self.col_degrees = tuple(degs[i] for i in order)
        self._cache: dict = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_matrix(cls, ctx: RingCtx, rows, row_twists=None) -> "PresentedModule":
        """Build from a row-major matrix of polynomials (or parseable strings)."""
        ring = ctx.ring
        parsed: list[list[Polynomial]] = []
        for row in rows:
            out = []
            for e in row:
                if isinstance(e, str):
                    e = ring.parse(e)
                elif isinstance(e, int):
                    e = ring.constant(e)
                out.append(e)
            parsed.append(out)
        if not parsed:
            raise ValueError("need at least one row")
        ncols = {len(r) for r in parsed}
        if len(ncols) != 1:
            raise ValueError("ragged matrix")
        if row_twists is None:
            row_twists = (0,) * len(parsed)
        elif len(row_twists) != len(parsed):
            raise ValueError(f"need {len(parsed)} row twists, got {len(row_twists)}")
        cols = []
        for c in range(ncols.pop()):
            cols.append(vec_from_entries(ctx, [r[c] for r in parsed]))
        return cls(ctx, row_twists, cols)

    @classmethod
    def free(cls, ctx: RingCtx, twists: Sequence[int]) -> "PresentedModule":
        return cls(ctx, twists)

    @classmethod
    def ring_module(cls, ctx: RingCtx) -> "PresentedModule":
        return cls(ctx, (0,))

    @classmethod
    def zero(cls, ctx: RingCtx) -> "PresentedModule":
        return cls(ctx, ())

    @classmethod
    def residue_field(cls, ctx: RingCtx) -> "PresentedModule":
        gens = ctx.ring.gens()
        return cls(ctx, (0,), [vec_from_entries(ctx, [g]) for g in gens])

    # -- canonical identity ----------------------------------------------------

    def value_key(self) -> tuple:
        return (id(self.ctx), self.row_twists, tuple(_freeze(c) for c in self.columns))

    def __eq__(self, other) -> bool:
        return isinstance(other, PresentedModule) and other.value_key() == self.value_key()

    def __hash__(self) -> int:
        return hash(self.value_key())

    @property
    def rank0(self) -> int:
        return len(self.row_twists)

    def presentation_matrix(self) -> list[list[Polynomial]]:
        """The relation matrix, row j the j-th entries of the columns;
        each column is split into its entries once."""
        cols = [entries_from_vec(self.ctx, col, self.rank0) for col in self.columns]
        return [[entries[j] for entries in cols] for j in range(self.rank0)]

    def __repr__(self) -> str:
        return (
            f"PresentedModule({self.rank0} gens deg {list(self.row_twists)}, "
            f"{len(self.columns)} relations over {self.ctx!r})"
        )

    # -- relation-span data ------------------------------------------------------
    #
    # Over an artinian context the Hilbert function and normal forms are read
    # off a per-degree reduced echelon of the relation span
    # (`rows._echelon`), with no Groebner basis; elsewhere off `gb()`.

    def gb(self) -> VectorGB:
        hit = self._cache.get("gb")
        if hit is None:
            hit = module_gb(self.ctx, list(self.columns), self.rank0)
            self._cache["gb"] = hit
        return hit

    def normal_form(self, vec: dict) -> dict:
        """Groebner normal form of a free-cover vector modulo the relations
        (and the ideal); empty exactly when the vector is zero in the module.
        Over an artinian context it is read off the relation echelon of the
        vector's degree, which gives the same normal form."""
        if self.ctx.is_artinian:
            return _echelon_normal_form(self, reduce_vec_by_ideal(vec, self.ctx))
        return self.gb().reduce(vec)

    def hilbert_numerator(self) -> dict[int, int]:
        """Numerator of the Hilbert series over prod(1 - t^w), kept.  Off
        the artinian locus it is the relation span's twist-free component
        numerators (`_span_numerators`) twisted by `row_twists`."""
        hit = self._cache.get("numerator")
        if hit is None:
            if self.ctx.is_artinian:
                hit = self._finite_hf()
                for w in self.ctx.ring.weights:
                    hit = _tp_sub(hit, _tp_shift(hit, w))
            else:
                hit = twisted_numerator(_span_numerators(self), self.row_twists)
            self._cache["numerator"] = hit
        return hit

    def hilbert_function(self, degree: int) -> int:
        if self.is_finite_length():
            return self._cache["hf"].get(degree, 0)
        lo = min(self.row_twists, default=0)
        if degree < lo:
            return 0
        return tp_series(self.hilbert_numerator(), self.ctx.ring.weights, degree).get(
            degree, 0
        )

    def is_zero(self) -> bool:
        return not self.hilbert_numerator()

    def is_finite_length(self) -> bool:
        return self._finite_hf() is not None

    def _finite_hf(self) -> dict[int, int] | None:
        """Hilbert function, or None for infinite length: over an artinian
        context dim F_d minus the rank of the degree-d relation span
        (`rows._echelon_hf`), elsewhere the expanded Hilbert series."""
        if "hf" not in self._cache:
            if self.ctx.is_artinian:
                self._cache["hf"] = _echelon_hf(self)
            else:
                self._cache["hf"] = _finite_series(self.ctx, self.hilbert_numerator())
        return self._cache["hf"]

    def length(self) -> int | None:
        hf = self._finite_hf()
        return tp_value_at_one(hf) if hf is not None else None

    # -- elementary constructions ------------------------------------------------

    def shifted(self, s: int) -> "PresentedModule":
        """Same module with every generator degree raised by s (i.e. M(-s))."""
        out = PresentedModule(self.ctx, tuple(a + s for a in self.row_twists), (), _reduced=True)
        # Packed columns do not mention twists, so they carry over unchanged.
        out.columns = self.columns
        out.col_degrees = tuple(d + s for d in self.col_degrees)
        return out

    def direct_sum(self, other: "PresentedModule") -> "PresentedModule":
        if other.ctx is not self.ctx:
            raise ValueError("direct sum across different contexts")
        codec = self.ctx.codec
        r = self.rank0
        cols = list(self.columns)
        for vec in other.columns:
            cols.append({codec.mkey(codec.mono_of(k), codec.comp_of(k) + r): c for k, c in vec.items()})
        return PresentedModule(
            self.ctx, self.row_twists + other.row_twists, cols, _reduced=True,
            _degrees=self.col_degrees + other.col_degrees,
        )

    # -- minimal presentations -----------------------------------------------------

    def minimal_presentation(self) -> "PresentedModule":
        hit = self._cache.get("min")
        if hit is None:
            hit = _minimalize(self)
            hit._cache["min"] = hit
            self._cache["min"] = hit
        return hit

    def is_free(self) -> bool:
        return not self.minimal_presentation().columns


# Entries a context's span and resolution caches keep each.
CACHE_BOUND = 32


def _span_numerators(mod: PresentedModule) -> list[dict[int, int]]:
    """Per component c, the numerator of S / in(span)_c for mod's relation
    span, off the artinian locus.  The lead module in(span) depends on
    the span and the monomial order alone, so these are kept per context
    under "span", keyed by the rank and the set of columns (monic normal
    forms), at most `CACHE_BOUND` of them, least recently used dropped
    first: modules of one span share them, whatever their twists.  A miss
    reads `gb()` if mod holds one, else a basis built and not kept."""
    def build():
        gbv = mod._cache.get("gb")
        if gbv is None:
            gbv = module_gb(mod.ctx, list(mod.columns), mod.rank0)
        return component_numerators(mod.ctx, gbv, mod.rank0)

    span = (mod.rank0, frozenset(frozenset(c.items()) for c in mod.columns))
    return _lru_get(mod.ctx.scratch.setdefault("span", {}), span, build, CACHE_BOUND)


def _finite_series(ctx: RingCtx, num: dict[int, int]) -> dict[int, int] | None:
    """Hilbert function of a series num / prod(1 - t^w), or None when the
    division is not exact (infinite length)."""
    hf = num
    for w in ctx.ring.weights:
        hf = tp_exact_quotient(hf, w)
        if hf is None:
            return None
    if any(c < 0 for c in hf.values()):
        raise InvariantViolation("negative graded dimension")
    return hf


def _minimalize(mod: PresentedModule) -> PresentedModule:
    """The relations' constant parts go into one GF(p) echelon keyed by
    component (`insert_row`); the generators at its non-pivot components
    span M / mM, so they generate M minimally.  If that is all of them,
    a minimal subfamily of the relations is kept
    (`minimal_generator_indices`); otherwise `_submodule` presents M on
    them."""
    ctx, codec, unit = mod.ctx, mod.ctx.codec, mod.ctx.ring.unit_key
    basis: dict[int, dict[int, int]] = {}
    for vec in mod.columns:
        const = {codec.comp_of(k): c for k, c in vec.items() if codec.mono_of(k) == unit}
        insert_row(basis, const, ctx.ring.field.p)
    if not basis:
        keep = minimal_generator_indices(ctx, list(mod.columns), mod.rank0, mod.row_twists)
        return PresentedModule(
            ctx, mod.row_twists, [mod.columns[i] for i in keep], _reduced=True,
            _degrees=[mod.col_degrees[i] for i in keep],
        )
    kept = [j for j in range(mod.rank0) if j not in basis]
    gens = [{codec.mkey(unit, j): 1} for j in kept]
    return _submodule(gens, tuple(mod.row_twists[j] for j in kept), mod)


def _submodule(gens, degs, target: PresentedModule, hf=None) -> PresentedModule:
    """The submodule of `target` generated by `gens` (of degrees `degs`,
    minimal modulo target's relations), presented by minimal generators
    of the kernel of the free module on `degs` onto it
    (`_kernel_generators`): its own minimal presentation.  `hf`, its
    Hilbert function when the caller knows it, is kept."""
    ctx = target.ctx
    rels, rel_degs, _ = _kernel_generators(gens, PresentedModule.free(ctx, degs), target)
    out = PresentedModule(ctx, degs, rels, _reduced=True, _degrees=rel_degs)
    out._cache["min"] = out
    if hf is not None:
        out._cache["hf"] = dict(hf)
    return out


def _kernel_generators(
    cols: Sequence[dict], src: PresentedModule, tgt: PresentedModule
) -> tuple[list[dict], tuple[int, ...], dict[int, int] | None]:
    """(generators, their degrees, Hilbert function) of the kernel of the
    map src -> tgt whose j-th generator goes to cols[j], generators
    minimal modulo src's relations.

    Over an artinian context it is `rows._map_kernel` modulo the source
    relations, whose walk also checks that those relations lie in the
    kernel and gives the kernel's Hilbert function modulo them, and each
    generator's degree is the degree of the walk that found it.
    Elsewhere it is `_kernel_generators_gb`.  A resolution step is this
    map between free modules, and `_submodule`'s relations are this map
    from a free module: the one kernel-generator step."""
    if not src.ctx.is_artinian:
        return _kernel_generators_gb(cols, src, tgt)
    gens, degs, hf = _map_kernel(src.ctx, cols, src.row_twists, tgt, seed=src)
    return gens, tuple(degs), hf


def _kernel_generators_gb(cols, src, tgt) -> tuple:
    """Groebner body of `_kernel_generators`: the syzygies of [cols |
    target relations], cut to the source components, generate the
    kernel, and a minimal subfamily modulo the source relations is kept;
    the Hilbert function is None and the degrees are read off the
    generators.  It raises, as the row walk does, if a source relation
    pushed through cols is nonzero in tgt.  On an artinian context it is
    the tests' reference for the row walk, pruning included."""
    ctx = src.ctx
    for rel in src.columns:
        if tgt.normal_form(_combine_columns(ctx, cols, rel)):
            raise InvariantViolation("a source relation does not map to zero")
    m = src.rank0
    gens = _syzygy_heads(ctx, list(cols) + list(tgt.columns), tgt.rank0, m)
    keep = _minimal_generator_indices_gb(ctx, gens, m, src.row_twists, list(src.columns))
    gens = [gens[i] for i in keep]
    return gens, tuple(vec_degree(ctx, g, src.row_twists) for g in gens), None


def _syzygy_heads(ctx: RingCtx, fam, rank: int, m: int) -> list[dict]:
    """Generators of the syzygies of `fam` (members of a free module of
    rank `rank`), cut to their first m components; those that vanish
    there are dropped."""
    syz = syzygies_for(ctx, fam, rank)
    cut = ({k: c for k, c in s.items() if ctx.codec.comp_of(k) < m} for s in syz)
    return [v for v in cut if v]


def _neg(f: dict[int, int], p: int) -> dict[int, int]:
    """-f for a monomial dict or a packed vector."""
    return {k: p - c for k, c in f.items()}


def _combine_columns(ctx: RingCtx, columns: Sequence[dict], vec: dict) -> dict:
    """sum_j vec_j * columns[j]: the image of vec under the map whose j-th
    source generator goes to columns[j]."""
    out: dict[int, int] = {}
    for j, f in _component_entries(ctx, vec):
        vec_poly_submul(out, _neg(f, ctx.ring.field.p), columns[j], ctx)
    return out


def minimal_generator_indices(
    ctx: RingCtx,
    vecs: list[dict],
    rank: int,
    twists: Sequence[int],
    modulo: list[dict] | None = None,
) -> list[int]:
    """Indices of a minimal generating subfamily of `vecs` modulo `modulo`
    (no kept member lies in the span of the others plus `modulo`).

    Graded Nakayama, one degree at a time: candidates are walked by
    (degree, lead), and in degree d a candidate is kept when it is not in
    the degree-d part of the span of `modulo`, the kept lower-degree
    candidates and the earlier candidates of degree d.  Zero vectors are
    never kept.  The indices are returned in ascending order.  On an
    artinian context the degree-d parts are sparse GF(p) rows
    (`rows._minimal_generator_indices_rows`); elsewhere they are normal
    forms against a Groebner basis.  Both keep the same indices.
    """
    modulo = modulo or []
    if ctx.is_artinian:
        return _minimal_generator_indices_rows(ctx, vecs, twists, modulo)
    return _minimal_generator_indices_gb(ctx, vecs, rank, twists, modulo)


def _minimal_generator_indices_gb(ctx, vecs, rank, twists, modulo) -> list[int]:
    """Groebner body of `minimal_generator_indices`: in degree d, the normal
    form against a Groebner basis of the kept lower-degree candidates plus
    `modulo` is GF(p)-linear on the degree-d part of the free module, with
    kernel the degree-d part of that span, so the candidates whose normal
    forms are independent of the earlier ones' are exactly the new
    generators needed there.  The normal forms go, in order, into one
    echelon basis (`linalg.insert_row`), and a candidate is kept when its
    form adds a pivot: the lexicographically first independent set.
    """
    p = ctx.ring.field.p
    live = [i for i, v in enumerate(vecs) if v]
    degs = {i: vec_degree(ctx, vecs[i], twists) for i in live}
    live.sort(key=lambda i: (degs[i], max(vecs[i])))
    kept: list[int] = []
    gbv, basis_of = None, -1  # basis of the first `basis_of` kept plus modulo
    for _, group in groupby(live, key=degs.__getitem__):
        group = list(group)
        if basis_of != len(kept):
            span = [vecs[i] for i in kept] + modulo
            gbv = module_gb(ctx, span, rank) if span else None
            basis_of = len(kept)
        basis: dict[int, dict[int, int]] = {}
        for i in group:
            form = gbv.reduce(vecs[i]) if gbv else reduce_vec_by_ideal(vecs[i], ctx)
            if insert_row(basis, form, p):
                kept.append(i)
    return sorted(kept)


# -- duals, hom, tensor -------------------------------------------------------


def _dual_generators(mod: PresentedModule) -> tuple:
    """(X, functionals, degrees, Hilbert function or None) of Hom(M, R),
    the kernel of M's transposed relation matrix psi : X -> Y
    (`_hom_complex` against R), from one `_kernel_generators` walk kept
    on the module: `dual_module`, `stable_hom` and
    `resolution.negative_syzygy` all read it.  functionals[j] is the j-th minimal generator as a
    vector u over the free cover of M, with negated generator degrees,
    such that u . column = 0 mod I for every relation column."""
    hit = mod._cache.get("dual_gens")
    if hit is None:
        X, Y, psi_cols = _hom_complex(mod, PresentedModule.ring_module(mod.ctx))
        gens = _kernel_generators(psi_cols, X, Y)
        hit = mod._cache["dual_gens"] = (X, *gens)
    return hit


def dual_module(mod: PresentedModule) -> PresentedModule:
    """Hom(M, R), the submodule of X its functionals generate
    (`_dual_generators`, `_submodule`), as `subquotient` presents a
    kernel."""
    hit = mod._cache.get("dual")
    if hit is None:
        X, gens, degs, hf = _dual_generators(mod)
        hit = mod._cache["dual"] = _submodule(gens, degs, X, hf)
    return hit


def tensor_module(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    """a (x) b presented on pairs of generators, relations from both sides
    (`_tensor_columns`, `_sum_of_shifts`), minimized."""
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("tensor across different contexts")
    B = _sum_of_shifts(b, a.row_twists)
    cols = _tensor_columns(ctx, a.columns, b.rank0) + list(B.columns)
    return PresentedModule(ctx, B.row_twists, cols).minimal_presentation()


def subquotient(
    X: PresentedModule, in_cols: Sequence[dict], target: PresentedModule, out_cols: Sequence[dict]
) -> PresentedModule:
    """ker(out) / im(in) inside X, as a minimal presentation.

    `out_cols` are the columns of a map X -> target and `in_cols` are
    free-cover vectors of X lying in its kernel, so the map is defined on
    Q = X / im(in) and the subquotient is its kernel there.  X's columns
    are reduced modulo the ideal, and so are the callers' in_cols (the
    functionals of `stable_hom`, re-keyed normal forms).  Every Hom and
    stable Hom of the package is built this way, and so are duals:
    `dual_module` is the kernel of `_hom_complex` against R, with nothing
    to divide out, presented from its cached generators
    (`_dual_generators`).  The kernel comes minimally presented on both
    loci from two steps: minimal generators of the kernel modulo Q's
    relations (`_kernel_generators`), and the submodule of Q they
    generate, presented by the same step applied to them (`_submodule`).
    Both loci check that Q's relations lie in the kernel (the map is well
    defined on Q) and raise `InvariantViolation` otherwise.
    Over an artinian context this is degreewise linear algebra on sparse
    GF(p) rows with no Groebner basis: the map's columns are reduced by
    the target's relation echelon, the kernel is generated modulo the
    relation span of Q, a walk that makes the check, and its Hilbert
    function is read off that walk.  The direct route of
    `resolution.ext` / `tor` takes the same subquotient's dimensions on
    N's realization instead (`resolution._realized_homology`), where no
    relation is eliminated and no module is presented; the tests compare
    the two.
    """
    Q = PresentedModule(X.ctx, X.row_twists, list(X.columns) + list(in_cols), _reduced=True)
    gens, degs, hf = _kernel_generators(out_cols, Q, target)
    return _submodule(gens, degs, Q, hf)


def _sum_of_shifts(base: PresentedModule, shifts: Sequence[int]) -> PresentedModule:
    """Direct sum of copies of base, copy c shifted by shifts[c]: the
    module the iterated `direct_sum` gives, columns in the same order,
    built once.  Copy c's columns are base's with every component raised
    by c * base.rank0, of base's degrees plus shifts[c], sorted as the
    constructor sorts columns; base's are monic normal forms already, so
    nothing is re-derived.  The sum keeps (base, shifts) in its cache, so
    over an artinian context a row kernel into or out of it reads its
    relation echelon copy by copy off base's (`rows._copy_pieces`)."""
    r = base.rank0
    cols: list[dict] = []
    degs: list[int] = []
    for c, s in enumerate(shifts):
        # A packed key stores COMP_MASK - component in its low bits.
        cols += ({k - c * r: x for k, x in vec.items()} for vec in base.columns)
        degs += (d + s for d in base.col_degrees)
    out = PresentedModule(base.ctx, [a + s for s in shifts for a in base.row_twists])
    order = sorted(range(len(cols)), key=lambda i: (degs[i], max(cols[i])))
    out.columns = tuple(cols[i] for i in order)
    out.col_degrees = tuple(degs[i] for i in order)
    out._cache["sum_of"] = (base, tuple(shifts))
    return out


def _hom_columns(ctx: RingCtx, cols: Sequence[dict], nrows: int, rb: int) -> list[dict]:
    """Columns of Hom(d, N), N of rank rb, for the matrix d with columns
    `cols` and `nrows` rows: d transposed, slot sp * rb + t collecting entry
    (sp, s) into slot s * rb + t (N's t-th generator in copy s of N, as in
    `_sum_of_shifts`)."""
    codec = ctx.codec
    out: list[dict] = [{} for _ in range(nrows * rb)]
    for s, col in enumerate(cols):
        for k, c in col.items():
            mk, sp = codec.mono_of(k), codec.comp_of(k) * rb
            for t in range(rb):
                out[sp + t][codec.mkey(mk, s * rb + t)] = c
    return out


def _tensor_columns(ctx: RingCtx, cols: Sequence[dict], rb: int) -> list[dict]:
    """Columns of d (x) N, N of rank rb, for the matrix d with columns
    `cols`: column s * rb + t puts entry (sp, s) into slot sp * rb + t."""
    codec = ctx.codec
    out: list[dict] = []
    for col in cols:
        terms = [(codec.mono_of(k), codec.comp_of(k) * rb, c) for k, c in col.items()]
        out += ({codec.mkey(mk, sp + t): c for mk, sp, c in terms} for t in range(rb))
    return out


def _hom_complex(a: PresentedModule, b: PresentedModule):
    """(X, Y, psi_cols) with Hom(a, b) = ker(psi : X -> Y).

    X = Hom(F0(a), b) and Y = Hom(F1(a), b) are sums of shifted copies of
    b, and psi = Hom(d, b) precomposes with a's relation matrix d
    (`_hom_columns`).
    """
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("hom across different contexts")
    X = _sum_of_shifts(b, [-t for t in a.row_twists])
    Y = _sum_of_shifts(b, [-d for d in a.col_degrees])
    return X, Y, _hom_columns(ctx, a.columns, a.rank0, b.rank0)


def hom_module(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    key = ("hom", b.value_key())
    hit = a._cache.get(key)
    if hit is None:
        X, Y, psi_cols = _hom_complex(a, b)
        hit = subquotient(X, [], Y, psi_cols)
        a._cache[key] = hit
    return hit


def stable_hom(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    """Hom(a, b) modulo maps factoring through free modules.

    Those maps are the image of the evaluation u (x) n |-> (m |-> u(m) n)
    from Hom(a, R) (x) b, spanned over R by the vectors u (x) e_t of X (the
    functional u in the copy slots of b's t-th generator), so stable Hom
    is the kernel of psi on X modulo them.
    """
    X, Y, psi_cols = _hom_complex(a, b)
    functionals = _dual_generators(a)[1]
    return subquotient(X, _tensor_columns(a.ctx, functionals, b.rank0), Y, psi_cols)
