"""Minimal free resolutions and the derived-functor calculator on top.

A `Resolution` is grown lazily one syzygy step at a time.  Each step
takes minimal generators of the kernel of the previous differential, a
map between free modules, with `modules._kernel_generators`, the
generator half of `ModuleMap.kernel`: over an artinian context on sparse
rows (`rows._map_kernel`, degreewise linear algebra that picks a
complement of the image of the kernels below, building the degree-d
matrix of d_n with `rows._block_builder`, the builder the degreewise
derived functors use too), elsewhere as pruned syzygies
(`modules._kernel_generators_gb`).  Both choose generators by graded
Nakayama, degree by degree, so resolutions are minimal and ranks are
Betti numbers as computed.  Off the artinian locus a step that Hilbert
series decide runs no syzygy computation (`_certified_step`): each
resolution keeps HS(Omega_0), HS(Omega_1), ... (`_syzygy_series`), a
zero kernel series ends the resolution wherever HS(M) is known, and a
cyclic module whose one or two relations form a regular sequence, which
its Hilbert series tests, is resolved by its Koszul complex.  Over a
hypersurface, a context whose ideal has a one-element Groebner basis
{f}, a resolution of infinite length ends in a matrix factorization of f
(Eisenbud, Trans. AMS 260, 1980): a step where three neighbouring terms
have one rank tests for it (`_matrix_factorization`), and once it is
found every later step is served by a shift of deg f, with no
computation.

Derived functors come by two routes that share no homology code.  Each
route has one body for both functors, keyed by kind ("ext" or "tor"), and
returns dimensions only (`ExtTorResult`):

* The direct route, `ext` / `tor` (`_direct_modules`), resolves the
  first argument and takes the homology of the induced Hom or tensor
  complex X as subquotients: the value at i is the kernel of the
  outgoing map on X_i modulo the incoming image, and no module is
  presented.  Each term X_j is built once per call.  Over an artinian
  context the graded dimensions come from the row-kernel walk that finds
  the kernel's generators (`rows._map_kernel`), reading X_j copy by copy
  off N's relation echelons; elsewhere from Hilbert series, HS(Q) minus
  HS(Q modulo the kernel's unpruned generators), Q = X_i / im(in).
* The complete route, `ext_via_complete` / `tor_via_complete`
  (`_via_complete`), passes through a high syzygy and its dual and reads
  each functor off the opposite one, through `derived_dims` on both
  loci.  It is only valid over a Gorenstein context for maximal
  Cohen-Macaulay input, in a window of indices determined by how far the
  syzygy was taken.  `derived_dims` builds no homology module and has
  one body on both loci: with C_j the series of X_j modulo the image of
  the map into it (`_coker_series`), the value at i has series
  C_i + C_o - HS(X_o), o the index its outgoing map leads to, read as
  None when it has infinite length.  The locus picks only how C_j is
  built and how series are held: over an artinian context C_j is a
  Hilbert function, dim X_j minus ranks of degreewise matrices, and for
  tor, while F_{j+1} is not built, HS(Omega_j (x) N) read off d_j and
  N's relation echelon, with HS(Omega_j) kept per resolution, so
  `derived_dims` reads Tor_i without F_{i+1};
  elsewhere it is a Hilbert numerator, from one Groebner basis shared by
  every cokernel with the same span, whatever its twists.  C_j lives
  with the resolution of M, one memo per N (`_derived_memo`), so
  neighbouring indices of a scan share it and it goes when the
  resolution does.  Past the seam of a periodic tail each value is the
  one two indices below, shifted, so over a hypersurface a scan costs
  about as much at H = 320 as at H = 10.  `ext_profile` / `tor_profile`
  are `derived_dims` refusing infinite length; the scans and depth tests
  use it too.

Both routes check the complex, so a broken differential raises instead
of giving wrong values: off the artinian locus `_check_square_zero`
checks that the two maps at i compose to zero; on it the direct route's
kernel walk does, and `derived_dims` refuses a negative dimension.
Ext and Tor differ only in twist sign, degree window and which
neighbouring differential is outgoing; `_step_cols` lays out their
free-cover columns with `modules._hom_columns` or `_tensor_columns`, and
one degreewise matrix builder (`_matrix_builder`, a layout over
`_block_builder`) serves both.

Agreement of the two routes on their common range is a regression anchor,
not an implementation convenience: they must stay independent.

Negative indices are served by `CompleteResolution`, which splices the
resolution of the dual module (transposed) onto the positive half through
an explicit pairing differential in homological degree zero.

Resolutions are shared per context (`resolution_of`), and so are the
twist-free numerators of cokernel spans (`_coker_series`) and, over an
artinian context, the resolution steps themselves (`Resolution._step`: a
step is keyed by its differential and its twists relative to the lowest
twist of the target, so syzygy tails that modules share, and resolutions
that repeat themselves up to a shift, such as R/(x) over (x^2, y^2),
take each step once), each in a cache of at most `CACHE_BOUND` entries
that drops the least recently used one.  A complete resolution is not
cached: it looks up both halves through `resolution_of`.  A resolution
owns everything derived from it (differentials, syzygy modules, the
derived-functor memo), and nothing outside its cache refers to it, so
dropping it frees all of that: a long search holds a bounded number of
resolutions, and one it needs again is recomputed, identically.  The
step memo holds columns and twists only, never a resolution.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import accumulate
from typing import Iterable

from .errors import HypothesisNotMet, InvariantViolation, ResourceCapError
from .groebner import (
    RingCtx,
    _lru_get,
    _tp_add,
    _tp_sub,
    component_numerators,
    module_gb,
    reduce_vec_by_ideal,
    twisted_numerator,
)
from .linalg import _insert_rows
from .modules import (
    PresentedModule,
    _combine_columns,
    _dual_generators,
    _finite_series,
    _hom_columns,
    _kernel_generators,
    _sum_of_shifts,
    _syzygy_heads,
    _tensor_columns,
    dual_module,
)
from .rows import (
    FiniteLengthRealization,
    _block_builder,
    _echelon,
    _entry_blocks,
    _map_kernel,
)


# -- resolutions ---------------------------------------------------------------

# Entries each of a context's caches keeps (resolutions, cokernel
# numerators, resolution steps); past this many the least recently used
# one is dropped.
CACHE_BOUND = 32


def _cached(ctx: RingCtx, name: str, key, build):
    """`ctx.scratch[name][key]`, made by `build()` on a miss, in a cache of
    at most `CACHE_BOUND` entries that drops the least recently used one
    (`groebner._lru_get`)."""
    return _lru_get(ctx.scratch.setdefault(name, {}), key, build, CACHE_BOUND)


def _syzygy_step(ctx, cols, cur, prev):
    """Canonical minimal generators of the kernel of the map F -> G, F and
    G free on the twists `cur` and `prev`, sending F's j-th generator to
    cols[j], with their degrees: the columns of the syzygy module
    `PresentedModule` presents on them (monic, sorted by degree and
    lead); both empty when the map is injective."""
    src, tgt = PresentedModule(ctx, cur), PresentedModule(ctx, prev)
    gens, degs, _ = _kernel_generators(cols, src, tgt)
    syz = PresentedModule(ctx, cur, gens, _reduced=True, _degrees=degs)
    return list(syz.columns), syz.col_degrees


def _certified_step(res, n):
    """The step from d_n, as `_syzygy_step` returns it, when Hilbert series
    decide it off the artinian locus, else None.  The kernel of d_n is
    Omega_{n+1}, whose series `_syzygy_series` reads off HS(M) and the
    Betti numbers, so wherever HS(M) is known a zero kernel series proves
    d_n injective: pd = n, with no syzygy computation.

    For a cyclic M = R(-a)/(g_1[, g_2]), with relations of degrees d_i,
    HS(M) is read at n = 1 (`hilbert_numerator`, one plain Groebner basis
    of M).  The g_i form a regular sequence on R exactly when HS(M) =
    t^a HS(R) prod(1 - t^{d_i - a}) (Stanley, Adv. Math. 28, 1978), that
    is when HS(Omega_2) is 0 for one relation and t^{d_1 + d_2 - a} HS(R)
    for two.  The Koszul complex then resolves M: the kernel of
    (g_1, g_2) is free on the one column (g_2, -g_1), and its part of
    degree d_1 + d_2 - a is one-dimensional, so the monic form of that
    column is the one a Groebner step finds; the next kernel series is
    zero.
    Numerators can keep coefficients that cancelled to zero, so series
    are compared by their nonzero coefficients."""
    mod = res.module
    cyclic = n == 1 and mod.rank0 == 1 and len(mod.columns) <= 2
    if not cyclic and "numerator" not in mod._cache:
        return None
    kernel = _syzygy_series(res, n + 1)
    if not any(kernel.values()):
        return [], ()
    if not cyclic or len(mod.columns) == 1:
        return None
    ctx = res.ctx
    (a,), (d1, d2) = mod.row_twists, mod.col_degrees
    if any(_tp_sub(kernel, _shifted_sum(ctx.numerator, [d1 + d2 - a])).values()):
        return None
    g1, g2 = mod.columns
    codec, p = ctx.codec, ctx.ring.field.p
    col = dict(g2)  # R^1 keys are component 0 keys
    col.update((codec.mkey(codec.mono_of(k), 1), p - c) for k, c in g1.items())
    syz = PresentedModule(ctx, (d1, d2), [col], _reduced=True)
    return list(syz.columns), syz.col_degrees


def _matrix_factorization(ctx, d, e, prev, nxt):
    """The step d_{n+1} C^{-1} with its twists, as `_syzygy_step` returns a
    step, when d = d_n and e = d_{n+1}, between free modules of one rank
    on the twists `prev` (F_{n-1}) and `nxt` (F_{n+1}), lift to S with
    d e = f C for the one Groebner basis element f of the ideal and a
    constant invertible C; else None.  Then (d_n, d_{n+1} C^{-1}) is a
    matrix factorization of f, and its columns are indexed by F_{n-1}'s
    generators, each of F_{n-1}'s twist plus deg f.

    Columns are normal forms, so they are their own lifts.  A constant
    graded C maps F_{n+1} onto F_{n-1}(-deg f), so the twists must match
    first; the entries of d e then have degree at most max(nxt) -
    min(prev), which the degree cap must bound, since products are formed
    unchecked.  Each column of d e is f times a constant vector when its
    keys at f's lead give the vector and it equals that vector times f.
    C^{-1} is read off the reduced echelon form of [C^T | I]: C is
    invertible when every pivot lies in the C^T block, and the row with
    pivot r then holds the coefficients of the column of e C^{-1} at r."""
    (f,), (lead,) = ctx.ideal_gb, ctx.ideal_leads
    ring = ctx.ring
    shift = ring.mono_degree(lead)
    rank = len(prev)
    if sorted(nxt) != sorted(a + shift for a in prev) or max(nxt) - min(prev) > ring.degree_cap:
        return None
    codec, p = ctx.codec, ring.field.p
    inv = pow(f[lead], p - 2, p)
    rows = []
    for s, col in enumerate(e):
        img = _combine_columns(ctx, d, col)
        row = {codec.comp_of(k): c * inv % p for k, c in img.items() if codec.mono_of(k) == lead}
        if img != {codec.mkey(m, r): x * c % p for r, c in row.items() for m, x in f.items()}:
            return None
        row[rank + s] = 1
        rows.append(row)
    basis = _insert_rows(rows, p, reduced=True)
    if any(r >= rank for r in basis):
        return None
    out = []
    for r in range(rank):
        acc: dict[int, int] = {}
        for s, a in basis[r].items():
            if s >= rank:
                for k, c in e[s - rank].items():
                    acc[k] = (acc.get(k, 0) + a * c) % p
        out.append({k: c for k, c in acc.items() if c})
    return out, tuple(a + shift for a in prev)


class Resolution:
    """Lazily extended minimal graded free resolution.

    `twists_of(i)` lists the generator degrees of the i-th term and
    `diff(i)` the columns of d_i : F_i -> F_{i-1}.  Once a step produces no
    generators the projective dimension is recorded and all later terms
    are zero.  The resolution also keeps the work the derived functors
    share across indices (`_derived_memo`).
    """

    def __init__(self, module: PresentedModule):
        self.module = module.minimal_presentation()
        self.ctx = module.ctx
        self._twists: list[tuple[int, ...]] = [tuple(self.module.row_twists)]
        self._diffs: list[list[dict]] = []
        # -1 marks the zero module (empty resolution).
        self._pd: int | None = -1 if self.module.rank0 == 0 else None
        self._syz: dict[int, PresentedModule] = {}
        # HS(Omega_0), HS(Omega_1), ...: Hilbert functions over an artinian
        # context, numerators elsewhere; see `_syzygy_series`.
        self._omega: list[dict[int, int]] = []
        # id(N) -> (weak reference to N, memo): see `_derived_memo`.
        self._derived: dict[int, tuple[weakref.ref, dict]] = {}
        # (n, deg f) once d_n and d_{n+1} form a matrix factorization of f:
        # see `_step`.
        self._period: tuple[int, int] | None = None

    def known_pd(self) -> int | None:
        """Projective dimension if the resolution has terminated, else None."""
        return self._pd

    def extend_to(self, n: int, *, rank_budget: int | None = None) -> "Resolution":
        while self._pd is None and len(self._twists) - 1 < n:
            if rank_budget is not None and sum(len(t) for t in self._twists) > rank_budget:
                raise ResourceCapError(
                    f"resolution of {self.module!r} passed {rank_budget} total generators"
                )
            self._step()
        return self

    def _step(self):
        """Build F_{n+1} and d_{n+1} from d_n, or record pd = n when d_n is
        injective.  Over an artinian context the step is looked up first
        in the context's step memo (`_cached`, under "step"), keyed by d_n's
        columns and the twists of F_n and F_{n-1}, each minus min F_{n-1}.
        The kernel walk reads only degrees relative to the twists, so a
        step taken before, by this resolution or another, at another
        uniform twist shift is the same step shifted: a hit appends the
        stored columns, shared read-only as `diff` hands them out, with
        the twists shifted by the difference.  Off the locus Groebner's
        degree-cap tests read absolute degrees, so nothing is memoized;
        a step the Hilbert series certify (`_certified_step`) runs no
        syzygy computation, and every other step is computed.

        Over a hypersurface, a context whose ideal has a one-element
        Groebner basis {f}, the tail of every minimal resolution of
        infinite length is a matrix factorization of f (Eisenbud, Trans.
        AMS 260, 1980).  So each step taken where F_{n-1}, F_n and F_{n+1}
        have one rank is tested (`_matrix_factorization`): when d_n d_{n+1}
        = f C over S with C constant and invertible, d_{n+1} becomes
        d_{n+1} C^{-1} before anything reads it, F_{n+1} takes the twists
        of F_{n-1} plus deg f, and n is recorded.  The new d_{n+1} has the
        old one's image, so the resolution stays minimal, and d_{n+1} d_n =
        f too, so from step n + 2 on every step is served with no
        computation: d_m = d_{m-2}, shared read-only, and F_m is F_{m-2}
        plus deg f.  Served differentials need not be what a computed step
        would give, but ranks and twists are, and so is every Ext and Tor
        value.  A served step forms no monomial, so it never raises
        `DegreeCapError`, and `extend_to` counts its rank against the
        budget like any other."""
        n = len(self._twists) - 1
        if n == 0:
            cols = [dict(c) for c in self.module.columns]
            if not cols:
                self._pd = 0
                return
            self._diffs.append(cols)
            self._twists.append(tuple(self.module.col_degrees))
            return
        if self._period is not None and n + 1 >= self._period[0] + 2:
            self._diffs.append(self._diffs[n - 2])
            self._twists.append(tuple(a + self._period[1] for a in self._twists[n - 1]))
            return
        cur, prev, d = self._twists[n], self._twists[n - 1], self._diffs[n - 1]
        ctx = self.ctx
        if ctx.is_artinian:
            base = min(prev)
            key = (
                tuple(tuple(sorted(c.items())) for c in d),
                tuple(a - base for a in cur),
                tuple(a - base for a in prev),
            )
            cols, degs, at = _cached(ctx, "step", key, lambda: (*_syzygy_step(ctx, d, cur, prev), base))
            degs = tuple(a + base - at for a in degs)
        else:
            cols, degs = _certified_step(self, n) or _syzygy_step(ctx, d, cur, prev)
        if not cols:
            self._pd = n
            return
        if len(ctx.ideal_gb) == 1 and len(prev) == len(cur) == len(cols):
            mf = _matrix_factorization(ctx, d, cols, prev, degs)
            if mf is not None:
                cols, degs = mf
                self._period = (n, degs[0] - prev[0])
        self._diffs.append(cols)
        self._twists.append(degs)

    def _tail_base(self, i: int) -> tuple[int, int]:
        """(b, s): past the seam of a periodic resolution (i >= n + 2, n as
        recorded by `_step`), the complex around F_i, the maps d_i and
        d_{i+1} between F_{i-1}, F_i and F_{i+1}, is the one around F_b
        with every twist plus s, b in {n, n + 1} of i's parity; (i, 0)
        elsewhere."""
        if self._period is None or i < self._period[0] + 2:
            return i, 0
        start, shift = self._period
        b = start + (i - start) % 2
        return b, (i - b) // 2 * shift

    def rank(self, i: int) -> int:
        return len(self.twists_of(i))

    def twists_of(self, i: int) -> tuple[int, ...]:
        if i < 0:
            return ()
        self.extend_to(i)
        return self._twists[i] if i < len(self._twists) else ()

    def diff(self, i: int) -> list[dict]:
        """Columns of d_i : F_i -> F_{i-1}; empty when F_i = 0."""
        if i < 1:
            raise ValueError("differentials are indexed from 1")
        self.extend_to(i)
        return self._diffs[i - 1] if i - 1 < len(self._diffs) else []

    def betti_table(self, upto: int) -> "BettiTable":
        return BettiTable.of(self, upto)

    def syzygy_module(self, i: int) -> PresentedModule:
        """The i-th syzygy, presented on the generators of F_i.

        Built once per index, so the caches it carries (its dual, its
        minimal presentation) serve every later caller.
        """
        if i < 0:
            raise ValueError("use negative_syzygy below index zero")
        if i == 0:
            return self.module
        hit = self._syz.get(i)
        if hit is None:
            self.extend_to(i + 1)
            twists = self.twists_of(i)
            if twists:
                hit = PresentedModule(self.ctx, twists, [dict(c) for c in self.diff(i + 1)])
            else:
                hit = PresentedModule.zero(self.ctx)
            self._syz[i] = hit
        return hit


def resolution_of(mod: PresentedModule) -> Resolution:
    """Shared per-context resolution, cached by minimal presentation.

    The cache holds the `CACHE_BOUND` most recently used resolutions
    (`_cached`); callers hold a resolution only while they use it, so one
    the cache drops is freed with its memo, and a later call for the same
    module builds it again."""
    mm = mod.minimal_presentation()
    return _cached(mod.ctx, "res", mm.value_key(), lambda: Resolution(mm))


def minimal_free_resolution(mod: PresentedModule, length: int) -> tuple[Resolution, "BettiTable"]:
    res = resolution_of(mod)
    res.extend_to(length)
    return res, res.betti_table(length)


def syzygy(mod: PresentedModule, i: int) -> PresentedModule:
    """i-th syzygy module (index 0 gives the minimal presentation back)."""
    if i == 0:
        return mod.minimal_presentation()
    return resolution_of(mod).syzygy_module(i)


class BettiTable:
    """Graded Betti numbers: entries[(i, j)] is the number of degree-j
    generators of the i-th resolution term."""

    def __init__(self, entries: dict[tuple[int, int], int], upto: int | None = None):
        self.entries = {k: int(v) for k, v in entries.items() if v}
        self.upto = upto if upto is not None else max((i for i, _ in self.entries), default=0)

    @classmethod
    def of(cls, res: Resolution, upto: int) -> "BettiTable":
        res.extend_to(upto)
        ent: dict[tuple[int, int], int] = {}
        for i in range(upto + 1):
            for j in res.twists_of(i):
                ent[(i, j)] = ent.get((i, j), 0) + 1
        return cls(ent, upto)

    def total(self, i: int) -> int:
        return sum(v for (h, _), v in self.entries.items() if h == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.upto + 1)]

    def __eq__(self, other) -> bool:
        return isinstance(other, BettiTable) and self.entries == other.entries

    def render_text(self) -> str:
        """Triangular text layout, rows indexed by internal minus
        homological degree."""
        if not self.entries:
            return "(empty)"
        imax = max(i for i, _ in self.entries)
        rows = sorted({j - i for i, j in self.entries})
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(imax)), *(len(str(self.total(i))) for i in range(imax + 1)))
        head = [" " * 7] + [str(i).rjust(width) for i in range(imax + 1)]
        lines = [" ".join(head)]
        tot = ["total:".rjust(7)] + [str(self.total(i)).rjust(width) for i in range(imax + 1)]
        lines.append(" ".join(tot))
        for r in rows:
            cells = [(str(self.entries[(i, i + r)]) if (i, i + r) in self.entries else ".").rjust(width)
                     for i in range(imax + 1)]
            lines.append(" ".join([f"{r}:".rjust(7)] + cells))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"homological": i, "internal": j, "rank": v}
                for (i, j), v in sorted(self.entries.items())
            ],
            "totals": self.totals(),
        }

    def __repr__(self) -> str:
        return f"BettiTable(totals={self.totals()})"


# -- Ext and Tor, direct route ---------------------------------------------------


class ExtTorResult:
    """Derived-functor values over a set of indices, as dimensions only.

    `graded[i]` maps internal degree to dimension and `totals[i]` is its
    sum; both are None when the value has infinite length.  For the dual
    route the graded data is that of the exchanged computation, so only
    totals are comparable across routes.
    """

    def __init__(self, indices: Iterable[int]):
        self.indices = sorted(set(indices))
        self.graded: dict[int, dict[int, int] | None] = {}
        self.totals: dict[int, int | None] = {}

    def record(self, i: int, graded: dict[int, int] | None):
        """Record the i-th value's graded dimensions (nonzero ones only),
        None for infinite length; the result keeps its own copy."""
        finite = graded is not None
        self.graded[i] = dict(graded) if finite else None
        self.totals[i] = sum(graded.values()) if finite else None

    def total(self, i: int) -> int | None:
        return self.totals[i]

    def graded_of(self, i: int) -> dict[int, int] | None:
        return self.graded[i]

    def is_zero(self, i: int) -> bool:
        return self.totals[i] == 0


# X_j, the j-th term of the complex, is Hom(F_j, N), a sum of copies N(-a),
# for ext and F_j (x) N, a sum of copies N(a), for tor.  The outgoing map
# of X_i leads to X_{i + step}; the incoming one comes from X_{i - step}.
_STEP = {"ext": 1, "tor": -1}


def _term_shifts(kind, res, j) -> list[int]:
    """Shifts of the copies of N making up X_j (see `_STEP`)."""
    return [-_STEP[kind] * a for a in res.twists_of(j)]


def _step_cols(kind, res, j, rb):
    """Free-cover columns of the map induced by d_j on sums of copies of N:
    Hom(F_{j-1}, N) -> Hom(F_j, N) for ext, F_j (x) N -> F_{j-1} (x) N for
    tor, in the layout of `modules._hom_columns` / `_tensor_columns`."""
    if kind == "ext":
        return _hom_columns(res.ctx, res.diff(j), res.rank(j - 1), rb)
    return _tensor_columns(res.ctx, res.diff(j), rb)


def _incoming_cols(kind, res, j, rb) -> list[dict]:
    """Free-cover columns of the map into X_j; [] when its source is zero."""
    src = j - _STEP[kind]
    if src < 0 or not res.rank(src):
        return []
    return _step_cols(kind, res, max(j, src), rb)


def _check_pair(M: PresentedModule, N: PresentedModule):
    if M.ctx is not N.ctx:
        raise ValueError("arguments live over different contexts")


def _direct_modules(kind: str, M: PresentedModule, N: PresentedModule, indices) -> ExtTorResult:
    """Body of `ext` and `tor`: homology of Hom(F, N) or F (x) N, with F a
    minimal resolution of M.  Each value is the kernel of the outgoing map
    on X_i modulo the incoming image, and a broken differential raises
    `InvariantViolation`.  Each term X_j, a sum of shifted copies of N, is
    built once per call and serves both as X_i and as the target of the
    map out of its neighbour.

    Over an artinian context one row-kernel walk (`rows._map_kernel`) on
    X_i's free module gives the value's graded dimensions and makes the
    check itself; X_i / im(in) is never presented.  Its map columns are
    reduced copy by copy by N's own relation echelons, and its seed is
    X_i's relation echelon, read off the same pieces of N, plus the
    multiples of the incoming columns: an incoming column whose image is
    nonzero in X_o is a seed row outside the kernel.  Off the artinian
    locus `_check_square_zero` checks that the two maps compose to zero
    first, since the Groebner kernel checks nothing; with Q = X_i / im(in)
    = F / U and G the kernel's generators, the syzygies of [out | X_o's
    relations] cut to X_i (`modules._syzygy_heads`, not pruned), the
    value's series is HS(Q) - HS(F / (U + G)), and the kernel is never
    presented.  Where no map leaves X_i (tor at 0, ext at the projective
    dimension) the value is the Hilbert function of X_i / im(in) on both
    loci."""
    _check_pair(M, N)
    ctx = M.ctx
    idxs = sorted(set(indices))
    if not idxs:
        return ExtTorResult([])
    if idxs[0] < 0:
        raise ValueError("derived-functor indices start at 0")
    Mm = M.minimal_presentation()
    Nm = N.minimal_presentation()
    res = resolution_of(Mm)
    res.extend_to(idxs[-1] + 1)
    out = ExtTorResult(idxs)
    step = _STEP[kind]
    rb = Nm.rank0
    terms: dict[int, PresentedModule] = {}

    def term(j):
        if j not in terms:
            terms[j] = _sum_of_shifts(Nm, _term_shifts(kind, res, j))
        return terms[j]

    for i in idxs:
        if not res.rank(i) or rb == 0:
            out.record(i, {})
            continue
        o = i + step
        X = term(i)
        in_cols = _incoming_cols(kind, res, i, rb)
        out_cols = _step_cols(kind, res, max(i, o), rb) if res.rank(o) else None
        if out_cols is not None and ctx.is_artinian:
            dims = _map_kernel(ctx, out_cols, X.row_twists, term(o), seed=X, seed_cols=in_cols)[2]
            out.record(i, dims)
            continue
        Q = PresentedModule(ctx, X.row_twists, list(X.columns) + in_cols, _reduced=True)
        if out_cols is None:
            # No map leaves X_i: the value is X_i / im(in).
            out.record(i, Q._finite_hf())
            continue
        _check_square_zero(kind, res, Nm, i, o)
        Xo = term(o)
        gens = _syzygy_heads(ctx, out_cols + list(Xo.columns), Xo.rank0, X.rank0)
        C = PresentedModule(ctx, X.row_twists, list(Q.columns) + gens)
        out.record(i, _finite_series(ctx, _tp_sub(Q.hilbert_numerator(), C.hilbert_numerator())))
    return out


def ext(M: PresentedModule, N: PresentedModule, indices: Iterable[int]) -> ExtTorResult:
    """Right derived Hom, computed from a minimal resolution of M."""
    return _direct_modules("ext", M, N, indices)


def tor(M: PresentedModule, N: PresentedModule, indices: Iterable[int]) -> ExtTorResult:
    """Left derived tensor, computed from a minimal resolution of M."""
    return _direct_modules("tor", M, N, indices)


def _matrix_builder(kind, nreal, res, j):
    """Degree-d matrices, as a function of d, of the map induced by
    d_j : F_j -> F_{j-1}: Hom(F_{j-1}, N) -> Hom(F_j, N) for ext,
    F_j (x) N -> F_{j-1} (x) N for tor, as `_block_builder` rows.
    """
    lo, hi = res.twists_of(j - 1), res.twists_of(j)
    entries = _entry_blocks(res.ctx, res.diff(j))
    if kind == "ext":
        # Hom(F, N)_d = (+)_a N_{d+a}, and Hom(d_j, N) is d_j transposed.
        return _block_builder(nreal, [(s, sp, f) for sp, s, f in entries], hi, lo, 1)
    # (F (x) N)_d = (+)_a N_{d-a}, and d_j (x) N keeps d_j's layout.
    return _block_builder(nreal, entries, lo, hi, -1)


def _derived_memo(res: Resolution, Nm: PresentedModule) -> dict:
    """Work on `res` shared across indices for one second argument, the
    minimal presentation Nm of N: ("coker", kind, j) -> C_j, the series of
    X_j modulo the image of the map into it (`_coker_series`),
    ("term", kind, j) -> the series of X_j (`_term_series`), and
    ("value", kind, b) -> the value at b that `derived_dims` reads,
    shifted, at the indices past the seam of a periodic tail.

    The memo lives on the resolution, so it goes when the resolution
    leaves its cache.  It holds Nm by a weak reference and finds it by
    identity (`is`): a bare `id` can be reused once a module dies, and a
    strong reference would keep every N a long-lived resolution meets
    alive.  Memos of dead modules are dropped when a new one is made."""
    memos = res._derived
    hit = memos.get(id(Nm))
    if hit is None or hit[0]() is not Nm:
        for k in [k for k, (ref, _) in memos.items() if ref() is None]:
            del memos[k]
        hit = memos[id(Nm)] = (weakref.ref(Nm), {})
    return hit[1]


def _shifted_sum(base: dict[int, int], shifts) -> dict[int, int]:
    """The sum of t^s * base over `shifts`, added once per distinct shift."""
    out: dict[int, int] = {}
    for s, n in Counter(shifts).items():
        for d, c in base.items():
            out[d + s] = out.get(d + s, 0) + n * c
    return out


def _term_series(kind, res, Nm: PresentedModule, j: int) -> dict[int, int]:
    """The series of X_j, a sum of shifted copies of N's: its Hilbert
    function over an artinian context, its Hilbert numerator elsewhere.
    Memoized on the resolution (`_derived_memo`, under ("term", kind,
    j)), so callers must not mutate it.  A numerator's coefficients can
    cancel to zero here; its callers only subtract it."""
    memo = _derived_memo(res, Nm)
    key = ("term", kind, j)
    hit = memo.get(key)
    if hit is None:
        base = Nm._finite_hf() if res.ctx.is_artinian else Nm.hilbert_numerator()
        hit = memo[key] = _shifted_sum(base, _term_shifts(kind, res, j))
    return hit


def _syzygy_series(res, j: int) -> dict[int, int]:
    """HS(Omega_j), Omega_j = im d_j inside F_{j-1} for j >= 1, from HS(M)
    and the Betti numbers alone: the exact sequences 0 -> Omega_k ->
    F_{k-1} -> Omega_{k-1} -> 0, with Omega_0 = M, give HS(Omega_k) =
    HS(F_{k-1}) - HS(Omega_{k-1}), which needs F_0, ..., F_{j-1} only.
    Series are held as `_term_series` holds them: over an artinian
    context Hilbert functions (M's `_finite_hf`, the ring's), elsewhere
    Hilbert numerators (M's `hilbert_numerator`, the ring's), whose
    coefficients can cancel to zero.  The artinian Omega path
    (`_syzygy_tensor_series`) and the certified steps off the locus
    (`_certified_step`) read them.  They do not depend on N, so the
    resolution keeps the list HS(Omega_0), HS(Omega_1), ... and extends
    it as j grows; callers must not mutate what it returns."""
    hs = res._omega
    ctx = res.ctx
    if not hs:
        hs.append(res.module._finite_hf() if ctx.is_artinian else res.module.hilbert_numerator())
    ring = ctx._hf if ctx.is_artinian else ctx.numerator
    while len(hs) <= j:
        k = len(hs) - 1
        hs.append(_tp_sub(_shifted_sum(ring, res.twists_of(k)), hs[k]))
    return hs[j]


def _syzygy_tensor_series(res, Nm: PresentedModule, j: int) -> dict[int, int]:
    """HS(Omega_j (x) N), j >= 1, over an artinian context, read off d_j
    and N's presentation del_N : G_1 -> G_0 alone.  G_0 is free and
    F_j maps onto Omega_j, so Omega_j (x) N is (Omega_j (x) G_0) modulo
    the image of d_j (x) del_N, which is (d_j (x) 1)(F_j (x) U), U = im
    del_N: the sum of t^g HS(Omega_j) over the generators g of N
    (`_syzygy_series`) minus the degreewise ranks of that image.

    In degree d, copy s of F_j (x) U is U_{d - b_s}, b_s the twist of F_j's
    s-th generator, and its basis is N's cached relation echelon in that
    degree (`rows._echelon`).  An echelon row u, with component u_g in
    copy g of G_0, maps to the sum over the entries f of d_j at (sp, s) of
    f u_g in copy (sp, g) of F_{j-1} (x) G_0.  Each monomial of d_j acts
    on each echelon row once per call, copy by copy through the ring
    realization's `monomial_columns`, and f u sums those images with f's
    coefficients, so no product of polynomials is formed.  The rank is
    taken on rows indexed by the target coordinates, one column per
    mapped echelon row."""
    ctx = res.ctx
    hit = _shifted_sum(_syzygy_series(res, j), Nm.row_twists)
    if not Nm.columns:
        return hit
    real = FiniteLengthRealization.of_ring(ctx)
    cols_of, dims = real.monomial_columns, real.dims
    p = ctx.ring.field.p
    lo, a = res.twists_of(j - 1), Nm.row_twists
    # entries[s]: (first target copy sp |G_0|, f) for each entry f of d_j at (sp, s)
    entries: list[list[tuple[int, dict]]] = [[] for _ in res.twists_of(j)]
    for sp, s, f in _entry_blocks(ctx, res.diff(j)):
        entries[s].append((sp * len(a), f))
    rels: dict[int, list] = {}

    def rel_rows(e):
        """The rows of N's relation echelon in degree e, each as (copy g,
        entry t of R_{e - a_g}, coefficient) triples."""
        out = rels.get(e)
        if out is None:
            sizes = [dims.get(e - x, 0) for x in a]
            out = rels[e] = []
            if any(sizes):
                piece = _echelon(Nm, e)
                where = [(g, t) for g, n in enumerate(sizes) for t in range(n)]
                out += ([(*where[piece.coord[c]], x) for c, x in u.items()] for u in piece.basis.values())
        return out

    prods: dict[tuple[int, int], list] = {}

    def times(e, mono):
        """mono times each row of `rel_rows(e)`, as (copy g, entry r,
        value) triples: the ring realization's columns of mono applied
        copy by copy."""
        out = prods.get((e, mono))
        if out is None:
            out = prods[e, mono] = []
            for u in rel_rows(e):
                acc: dict[tuple[int, int], int] = {}
                for g, t, x in u:
                    for r, v in cols_of(mono, e - a[g])[t].items():
                        acc[g, r] = acc.get((g, r), 0) + x * v
                out.append([(g, r, v % p) for (g, r), v in acc.items() if v % p])
        return out

    ranks = {}
    for d in hit:
        off = [0, *accumulate(dims.get(d - c - x, 0) for c in lo for x in a)]
        rows: list[dict[int, int]] = [{} for _ in range(off[-1])]
        k = 0
        for s, b in enumerate(res.twists_of(j)):
            e = d - b
            n = len(rel_rows(e))
            if not n:
                continue
            terms = [(r0, y, times(e, mono)) for r0, f in entries[s] for mono, y in f.items()]
            for i in range(n):
                acc: dict[int, int] = {}
                for r0, y, prod in terms:
                    for g, r, v in prod[i]:
                        r += off[r0 + g]
                        acc[r] = acc.get(r, 0) + y * v
                for r, v in acc.items():
                    if v % p:
                        rows[r][k] = v % p
                k += 1
        if k:
            ranks[d] = len(_insert_rows(rows, p, reduced=False))
    return _tp_sub(hit, ranks)


def _coker_series(kind, res, Nm: PresentedModule, j: int) -> dict[int, int]:
    """C_j, the series of X_j modulo the image U of the map into X_j, in
    `_term_series`' representation, memoized on the resolution
    (`_derived_memo`), so indices j - 1 and j + 1 of a scan share it.

    Over an artinian context C_j is dim X_j,d minus the rank of
    `_matrix_builder`'s degree-d matrix of the map into X_j, ranked only
    where its source is nonzero too.  The matrices are fresh sparse rows
    with values in [1, p), so their rank is the size of the echelon basis
    `_insert_rows` makes of them, consuming them: no dense copy and none
    of `rank_rows`' cleaning copy.  For tor at j >= 1, while the
    resolution has not built F_{j+1} (nor ended), C_j is read instead as
    HS(Omega_j (x) N) (`_syzygy_tensor_series`), since F_j / im d_{j+1}
    is Omega_j and tensoring is right exact: Tor_i stops at F_i.  Where
    F_{j+1} exists (scans build it under their rank budget, and ext and
    the routes need it) C_j stays the image of d_{j+1} (x) N, which costs
    less there: where Betti numbers grow slowly, as over nilsquares,
    mapping N's relation echelon through d_j costs more than F_{j+1} (x) N.  With
    no incoming map C_j is `_term_series`' own dict.

    Elsewhere C_j is the sum over components c of t^{twist_c}
    HN(S / in(U)_c), and the lead module in(U) depends on U and the
    monomial order alone, not on the twists or on the order of U's
    generators.  So the twist-free per-component numerators are kept per
    context (`_cached`, under "coker"), keyed by the rank and the set of
    monic, ideal-reduced columns spanning U, and assembled with X_j's
    twists on every use: one Groebner basis serves every cokernel with
    the same span, such as the top cokernels of the two scans of
    `symmetry_check` over cyclic complete intersections, which agree up
    to a twist."""
    memo = _derived_memo(res, Nm)
    key = ("coker", kind, j)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ctx = res.ctx
    p = ctx.ring.field.p
    if ctx.is_artinian:
        src = j - _STEP[kind]
        if kind == "tor" and j >= 1 and res.known_pd() is None and len(res._twists) <= src:
            # F_{j+1} is not built: C_j = HS(Omega_j (x) N), read off d_j.
            hit = _syzygy_tensor_series(res, Nm, j)
        else:
            hit = _term_series(kind, res, Nm, j)
            if src >= 0 and res.rank(src):
                below = _term_series(kind, res, Nm, src)
                at = _matrix_builder(kind, FiniteLengthRealization.from_module(Nm), res, max(j, src))
                ranks = {d: len(_insert_rows(at(d), p, reduced=False)) for d in hit if d in below}
                hit = _tp_sub(hit, ranks)
    else:
        X = _sum_of_shifts(Nm, _term_shifts(kind, res, j))
        r = X.rank0
        # The incoming columns are reduced (re-keyed resolution columns)
        # but not monic, and an ext column can be empty: presenting the
        # span on X's twists makes them monic and drops the empty ones.
        incoming = _incoming_cols(kind, res, j, Nm.rank0)
        U = PresentedModule(ctx, X.row_twists, [*X.columns, *incoming], _reduced=True)
        cols = list(U.columns)
        span = (r, frozenset(frozenset(c.items()) for c in cols))
        parts = _cached(
            ctx, "coker", span,
            lambda: component_numerators(ctx, module_gb(ctx, cols, r), r),
        )
        hit = twisted_numerator(parts, X.row_twists)
    memo[key] = hit
    return hit


def _check_square_zero(kind, res, Nm: PresentedModule, i: int, o: int):
    """psi_i o psi_{i-1} = 0 on the maps into and out of X_i: each incoming
    column, pushed through the outgoing columns, must vanish in X_o.
    Uses only differentials index i already needs.  Over a true
    resolution the composite vanishes modulo the ideal already, so X_o is
    built, and a remainder reduced by its relations (`normal_form`), only
    when one is left.  Its callers, off the artinian locus only, are
    `derived_dims` and the direct route (`_direct_modules`); over an
    artinian context the direct route's row kernel checks this itself,
    and `derived_dims` refuses a negative dimension."""
    ctx = res.ctx
    rb = Nm.rank0
    out_cols = _step_cols(kind, res, max(i, o), rb)
    Xo = None
    for col in _incoming_cols(kind, res, i, rb):
        img = reduce_vec_by_ideal(_combine_columns(ctx, out_cols, col), ctx)
        if not img:
            continue
        if Xo is None:
            Xo = _sum_of_shifts(Nm, _term_shifts(kind, res, o))
        if Xo.normal_form(img):
            raise InvariantViolation("consecutive maps of the complex do not compose to zero")


def derived_dims(kind: str, M: PresentedModule, N: PresentedModule, i: int) -> dict[int, int] | None:
    """Graded dimensions of Ext^i(M, N) (kind "ext") or Tor_i(M, N) ("tor"),
    or None when the value has infinite length.  No homology module is
    built: with o = i + 1 (ext) or i - 1 (tor), HS(H_i) = C_i + C_o -
    HS(X_o), since Hilbert series are additive on the exact sequences
    0 -> ker -> X_i -> im -> 0 and 0 -> im -> X_o -> coker -> 0, and C_j
    (`_coker_series`) is memoized per resolution, so a scan builds each
    once.  The resolution is extended only as far as the terms need: to
    i for tor over an artinian context, where C_i is read off d_i while
    F_{i + 1} is not built; ext's C_{i + 1} and the off-locus check reach
    i + 1 through `res.rank` / `res.diff`.

    The locus picks how C_j is built (ranks of degreewise matrices over
    an artinian context, one Groebner basis per cokernel span elsewhere),
    the series' representation (Hilbert functions or numerators, see
    `_term_series`), and the check of the complex: off the artinian locus
    `_check_square_zero` checks that the two maps at index i compose to
    zero, on it a negative dimension raises.  This is the complete
    route's homology body (`_via_complete`); `ext` / `tor`, which take
    homology as subquotients, are the cross-check.

    Past the seam of a periodic tail (`Resolution._tail_base`), the maps
    and terms around F_i are those around F_b, b in {n, n + 1}, with every
    twist raised by s, so C_i, C_o and the check at i are the computation
    at b shifted: the value at b, computed and checked once, is read with
    its degrees moved by s, down for ext and up for tor, as X_i's copies
    of N move.  The check is implied there, not skipped.  Seam indices
    are computed and checked like any other.
    """
    if kind not in ("ext", "tor"):
        raise ValueError(f"unknown derived functor {kind!r}")
    if i < 0:
        raise ValueError("derived-functor indices start at 0")
    _check_pair(M, N)
    ctx = M.ctx
    rows = ctx.is_artinian
    Mm, Nm = M.minimal_presentation(), N.minimal_presentation()
    res = resolution_of(Mm)
    if not res.twists_of(i) or Nm.rank0 == 0:
        return {}
    b, s = res._tail_base(i)
    if s:
        # Past the seam the complex at i is the one at b shifted: read its
        # value, computed and checked once (`_derived_memo`), shifted too.
        memo = _derived_memo(res, Nm)
        key = ("value", kind, b)
        if key not in memo:
            memo[key] = derived_dims(kind, Mm, Nm, b)
        hit = memo[key]
        return None if hit is None else {d - _STEP[kind] * s: v for d, v in hit.items()}
    o = i + _STEP[kind]
    hs = _coker_series(kind, res, Nm, i)
    if o >= 0 and res.rank(o):
        if not rows:
            _check_square_zero(kind, res, Nm, i, o)
        hs = _tp_add(hs, _coker_series(kind, res, Nm, o))
        hs = _tp_sub(hs, _term_series(kind, res, Nm, o))
    if not rows:
        return _finite_series(ctx, hs)
    if any(v < 0 for v in hs.values()):
        raise InvariantViolation("negative homology dimension")
    return dict(hs)  # not the memo's C_i itself


def _finite_profile(dims: dict[int, int] | None) -> dict[int, int]:
    if dims is None:
        raise ValueError("graded profile of an infinite-length value")
    return dims


def ext_profile(M: PresentedModule, N: PresentedModule, i: int) -> dict[int, int]:
    """Graded dimensions of the i-th right derived Hom (`derived_dims`);
    ValueError when the value has infinite length."""
    return _finite_profile(derived_dims("ext", M, N, i))


def tor_profile(M: PresentedModule, N: PresentedModule, i: int) -> dict[int, int]:
    """Graded dimensions of the i-th left derived tensor (see ext_profile)."""
    return _finite_profile(derived_dims("tor", M, N, i))


# -- depth, MCM and Gorenstein tests ----------------------------------------------


def depth(mod: PresentedModule) -> int:
    """Least i with a nonzero i-th derived Hom from the residue field."""
    mm = mod.minimal_presentation()
    if mm.rank0 == 0:
        raise ValueError("depth of the zero module")
    ctx = mod.ctx
    if ctx.is_artinian:
        return 0
    k = PresentedModule.residue_field(ctx)
    for i in range(ctx.dim + 1):
        if derived_dims("ext", k, mm, i) != {}:
            return i
    raise InvariantViolation("no nonvanishing derived Hom up to the ring dimension")


def is_mcm(mod: PresentedModule) -> bool:
    """Depth equal to the ring dimension (vacuously true for zero)."""
    if mod.minimal_presentation().rank0 == 0:
        return True
    return depth(mod) == mod.ctx.dim


def gorenstein_check(ctx: RingCtx) -> bool:
    """Whether the context is Gorenstein (self-dual in the derived sense).

    Artinian contexts are tested by socle dimension; otherwise the derived
    Homs from the residue field into the ring must vanish below the
    dimension and be one-dimensional there.
    """
    hit = ctx.scratch.get("gorenstein")
    if hit is None:
        if ctx.is_artinian:
            hit = sum(FiniteLengthRealization.of_ring(ctx).socle_profile().values()) == 1
        else:
            R = PresentedModule.ring_module(ctx)
            k = PresentedModule.residue_field(ctx)
            d = ctx.dim
            hit = all(derived_dims("ext", k, R, i) == {} for i in range(d))
            if hit:
                top = derived_dims("ext", k, R, d)
                hit = top is not None and sum(top.values()) == 1
        ctx.scratch["gorenstein"] = hit
    return hit


# -- complete resolutions and negative syzygies ------------------------------------


class CompleteResolution:
    """Doubly infinite exact complex of free modules around a maximal
    Cohen-Macaulay module over a Gorenstein context.

    Nonnegative terms come from the minimal resolution.  The negative half
    comes from Hom(M, R) (`dual_module`) and its minimal generators as
    functionals on M's free cover (`modules._dual_generators`, the walk
    the dual is presented from): terms below zero are duals of the terms
    of a minimal resolution of that Hom(M, R), with transposed
    differentials, and the degree-zero differential is the evaluation
    pairing, the functionals transposed.
    `term(i)` and `diff(i)` accept any integer index.  The two halves are
    looked up through `resolution_of` on every use, never held, so they
    stay under that cache's bound.
    """

    def __init__(self, module: PresentedModule, lo: int = -2, hi: int = 2):
        ctx = module.ctx
        mm = module.minimal_presentation()
        if not gorenstein_check(ctx):
            raise HypothesisNotMet("complete resolutions need a Gorenstein context")
        if mm.rank0 and not is_mcm(mm):
            raise HypothesisNotMet("module is not maximal Cohen-Macaulay")
        self.ctx = ctx
        self.module = mm
        self._dual = dual_module(mm)
        self._d0 = _hom_columns(ctx, _dual_generators(mm)[1], mm.rank0, 1)
        self.extend(lo, hi)

    @property
    def pos(self) -> Resolution:
        """The minimal resolution of the module: the terms from 0 up."""
        return resolution_of(self.module)

    @property
    def neg(self) -> Resolution:
        """The minimal resolution of Hom(M, R), whose dual gives the terms
        below 0."""
        return resolution_of(self._dual)

    def extend(self, lo: int, hi: int) -> "CompleteResolution":
        if hi >= 0:
            self.pos.extend_to(hi)
        if lo < 0:
            self.neg.extend_to(-lo - 1)
        return self

    def term(self, i: int) -> tuple[int, ...]:
        if i >= 0:
            return self.pos.twists_of(i)
        return tuple(-a for a in self.neg.twists_of(-i - 1))

    def diff(self, i: int) -> list[dict]:
        """Columns of the differential from term(i) to term(i-1)."""
        if i >= 1:
            return self.pos.diff(i)
        if i == 0:
            return self._d0
        return _hom_columns(self.ctx, self.neg.diff(-i), self.neg.rank(-i - 1), 1)


def complete_resolution(mod: PresentedModule, lo: int = -2, hi: int = 2) -> CompleteResolution:
    """The complete resolution of mod, extended to [lo, hi].  It is not
    cached itself: its two halves come from `resolution_of`, and the
    dual and dual generators it reads are cached on the minimal
    presentation."""
    return CompleteResolution(mod, lo, hi)


def negative_syzygy(mod: PresentedModule, i: int) -> PresentedModule:
    """Syzygy in a complete resolution at index i <= -1 (cokernel of the
    incoming differential, presented on term(i))."""
    if i >= 0:
        raise ValueError("use syzygy for nonnegative indices")
    cres = complete_resolution(mod, lo=i, hi=0)
    twists = cres.term(i)
    if not twists:
        return PresentedModule.zero(mod.ctx)
    return PresentedModule(
        mod.ctx, twists, [dict(c) for c in cres.diff(i + 1)]
    ).minimal_presentation()


# -- Ext and Tor through the dual route --------------------------------------------


def _via_complete(kind: str, M: PresentedModule, N: PresentedModule, indices, t) -> ExtTorResult:
    """Body of `ext_via_complete` and `tor_via_complete`: the value at i is
    the opposite functor's value at t - i - 1 on the dual of the t-th
    syzygy of M, read off `derived_dims` on both loci, so this route shares
    no homology code with `_direct_modules`."""
    _check_pair(M, N)
    idxs = sorted(set(indices))
    if not idxs:
        return ExtTorResult([])
    if t is None:
        t = max(idxs) + 2
    if min(idxs) < 1 or max(idxs) > t - 2:
        raise ValueError(f"indices must sit in [1, {t - 2}] for a pass through syzygy {t}")
    ctx = M.ctx
    if not gorenstein_check(ctx):
        raise HypothesisNotMet("the dual route needs a Gorenstein context")
    mm = M.minimal_presentation()
    if mm.rank0 and not is_mcm(mm):
        raise HypothesisNotMet("the dual route needs a maximal Cohen-Macaulay module")
    D = dual_module(syzygy(mm, t))
    out = ExtTorResult(idxs)
    opposite = "tor" if kind == "ext" else "ext"
    for i in idxs:
        out.record(i, derived_dims(opposite, D, N, t - i - 1))
    return out


def ext_via_complete(
    M: PresentedModule, N: PresentedModule, indices: Iterable[int], t: int | None = None
) -> ExtTorResult:
    """Right derived Hom computed by exchange: pass to a high syzygy, dualize,
    and read the answer off the complementary left derived tensor."""
    return _via_complete("ext", M, N, indices, t)


def tor_via_complete(
    M: PresentedModule, N: PresentedModule, indices: Iterable[int], t: int | None = None
) -> ExtTorResult:
    """Left derived tensor computed by exchange through a dualized syzygy."""
    return _via_complete("tor", M, N, indices, t)
