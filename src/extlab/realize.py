"""Finite-length modules back to presentations: Matlis duals and socles.

A realization (`rows.FiniteLengthRealization`, re-exported here) stores,
for a module of finite length, the dimension of every graded piece and the
sparse columns of each variable's multiplication map between consecutive
pieces.
`FiniteLengthRealization.from_module` reads it off a presented module
over an artinian context (it refuses any other); `to_presentation` goes
the other way, building a minimal presentation by choosing generators
with Nakayama and cutting out the kernel of the induced cover.
Relations of that cover live in degrees at most top(M) + max weight,
because above the generators every piece of a free module is spanned by
variable multiples from one weight below.  The graded Matlis dual
(`matlis_dual_module`) and the ring's socle (`socle_module`,
`socle_generators`) are built on top.
"""

from __future__ import annotations

from .groebner import RingCtx
from .linalg import insert_row
from .modules import PresentedModule
from .poly import Polynomial
from .rows import FiniteLengthRealization, _packed, kernel_generators


def to_presentation(real: FiniteLengthRealization) -> PresentedModule:
    """Minimal presentation of a realization, built from generators chosen
    by Nakayama.

    In each degree the generators are the earliest unit vectors that
    extend the span of the variable images from below (`insert_row`);
    the relations are `kernel_generators` of the induced cover, over the
    ring's realization, packed as vectors of the cover (`rows._packed`).
    """
    ctx = real.ctx
    p = ctx.ring.field.p
    if real.is_zero():
        return PresentedModule.zero(ctx)
    weights = ctx.ring.weights
    gens: list[tuple[int, int]] = []  # (degree, index of the unit vector)
    for d in real.degrees():
        basis: dict[int, dict[int, int]] = {}
        for v, w in enumerate(weights):
            for col in real.action_columns(v, d - w):
                insert_row(basis, dict(col), p)
        gens += [(d, i) for i in range(real.dim(d)) if insert_row(basis, {i: 1}, p)]
    twists = tuple(d for d, _ in gens)

    def matrix_at(d: int) -> list[dict[int, int]]:
        # Column (s, m) of the cover is the monomial m acting on gen s.
        if not real.dim(d):
            return []
        rows: list[dict[int, int]] = [{} for _ in range(real.dim(d))]
        c = 0
        for a, i in gens:
            for m in ctx.std_monomials(d - a):
                for r, x in real.monomial_columns(m, a)[i].items():
                    rows[r][c] = x
                c += 1
        return [r for r in rows if r]

    hi = (real.top or 0) + max(weights)
    degrees = range(min(twists), hi + 1)
    ring_real = FiniteLengthRealization.of_ring(ctx)
    gens, degs, _ = kernel_generators(ring_real, twists, matrix_at, degrees)
    return PresentedModule(ctx, twists, _packed(ctx, twists, gens, degs))


def matlis_dual_module(mod: PresentedModule) -> PresentedModule:
    """Graded Matlis dual of a finite-length module, as a presentation.

    Pieces transpose and degrees negate, so the result of applying this
    twice is the original module again (up to canonical presentation).
    """
    hit = mod._cache.get("matlis")
    if hit is None:
        hit = to_presentation(FiniteLengthRealization.from_module(mod).matlis_dual())
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
    for d in real.degrees():
        # std_monomials lists descending; realization bases follow that order.
        std = ctx.std_monomials(d)
        for vec in real.socle(d):
            out.append(Polynomial(ctx.ring, {std[i]: vec[i] for i in sorted(vec)}))
    return out
