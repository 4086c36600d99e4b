"""Two independent routes to Ext, and resolutions that extend backwards.

Over a Gorenstein ring every maximal Cohen-Macaulay module has a
complete resolution: an acyclic complex of free modules agreeing with
the usual resolution in high degrees.  Its negative half is computed
from the dual module, so values obtained by exchanging through it
exercise entirely different code than the direct homology route.
"""

from extlab.groebner import RingCtx
from extlab.modules import PresentedModule, dual_module
from extlab.poly import FieldSpec, PolyRing
from extlab.resolution import (
    ext,
    ext_via_complete,
    negative_syzygy,
    syzygy,
    tor,
    tor_via_complete,
)

ring = PolyRing(FieldSpec(101), ("x", "y", "z"))
gor = RingCtx(ring, [ring.parse(r) for r in
                     ("x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2")])
k = PresentedModule.residue_field(gor)
M = syzygy(k, 1)
N = dual_module(M)

# Route one: resolve M, apply Hom(-, N) or (-) tensor N, take homology.
direct = ext(M, N, [1, 2, 3])
print("direct Ext dims:   ", {i: direct.total(i) for i in (1, 2, 3)})

# Route two: pass to the 5th syzygy, dualize, resolve *that*, and read
# the same values off the shifted window.
via = ext_via_complete(M, N, [1, 2, 3], t=5)
print("exchanged Ext dims:", {i: via.total(i) for i in (1, 2, 3)})

direct_t = tor(M, N, [1, 2, 3])
via_t = tor_via_complete(M, N, [1, 2, 3], t=5)
print("direct Tor dims:   ", {i: direct_t.total(i) for i in (1, 2, 3)})
print("exchanged Tor dims:", {i: via_t.total(i) for i in (1, 2, 3)})

# The negative half of the complete resolution: the cosyzygy at -i is
# presented on the dual of the (i-1)-th free module in a resolution of
# Hom(M, R), so its rank counts that free module's generators.
print("\nnegative syzygy ranks, indices -1..-3:",
      {-i: negative_syzygy(M, -i).rank0 for i in (1, 2, 3)})

# Negative syzygies cosyzygy the module: going one step down and one
# step up returns the original (up to minimal presentation).
back = syzygy(negative_syzygy(M, -1), 1)
print("cosyzygy then syzygy returns M:",
      back == M.minimal_presentation())
