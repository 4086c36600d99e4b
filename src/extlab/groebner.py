"""The Buchberger engine for submodules of free modules over graded quotient rings.

A vector in a free module is a flat dict from packed keys to nonzero
coefficients.  A key stacks three fields:

    [block bit] [packed ring monomial] [complemented component, 24 bits]

so plain integer comparison realizes a term-over-position order:
monomials are compared first (in the ring's own order) and ties go to
the lower component index.  The block bit splits the key space into a
working block (bit set) and a tag block (bit clear) that always sorts
below it.

One body builds every basis: `signature_gb`, a signature-based run that
skips S-pairs known to reduce to zero before reducing them.  Plain runs
want only a basis of the span (`module_gb`, the ideal basis of
`RingCtx`).  Runs that also want the syzygies of some inputs
(`syzygies_for`) give each of those inputs a unit tag in the tag block;
a reduction whose working part vanishes then leaves in its tags exactly
the coordinates of a syzygy of the tagged inputs.

Coefficient bookkeeping note: a tag t of an element (f, t) always satisfies
f = sum_j t_j * a_j + h over the tagged inputs a_j, with h in the span
of the untagged ones, because inputs start that way and both reduction
and S-vector formation are linear.  So when f vanishes, t is a syzygy of
the a_j modulo the untagged inputs.

The run returns the minimal basis it found.  Normal forms and lead terms,
which is all that membership tests and Hilbert series read, come straight
from that basis; the reduced basis (monic, tail-reduced, sorted) is built
only when something iterates it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import mul

from .errors import DegreeCapError, InvariantViolation
from .poly import Polynomial, PolyRing

COMP_BITS = 24
COMP_MASK = (1 << COMP_BITS) - 1


class ModuleCodec:
    """Packs (monomial, component, block) triples into single ints."""

    __slots__ = ("ring", "monomask", "tagbit", "identmask", "_unit")

    def __init__(self, ring: PolyRing):
        self.ring = ring
        monobits = 8 * (ring.nvars + 1)
        self.monomask = ((1 << monobits) - 1) << COMP_BITS
        self.tagbit = 1 << (COMP_BITS + monobits)
        self.identmask = COMP_MASK | self.tagbit
        self._unit = ring.unit_key

    def mkey(self, mono: int, comp: int, tag: bool = False) -> int:
        if comp > COMP_MASK:
            raise ValueError(f"component index {comp} out of range")
        base = (mono << COMP_BITS) | (COMP_MASK - comp)
        return base if tag else base | self.tagbit

    def mono_of(self, mkey: int) -> int:
        return (mkey & self.monomask) >> COMP_BITS

    def comp_of(self, mkey: int) -> int:
        return COMP_MASK - (mkey & COMP_MASK)

    def delta(self, mono: int) -> int:
        """Additive shift realizing multiplication by the given monomial."""
        return (mono - self._unit) << COMP_BITS


def module_codec(ring: PolyRing) -> ModuleCodec:
    codec = getattr(ring, "_module_codec", None)
    if codec is None:
        codec = ModuleCodec(ring)
        ring._module_codec = codec
    return codec


def _subtract(work: dict, factor: int, delta: int, vec: dict, p: int):
    """work -= factor * (vec shifted by delta), in place; factor is nonzero."""
    get = work.get
    for k, c in vec.items():
        k += delta
        v = (get(k, 0) - factor * c) % p
        if v:
            work[k] = v
        else:
            del work[k]  # factor * c is nonzero, so k was present


class _Members:
    """Mutable family of vectors indexed by lead.

    `buckets` maps a lead ident (component and block) to the members that
    reduce with that ident, in the order they were added.  `drop_multiples`
    takes out the members whose leads a newer member's lead divides: every
    term they could reduce, the newer member reduces too.
    """

    def __init__(self, ring: PolyRing, codec: ModuleCodec):
        self.ring = ring
        self.codec = codec
        self.p = ring.field.p
        self.vecs: list[dict] = []
        self.leads: list[int] = []
        self.monos: list[int] = []
        self.invs: list[int] = []
        self.idents: list[int] = []
        self.alive: list[bool] = []
        self.buckets: dict[int, list[int]] = {}

    def add(self, vec: dict) -> int:
        lead = max(vec)
        idx = len(self.vecs)
        self.vecs.append(vec)
        self.leads.append(lead)
        self.monos.append(self.codec.mono_of(lead))
        self.invs.append(pow(vec[lead], self.p - 2, self.p))
        ident = lead & self.codec.identmask
        self.idents.append(ident)
        self.alive.append(True)
        self.buckets.setdefault(ident, []).append(idx)
        return idx

    def drop_multiples(self, idx: int):
        """Take the members whose leads the lead of member idx divides out
        of its bucket."""
        divides = self.ring._codec.divides
        mono = self.monos[idx]
        monos, alive = self.monos, self.alive
        bucket = self.buckets[self.idents[idx]]
        kept = []
        for i in bucket:
            if i == idx or not divides(mono, monos[i]):
                kept.append(i)
            else:
                alive[i] = False
        bucket[:] = kept

    def s_vector(self, i: int, qi: int, j: int, qj: int) -> dict:
        """qi * vec_i / lc_i - qj * vec_j / lc_j, where the monomials qi
        and qj take the leads of members i and j to their lcm."""
        p, unit = self.p, self.ring.unit_key
        fi, di = self.invs[i], (qi - unit) << COMP_BITS
        s = {k + di: c * fi % p for k, c in self.vecs[i].items()}
        _subtract(s, self.invs[j], (qj - unit) << COMP_BITS, self.vecs[j], p)
        return s


class _ReducerSet(_Members):
    """Members that full normal forms are taken against.

    `reduce` uses the first bucket member whose lead divides the term.
    Members are only appended, so that member stays first until
    `drop_multiples` takes it out; `found` remembers it per term key, and a
    term is matched against the bucket again only when its remembered
    member is no longer `alive` or is the member to skip.  Members carry
    no tags, so a lead has its member's top degree and no multiple passes
    the degree of the term it reduces: reducing checks no degree cap.
    """

    def __init__(self, ring: PolyRing, codec: ModuleCodec):
        super().__init__(ring, codec)
        self.found: dict[int, int] = {}  # term key -> first member dividing it

    def reduce(self, vec: dict, skip: int = -1) -> dict:
        """Full normal form of vec against the current family, never
        reducing by member `skip`."""
        rc = self.ring._codec
        divides, div = rc.divides, rc.div
        unit = self.ring.unit_key
        identmask = self.codec.identmask
        monomask = self.codec.monomask
        buckets, monos, vecs, invs = self.buckets, self.monos, self.vecs, self.invs
        alive, found = self.alive, self.found
        p = self.p
        work = dict(vec)
        out: dict[int, int] = {}
        while work:
            k = max(work)
            mono = (k & monomask) >> COMP_BITS
            hit = found.get(k, -1)
            if hit < 0 or hit == skip or not alive[hit]:
                hit = -1
                for i in buckets.get(k & identmask, ()):
                    if i != skip and divides(monos[i], mono):
                        hit = i
                        break
                if hit < 0:
                    out[k] = work.pop(k)
                    continue
                if skip < 0:  # past `skip`, hit need not be the first divisor
                    found[k] = hit
            delta = (div(mono, monos[hit]) - unit) << COMP_BITS
            _subtract(work, work[k] * invs[hit] % p, delta, vecs[hit], p)
        return out


class VectorGB:
    """A Groebner basis of a submodule, usable as a reducer.

    `reduce` divides by the minimal basis that `signature_gb` kept, with
    any tags taken off: a full normal form is the same for every Groebner
    basis of the span.  `leads()` gives the lead keys, ascending.
    Iterating, or reading `elements`, gives the reduced basis: monic,
    pairwise tail-reduced and sorted by ascending lead key, so equal
    submodules yield identical lists term for term.  It is built on first
    use.
    """

    def __init__(self, ring: PolyRing, minimal: list[dict]):
        self.ring = ring
        self.codec = module_codec(ring)
        self._red = _ReducerSet(ring, self.codec)
        for vec in sorted(minimal, key=max):
            self._red.add(vec)
        self._elements: list[dict] | None = None

    @property
    def elements(self) -> list[dict]:
        if self._elements is None:
            p = self.ring.field.p
            out = []
            red = self._red
            for slot, vec in enumerate(red.vecs):
                vec = red.reduce(vec, skip=slot)
                inv = pow(vec[red.leads[slot]], p - 2, p)
                out.append({k: c * inv % p for k, c in vec.items()})
            self._elements = out
        return self._elements

    def leads(self) -> tuple[int, ...]:
        return tuple(self._red.leads)

    def reduce(self, vec: dict) -> dict:
        return self._red.reduce(vec) if vec else {}

    def __len__(self) -> int:
        return len(self._red.vecs)

    def __iter__(self):
        return iter(self.elements)


class _SignatureSet(_Members):
    """The members of a `signature_gb` run, each with its signature.

    The run takes its inputs one at a time; a member made while input j
    is processed has signature sig * e_j, and `sigs` holds sig as a
    packed monomial.  Members below `start` come from earlier inputs, so
    every multiple of them has a signature below each of input j's.
    `dms` holds each lead's exponent bytes with the SWAR guard bits set,
    so that `reduce_below` tests divisibility inline.  `excess` holds how
    far a member's tag terms rise above its lead's degree, 0 when they do
    not: a multiple of the member reaches the degree of the term it
    reduces plus that.
    """

    def __init__(self, ring: PolyRing, codec: ModuleCodec):
        super().__init__(ring, codec)
        self.sigs: list[int] = []
        self.dms: list[int] = []
        self.excess: list[int] = []
        self.start = 0

    def add(self, vec: dict, sig: int) -> int:
        idx = super().add(vec)
        self.sigs.append(sig)
        rc = self.ring._codec
        mono = self.monos[idx]
        self.dms.append((mono & rc.expmask) | rc.swar_high)
        tagbit, ex = self.codec.tagbit, 0
        if min(vec) < tagbit:
            top = max(k for k in vec if k < tagbit)  # the top tag term
            ex = max(rc.degree(self.codec.mono_of(top)) - rc.degree(mono), 0)
        self.excess.append(ex)
        return idx

    def reduce_below(self, vec: dict, sig: int) -> dict:
        """vec, a vector of signature sig * e_j, top-reduced by the
        multiples of members whose signature lies below it, until no such
        multiple reduces its lead; the tail is left as it comes.  The lead
        is then in the tag block, or vec is empty, when its working part
        vanished."""
        rc = self.ring._codec
        div, mul, degree = rc.div, rc.mul, rc.degree
        unit = self.ring.unit_key
        identmask, monomask = self.codec.identmask, self.codec.monomask
        buckets, monos, vecs, invs, sigs = self.buckets, self.monos, self.vecs, self.invs, self.sigs
        dms, excess, start = self.dms, self.excess, self.start
        expmask, high = rc.expmask, rc.swar_high
        p = self.p
        cap = self.ring.degree_cap
        work = dict(vec)
        while work:
            k = max(work)
            mono = (k & monomask) >> COMP_BITS
            hit = -1
            me = mono & expmask
            for i in buckets.get(k & identmask, ()):
                if (dms[i] - me) & high == high:  # lead i divides the term
                    if i < start or mul(div(mono, monos[i]), sigs[i]) < sig:
                        hit = i  # an earlier input's member lies below sig
                        break
            if hit < 0:
                return work
            ex = excess[hit]
            if ex and degree(mono) + ex > cap:
                raise DegreeCapError(f"reduction would pass degree {degree(mono) + ex} > cap {cap}")
            delta = (div(mono, monos[hit]) - unit) << COMP_BITS
            _subtract(work, work[k] * invs[hit] % p, delta, vecs[hit], p)
        return work


def signature_gb(inputs: list[dict], ring: PolyRing) -> tuple[VectorGB, list[dict]]:
    """Groebner basis of the span of `inputs`, and the syzygies of those
    inputs that carry tags: a signature-based run, which throws out most
    S-pairs that would reduce to zero before reducing them (Faugere, "A
    new efficient algorithm for computing Groebner bases without reduction
    to zero (F5)", ISSAC 2002; Eder and Faugere, "A survey on
    signature-based algorithms for computing Groebner bases", J. Symbolic
    Comput. 80, 2017).

    Input j stands for the basis vector e_j of a free module, and each
    element made carries as its signature the lead of a representation
    there, in the position-over-term order: index first, then the ring's
    monomial order.  Inputs with fewer working components get lower
    indices, then those with lower lead keys.  The run takes the inputs
    one at a time, and each one's S-pairs by ascending signature.  A pair
    is skipped when
      * a known syzygy signature divides its signature: lm(s) e_j for
        each polynomial s with s*e_c an earlier untagged single-component
        input or element for every component c that input j uses (the
        lifting helpers and copies of relations are such), and the
        signature of each reduction whose working part vanished;
      * an element of the same input newer than the pair's upper half
        has a signature dividing the pair's (F5's rewritten criterion);
      * an earlier pair with the same signature was reduced.
    Only leads are reduced, and only by multiples whose signature lies
    below the S-vector's (`_SignatureSet.reduce_below`).  Every S-vector
    whose working part does not vanish joins the elements, also one whose
    lead a multiple at its own signature would reduce: the rewritten
    criterion lets the newest element whose signature divides a pair's
    stand for it, so dropping such a vector would leave the pair's upper
    half, whose multiple at that signature is reducible, standing for the
    signature's multiples, and pairs reaching them would be skipped with
    none reduced in their place.  Before the next input,
    elements whose leads another element's lead divides are taken out;
    those left at the end, with their tags taken off, are the minimal
    basis `VectorGB` keeps, which tail-reduces them only when asked for
    the reduced basis.

    Tags (`syzygies_for` gives them) are tag-block terms of the inputs; in
    a run with tags the untagged inputs are the ideal helpers.  The first
    criterion skips a syzygy s*e_j - (s times input j, written in earlier
    elements) without recording it.  Only untagged vectors are noted for
    it, so s lies in the ideal, and the tags s*e_j that the skipped syzygy
    would carry vanish over the quotient.  A reduction whose working part
    vanishes leaves a syzygy in its tags; it is returned, as a tag-block
    vector, and pairs with nothing.

    Monomials past the degree cap raise before they are formed.  A
    signature is checked as it is formed; a pair's lcm is formed, by
    `mono_lcm`, which checks it, only when the pair is reduced.  In the
    working block a lead has the top degree, but a tag term may sit above
    it: so the tags of a reducer's multiple and of an S-vector are checked
    before the vector is formed.  Other monomials lie below one already
    formed: gcds and quotients of leads, and working terms of multiples.
    """
    codec = module_codec(ring)
    rc = ring._codec
    divides, div, mul, degree, gcd = rc.divides, rc.div, rc.mul, rc.degree, rc.gcd
    lcm = ring.mono_lcm
    p = ring.field.p
    cap = ring.degree_cap
    unit = ring.unit_key
    monomask, tagbit = codec.monomask, codec.tagbit
    expmask, high = rc.expmask, rc.swar_high
    red = _SignatureSet(ring, codec)
    vecs, monos, sigs, idents, buckets = red.vecs, red.monos, red.sigs, red.idents, red.buckets
    excess = red.excess
    alone: dict[frozenset, tuple[int, set]] = {}  # monic s at component 0 -> (lm(s), {c})
    syz: list[int] = []  # known syzygy signatures of the current input
    syzygies: list[dict] = []  # of the tagged inputs, in tags
    pairs: list[tuple[int, int, int]] = []  # heap of (signature, upper half, lower half)

    todo = [(v, {k & COMP_MASK for k in v if k & tagbit}) for v in inputs if v]
    todo.sort(key=lambda t: (len(t[1]), max(t[0])))

    def note_alone(vec: dict):
        comps = {k & COMP_MASK for k in vec}
        if len(comps) == 1 and min(vec) & tagbit:  # one component, no tags
            lead = max(vec)
            inv = pow(vec[lead], p - 2, p)
            key = frozenset((k | COMP_MASK, v * inv % p) for k, v in vec.items())
            alone.setdefault(key, ((lead & monomask) >> COMP_BITS, set()))[1].update(comps)

    def times(q: int, sig: int) -> int:
        deg = degree(q) + degree(sig)
        if deg > cap:
            raise DegreeCapError(f"signature would pass degree {deg} > cap {cap}")
        return mul(q, sig)

    def add(vec: dict, sig: int) -> bool:
        """Make vec, reduced at signature sig, an element and queue its
        pairs; False, with its tags kept as a syzygy, when its working
        part vanished."""
        if not (vec and max(vec) & tagbit):
            if vec:
                syzygies.append(vec)
            return False
        # Pair (g, h) has signature max(lcm / lm(h) * sig(h), lcm / lm(g) *
        # sig(g)), and lcm / lm(h) = lm(g) / gcd.
        h = red.add(vec, sig)
        mh = monos[h]
        for g in buckets[idents[h]][:-1]:
            mg = monos[g]
            d = gcd(mg, mh)
            s, top, low = times(div(mg, d), sig), h, g
            if g >= red.start:
                sg = times(div(mh, d), sigs[g])
                if sg == s:
                    continue  # not a regular pair
                if sg > s:
                    s, top, low = sg, g, h
            se = s & expmask
            if not any((z - se) & high == high for z in syz):
                heappush(pairs, (s, top, low))
        return True

    for vec, comps in todo:
        for h in range(red.start, len(vecs)):  # the previous input's members
            if red.alive[h]:
                note_alone(vecs[h])
        syz = [(lead & expmask) | high for lead, cs in alone.values() if comps <= cs]
        note_alone(vec)
        red.start = len(vecs)
        if not add(red.reduce_below(vec, 0), unit):  # every member lies below e_j
            continue
        last = -1
        while pairs:
            s, g, h = heappop(pairs)
            se = s & expmask
            if (
                s == last
                or any((z - se) & high == high for z in syz)
                or any(divides(sigs[k], s) for k in range(g + 1, len(vecs)))
            ):
                continue
            last = s
            tau = lcm(monos[g], monos[h])
            ex = max(excess[g], excess[h])
            if ex and degree(tau) + ex > cap:
                raise DegreeCapError(f"S-vector would pass degree {degree(tau) + ex} > cap {cap}")
            sv = red.s_vector(g, div(tau, monos[g]), h, div(tau, monos[h]))
            if not add(red.reduce_below(sv, s), s):
                syz.append(se | high)
        for h in range(red.start, len(vecs)):
            if red.alive[h]:
                red.drop_multiples(h)
    basis = [{k: c for k, c in vecs[i].items() if k & tagbit} for b in buckets.values() for i in b]
    return VectorGB(ring, basis), syzygies


# -- t-polynomials: numerators of Hilbert series ---------------------------


def _tp_shift(a: dict[int, int], s: int) -> dict[int, int]:
    return {d + s: c for d, c in a.items()}


def _tp_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for d, c in b.items():
        v = out.get(d, 0) - c
        if v:
            out[d] = v
        else:
            out.pop(d, None)
    return out


def _tp_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    return _tp_sub(a, {d: -c for d, c in b.items()})


def tp_value_at_one(a: dict[int, int]) -> int:
    return sum(a.values())


def _tp_dense(a: dict[int, int]) -> tuple[int, list[int]]:
    if not a:
        return 0, []
    lo, hi = min(a), max(a)
    arr = [0] * (hi - lo + 1)
    for d, c in a.items():
        arr[d - lo] = c
    return lo, arr


def tp_one_minus_t_valuation(a: dict[int, int]) -> int:
    """Multiplicity of the root t = 1."""
    v = 0
    while a and tp_value_at_one(a) == 0:
        lo, arr = _tp_dense(a)
        run = 0
        quot = {}
        for i, c in enumerate(arr[:-1]):
            run += c
            if run:
                quot[lo + i] = run
        a = quot
        v += 1
    return v


def tp_exact_quotient(a: dict[int, int], w: int) -> dict[int, int] | None:
    """a / (1 - t^w) if the division is exact, else None."""
    if not a:
        return {}
    lo, arr = _tp_dense(a)
    q = [0] * len(arr)
    for i in range(len(arr)):
        q[i] = arr[i] + (q[i - w] if i >= w else 0)
    if any(q[i] for i in range(max(len(arr) - w, 0), len(arr))):
        return None
    return {lo + i: c for i, c in enumerate(q[: max(len(arr) - w, 0)]) if c}


def tp_series(a: dict[int, int], weights: tuple[int, ...], upto: int) -> dict[int, int]:
    """Coefficients of a / prod(1 - t^w) through degree `upto`."""
    if not a:
        return {}
    lo, arr = _tp_dense(a)
    n = upto - lo + 1
    if n <= 0:
        return {}
    cur = (arr + [0] * n)[:n]
    for w in weights:
        for i in range(w, n):
            cur[i] += cur[i - w]
    return {lo + i: c for i, c in enumerate(cur) if c}


# -- numerators of monomial quotients ---------------------------------------


def _minimal_packed(gens, high: int) -> tuple[int, ...]:
    """The minimal generators, ascending, of the monomial ideal generated
    by `gens`, exponent vectors packed as `monomial_quotient_numerator`
    packs them.  Ascending order walks divisors before their multiples,
    and h divides g when every byte of (g | high) - h keeps its high bit
    (`high` holds 0x80 in each exponent byte): a SWAR test with no borrow
    between bytes, since exponents stay below 128."""
    keep: list[int] = []
    for g in sorted(set(gens)):
        gh = g | high
        for h in keep:
            if (gh - h) & high == high:
                break
        else:
            keep.append(g)
    return tuple(keep)


def _lru_get(cache: dict, key, build, bound: int):
    """`cache[key]`, made by `build()` on a miss, in a dict of at most
    `bound` entries kept in order of use: a hit moves its entry to the
    back, and a miss that finds the dict full drops the front one, the
    least recently used."""
    hit = cache.pop(key, None)
    if hit is None:
        hit = build()
        if len(cache) >= bound:
            del cache[next(iter(cache))]
    cache[key] = hit
    return hit


# Numerators of monomial quotients, shared by every context; past this many
# the least recently used one is dropped.
NUMERATOR_BOUND = 256
_numerator_memo: dict[tuple, dict[int, int]] = {}


def monomial_quotient_numerator(
    gens: tuple[tuple[int, ...], ...], weights: tuple[int, ...]
) -> dict[int, int]:
    """Numerator of the Hilbert series of S/(monomial ideal) over the
    denominator prod_v (1 - t^{w_v}), the ideal given by exponent vectors.

    Each vector is packed into one int: its total degree above one byte
    per variable, the first variable highest, so integer order is the
    order by degree, then lexicographic.  The numerator is then
    `_packed_numerator` of the minimal generators."""
    n = len(weights)
    packed = []
    for g in gens:
        key = sum(g)
        for e in g:
            key = key << 8 | e
        packed.append(key)
    return _packed_numerator(_minimal_packed(packed, _swar_high(n)), weights)


def _swar_high(nvars: int) -> int:
    return int.from_bytes(b"\x80" * nvars, "big")


def _packed_numerator(gens: tuple[int, ...], weights: tuple[int, ...]) -> dict[int, int]:
    """Numerator for the packed minimal generators `gens`, ascending: with
    g the last of them and I' the ideal of the others, HN(S/I) =
    HN(S/I') - t^{deg g} HN(S/(I' : g)), both memoized on their packed
    minimal generators.  The colon's generators are h / gcd(h, g), the
    bytewise max(h_v - g_v, 0), formed with SWAR as `_minimal_packed`
    tests divisibility: after (h | high) - g a byte keeps its high bit
    exactly where h_v >= g_v, and its low seven bits are then h_v - g_v."""
    if not gens:
        return {0: 1}
    if gens[0] == 0:
        return {}

    def build():
        n = len(weights)
        bits = 8 * n
        mask = (1 << bits) - 1
        high = _swar_high(n)
        *rest, pivot = gens
        low = pivot & mask
        colon = []
        for h in rest:
            t = ((h & mask) | high) - low
            top = t & high
            c = t & (top - (top >> 7))
            colon.append(sum(c.to_bytes(n, "big")) << bits | c)
        wdeg = sum(map(mul, weights, low.to_bytes(n, "big")))
        return _tp_sub(
            _packed_numerator(tuple(rest), weights),
            _tp_shift(_packed_numerator(_minimal_packed(colon, high), weights), wdeg),
        )

    return _lru_get(_numerator_memo, (weights, gens), build, NUMERATOR_BOUND)


# -- quotient ring contexts --------------------------------------------------


class RingCtx:
    """A graded quotient R = GF(p)[x_1..x_n]/I with cached Groebner data.

    Relations must be homogeneous of positive degree, so R is a standard
    (or weighted) graded algebra and every module over it decomposes into
    finite-dimensional graded pieces.
    """

    def __init__(self, ring: PolyRing, relations=()):
        rels = list(relations)
        for f in rels:
            if not isinstance(f, Polynomial) or f.ring is not ring:
                raise ValueError("relations must be polynomials of the given ring")
            if f.is_zero():
                raise ValueError("zero relation")
            if not f.is_homogeneous():
                raise ValueError(f"relation {f} is not homogeneous")
            if f.degree() < 1:
                raise ValueError(f"relation {f} is a unit")
        self.ring = ring
        self.codec = module_codec(ring)
        self.relations = tuple(rels)
        vecs = [{self.codec.mkey(k, 0): c for k, c in f.raw().items()} for f in rels]
        gbv, _ = signature_gb(vecs, ring)
        mono_of = self.codec.mono_of
        self.ideal_gb: tuple[dict[int, int], ...] = tuple(
            {mono_of(k): c for k, c in vec.items()} for vec in gbv
        )
        self.ideal_leads: tuple[int, ...] = tuple(max(g) for g in self.ideal_gb)
        p = ring.field.p
        self._ideal_lead_invs = tuple(
            pow(g[m], p - 2, p) for g, m in zip(self.ideal_gb, self.ideal_leads)
        )
        self._ideal_maxdeg = tuple(
            max(ring.mono_degree(k) for k in g) for g in self.ideal_gb
        )
        lead_exps = tuple(ring.decode_monomial(m) for m in self.ideal_leads)
        self.numerator = monomial_quotient_numerator(lead_exps, ring.weights)
        self.dim = ring.nvars - tp_one_minus_t_valuation(self.numerator)
        hf = self.numerator
        for w in ring.weights:
            if hf is None:
                break
            hf = tp_exact_quotient(hf, w)
        if self.dim == 0:
            if hf is None:
                raise InvariantViolation("artinian ring with non-polynomial series")
            self._hf = hf
            self.top_degree = max(hf) if hf else 0
            self.length = tp_value_at_one(hf)
        else:
            self._hf = None
            self.top_degree = None
            self.length = None
        self._std: dict[int, list[int]] = {}
        # Slot for caches living in higher layers (resolutions, modules).
        self.scratch: dict = {}

    @property
    def is_artinian(self) -> bool:
        return self.dim == 0

    def hilbert_function(self, degree: int) -> int:
        """dim_k R_degree."""
        if degree < 0:
            return 0
        if self._hf is not None:
            return self._hf.get(degree, 0)
        return tp_series(self.numerator, self.ring.weights, degree).get(degree, 0)

    def std_monomials(self, degree: int) -> list[int]:
        """Monomial basis of R_degree (packed keys, descending)."""
        hit = self._std.get(degree)
        if hit is not None:
            return hit
        ring = self.ring
        divides = ring.mono_divides
        keys = []
        for exps in ring.monomials_of_degree(degree):
            k = ring.encode_monomial(exps)
            if not any(divides(lead, k) for lead in self.ideal_leads):
                keys.append(k)
        keys.sort(reverse=True)
        self._std[degree] = keys
        return keys

    def __repr__(self) -> str:
        rels = ", ".join(str(f) for f in self.relations) or "0"
        return f"{self.ring!r} / ({rels})"


def reduce_vec_by_ideal(vec: dict, ctx: RingCtx) -> dict:
    """Full normal form of every component of vec modulo the defining ideal.

    Monomials are divided and multiplied by the codec, unchecked: the
    degree-cap test on each quotient bounds every product it makes."""
    ring = ctx.ring
    rc = ring._codec
    divides, div, mul, degree = rc.divides, rc.div, rc.mul, rc.degree
    p = ring.field.p
    monomask = ctx.codec.monomask
    leads, gb, invs = ctx.ideal_leads, ctx.ideal_gb, ctx._ideal_lead_invs
    maxdegs = ctx._ideal_maxdeg
    cap = ring.degree_cap
    work = dict(vec)
    out: dict[int, int] = {}
    while work:
        k = max(work)
        mono = (k & monomask) >> COMP_BITS
        hit = -1
        for i, lead in enumerate(leads):
            if divides(lead, mono):
                hit = i
                break
        if hit < 0:
            out[k] = work.pop(k)
            continue
        quot = div(mono, leads[hit])
        qdeg = degree(quot)
        if qdeg and qdeg + maxdegs[hit] > cap:
            raise DegreeCapError(f"reduction passes the degree cap {cap}")
        factor = work[k] * invs[hit] % p
        for mk, c in gb[hit].items():
            nk = k + ((mul(quot, mk) - mono) << COMP_BITS)
            v = (work.get(nk, 0) - factor * c) % p
            if v:
                work[nk] = v
            else:
                work.pop(nk, None)
    return out


def quotient_helpers(ctx: RingCtx, rank: int) -> list[dict]:
    """The vectors q*e_c for ideal basis elements q: lifting a module over
    R = S/I to S means adjoining these."""
    out = []
    for c in range(rank):
        for g in ctx.ideal_gb:
            out.append({ctx.codec.mkey(mk, c): coeff for mk, coeff in g.items()})
    return out


def module_gb(ctx: RingCtx, vectors: list[dict], rank: int) -> VectorGB:
    """Groebner basis over R of the span of `vectors` inside R^rank.

    Computed by lifting: the basis of the span over S of the vectors plus
    the ideal helpers reduces vectors exactly as the quotient would.  It
    is a plain run of `signature_gb`, which needs no twists: it takes its
    S-pairs by signature, not by degree.
    """
    return signature_gb(list(vectors) + quotient_helpers(ctx, rank), ctx.ring)[0]


def syzygies_for(ctx: RingCtx, vectors: list[dict], rank: int) -> list[dict]:
    """Generators of the syzygy module over R of `vectors` in R^rank, in a
    free module with one component per input vector, reduced modulo the
    ideal and sorted by lead.

    Vector j carries the unit tag e_j, and the lifting helpers carry none,
    so each syzygy the run returns holds the coordinates, over the
    polynomial ring, of a syzygy over R of the vectors alone.
    """
    codec = ctx.codec
    unit = ctx.ring.unit_key
    tagged = [{**v, codec.mkey(unit, j, tag=True): 1} for j, v in enumerate(vectors)]
    _, syz = signature_gb(tagged + quotient_helpers(ctx, rank), ctx.ring)
    out = []
    for s in syz:
        v = reduce_vec_by_ideal({k | codec.tagbit: c for k, c in s.items()}, ctx)
        if v:
            out.append(v)
    out.sort(key=max)
    return out


def component_numerators(ctx: RingCtx, gbv: VectorGB, rank: int) -> list[dict[int, int]]:
    """Per component c, the Hilbert numerator of S / in(span)_c: the lead
    module depends on the span and the monomial order alone, so these
    carry no twist.  Lead monomials are packed as
    `monomial_quotient_numerator` packs exponent vectors, straight from
    their keys: a key's exponent bytes hold 127 - e_v, the last variable
    highest, so subtracting them from the unit's gives e_v, and reversing
    the bytes puts the first variable highest."""
    ring = ctx.ring
    codec = gbv.codec
    n = ring.nvars
    bits = 8 * n
    unit, expmask = ring._codec.unit_exp, ring._codec.expmask
    groups: list[list[int]] = [[] for _ in range(rank)]
    for k in gbv.leads():
        exps = (unit - (codec.mono_of(k) & expmask)).to_bytes(n, "little")
        groups[codec.comp_of(k)].append(sum(exps) << bits | int.from_bytes(exps, "big"))
    high = _swar_high(n)
    return [_packed_numerator(_minimal_packed(g, high), ring.weights) for g in groups]


def twisted_numerator(parts: list[dict[int, int]], twists: tuple[int, ...]) -> dict[int, int]:
    """Sum over c of t^{twists[c]} * parts[c] (twist 0 past the end)."""
    out: dict[int, int] = {}
    for c, num in enumerate(parts):
        out = _tp_add(out, _tp_shift(num, twists[c] if c < len(twists) else 0))
    return out

