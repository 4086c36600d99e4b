"""Polynomial rings over small prime fields with packed-integer monomials.

Each monomial lives in a single Python int, laid out so that ordinary
integer comparison realizes the one term order, weighted grevlex: the
weighted degree occupies the high bits, below it one byte per variable
holding the complemented exponent 127 - e, with the last variable in the
most significant byte.  Bigger int = bigger monomial.  Every question the
program asks (resolutions, Betti numbers, Hilbert series, Ext and Tor
dimensions) reads graded data that no term order changes.

Multiplication and division of monomials are then single integer additions
or subtractions, and divisibility is a three-operation SWAR test.  Exponents
stay below 128 because the ring enforces a total degree cap of at most 127.
"""

from __future__ import annotations

import math
import re
from operator import mul
from typing import Iterator, Sequence

from .errors import DegreeCapError, ParseError

_MAX_VARS = 12
_MAX_CAP = 127
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    for d in range(3, math.isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


class FieldSpec:
    """The prime field GF(p), 2 <= p < 2**20."""

    __slots__ = ("p",)

    def __init__(self, p: int = 101):
        if not isinstance(p, int) or not 2 <= p < 2**20 or not _is_prime(p):
            raise ValueError(f"field order must be a prime below 2**20, got {p!r}")
        self.p = p

    def coerce(self, a: int) -> int:
        return a % self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class _GrevlexCodec:
    def __init__(self, nvars: int, weights: tuple[int, ...]):
        self.nvars = nvars
        self.weights = weights
        self.full_weight = 127 * sum(weights)  # weighted degree with every exponent 127
        self.expbits = 8 * nvars
        self.expmask = (1 << self.expbits) - 1
        self.swar_high = int.from_bytes(b"\x80" * nvars, "big")
        self.unit_exp = int.from_bytes(b"\x7f" * nvars, "big")

    def encode(self, exps: Sequence[int], deg: int) -> int:
        key = deg << self.expbits
        for v, e in enumerate(exps):
            key |= (127 - e) << (8 * v)
        return key

    def decode(self, key: int) -> tuple[int, ...]:
        return tuple(127 - ((key >> (8 * v)) & 0xFF) for v in range(self.nvars))

    def degree(self, key: int) -> int:
        return key >> self.expbits

    def mul(self, a: int, b: int) -> int:
        return a + b - self.unit_exp

    def div(self, a: int, b: int) -> int:
        return a - b + self.unit_exp

    def divides(self, b: int, a: int) -> bool:
        # Complemented bytes, so b | a means every byte of b >= that of a.
        be = b & self.expmask
        ae = a & self.expmask
        h = self.swar_high
        return ((be | h) - ae) & h == h

    def lcm(self, a: int, b: int) -> int:
        # Bytewise max of the exponents is the min of the complemented
        # bytes; `ge` holds 0xFF in each byte where a's byte >= b's.
        ea = a & self.expmask
        eb = b & self.expmask
        h = self.swar_high
        ge = ((((ea | h) - eb) & h) >> 7) * 0xFF
        exps = (eb & ge) | (ea & ~ge)
        return self._with_degree(exps)

    def gcd(self, a: int, b: int) -> int:
        # Bytewise min of the exponents: the max of the complemented bytes.
        ea = a & self.expmask
        eb = b & self.expmask
        h = self.swar_high
        ge = ((((ea | h) - eb) & h) >> 7) * 0xFF
        return self._with_degree((ea & ge) | (eb & ~ge))

    def _with_degree(self, exps: int) -> int:
        comp = exps.to_bytes(self.nvars, "little")  # byte v is 127 - e_v
        deg = self.full_weight - sum(map(mul, self.weights, comp))
        return (deg << self.expbits) | exps


class PolyRing:
    """GF(p)[x_1..x_n] in weighted grevlex, with a total degree cap.

    The cap protects the packed representation (every exponent and every
    weighted degree must fit in seven bits) and doubles as the resource
    guard: any operation whose result would exceed it raises
    DegreeCapError instead of silently growing.
    """

    def __init__(
        self,
        field: FieldSpec,
        variables: Sequence[str],
        weights: Sequence[int] | None = None,
        degree_cap: int = 64,
    ):
        if not isinstance(field, FieldSpec):
            field = FieldSpec(field)
        names = tuple(variables)
        if not 1 <= len(names) <= _MAX_VARS:
            raise ValueError(f"need between 1 and {_MAX_VARS} variables, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for nm in names:
            if not _IDENT.match(nm):
                raise ValueError(f"invalid variable name {nm!r}")
        w = tuple(weights) if weights is not None else (1,) * len(names)
        if len(w) != len(names) or any(not isinstance(x, int) or x < 1 for x in w):
            raise ValueError(f"weights must be positive ints, one per variable, got {w}")
        if not 1 <= degree_cap <= _MAX_CAP:
            raise ValueError(f"degree cap must lie in 1..{_MAX_CAP}, got {degree_cap}")
        self.field = field
        self.variables = names
        self.weights = w
        self.degree_cap = degree_cap
        self.nvars = len(names)
        self._codec = _GrevlexCodec(self.nvars, w)
        self.unit_key = self._codec.encode((0,) * self.nvars, 0)
        self._var_index = {nm: v for v, nm in enumerate(names)}
        self._var_keys = tuple(
            self._codec.encode(tuple(int(u == v) for u in range(self.nvars)), w[v])
            for v in range(self.nvars)
        )
        self._degree_keys: dict[int, tuple[int, ...]] = {}  # see `random_homogeneous`

    # -- monomial codec ------------------------------------------------

    def encode_monomial(self, exps: Sequence[int]) -> int:
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps} for {self!r}")
        deg = sum(w * e for w, e in zip(self.weights, exps))
        if deg > self.degree_cap:
            raise DegreeCapError(f"monomial degree {deg} exceeds cap {self.degree_cap}")
        return self._codec.encode(exps, deg)

    def decode_monomial(self, key: int) -> tuple[int, ...]:
        return self._codec.decode(key)

    def mono_degree(self, key: int) -> int:
        return self._codec.degree(key)

    def mono_mul(self, a: int, b: int) -> int:
        deg = self._codec.degree(a) + self._codec.degree(b)
        if deg > self.degree_cap:
            raise DegreeCapError(f"product degree {deg} exceeds cap {self.degree_cap}")
        return self._codec.mul(a, b)

    def mono_divides(self, b: int, a: int) -> bool:
        return self._codec.divides(b, a)

    def mono_lcm(self, a: int, b: int) -> int:
        codec = self._codec
        if codec.divides(a, b):
            return b
        if codec.divides(b, a):
            return a
        key = codec.lcm(a, b)
        deg = codec.degree(key)
        if deg > self.degree_cap:
            raise DegreeCapError(f"monomial degree {deg} exceeds cap {self.degree_cap}")
        return key

    # -- element constructors -------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, {self.unit_key: 1})

    def constant(self, c: int) -> "Polynomial":
        c = self.field.coerce(c)
        return Polynomial(self, {self.unit_key: c} if c else {})

    def variable(self, which: str | int) -> "Polynomial":
        v = self._var_index[which] if isinstance(which, str) else which
        return Polynomial(self, {self._var_keys[v]: 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(v) for v in range(self.nvars))

    def parse(self, text: str) -> "Polynomial":
        return _PolyParser(self, text).parse()

    def random_homogeneous(self, rng, degree: int, density: float = 1.0) -> "Polynomial":
        """Random homogeneous element of the given weighted degree.

        The packed keys of the degree's monomials are encoded once per ring
        and degree; the draws from `rng` are the same as when each monomial
        was encoded on every call."""
        keys = self._degree_keys.get(degree)
        if keys is None:
            keys = tuple(self.encode_monomial(e) for e in self.monomials_of_degree(degree))
            self._degree_keys[degree] = keys
        p = self.field.p
        acc: dict[int, int] = {}
        for key in keys:
            if density < 1.0 and rng.random() >= density:
                continue
            c = rng.randrange(p)
            if c:
                acc[key] = c
        return Polynomial(self, acc)

    def monomials_of_degree(self, degree: int) -> Iterator[tuple[int, ...]]:
        """All exponent vectors of exact weighted degree, lexicographic order."""
        if degree > self.degree_cap:
            raise DegreeCapError(f"degree {degree} exceeds cap {self.degree_cap}")
        if degree < 0:
            return

        def rec(v: int, left: int, prefix: tuple[int, ...]):
            if v == self.nvars - 1:
                w = self.weights[v]
                if left % w == 0:
                    yield prefix + (left // w,)
                return
            w = self.weights[v]
            for e in range(left // w, -1, -1):
                yield from rec(v + 1, left - w * e, prefix + (e,))

        yield from rec(0, degree, ())

    def format_monomial(self, key: int) -> str:
        exps = self.decode_monomial(key)
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        # Error messages, and so reports, embed this; keep its text stable.
        return f"GF({self.field.p})[{', '.join(self.variables)}] (grevlex)"


class Polynomial:
    """Element of a PolyRing: a dict from packed monomial key to coefficient.

    Instances are treated as immutable; every operation builds a new dict.
    """

    __slots__ = ("ring", "_t")

    def __init__(self, ring: PolyRing, terms: dict[int, int]):
        self.ring = ring
        self._t = terms

    # -- inspection -----------------------------------------------------

    def raw(self) -> dict[int, int]:
        """The underlying key -> coefficient dict (do not mutate)."""
        return self._t

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def degree(self) -> int:
        """Max weighted degree of a term; -1 for the zero polynomial."""
        if not self._t:
            return -1
        d = self.ring.mono_degree
        return max(d(k) for k in self._t)

    def is_homogeneous(self) -> bool:
        if not self._t:
            return True
        d = self.ring.mono_degree
        degs = {d(k) for k in self._t}
        return len(degs) == 1

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                raise ValueError("mixing polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.field.p
        out = dict(self._t)
        for k, c in other._t.items():
            c2 = (out.get(k, 0) + c) % p
            if c2:
                out[k] = c2
            else:
                out.pop(k, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, {k: p - c for k, c in self._t.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = self.ring.field.coerce(other)
            if c == 0:
                return self.ring.zero
            p = self.ring.field.p
            return Polynomial(self.ring, {k: v * c % p for k, v in self._t.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        p = ring.field.p
        mul = ring.mono_mul
        out: dict[int, int] = {}
        # Iterate the smaller factor outside.
        a, b = (self._t, other._t) if len(self._t) <= len(other._t) else (other._t, self._t)
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = mul(ka, kb)
                c = (out.get(k, 0) + ca * cb) % p
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
        return Polynomial(ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {e!r}")
        out = self.ring.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._t == self.ring.constant(other)._t
        return (
            isinstance(other, Polynomial)
            and other.ring is self.ring
            and other._t == self._t
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), frozenset(self._t.items())))

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._t:
            return "0"
        ring = self.ring
        p = ring.field.p
        half = p // 2
        chunks: list[str] = []
        for k in sorted(self._t, reverse=True):
            c = self._t[k]
            # Balanced representative: small magnitudes print with a sign.
            sign, mag = ("-", p - c) if c > half else ("+", c)
            mono = ring.format_monomial(k)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\*\*|\^|[-+*()])"
)


class _PolyParser:
    """Recursive descent over +, -, *, ^ (or **), parentheses and literals."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", 1, pos + 1)
            if m.lastgroup != "ws":
                tok = m.group()
                self.tokens.append(("op" if m.lastgroup == "op" else m.lastgroup, tok, pos))
            pos = m.end()
        self.i = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", 1, len(self.text) + 1)
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", 1, tok[2] + 1)

    def parse(self) -> Polynomial:
        out = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input starting at {tok[1]!r}", 1, tok[2] + 1)
        return out

    def _expr(self) -> Polynomial:
        tok = self._peek()
        negate = False
        if tok and tok[0] == "op" and tok[1] in "+-":
            self._next()
            negate = tok[1] == "-"
        acc = self._term()
        if negate:
            acc = -acc
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self._next()
                rhs = self._term()
                acc = acc + rhs if tok[1] == "+" else acc - rhs
            else:
                return acc

    def _term(self) -> Polynomial:
        acc = self._factor()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self._next()
                acc = acc * self._factor()
            else:
                return acc

    def _factor(self) -> Polynomial:
        base = self._base()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] in ("^", "**"):
            self._next()
            etok = self._next()
            if etok[0] != "int":
                raise ParseError(f"exponent must be an integer, found {etok[1]!r}", 1, etok[2] + 1)
            return base ** int(etok[1])
        return base

    def _base(self) -> Polynomial:
        tok = self._next()
        kind, text, pos = tok
        if kind == "int":
            return self.ring.constant(int(text))
        if kind == "name":
            if text not in self.ring._var_index:
                raise ParseError(f"unknown variable {text!r}", 1, pos + 1)
            return self.ring.variable(text)
        if kind == "op" and text == "(":
            inner = self._expr()
            self._expect_op(")")
            return inner
        if kind == "op" and text == "-":
            return -self._factor()
        raise ParseError(f"unexpected token {text!r}", 1, pos + 1)
