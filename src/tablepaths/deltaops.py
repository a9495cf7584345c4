"""Integer polynomials in the forward difference operator.

``DeltaPoly`` holds ascending integer coefficients of a polynomial in the
operator D defined by (D a)(n) = a(n+1) - a(n).  Applied to an integer
sequence, such a polynomial yields another integer sequence; D + 1 acts as
the index shift E.  Since D = E - 1, p(D) is evaluated as p(E - 1): the
shift coefficients of p(x - 1) are computed once per polynomial and each
value is their dot product with a stretch of the sequence.

Products, compositions and evaluations run on packed ints (Kronecker
substitution): a polynomial or a sequence becomes one int with one
fixed-width slot per coefficient or value, wide enough that every result
fits in the lower half of its slot.  A product is then one big-int
multiply, a composition is Horner's rule on the packed inner polynomial,
and one balanced decode reads either result back.  ``Windows`` evaluates a
polynomial at n = 1..N of a sequence as one product of the packed sequence
with the packed reversed shift coefficients, and compares such windows as
ints without decoding them; ``DeltaPoly.apply`` takes the dot product at
one n directly and is the windows' independent reference.

Three operator families drive everything else in this package.  All share
the recursion

    X(n+2) = D * X(n+1) - X(n)

and differ only in their seeds:

    odd family    2,  D        (attached to tables with an odd row count)
    even family   1,  D - 1    (attached to tables with an even row count)
    prime family  1,  D        (the auxiliary family; index -1 is 0)

``multiplier`` generates members by the recursion, ``closed_form`` by an
explicit binomial sum, and the verify_* functions check the identity suite
that relates the families to each other and to classical polynomial
families (Chebyshev, Fibonacci, Lucas).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import comb
from operator import add, mul, neg, sub
from struct import Struct

from .errors import DomainError
from .gfmatrix import factor


def _binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(int(v) for v in c)


# -- Kronecker substitution --------------------------------------------------
#
# A polynomial with ascending coefficients c_i packs into the one int
# sum c_i * 2**(8*w*i): a slot of w bytes per coefficient, each coefficient
# smaller in size than a half slot.  Flipping the top bit of every slot of
# their two's complement bytes adds a half slot to each, so packing reads
# the bytes as one unsigned int and subtracts the half slots; decoding adds
# them back, which leaves no borrow between slots, flips the top bits again
# and reads the two's complement slots from one to_bytes.  Slots up to 8
# bytes are rounded up to a struct width and move through one call of a
# struct.Struct.  ``_shape`` gives the half-slot mask and the Struct of a
# (width, count) shape.  Shapes of a struct width and at most 1024 slots
# come from one least-recently-used cache of 256 shapes, so the masks never
# take more than 2 MB whatever the input; every other shape is built at each
# use.  The verify suite's benchmark mix (m_max 23..27, n_max 40..110)
# reads 170 distinct shapes from a fresh process, so 256 holds that working
# set and a repeated request builds none.

# struct codes of little-endian signed slots, keyed by slot width in bytes.
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
# Bytes per slot by bit count, for the bit counts that fit a struct width.
_STRUCT_WIDTHS = bytes(next(w for w in _SLOT_CODES if 8 * w >= bits)
                       for bits in range(65))


def _slot_width(bits: int) -> int:
    """Bytes per slot for slots of ``bits`` bits, sign included."""
    return _STRUCT_WIDTHS[bits] if bits <= 64 else (bits + 7) // 8


@lru_cache(maxsize=256)
def _cached_shape(width: int, count: int) -> tuple[int, Struct | None]:
    half = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    return half, Struct(f"<{count}{_SLOT_CODES[width]}") if width <= 8 else None


def _shape(width: int, count: int) -> tuple[int, Struct | None]:
    """The half-slot mask of ``count`` slots of ``width`` bytes, and their
    Struct when ``width`` is a struct width."""
    if width <= 8 and count <= 1024:
        return _cached_shape(width, count)
    return _cached_shape.__wrapped__(width, count)


def _pack(coeffs, width: int) -> int:
    half, struct = _shape(width, len(coeffs))
    if struct:
        raw = struct.pack(*coeffs)
    else:
        raw = b"".join([c.to_bytes(width, "little", signed=True)
                        for c in coeffs])
    return (int.from_bytes(raw, "little") ^ half) - half


def _unpack(value: int, width: int, count: int) -> list[int]:
    half, struct = _shape(width, count)
    raw = ((value + half) ^ half).to_bytes(count * width, "little")
    if struct:
        return list(struct.unpack(raw))
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


def _poly(coeffs: list[int]) -> DeltaPoly:
    """A ring result of plain ints: trims trailing zeros and skips the
    public constructor's int() pass."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    poly = object.__new__(DeltaPoly)
    object.__setattr__(poly, "coeffs", tuple(coeffs))
    return poly


@dataclass(frozen=True)
class DeltaPoly:
    """Canonical integer polynomial in D, ascending coefficients."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "DeltaPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly([*map(add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self) -> "DeltaPoly":
        return _poly(list(map(neg, self.coeffs)))

    def __sub__(self, other) -> "DeltaPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return _poly([*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])])

    def __rsub__(self, other) -> "DeltaPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "DeltaPoly":
        """One big-int product of the packed operands.  A slot of
        bitlen(max|a|) + bitlen(max|b|) + bitlen(min(len)) + 1 bits holds
        every product coefficient in its lower half.  An operand of one
        coefficient scales the other directly."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(b) < 2:
            return _poly([v * b[0] for v in a]) if b else ZERO
        bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                + min(len(a), len(b)).bit_length() + 1)
        width = _slot_width(bits)
        return _poly(_unpack(_pack(a, width) * _pack(b, width), width,
                             len(a) + len(b) - 1))

    __rmul__ = __mul__

    def compose(self, inner: "DeltaPoly") -> "DeltaPoly":
        """Substitute ``inner`` for D in self by Kronecker substitution.

        ``inner`` is packed once, i.e. evaluated at 2**(8 * width); Horner's
        rule runs on that plain int and one decode reads the result.  With
        S = sum |inner|, every result coefficient is at most
        B = sum |c_i| * S**i, and the slot holds B in its lower half; for a
        non-constant self, B also bounds every coefficient of ``inner``.
        """
        c, g = self.coeffs, inner.coeffs
        if len(c) < 2:
            return self
        size = sum(map(abs, g))
        bound = 0
        for v in reversed(c):
            bound = bound * size + abs(v)
        width = _slot_width(bound.bit_length() + 1)
        x = _pack(g, width)
        value = 0
        for v in reversed(c):
            value = value * x + v
        count = (len(c) - 1) * max(len(g) - 1, 0) + 1
        return _poly(_unpack(value, width, count))

    def divmod_monic(self, divisor: "DeltaPoly") -> tuple["DeltaPoly", "DeltaPoly"]:
        """Exact quotient and remainder by a monic divisor over the integers."""
        if divisor.is_zero:
            raise DomainError("division by the zero polynomial")
        if not divisor.is_monic:
            raise DomainError(f"divisor must be monic, got {divisor}")
        rem = list(self.coeffs)
        dq = divisor.degree
        if dq == 0:
            return self, ZERO
        quot = [0] * max(0, len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c:
                quot[i - dq] = c
                for j, dv in enumerate(divisor.coeffs):
                    rem[i - dq + j] -= c * dv
        return DeltaPoly(tuple(quot)), DeltaPoly(tuple(rem))

    @cached_property
    def shift_coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients of self evaluated at x - 1.

        The additive Taylor shift: d(d+1)/2 integer subtractions, no
        binomials.  Cached in the instance ``__dict__``, which equality and
        hashing never read.
        """
        a = list(self.coeffs)
        d = len(a) - 1
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                a[j] -= a[j + 1]
        return tuple(a)

    def apply(self, seq, n: int) -> int:
        """Evaluate (self applied to seq) at index ``n``.

        ``seq`` is read with 1-based indexing: its first element is the
        sequence value at index 1.  Requires values up to n + degree, i.e.
        len(seq) >= n + degree.  With D = E - 1 for the index shift E, the
        value is p(E - 1) applied at n: the dot product of ``shift_coeffs``
        with seq(n), ..., seq(n + degree).
        """
        if n < 1:
            raise DomainError(f"index must be >= 1, got {n}")
        if self.is_zero:
            return 0
        end = n + self.degree
        if end > len(seq):
            raise DomainError(
                f"need sequence values up to index {end}, have {len(seq)}")
        return sum(map(mul, self.shift_coeffs, seq[n - 1:end]))

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self.coeffs, "Δ")


def _coerce(value):
    if isinstance(value, DeltaPoly):
        return value
    if isinstance(value, int):
        return DeltaPoly((value,))
    return NotImplemented


ZERO = DeltaPoly(())
ONE = DeltaPoly((1,))
DELTA = DeltaPoly((0, 1))


# -- windowed evaluation -----------------------------------------------------


class Windows:
    """Values of Δ-polynomials at n = 1..count of integer sequences, one
    big-int product per polynomial and sequence.

    The sequences are packed once, each cut to the count + d values the
    windows read (d the largest degree in ``polys``; the zero polynomial
    reads none), at one slot width that holds ``weight`` times their
    largest value times the largest sum of |shift_coeffs| in ``polys`` in
    the lower half of a slot.  Packed sequences add and scale like the
    sequences they pack while the values stay within ``weight`` times that
    largest value.

    ``apply(p, packed)`` multiplies a packed sequence by p's shift
    coefficients packed in reverse order: slot n - 1 + degree of the
    product is their dot product with seq(n), ..., seq(n + degree), the
    value at n.  The window is those count slots with half a slot added to
    each, so no slot borrows from the next, and two windows are equal ints
    exactly when their values are.
    """

    def __init__(self, count: int, seqs, polys, weight: int = 1):
        if count < 0:
            raise DomainError(f"window length must be >= 0, got {count}")
        length = max((count + p.degree for p in polys if p.coeffs), default=0)
        for seq in seqs:
            if len(seq) < length:
                raise DomainError(f"need sequence values up to index "
                                  f"{length}, have {len(seq)}")
        seqs = [seq[:length] for seq in seqs]
        bound = weight * max(map(abs, chain.from_iterable(seqs)), default=0)
        reach = max(sum(map(abs, p.shift_coeffs)) for p in polys)
        width = _slot_width(bound.bit_length() + reach.bit_length() + 1)
        self.width, self.count = width, count
        self._slot_bits = 8 * width
        self._mask = (1 << self._slot_bits * count) - 1
        # The window whose values are all zero.
        self.zero = _shape(width, count)[0]
        # poly -> (packed reversed shift coefficients, bit offset of its
        # window, half slots up to the window's end)
        self._polys = {}
        for p in polys:
            d = max(p.degree, 0)
            self._polys[p] = (_pack(p.shift_coeffs[::-1], width),
                              self._slot_bits * d,
                              _shape(width, count + d)[0])
        self.seqs = [_pack(seq, width) for seq in seqs]

    def apply(self, poly: DeltaPoly, packed: int) -> int:
        """The window of ``poly``, one of the constructor's polynomials,
        applied to a packed sequence."""
        coeffs, offset, half = self._polys[poly]
        return ((packed * coeffs + half) >> offset) & self._mask

    def values(self, window: int) -> list[int]:
        """The values at n = 1..count held in a window."""
        return _unpack(window - self.zero, self.width, self.count)

    def first_difference(self, pairs) -> tuple[int, int] | None:
        """(n, i) for the first index n at which a pair of windows differs,
        and the first pair i that differs at n; None when every pair is
        equal.  The lowest bit in which the two windows differ lies in
        slot n - 1."""
        found = None
        for i, (left, right) in enumerate(pairs):
            if diff := left ^ right:
                n = ((diff & -diff).bit_length() - 1) // self._slot_bits + 1
                if found is None or n < found[0]:
                    found = (n, i)
        return found


# -- pretty printing ---------------------------------------------------------


def format_poly(coeffs, var: str = "Δ") -> str:
    """Render ascending coefficients as a descending-power string."""
    coeffs = _trim(coeffs)
    if not coeffs:
        return "0"
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# -- the operator families ---------------------------------------------------


class Family(Enum):
    """Parity tag selecting one of the three operator families."""

    ODD = "odd"
    EVEN = "even"
    PRIME = "prime"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality and skips Enum's Python-level hash of the name.
    # No set of families is iterated, so its order never shows.
    __hash__ = object.__hash__


def parity_family(m: int) -> Family:
    """Family attached to a table with m rows."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    return Family.ODD if m % 2 else Family.EVEN


def base_constant(family: Family) -> int:
    """The index-0 member (a constant polynomial)."""
    return 2 if family is Family.ODD else 1


# Members are built iteratively and memoised; entry i of the list holds the
# member of index i + lowest_index(family).  Lists only grow: growing holds
# the lock, and members already present are read without it.
_SEEDS: dict[Family, list[DeltaPoly]] = {
    Family.ODD: [DeltaPoly((2,)), DELTA],
    Family.EVEN: [ONE, DeltaPoly((-1, 1))],
    Family.PRIME: [ZERO, ONE],   # indices -1 and 0
}
_members: dict[Family, list[DeltaPoly]] = {f: list(s) for f, s in _SEEDS.items()}
_members_lock = threading.Lock()


def _lowest_index(family: Family) -> int:
    return -1 if family is Family.PRIME else 0


def multiplier(family: Family, n: int) -> DeltaPoly:
    """Member of index n, generated by X(n+2) = D*X(n+1) - X(n)."""
    lo = _lowest_index(family)
    if n < lo:
        raise DomainError(f"{family.value} family has no index {n}")
    seq = _members[family]
    if n - lo >= len(seq):
        with _members_lock:
            while len(seq) <= n - lo:
                seq.append(DELTA * seq[-1] - seq[-2])
    return seq[n - lo]


def closed_form(family: Family, n: int) -> DeltaPoly:
    """Member of index n from its explicit binomial coefficient sum."""
    if n < 0:
        raise DomainError(f"closed form needs n >= 0, got {n}")
    if n == 0:
        return DeltaPoly((base_constant(family),))
    size = n + 1
    out = [0] * size
    if family is Family.ODD:
        for i in range(n // 2 + 1):
            c = _binom(n + 1 - i, i) - _binom(n - 1 - i, i - 2)
            out[n - 2 * i] = c if i % 2 == 0 else -c
    elif family is Family.EVEN:
        for i in range(n + 1):
            c = _binom(n - (i + 1) // 2, i // 2)
            out[n - i] = c if ((i + 1) // 2) % 2 == 0 else -c
    else:
        for i in range(n // 2 + 1):
            c = _binom(n - i, i)
            out[n - 2 * i] = c if i % 2 == 0 else -c
    return DeltaPoly(tuple(out))


# -- prime functions ---------------------------------------------------------


def _prime_image(family: Family, p: int, current: DeltaPoly, n: int,
                 compositions: dict) -> DeltaPoly:
    """Image of ``current``, the index-n member of ``family``, under the
    map that multiplies the index by p >= 1.  Iterating the prime maps over
    the factorization of any index rebuilds that member from the index-1
    seed.

    The map composes P(p-1) and P(p-2), P the prime family, with Odd(n).
    ``compositions``, a dict that one check call owns, keeps each such
    pair by (p, n), so a check composes it once however often it maps.
    """
    if (p, n) not in compositions:
        base = multiplier(Family.ODD, n)
        compositions[p, n] = (multiplier(Family.PRIME, p - 1).compose(base),
                              multiplier(Family.PRIME, p - 2).compose(base))
    left, right = compositions[p, n]
    return left * current - right * base_constant(family)


# -- identity verifiers ------------------------------------------------------
#
# Each verifier returns None on success or a short description of the first
# failure.  They are used both by the test suite and by the CLI's verify
# command.


def verify_closed_forms(n_max: int = 40) -> str | None:
    for family in Family:
        for n in range(n_max + 1):
            rec = multiplier(family, n)
            exp = closed_form(family, n)
            if rec != exp:
                return (f"{family.value} n={n}: recursion {rec} "
                        f"!= closed form {exp}")
    return None


def verify_addition_theorem(limit: int = 12) -> str | None:
    """X(a+b) = P(a)*X(b) - P(a-1)*X(b-1) with P the prime family."""
    pf = Family.PRIME
    for family in Family:
        for a in range(1, limit + 1):
            for b in range(1, limit + 1):
                lhs = multiplier(family, a + b)
                rhs = (multiplier(pf, a) * multiplier(family, b)
                       - multiplier(pf, a - 1) * multiplier(family, b - 1))
                if lhs != rhs:
                    return f"{family.value} a={a} b={b}: {lhs} != {rhs}"
    return None


def verify_action_theorem(limit: int = 12) -> str | None:
    """Odd(b) * X(a) = X(a+b) + X(a-b) for a >= b >= 0."""
    for family in Family:
        for a in range(limit + 1):
            for b in range(a + 1):
                lhs = multiplier(Family.ODD, b) * multiplier(family, a)
                rhs = multiplier(family, a + b) + multiplier(family, a - b)
                if lhs != rhs:
                    return f"{family.value} a={a} b={b}: {lhs} != {rhs}"
    return None


def verify_product_theorem(limit: int = 8) -> str | None:
    """X(a*b) from composing prime-family members with Odd(b)."""
    compositions = {}
    for family in Family:
        for a in range(1, limit + 1):
            for b in range(1, limit + 1):
                lhs = multiplier(family, a * b)
                rhs = _prime_image(family, a, multiplier(family, b), b,
                                   compositions)
                if lhs != rhs:
                    return f"{family.value} a={a} b={b}: {lhs} != {rhs}"
    return None


def verify_compose_factorization(pair_limit: int = 10, n_max: int = 64) -> str | None:
    """Odd(ab) = Odd(a) o Odd(b), and the multi-prime composition chain."""
    for a in range(1, pair_limit + 1):
        for b in range(1, pair_limit + 1):
            composed = multiplier(Family.ODD, a).compose(multiplier(Family.ODD, b))
            direct = multiplier(Family.ODD, a * b)
            if composed != direct:
                return f"a={a} b={b}: {composed} != {direct}"
    for n in range(1, n_max + 1):
        poly = multiplier(Family.ODD, 1)
        for p, e in factor(n).factors:
            for _ in range(e):
                poly = multiplier(Family.ODD, p).compose(poly)
        if poly != multiplier(Family.ODD, n):
            return f"n={n}: prime composition chain disagrees"
    return None


def verify_uniform_factorization(n_max: int = 40) -> str | None:
    """Iterated prime maps rebuild every family member from index 1."""
    compositions = {}
    for family in Family:
        for n in range(1, n_max + 1):
            poly = multiplier(family, 1)
            j = 1
            for p, e in factor(n).factors:
                for _ in range(e):
                    poly = _prime_image(family, p, poly, j, compositions)
                    j *= p
            if poly != multiplier(family, n):
                return f"{family.value} n={n}: prime map chain disagrees"
    return None


def verify_bridge_lemma(n_max: int = 40) -> str | None:
    """Even and odd members written as prime-family differences."""
    for n in range(1, n_max + 1):
        even = multiplier(Family.PRIME, n) - multiplier(Family.PRIME, n - 1)
        if even != multiplier(Family.EVEN, n):
            return f"even bridge fails at n={n}"
        odd = multiplier(Family.PRIME, n) - multiplier(Family.PRIME, n - 2)
        if odd != multiplier(Family.ODD, n):
            return f"odd bridge fails at n={n}"
        via_even = multiplier(Family.EVEN, n) + multiplier(Family.EVEN, n - 1)
        if via_even != multiplier(Family.ODD, n):
            return f"odd-from-even bridge fails at n={n}"
    return None


def verify_partial_sums(n_max: int = 40) -> str | None:
    """1 + X(1) + ... + X(n) collapses to two prime-family members."""
    for family in (Family.ODD, Family.EVEN):
        running = ONE
        for n in range(1, n_max + 1):
            running = running + multiplier(family, n)
            closed = (multiplier(Family.PRIME, n)
                      + (base_constant(family) - 1) * multiplier(Family.PRIME, n - 1))
            if running != closed:
                return f"{family.value} n={n}: {running} != {closed}"
    return None


def verify_congruence(k_max: int = 12) -> str | None:
    """P(a-1)*X(k-1) = X(k-a) modulo X(k), for 1 <= a <= k."""
    for family in (Family.ODD, Family.EVEN):
        for k in range(1, k_max + 1):
            modulus = multiplier(family, k)
            for a in range(1, k + 1):
                prod = multiplier(Family.PRIME, a - 1) * multiplier(family, k - 1)
                rem = prod.divmod_monic(modulus)[1]
                if rem != multiplier(family, k - a):
                    return f"{family.value} k={k} a={a}: {rem}"
    return None


# -- classical polynomial families, as DeltaPoly coefficients in x ----------


def _two_term(first, x, combine, k: int) -> list[DeltaPoly]:
    """Terms 0..k of the sequence t(i+2) = combine(x * t(i+1), t(i)) whose
    terms 0 and 1 are ``first`` and D."""
    terms = [first, DELTA]
    while len(terms) <= k:
        terms.append(combine(x * terms[-1], terms[-2]))
    return terms[:k + 1]


# (term 0, x, combine) of each classical family, in the variable D.
_CHEBYSHEV = (ONE, DeltaPoly((0, 2)), sub)
_FIBONACCI = (ONE, DELTA, add)
_LUCAS = (DeltaPoly((2,)), DELTA, add)


def verify_classical(n_max: int = 20) -> str | None:
    """Match the families against Chebyshev, Fibonacci and Lucas polynomials.

    Checked coefficientwise; a mismatch reports the first differing
    coefficient.  Each classical sequence is built once, up to n_max.  The
    comparisons are:

      * half of Odd(n) evaluated at 2x equals T_n(x);
      * |coefficients of Prime(n)| equal those of F_{n+1}(x);
      * |coefficients of Odd(n)| equal those of L_n(x);
      * |coefficients of Even(n)| equal those of F_{n+1}(x) + F_n(x),
        the same Fibonacci recursion run from seeds 1 and x + 1.
    """
    chebyshev = _two_term(*_CHEBYSHEV, n_max)
    # fibonacci[n] is F_n, with F_0 = 0.
    fibonacci = [ZERO] + _two_term(*_FIBONACCI, n_max)
    lucas = _two_term(*_LUCAS, n_max)
    for n in range(n_max + 1):
        odd = multiplier(Family.ODD, n).coeffs
        halved = [Fraction(c * 2**i, 2) for i, c in enumerate(odd)]
        cheb = [Fraction(c) for c in chebyshev[n].coeffs]
        msg = _first_diff("chebyshev", n, halved, cheb)
        if msg:
            return msg
        prime_abs = [abs(c) for c in multiplier(Family.PRIME, n).coeffs]
        msg = _first_diff("fibonacci", n, prime_abs,
                          list(fibonacci[n + 1].coeffs))
        if msg:
            return msg
        odd_abs = [abs(c) for c in odd]
        msg = _first_diff("lucas", n, odd_abs, list(lucas[n].coeffs))
        if msg:
            return msg
        even_abs = [abs(c) for c in multiplier(Family.EVEN, n).coeffs]
        fib_pair = list((fibonacci[n + 1] + fibonacci[n]).coeffs)
        msg = _first_diff("fibonacci-pair", n, even_abs, fib_pair)
        if msg:
            return msg
    return None


def _first_diff(label: str, n: int, got, want) -> str | None:
    size = max(len(got), len(want))
    for i in range(size):
        g = got[i] if i < len(got) else 0
        w = want[i] if i < len(want) else 0
        if g != w:
            return (f"{label} n={n}: coefficient of x^{i} differs, "
                    f"got {g}, want {w}")
    return None
