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
with the packed reversed shift coefficients, or, for a long window of a
narrow polynomial, as a sum of the packed sequence shifted by each nonzero
shift coefficient's power, building each route at its polynomial's first
use; it compares windows as ints without decoding them.  ``DeltaPoly.apply``
takes the dot product at one n directly and is the windows' independent
reference.  The addition, action, product and uniform-factorization checks
write their identities as rows X(t) = A * X(i) - B * X(j) and hand them to
one routine, which packs each member and factor once, at one slot width
from one bound, and compares the two sides of each row as two ints.

Three operator families drive everything else in this package.  All share
the recursion

    X(n+2) = D * X(n+1) - X(n)

and differ only in their seeds:

    odd family    2,  D        (attached to tables with an odd row count)
    even family   1,  D - 1    (attached to tables with an even row count)
    prime family  1,  D        (the auxiliary family; index -1 is 0)

``multiplier`` generates members by the recursion, ``closed_form`` by an
explicit binomial sum, ``strip_charpoly`` reads a strip's characteristic
polynomial off one, and the verify_* functions check the identity suite
that relates the families to each other and to classical polynomial
families (Chebyshev, Fibonacci, Lucas).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
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
# reads 183 distinct shapes from a fresh process, so 256 holds that working
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


def _pack(coeffs, width: int, unsigned: bool = False) -> int:
    """The packed int of ``coeffs``.  ``unsigned`` says that no coefficient
    is negative: slots wider than a struct width then take their bytes from
    one join of unsigned bytes, with no half slots to flip."""
    if unsigned and width > 8:
        return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(width),
                                           repeat("little"))), "little")
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

    @cached_property
    def _shift_terms(self) -> tuple[tuple[tuple[int, int], ...], int, int]:
        """What ``Windows`` reads of ``shift_coeffs``: the (j, c) pair of
        each nonzero coefficient c of x**j, the sum of the coefficients and
        the sum of their sizes.  Cached like ``shift_coeffs``."""
        coeffs = self.shift_coeffs
        return (tuple((j, c) for j, c in enumerate(coeffs) if c), sum(coeffs),
                sum(map(abs, coeffs)))

    @cached_property
    def _hash(self) -> int:
        return hash((self.coeffs,))

    def __hash__(self) -> int:
        """The dataclass hash of ``coeffs``, cached like ``shift_coeffs``."""
        return self._hash

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

# The route rule of ``Windows``: shift and add for windows of at least
# _SHIFT_MIN_COUNT values.
_SHIFT_MIN_COUNT = 64


class Windows:
    """Values of Δ-polynomials at n = 1..count of integer sequences.

    The sequences are packed once, each cut to the count + d values the
    windows read (d the largest degree in ``polys``; the zero polynomial
    reads none), at one slot width that holds ``weight`` times their
    largest value times the largest sum of |shift_coeffs| in ``polys`` in
    the lower half of a slot.  A polynomial past either bound raises
    ``DomainError`` at ``apply``; any other has its route built there,
    once.  Packed sequences add and scale like the sequences they pack
    while the values stay within ``weight`` times that largest value.

    A window holds the values at n = 1..count in count slots with half a
    slot added to each, so no slot borrows from the next, and two windows
    are equal ints exactly when their values are.  ``apply(p, packed)``
    takes one of two routes to p's window, both exact, so both give the
    same int:

    * the product: the packed sequence times p's shift coefficients packed
      in reverse order.  Slot n - 1 + degree of the product is their dot
      product with seq(n), ..., seq(n + degree), the value at n.
    * shift and add: with half a slot added to every slot of the packed
      sequence, each slot holds its value plus half a slot, a nonnegative
      digit below a whole slot, so a floor shift by j slots and a mask of
      count slots read seq(n + j) + half exactly, negative values too.  The
      window is the sum of c_j times those reads over the nonzero shift
      coefficients c_j, less (sum of c_j - 1) half slots in each slot.

    The product pads every coefficient of a polynomial to the slot width,
    while shift and add pays one pass over the window per nonzero shift
    coefficient.  So a window takes shift and add when it is long, with at
    least 64 values, and its polynomial has at least two nonzero shift
    coefficients.  Every other window takes the product; a polynomial with
    one nonzero shift coefficient packs into one slot, so its product is a
    plain scaling.  ``window(packed)`` is the window of a packed sequence
    itself, the identity applied with no product: half a slot added to each
    slot, masked to count slots.
    """

    def __init__(self, count: int, seqs, polys, weight: int = 1):
        if count < 0:
            raise DomainError(f"window length must be >= 0, got {count}")
        degree = max((len(p.coeffs) for p in polys), default=0) - 1
        length = count + degree if degree >= 0 else 0
        for seq in seqs:
            if len(seq) < length:
                raise DomainError(f"need sequence values up to index "
                                  f"{length}, have {len(seq)}")
        seqs = [seq[:length] for seq in seqs]
        lows = [min(seq) if seq else 0 for seq in seqs]
        highs = [max(seq) if seq else 0 for seq in seqs]
        bound = weight * max([*highs, *map(neg, lows)], default=0)
        reach = max((p._shift_terms[2] for p in polys), default=0)
        width = _slot_width(bound.bit_length() + reach.bit_length() + 1)
        self.width, self.count, self._slot_bits = width, count, 8 * width
        self._mask = (1 << 8 * width * count) - 1
        self._bounds = (degree, reach)
        # The window whose values are all zero.
        self.zero = _shape(width, count)[0]
        # Half slots up to the end of the longest window: either route
        # reads no slot above its window's end, and a carry only moves up.
        self._half = _shape(width, max(length, count))[0]
        self._polys = {}  # poly -> its route, from its first ``apply``
        self.seqs = [_pack(seq, width, low >= 0)
                     for seq, low in zip(seqs, lows)]

    def _route(self, poly: DeltaPoly):
        """(packed reversed shift coefficients, bit offset of the window,
        None) on the product route; (None, (bit shift, coefficient) of each
        nonzero shift coefficient, (sum of the coefficients - 1) times the
        zero window) on the shift route."""
        terms, total, reach = poly._shift_terms
        if poly.degree > self._bounds[0] or reach > self._bounds[1]:
            raise DomainError(f"{poly}: degree and sum of |shift coefficients|"
                              f" {poly.degree, reach} past these windows' "
                              f"{self._bounds}")
        bits = self._slot_bits
        if self.count >= _SHIFT_MIN_COUNT and len(terms) > 1:
            return (None, [(bits * j, c) for j, c in terms],
                    (total - 1) * self.zero)
        return (_pack(poly.shift_coeffs[::-1], self.width),
                bits * max(poly.degree, 0), None)

    def apply(self, poly: DeltaPoly, packed: int) -> int:
        """The window of ``poly``, within the constructor's bounds, applied
        to a packed sequence."""
        try:
            coeffs, at, excess = self._polys[poly]
        except KeyError:
            coeffs, at, excess = self._polys[poly] = self._route(poly)
        if excess is None:
            return ((packed * coeffs + self._half) >> at) & self._mask
        mask, packed = self._mask, packed + self._half
        return sum([c * (packed >> shift & mask) for shift, c in at], -excess)

    def window(self, packed: int) -> int:
        """The window of a packed sequence itself."""
        return (packed + self._half) & self._mask

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
    if family is Family.ODD:
        return 2
    if family is Family.EVEN or family is Family.PRIME:
        return 1
    raise DomainError(f"not an operator family: {family!r}")


# Members are built iteratively and memoised; entry i of the list holds the
# member of index i + lowest_index(family).  Lists only grow: growing holds
# the lock, and members already present are read without it.
_SEEDS: dict[Family, list[DeltaPoly]] = {
    Family.ODD: [DeltaPoly((2,)), DELTA],
    Family.EVEN: [ONE, DeltaPoly((-1, 1))],
    Family.PRIME: [ZERO, ONE],   # indices -1 and 0
}
_memo: dict[Family, list[DeltaPoly]] = {f: list(s) for f, s in _SEEDS.items()}
_memo_lock = threading.Lock()


def _lowest_index(family: Family) -> int:
    return -1 if family is Family.PRIME else 0


def multiplier(family: Family, n: int) -> DeltaPoly:
    """Member of index n, generated by X(n+2) = D*X(n+1) - X(n)."""
    try:
        seq = _memo[family]
    except KeyError:
        raise DomainError(f"not an operator family: {family!r}") from None
    lo = _lowest_index(family)
    if n < lo:
        raise DomainError(f"{family.value} family has no index {n}")
    if n - lo >= len(seq):
        with _memo_lock:
            while len(seq) <= n - lo:
                seq.append(DELTA * seq[-1] - seq[-2])
    return seq[n - lo]


def strip_charpoly(m: int) -> tuple[int, ...]:
    """Characteristic polynomial of the m-row strip's reduced transfer
    matrix, ascending: its family's index-ceil(m/2) member at x - 1."""
    return multiplier(parity_family(m), (m + 1) // 2).shift_coeffs


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
    elif family is Family.PRIME:
        for i in range(n // 2 + 1):
            c = _binom(n - i, i)
            out[n - 2 * i] = c if i % 2 == 0 else -c
    else:
        raise DomainError(f"not an operator family: {family!r}")
    return DeltaPoly(tuple(out))


# -- prime functions ---------------------------------------------------------


def _prime_map(p: int, n: int) -> tuple[DeltaPoly, DeltaPoly]:
    """The map that multiplies the index n of a member by p >= 1, as the
    pair (left, right): it sends X(n), the index-n member of any family X,
    to left * X(n) - right * X(0).  Iterating the prime maps over the
    factorization of any index rebuilds that member from the index-1 seed.

    left and right compose P(p-1) and P(p-2), P the prime family, with
    Odd(n).
    """
    base = multiplier(Family.ODD, n)
    return (multiplier(Family.PRIME, p - 1).compose(base),
            multiplier(Family.PRIME, p - 2).compose(base))


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


# The addition, action, product and uniform-factorization checks write
# their identities as rows X(t) = A * X(i) - B * X(j), X each family, and
# compare the two sides as packed ints.  Packing evaluates a polynomial at
# x = 2**(8*w), a ring homomorphism into the integers.  Each coefficient of
# A * X(i) - B * X(j) is at most |A| max|X(i)| + |B| max|X(j)| in size, |A|
# the sum of A's absolute coefficients, so at a width w that holds that
# bound of every row, every member and every factor below a half slot, the
# two sides are equal ints exactly when they are equal polynomials.  The
# loops run over the families, then the rows, so the failure reported is
# the first in that order, and only it is recomputed as polynomials.


def _first_failure(members: dict, factors: list, rows: list):
    """(family, key) of the first row (key, t, a, i, b, j) at which
    X(t) != factors[a] * X(i) - factors[b] * X(j), X a family's list of
    members in ``members``; None when every row holds."""
    norms = [sum(map(abs, p.coeffs)) for p in factors]
    tops = [max([max(map(abs, x.coeffs), default=0) for x in xs])
            for xs in zip(*members.values())]
    bound = max([*norms, *tops, *(norms[a] * tops[i] + norms[b] * tops[j]
                                  for _, _, a, i, b, j in rows)])
    width = _slot_width(bound.bit_length() + 1)
    packed = [_pack(p.coeffs, width) for p in factors]
    rows = [(key, t, packed[a], i, packed[b], j)
            for key, t, a, i, b, j in rows]
    for family, xs in members.items():
        v = [_pack(x.coeffs, width) for x in xs]
        for key, t, a, i, b, j in rows:
            if v[t] != a * v[i] - b * v[j]:
                return family, key
    return None


def verify_addition_theorem(limit: int = 12) -> str | None:
    """X(a+b) = P(a)*X(b) - P(a-1)*X(b-1) with P the prime family."""
    primes = [multiplier(Family.PRIME, a) for a in range(limit + 1)]
    members = {f: [multiplier(f, n) for n in range(2 * limit + 1)]
               for f in Family}
    found = _first_failure(members, primes, [
        ((a, b), a + b, a, b, a - 1, b - 1)
        for a in range(1, limit + 1) for b in range(1, limit + 1)])
    if found:
        family, (a, b) = found
        xs = members[family]
        rhs = primes[a] * xs[b] - primes[a - 1] * xs[b - 1]
        return f"{family.value} a={a} b={b}: {xs[a + b]} != {rhs}"
    return None


def verify_action_theorem(limit: int = 12) -> str | None:
    """Odd(b) * X(a) = X(a+b) + X(a-b) for a >= b >= 0, checked as
    X(a+b) = Odd(b) * X(a) - 1 * X(a-b)."""
    odds = [multiplier(Family.ODD, b) for b in range(limit + 1)]
    members = {f: [multiplier(f, n) for n in range(2 * limit + 1)]
               for f in Family}
    found = _first_failure(members, [*odds, ONE], [
        ((a, b), a + b, b, a, -1, a - b)
        for a in range(limit + 1) for b in range(a + 1)])
    if found:
        family, (a, b) = found
        xs = members[family]
        return (f"{family.value} a={a} b={b}: {odds[b] * xs[a]} "
                f"!= {xs[a + b] + xs[a - b]}")
    return None


def verify_product_theorem(limit: int = 8) -> str | None:
    """X(a*b) from composing prime-family members with Odd(b): the prime
    map (left, right) of a at b sends X(b) to left*X(b) - right*X(0)."""
    keys = [(a, b) for a in range(1, limit + 1) for b in range(1, limit + 1)]
    members = {f: [DeltaPoly((base_constant(f),)),
                   *(multiplier(f, n) for n in range(1, limit * limit + 1))]
               for f in Family}
    found = _first_failure(
        members, [*chain.from_iterable(_prime_map(a, b) for a, b in keys)],
        [((a, b), a * b, 2 * k, b, 2 * k + 1, 0)
         for k, (a, b) in enumerate(keys)])
    if found:
        family, (a, b) = found
        xs, (left, right) = members[family], _prime_map(a, b)
        return (f"{family.value} a={a} b={b}: {xs[a * b]} != "
                f"{left * xs[b] - right * xs[0]}")
    return None


def verify_compose_factorization(pair_limit: int = 10, n_max: int = 64) -> str | None:
    """Odd(ab) = Odd(a) o Odd(b), and the multi-prime composition chain.

    The chain of n composes Odd(p) over the primes p of n, smallest
    innermost, onto Odd(1): Odd(P) o chain(n / P), P the largest prime of
    n.  The check ends at the first n whose chain fails, so chain(n / P) is
    Odd(n / P) there: the chain of n holds exactly when Odd(P) o Odd(n / P)
    = Odd(n).
    """
    for a in range(1, pair_limit + 1):
        for b in range(1, pair_limit + 1):
            composed = multiplier(Family.ODD, a).compose(multiplier(Family.ODD, b))
            direct = multiplier(Family.ODD, a * b)
            if composed != direct:
                return f"a={a} b={b}: {composed} != {direct}"
    for n in range(2, n_max + 1):
        largest = factor(n).factors[-1][0]
        if largest <= pair_limit and n // largest <= pair_limit:
            continue   # the pair loop has compared this composition
        composed = multiplier(Family.ODD, largest).compose(
            multiplier(Family.ODD, n // largest))
        if composed != multiplier(Family.ODD, n):
            return f"n={n}: prime composition chain disagrees"
    return None


def verify_uniform_factorization(n_max: int = 40) -> str | None:
    """Iterated prime maps rebuild every family member from index 1.

    The chain of n applies the prime maps of n's primes, smallest first,
    to X(1): the map of P at n / P applied to the chain of n / P, P the
    largest prime of n.  As in ``verify_compose_factorization``, the chain
    of n holds exactly when the product identity of P at n / P does.
    """
    members = {f: [DeltaPoly((base_constant(f),)),
                   *(multiplier(f, n) for n in range(1, n_max + 1))]
               for f in Family}
    maps, rows = [], []
    for n in range(2, n_max + 1):
        prime = factor(n).factors[-1][0]
        rows.append((n, n, len(maps), n // prime, len(maps) + 1, 0))
        maps += _prime_map(prime, n // prime)
    found = _first_failure(members, maps, rows)
    if found:
        family, n = found
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
