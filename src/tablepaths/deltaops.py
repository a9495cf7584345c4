"""Integer polynomials in the forward difference operator.

``DeltaPoly`` holds ascending integer coefficients of a polynomial in the
operator D defined by (D a)(n) = a(n+1) - a(n).  Applied to an integer
sequence, such a polynomial yields another integer sequence; D + 1 acts as
the index shift E.  Since D = E - 1, p(D) is evaluated as p(E - 1): the
shift coefficients of p(x - 1) are computed once per polynomial and each
value is their dot product with a window of the sequence.

Products and compositions run on packed ints (Kronecker substitution): a
polynomial becomes one int with one fixed-width slot per coefficient, wide
enough that every result coefficient fits in the lower half of its slot.  A
product is then one big-int multiply, a composition is Horner's rule on the
packed inner polynomial, and one balanced decode reads either result back.

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
from functools import cached_property
from math import comb
from operator import add, mul, neg, sub
from struct import pack, unpack

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
# bytes are rounded up to a struct width and move through one struct call.

# struct codes of little-endian signed slots, keyed by slot width in bytes.
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot_width(bits: int) -> int:
    """Bytes per slot for slots of ``bits`` bits, sign included."""
    width = (bits + 7) // 8
    return next((w for w in _SLOT_CODES if width <= w), width)


def _half_slots(width: int, count: int) -> int:
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs, width: int) -> int:
    code = _SLOT_CODES.get(width)
    if code:
        raw = pack(f"<{len(coeffs)}{code}", *coeffs)
    else:
        raw = b"".join([c.to_bytes(width, "little", signed=True)
                        for c in coeffs])
    half = _half_slots(width, len(coeffs))
    return (int.from_bytes(raw, "little") ^ half) - half


def _unpack(value: int, width: int, count: int) -> list[int]:
    half = _half_slots(width, count)
    raw = ((value + half) ^ half).to_bytes(count * width, "little")
    code = _SLOT_CODES.get(width)
    if code:
        return list(unpack(f"<{count}{code}", raw))
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
        every product coefficient in its lower half."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
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
        if not (c := self.shift_coeffs):
            return 0
        end = n - 1 + len(c)
        if end > len(seq):
            raise DomainError(
                f"need sequence values up to index {end}, have {len(seq)}")
        return sum(map(mul, c, seq[n - 1:end]))

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


def _prime_image(family: Family, p: int, current: DeltaPoly,
                 base: DeltaPoly) -> DeltaPoly:
    """Image of ``current``, the index-n member of ``family``, under the
    index-multiplying prime map; ``base`` is the odd member of index n.

    The result is the index p*n member; iterating prime maps over the
    factorization of any index rebuilds that member from the index-1 seed.
    """
    left = multiplier(Family.PRIME, p - 1).compose(base) * current
    right = multiplier(Family.PRIME, p - 2).compose(base) * base_constant(family)
    return left - right


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
    pf = Family.PRIME
    for family in Family:
        for a in range(1, limit + 1):
            for b in range(1, limit + 1):
                base = multiplier(Family.ODD, b)
                lhs = multiplier(family, a * b)
                rhs = (multiplier(pf, a - 1).compose(base) * multiplier(family, b)
                       - multiplier(pf, a - 2).compose(base) * base_constant(family))
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
    for family in Family:
        for n in range(1, n_max + 1):
            poly = multiplier(family, 1)
            j = 1
            for p, e in factor(n).factors:
                for _ in range(e):
                    poly = _prime_image(family, p, poly, multiplier(Family.ODD, j))
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


def chebyshev_t(n: int) -> tuple[int, ...]:
    """Chebyshev polynomial of the first kind, ascending coefficients."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    prev, cur = ONE, DELTA
    if n == 0:
        return prev.coeffs
    for _ in range(n - 1):
        prev, cur = cur, DeltaPoly((0, 2)) * cur - prev
    return cur.coeffs


def fibonacci_poly(n: int) -> tuple[int, ...]:
    """Fibonacci polynomial F_n with F_1 = 1, F_2 = x."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    prev, cur = ONE, DELTA
    if n == 1:
        return prev.coeffs
    for _ in range(n - 2):
        prev, cur = cur, DELTA * cur + prev
    return cur.coeffs


def lucas_poly(n: int) -> tuple[int, ...]:
    """Lucas polynomial L_n with L_0 = 2, L_1 = x."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    prev, cur = DeltaPoly((2,)), DELTA
    if n == 0:
        return prev.coeffs
    for _ in range(n - 1):
        prev, cur = cur, DELTA * cur + prev
    return cur.coeffs


def verify_classical(n_max: int = 20) -> str | None:
    """Match the families against Chebyshev, Fibonacci and Lucas polynomials.

    Checked coefficientwise; a mismatch reports the first differing
    coefficient.  The comparisons are:

      * half of Odd(n) evaluated at 2x equals T_n(x);
      * |coefficients of Prime(n)| equal those of F_{n+1}(x);
      * |coefficients of Odd(n)| equal those of L_n(x);
      * |coefficients of Even(n)| equal those of F_{n+1}(x) + F_n(x),
        the same Fibonacci recursion run from seeds 1 and x + 1.
    """
    for n in range(n_max + 1):
        odd = multiplier(Family.ODD, n).coeffs
        halved = [Fraction(c * 2**i, 2) for i, c in enumerate(odd)]
        cheb = [Fraction(c) for c in chebyshev_t(n)]
        msg = _first_diff("chebyshev", n, halved, cheb)
        if msg:
            return msg
        prime_abs = [abs(c) for c in multiplier(Family.PRIME, n).coeffs]
        msg = _first_diff("fibonacci", n, prime_abs, list(fibonacci_poly(n + 1)))
        if msg:
            return msg
        odd_abs = [abs(c) for c in odd]
        msg = _first_diff("lucas", n, odd_abs, list(lucas_poly(n)))
        if msg:
            return msg
        even_abs = [abs(c) for c in multiplier(Family.EVEN, n).coeffs]
        fib_pair = list((DeltaPoly(fibonacci_poly(n + 1))
                         + DeltaPoly(fibonacci_poly(n) if n >= 1 else ())).coeffs)
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
