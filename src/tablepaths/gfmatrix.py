"""Multiplicative orders of the transfer-matrix templates over prime fields.

The question driving this module: reduced modulo a prime q, does the n x n
template matrix generate the full cyclic group of order q**n - 1 (a Singer
cycle)?  Answering it needs the factorization of q**n - 1, so the module
carries the package's one exact integer factorization stack: trial division
to a fixed bound (by the primes of one gcd with their product),
perfect-power reduction, then Brent's variant of Pollard rho with
deterministic seeding, with primality certified by Miller-Rabin (a base set
that is provably sufficient below 3.3e24) and, above that, tested by BPSW
(Miller-Rabin to base 2, then a strong Lucas test).

Factoring is budgeted.  When the budget runs out the factorization is
returned incomplete and order checks report UNKNOWN rather than guessing.

Orders are decided on the characteristic polynomial f of a template: its
order mod q is the order of x in GF(q)[x]/(f), powered in pure Python with
each residue packed into one integer, one slot per coefficient.  Every
product is reduced mod f by Barrett reduction, three big-int multiplies,
each followed by one step that takes every slot mod q.  That step is a
``bytes.translate`` when a slot is one byte, which holds while
2n(q-1)**2 < 256 (q=2 up to n=127, q=3 up to n=31, q=5 up to n=7), and a
multiply by a packed reciprocal of q in wider slots.

x has order dividing N = q**n - 1 exactly when x**(q**n) = x, as x is a unit
once q does not divide f(0).  For n <= q.bit_length() that power takes n
applications of the q-power (Frobenius) map, which is GF(q)-linear on
GF(q)[x]/(f) (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14);
larger n keep binary powering.  The exact order then comes down a product
tree over the prime powers of N (Sutherland, Order computations in generic
groups, 2007).  ``GFMatrix`` keeps the plain matrix route as a reference.

The module is a leaf: it imports only ``errors`` from the package.  The
templates' characteristic polynomials and the scan over a range of sizes
(``singer_scan``) live in ``recurrence``; ``deltaops`` takes its
factorization from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from itertools import accumulate
from math import gcd, isqrt, prod
from operator import mul

from .errors import DomainError, InternalInconsistencyError

_TRIAL_BOUND = 10_000
DEFAULT_FACTOR_BUDGET = 4_000_000

# Deterministic Miller-Rabin witness set; proven sufficient below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(_TRIAL_BOUND)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True when a witnesses compositeness of n."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters."""
    r = isqrt(n)
    if r * r == n:
        return False
    d = 5
    while True:
        j = _jacobi(d % n, n)
        if j == 0:
            return abs(d) == n
        if j == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # Binary ladder for the Lucas pair (U_k, V_k) mod n, P = 1.
    u, v, qk = 1, 1, q
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = _half(u + v, n), _half(d * u + v, n)
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _half(x: int, n: int) -> int:
    x %= n
    if x % 2:
        x += n
    return (x // 2) % n


def is_prime(n: int) -> bool:
    """Deterministic below 3.3e24 (Miller-Rabin to the 12 prime bases);
    above it, BPSW: Miller-Rabin to base 2, then strong Lucas."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    proven = n < _MR_PROVEN_LIMIT
    for a in _MR_BASES if proven else _MR_BASES[:1]:
        if _mr_witness(n, a, d, s):
            return False
    return proven or _strong_lucas_prp(n)


# -- factorization -----------------------------------------------------------


@dataclass(frozen=True)
class PrimeFactorization:
    """Sorted prime powers of ``value``; ``cofactor`` holds whatever remains
    unfactored, and the factorization is ``complete`` when that is 1."""

    value: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def product(self) -> int:
        return self.cofactor * prod(p**e for p, e in self.factors)


def _iroot(n: int, e: int) -> int:
    if n < 2 or e == 1:
        return n
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """Largest prime e with n = r**e; returns (r, e), e = 1 when n is no
    power.  A composite exponent is never needed: r is then a power itself,
    and ``factor`` reduces it again when it pops r from its stack."""
    for e in reversed(_sieve(n.bit_length())):
        r = _iroot(n, e)
        if r > 1 and r**e == n:
            return r, e
    return n, 1


def _brent_rho(n: int, c: int, max_steps: int) -> tuple[int | None, int]:
    """One deterministic Brent rho attempt; returns (factor or None, steps)."""
    y, r, q = 2, 1, 1
    g = 1
    steps = 0
    x = ys = y
    batch = 128
    while g == 1 and steps < max_steps:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            ys = y
            chunk = min(batch, r - k)
            for _ in range(chunk):
                y = (y * y + c) % n
                q = q * (x - y) % n
            steps += chunk
            g = gcd(q, n)
            k += chunk
        r *= 2
    if g == n:
        g = 1
        for _ in range(max_steps - steps if max_steps > steps else batch):
            ys = (ys * ys + c) % n
            steps += 1
            g = gcd(x - ys, n)
            if g > 1:
                break
    if g in (1, n):
        return None, steps
    return g, steps


def _checked_budget(budget: int | None) -> int:
    if budget is None:
        return DEFAULT_FACTOR_BUDGET
    if budget < 0:
        raise DomainError(f"factor budget must be >= 0, got {budget}")
    return budget


def factor(n: int, budget: int | None = None) -> PrimeFactorization:
    """Factor n within a deterministic effort budget.

    ``budget`` counts Pollard-rho iterations; trial division and primality
    certification are not charged against it.  It is not a hard cap: a rho
    attempt checks what is left of it only between its doubling rounds, so
    the last attempt can run past it (on (2**61 - 1)(2**89 - 1) a budget of
    5000 spends 8190 steps).  The default is sized for inputs around 140
    bits; a negative budget is a DomainError.
    """
    if n < 1:
        raise DomainError(f"factor needs n >= 1, got {n}")
    budget = _checked_budget(budget)
    counts: dict[int, int] = {}
    rem = n
    # The primes below the trial bound that divide n are those of one gcd,
    # a squarefree g: once p * p > g, what is left of g is 1 or a prime.
    g = gcd(n, _SMALL_PRODUCT)
    divisors = []
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            divisors.append(p)
    if g > 1:
        divisors.append(g)
    for p in divisors:
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    stack: list[tuple[int, int]] = [(rem, 1)] if rem > 1 else []
    unfactored: list[tuple[int, int]] = []
    remaining = budget
    while stack:
        value, mult = stack.pop()
        if value == 1:
            continue
        if is_prime(value):
            counts[value] = counts.get(value, 0) + mult
            continue
        root, exp = _perfect_power(value)
        if exp > 1:
            stack.append((root, mult * exp))
            continue
        found = None
        c = 1
        while remaining > 0:
            found, used = _brent_rho(value, c, remaining)
            remaining -= used
            if found is not None:
                break
            c += 1
        if found is None:
            unfactored.append((value, mult))
            continue
        stack.append((found, mult))
        stack.append((value // found, mult))
    result = PrimeFactorization(
        value=n,
        factors=tuple(sorted(counts.items())),
        cofactor=prod(v**e for v, e in unfactored),
    )
    if result.product() != n:
        raise InternalInconsistencyError(
            f"factorization of {n} does not multiply back")
    return result


# -- matrices over GF(q) -----------------------------------------------------


class GFMatrix:
    """Square matrix of residues modulo a prime q; the reference route that
    the tests hold the polynomial order engine to."""

    def __init__(self, rows: tuple[tuple[int, ...], ...], q: int):
        self.n = len(rows)
        self.q = q
        self._rows = rows

    @classmethod
    def from_rows(cls, rows, q: int) -> "GFMatrix":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DomainError("matrix must be square")
        return cls(tuple(tuple(int(v) % q for v in r) for r in rows), q)

    @classmethod
    def identity(cls, n: int, q: int) -> "GFMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n))
                         for i in range(n)), q)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, GFMatrix) and self.q == other.q
                and self._rows == other._rows)

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        if self.q != other.q or self.n != other.n:
            raise DomainError("matrix shapes or moduli differ")
        q = self.q
        cols = tuple(zip(*other._rows))
        return GFMatrix(tuple(tuple(sum(map(mul, row, col)) % q for col in cols)
                              for row in self._rows), q)

    def pow(self, e: int) -> "GFMatrix":
        if e < 0:
            raise DomainError(f"exponent must be >= 0, got {e}")
        result = GFMatrix.identity(self.n, self.q)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def is_identity(self) -> bool:
        return self == GFMatrix.identity(self.n, self.q)

    def det(self) -> int:
        """Determinant mod q by Gaussian elimination over the field."""
        a = [list(row) for row in self._rows]
        n, q = self.n, self.q
        det = 1
        for i in range(n):
            pivot = next((r for r in range(i, n) if a[r][i] % q), None)
            if pivot is None:
                return 0
            if pivot != i:
                a[i], a[pivot] = a[pivot], a[i]
                det = -det
            det = det * a[i][i] % q
            inv = pow(a[i][i], q - 2, q)
            for r in range(i + 1, n):
                f = a[r][i] * inv % q
                if f:
                    a[r] = [(v - f * w) % q for v, w in zip(a[r], a[i])]
        return det % q


# -- powers of x modulo a polynomial over GF(q) --------------------------------


def _barrett_mu(f: list[int], q: int) -> list[int]:
    """Ascending coefficients of x**(2n-2) // f over GF(q), for a monic f of
    degree n >= 2: the power series 1 / rev(f) to n-1 terms, reversed."""
    n = len(f) - 1
    tail = [-c % q for c in f[-2::-1]]
    g = [1]
    for k in range(1, n - 1):
        g.append(sum(map(mul, tail[:k], g[::-1])) % q)
    return g[::-1]


class _Residues:
    """GF(q)[x]/(f) for a monic f of degree n >= 1, residues packed in ints.

    A residue's n coefficients fill one int, ``width`` bytes each (Kronecker
    substitution), so a product is one big-int multiply.  Every slot of a
    product and of its reduction stays below B = 2n(q-1)**2.  Every power of
    x is a product of the cached squarings x**(2**i).  For n = 1 a residue is
    one coefficient, and a product is a * b % q.

    For n >= 2 a product p of degree <= 2n-2 is reduced by Barrett
    reduction: the quotient is the top n-1 slots of (p >> n slots) * mu,
    where mu = x**(2n-2) // f, and the remainder is p + quotient * (-f)
    below x**n.  After each of the three multiplies every slot is taken mod
    q at once, in one of two ways:

    - one-byte slots (B < 256) go through one ``bytes.translate``;
    - wider slots use a packed reciprocal.  With a = B.bit_length(),
      s = a + q.bit_length() and m = ceil(2**s / q), floor(v * m / 2**s) =
      floor(v / q) for every v < 2**a (Granlund and Montgomery, 1994), so
      p - q * ((p * m >> s) & qmask) holds every slot mod q.  Slots are
      ceil((2a + 1) / 8) bytes wide, so no v * m carries into the next slot,
      and qmask keeps the low 8 * width - s bits of each slot.

    Each way has its own ``times``, so that neither pays a call per pass,
    and its own ``slots_mod_q`` for a single pass.

    ``x_to_q_to_n`` takes one of two routes, the ring's only route choice:

    - n <= q.bit_length(): n applications of the q-power map a -> a**q.  It
      is GF(q)-linear, so with F_j = x**(jq) built once from x**q, it sends
      a to the sum of a_j * F_j, whose slots stay below n(q-1)**2 < B, and
      one slot-mod-q pass reduces that.  An application is n slot-by-residue
      products, so its cost grows with n faster than a ring product's.
    - n > q.bit_length() (every n >= 3 for q = 2 and 3):
      ``power_of_x(q**n)``, which for q = 2 is n cached squarings and no
      multiply.
    """

    def __init__(self, f: list[int], q: int):
        n = len(f) - 1
        bound = 2 * n * (q - 1) ** 2
        a = bound.bit_length()
        width = 1 if bound < 256 else (2 * a + 8) // 8
        self.n, self.q, self.width, self.bits = n, q, width, 8 * width
        if n == 1:
            self.squares = [-f[0] % q]
            self.times = lambda u, v: u * v % q
            return
        self.squares = [1 << self.bits]
        self.shift, self.high = self.bits * n, self.bits * (n - 2)
        self.low = (1 << self.shift) - 1
        self.mu = self.pack(_barrett_mu(f, q))
        self.minus_f = self.pack([-c % q for c in f[:-1]])
        if width == 1:
            self.modq = bytes(v % q for v in range(256))
            self.times, self.slots_mod_q = (self._translate_times,
                                            self._translate_slots)
        else:
            self.s = a + q.bit_length()
            self.m = -(-(1 << self.s) // q)
            self.qmask = self.pack([(1 << self.bits - self.s) - 1] * (2 * n - 1))
            self.times, self.slots_mod_q = (self._reciprocal_times,
                                            self._reciprocal_slots)

    def pack(self, coeffs: list[int]) -> int:
        return sum(c << i * self.bits for i, c in enumerate(coeffs))

    def _translate_times(self, a: int, b: int) -> int:
        n, modq = self.n, self.modq
        p = int.from_bytes(
            (a * b).to_bytes(2 * n - 1, "little").translate(modq), "little")
        quotient = int.from_bytes(
            ((p >> self.shift) * self.mu >> self.high)
            .to_bytes(n - 1, "little").translate(modq), "little")
        r = (p & self.low) + (quotient * self.minus_f & self.low)
        return int.from_bytes(r.to_bytes(n, "little").translate(modq), "little")

    def _reciprocal_times(self, a: int, b: int) -> int:
        q, m, s, qmask = self.q, self.m, self.s, self.qmask
        p = a * b
        p -= q * (p * m >> s & qmask)
        quotient = (p >> self.shift) * self.mu >> self.high
        quotient -= q * (quotient * m >> s & qmask)
        r = (p & self.low) + (quotient * self.minus_f & self.low)
        return r - q * (r * m >> s & qmask)

    def power_of_x(self, e: int) -> int:
        """x**e mod f for e >= 1."""
        squares = self.squares
        while len(squares) < e.bit_length():
            squares.append(self.times(squares[-1], squares[-1]))
        # bin(e) reversed lists the bits from the lowest; its "b0" tail and
        # the unused squarings never match "1".
        return reduce(self.times, [s for bit, s in zip(reversed(bin(e)), squares)
                                   if bit == "1"])

    def power(self, a: int, e: int) -> int:
        """a**e for e >= 1, by left-to-right binary powering."""
        result = a
        for bit in bin(e)[3:]:
            result = self.times(result, result)
            if bit == "1":
                result = self.times(result, a)
        return result

    def _translate_slots(self, v: int) -> int:
        return int.from_bytes(
            v.to_bytes(self.n, "little").translate(self.modq), "little")

    def _reciprocal_slots(self, v: int) -> int:
        return v - self.q * (v * self.m >> self.s & self.qmask)

    def x_to_q_to_n(self) -> int:
        """x**(q**n) mod f, by n applications of the q-power map when
        n <= q.bit_length(), else by ``power_of_x``."""
        n, q = self.n, self.q
        if n > q.bit_length():
            return self.power_of_x(q**n)
        xq = self.power_of_x(q)
        images = [1, xq]
        while len(images) < n:
            images.append(self.times(images[-1], xq))
        bits = self.bits
        mask, offsets = (1 << bits) - 1, range(0, n * bits, bits)
        a = xq
        for _ in range(n - 1):
            a = self.slots_mod_q(sum([(a >> i & mask) * image
                                      for i, image in zip(offsets, images)]))
        return a


# -- order verdicts ----------------------------------------------------------


class Verdict(Enum):
    FULL_ORDER = "FULL_ORDER"
    NOT_FULL = "NOT_FULL"
    NOT_INVERTIBLE = "NOT_INVERTIBLE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class OrderResult:
    verdict: Verdict
    order: int | None
    factorization: PrimeFactorization | None


def order_is_full(f, q: int, budget: int | None = None) -> OrderResult:
    """Decide whether x generates a cyclic group of order q**n - 1 mod f.

    ``f`` is monic of degree n >= 1 in ascending integer coefficients, read
    mod the prime q.  A matrix whose minimal and characteristic polynomials
    are f has the order of x, and det = (-1)**n f(0): NOT_INVERTIBLE iff q | f(0).

    FULL_ORDER requires x**N = 1 with N = q**n - 1 and x**(N/p) != 1 for
    every prime p dividing N.  x**N = 1 is tested as x**(q**n) = x, the same
    test for a unit x.  When it fails the verdict is NOT_FULL even if the
    factorization is incomplete; UNKNOWN is returned only when an incomplete
    factorization actually blocks the decision.  Otherwise the exact order
    comes down a product tree: the sorted prime powers of N split into two
    halves of about equal bits, x raised to one half's product leaves the
    other half's part of the order, each half recurses on its element, and
    at a leaf p**e the element is raised by p at most e - 1 times.  The root
    powers x from its cached squares, and every node below it takes a plain
    ring power.
    """
    if not is_prime(q):
        raise DomainError(f"q must be prime, got {q}")
    if len(f) < 2 or f[-1] != 1:
        raise DomainError(f"f must be monic of degree >= 1, got {tuple(f)}")
    budget = _checked_budget(budget)
    f = [int(c) % q for c in f]
    if f[0] == 0:
        return OrderResult(Verdict.NOT_INVERTIBLE, None, None)
    n_group = q ** (len(f) - 1) - 1
    fact = factor(n_group, budget)
    ring = _Residues(f, q)
    if ring.x_to_q_to_n() != ring.power_of_x(1):
        return OrderResult(Verdict.NOT_FULL, None, fact)
    if not fact.complete:
        return OrderResult(Verdict.UNKNOWN, None, fact)
    order = _order(ring, ring.power_of_x, fact.factors)
    verdict = Verdict.FULL_ORDER if order == n_group else Verdict.NOT_FULL
    return OrderResult(verdict, order, fact)


def _order(ring: _Residues, power, pieces) -> int:
    """The order of g, given power(e) = g**e, when it divides the product
    of the sorted prime powers ``pieces``."""
    if len(pieces) > 1:
        values = [p**e for p, e in pieces]
        sizes = list(accumulate(v.bit_length() for v in values))
        k = min(range(1, len(values)),
                key=lambda i: abs(2 * sizes[i - 1] - sizes[-1]))
        low, high = prod(values[:k]), prod(values[k:])
        return (_order(ring, partial(ring.power, power(high)), pieces[:k])
                * _order(ring, partial(ring.power, power(low)), pieces[k:]))
    if not pieces:
        return 1
    (p, e), = pieces
    g, order = power(1), 1
    while g != 1:
        order *= p
        if order == p**e:
            break
        g = ring.power(g, p)
    return order


# -- scan reports ---------------------------------------------------------------


class MatrixFamily(Enum):
    EVEN = "E"
    ODD = "O"


@dataclass(frozen=True)
class ScanEntry:
    n: int
    verdict: Verdict
    order: int | None
    factorization: PrimeFactorization | None


@dataclass(frozen=True)
class SingerReport:
    family: MatrixFamily
    q: int
    n_lo: int
    n_hi: int
    entries: tuple[ScanEntry, ...]

    def full_order_ns(self) -> tuple[int, ...]:
        return tuple(e.n for e in self.entries
                     if e.verdict is Verdict.FULL_ORDER)

    def entry(self, n: int) -> ScanEntry:
        for e in self.entries:
            if e.n == n:
                return e
        raise DomainError(f"n={n} not in scan range {self.n_lo}..{self.n_hi}")
