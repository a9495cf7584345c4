import sys
import threading
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablepaths import deltaops
from tablepaths.deltaops import (
    DELTA,
    ONE,
    ZERO,
    DeltaPoly,
    Family,
    base_constant,
    chebyshev_t,
    closed_form,
    fibonacci_poly,
    format_poly,
    lucas_poly,
    multiplier,
    parity_family,
    verify_action_theorem,
    verify_addition_theorem,
    verify_bridge_lemma,
    verify_classical,
    verify_closed_forms,
    verify_compose_factorization,
    verify_congruence,
    verify_partial_sums,
    verify_product_theorem,
    verify_uniform_factorization,
)
from tablepaths.errors import DomainError

coeff_lists = st.lists(st.integers(-50, 50), min_size=0, max_size=6)
polys = coeff_lists.map(lambda cs: DeltaPoly(tuple(cs)))
wide_polys = st.lists(st.integers(-10**6, 10**6), max_size=17).map(
    lambda cs: DeltaPoly(tuple(cs)))
seq_values = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**80, 2**80))


# -- canonical form and ring structure --------------------------------------


def test_trailing_zeros_are_trimmed():
    assert DeltaPoly((1, 2, 0, 0)) == DeltaPoly((1, 2))
    assert DeltaPoly((0, 0)).is_zero
    assert DeltaPoly(()).degree == -1
    assert DeltaPoly((0, 0, 7)).degree == 2


def test_coefficient_lookup():
    assert DeltaPoly((3, 0, -1)).coeffs == (3, 0, -1)
    assert DeltaPoly((3, 0, -1, 0, 0)).coeffs == (3, 0, -1)


@given(a=polys, b=polys, c=polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(a=polys, k=st.integers(-9, 9))
def test_integer_scalars_coerce(a, k):
    assert k * a == DeltaPoly((k,)) * a
    assert a + k == a + DeltaPoly((k,))
    assert k - a == DeltaPoly((k,)) - a


def test_compose_on_square():
    odd2 = DeltaPoly((-2, 0, 1))
    assert odd2.compose(odd2) == DeltaPoly((2, 0, -4, 0, 1))


# -- packed products and compositions against the schoolbook routes -----------


def schoolbook_product(a, b):
    """The product as it was before packed products: one multiply-add per
    coefficient pair.  Kept as the reference route."""
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return ZERO
    out = [0] * (len(x) + len(y) - 1)
    for i, cx in enumerate(x):
        for j, cy in enumerate(y):
            out[i + j] += cx * cy
    return DeltaPoly(tuple(out))


def horner_compose(outer, inner):
    """The composition as it was before packed compositions: Horner's rule
    with one schoolbook product per step.  Kept as the reference route."""
    result = ZERO
    for c in reversed(outer.coeffs):
        step = schoolbook_product(result, inner).coeffs or (0,)
        result = DeltaPoly((step[0] + c,) + step[1:])
    return result


def assert_canonical(p):
    """A trimmed tuple of plain ints, the same value and hash as the
    polynomial built through the public constructor."""
    assert type(p.coeffs) is tuple
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    twin = DeltaPoly(p.coeffs)
    assert p == twin
    assert hash(p) == hash(twin)


huge_polys = st.one_of(
    st.just(ZERO),
    st.integers(-2**200, 2**200).map(lambda c: DeltaPoly((c,))),
    st.lists(st.integers(-2**200, 2**200), max_size=9).map(
        lambda cs: DeltaPoly(tuple(cs))),
)


@given(a=huge_polys, b=huge_polys)
@settings(max_examples=300)
def test_packed_product_matches_schoolbook(a, b):
    got = a * b
    assert got == schoolbook_product(a, b)
    assert_canonical(got)


@given(outer=huge_polys, inner=st.one_of(huge_polys, polys))
@settings(max_examples=200)
def test_packed_compose_matches_horner(outer, inner):
    got = outer.compose(inner)
    assert got == horner_compose(outer, inner)
    assert_canonical(got)


@given(a=huge_polys, b=huge_polys, k=st.integers(-2**70, 2**70))
def test_ring_results_are_canonical(a, b, k):
    for got, want in ((a + b, map(sum, zip_longest(a.coeffs, b.coeffs,
                                                    fillvalue=0))),
                      (a - b, (x - y for x, y in zip_longest(
                          a.coeffs, b.coeffs, fillvalue=0))),
                      (-a, (-x for x in a.coeffs)),
                      (k - a, (x - y for x, y in zip_longest(
                          (k,), a.coeffs, fillvalue=0))),
                      (a - a, ()), (a * k, (k * x for x in a.coeffs))):
        assert got == DeltaPoly(tuple(want))
        assert_canonical(got)


@pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33,
                                  63, 64, 65, 127, 128, 129, 200])
def test_packed_routes_at_slot_boundaries(bits):
    edge = (1 << bits) - 1
    for a, b in [((edge, -edge, edge), (-edge, 1)), ((-edge,) * 5, (-edge,)),
                 ((edge,) * 9, (edge,) * 9), ((-edge,) * 8, (edge,) * 12),
                 ((1 << bits, -(1 << bits)), (edge, edge, -1)),
                 ((0, 0, -edge), (-1, 0, 0, edge))]:
        a, b = DeltaPoly(a), DeltaPoly(b)
        assert a * b == schoolbook_product(a, b)
        assert a.compose(b) == horner_compose(a, b)
        assert b.compose(a) == horner_compose(b, a)


def test_compose_with_zero_and_constant_inner():
    p = DeltaPoly((5, -3, 0, 2))
    assert p.compose(ZERO) == DeltaPoly((5,))
    assert p.compose(DeltaPoly((2,))) == DeltaPoly((5 - 6 + 16,))
    assert DeltaPoly((0, 1, 1)).compose(DeltaPoly((-1,))) == ZERO
    assert DeltaPoly((7,)).compose(DeltaPoly((2**300, -1))) == DeltaPoly((7,))
    assert ZERO.compose(p) == ZERO
    for got in (p.compose(ZERO), DeltaPoly((0, 1, 1)).compose(DeltaPoly((-1,)))):
        assert_canonical(got)


@given(a=polys, b=polys)
@settings(max_examples=60)
def test_divmod_monic_reconstructs(a, b):
    monic = DeltaPoly(b.coeffs[:-1] + (1,)) if b.coeffs else DELTA
    q, r = a.divmod_monic(monic)
    assert q * monic + r == a
    assert r.degree < monic.degree


def test_divmod_requires_monic_divisor():
    with pytest.raises(DomainError):
        DELTA.divmod_monic(DeltaPoly((1, 2)))
    with pytest.raises(DomainError):
        DELTA.divmod_monic(ZERO)


def test_apply_uses_forward_differences():
    # (Delta^2 + 2*Delta + 1) at n=1 on the m=5 top row.
    row = (1, 2, 5, 13, 35)
    p = DeltaPoly((1, 2, 1))
    assert p.apply(row, 1) == 5
    # (Delta^2 - 2) at n=1 on the m=5 middle row.
    assert DeltaPoly((-2, 0, 1)).apply((1, 3, 9, 25, 69), 1) == 2


def difference_triangle_apply(p, seq, n):
    """The reference evaluation of p(Delta): rebuild the difference triangle
    of the window seq(n), ..., seq(n + degree) and weight its left edge."""
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    if p.is_zero:
        return 0
    d = p.degree
    if n + d > len(seq):
        raise DomainError(
            f"need sequence values up to index {n + d}, have {len(seq)}")
    window = [int(v) for v in seq[n - 1: n + d]]
    total = p.coeffs[0] * window[0]
    for i in range(1, d + 1):
        window = [window[j + 1] - window[j] for j in range(len(window) - 1)]
        total += p.coeffs[i] * window[0]
    return total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


@given(p=wide_polys, data=st.data())
@settings(max_examples=200)
def test_apply_matches_the_difference_triangle(p, data):
    d = max(p.degree, 0)
    seq = tuple(data.draw(st.lists(seq_values, min_size=d + 1,
                                   max_size=d + 12)))
    for n in range(0, len(seq) - d + 2):
        assert (_outcome(p.apply, seq, n)
                == _outcome(difference_triangle_apply, p, seq, n)), n


@given(p=wide_polys)
def test_shift_coeffs_are_the_taylor_shift_by_minus_one(p):
    assert p.shift_coeffs == p.compose(DeltaPoly((-1, 1))).coeffs
    assert DeltaPoly(p.shift_coeffs).compose(DeltaPoly((1, 1))) == p


@given(p=wide_polys)
def test_cached_shift_leaves_equality_and_hash_alone(p):
    p.shift_coeffs
    twin = DeltaPoly(p.coeffs)
    assert p == twin
    assert hash(p) == hash(twin)


def test_apply_window_bounds_checked():
    p = DeltaPoly((0, 0, 1))
    with pytest.raises(DomainError,
                       match=r"^need sequence values up to index 4, have 3$"):
        p.apply((1, 2, 3), 2)
    with pytest.raises(DomainError, match=r"^index must be >= 1, got 0$"):
        p.apply((1, 2, 3), 0)


def test_zero_polynomial_applies_to_zero_without_a_window():
    for n in (1, 2, 50):
        assert ZERO.apply((), n) == 0
        assert ZERO.apply((7, 8), n) == 0
    # The index is checked before the zero polynomial returns.
    for n in (0, -3):
        with pytest.raises(DomainError, match=f"^index must be >= 1, got {n}$"):
            ZERO.apply((), n)


# -- format --------------------------------------------------------------------


def test_format_descending_terms():
    assert str(DeltaPoly((-2, 0, 1))) == "Δ^2 - 2"
    assert str(DeltaPoly((1, -3, 0, 2))) == "2Δ^3 - 3Δ + 1"
    assert str(ZERO) == "0"
    assert str(DELTA) == "Δ"
    assert format_poly((0, -1)) == "-Δ"


# -- operator families ---------------------------------------------------------


def test_family_seeds():
    assert multiplier(Family.ODD, 0) == DeltaPoly((2,))
    assert multiplier(Family.ODD, 1) == DELTA
    assert multiplier(Family.EVEN, 0) == ONE
    assert multiplier(Family.EVEN, 1) == DeltaPoly((-1, 1))
    assert multiplier(Family.PRIME, 0) == ONE
    assert multiplier(Family.PRIME, 1) == DELTA


def test_small_members_match_hand_expansion():
    assert multiplier(Family.ODD, 2) == DeltaPoly((-2, 0, 1))
    assert multiplier(Family.ODD, 3) == DeltaPoly((0, -3, 0, 1))
    assert multiplier(Family.ODD, 4) == DeltaPoly((2, 0, -4, 0, 1))
    assert multiplier(Family.EVEN, 2) == DeltaPoly((-1, -1, 1))
    assert multiplier(Family.EVEN, 3) == DeltaPoly((1, -2, -1, 1))
    assert multiplier(Family.EVEN, 4) == DeltaPoly((1, 2, -3, -1, 1))
    assert multiplier(Family.PRIME, 2) == DeltaPoly((-1, 0, 1))
    assert multiplier(Family.PRIME, 3) == DeltaPoly((0, -2, 0, 1))
    assert multiplier(Family.PRIME, 4) == DeltaPoly((1, 0, -3, 0, 1))


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        multiplier(Family.ODD, -1)


def test_threads_growing_the_memo_agree(monkeypatch):
    want = [closed_form(Family.ODD, i) for i in range(301)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(deltaops, "_members", {
                f: list(seed) for f, seed in deltaops._SEEDS.items()})
            start = threading.Barrier(8)
            results = []

            def worker():
                start.wait(timeout=30)
                results.append(multiplier(Family.ODD, 300))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [want[300]] * 8
            assert deltaops._members[Family.ODD] == want
    finally:
        sys.setswitchinterval(interval)


def test_parity_family_and_base_constant():
    assert parity_family(3) is Family.ODD
    assert parity_family(6) is Family.EVEN
    assert base_constant(Family.ODD) == 2
    assert base_constant(Family.EVEN) == 1
    assert base_constant(Family.PRIME) == 1


@given(family=st.sampled_from(list(Family)), n=st.integers(0, 30))
def test_closed_form_matches_recursion(family, n):
    assert closed_form(family, n) == multiplier(family, n)


# -- identities ------------------------------------------------------------------


def test_identity_sweeps_find_nothing():
    assert verify_closed_forms(30) is None
    assert verify_addition_theorem(8) is None
    assert verify_action_theorem(8) is None
    assert verify_product_theorem(6) is None
    assert verify_compose_factorization(8, 40) is None
    assert verify_uniform_factorization(24) is None
    assert verify_bridge_lemma(30) is None
    assert verify_partial_sums(30) is None
    assert verify_congruence(8) is None


def test_prime_function_reaches_composite_indices():
    def prime_image(family, p, n):
        return deltaops._prime_image(family, p, multiplier(family, n),
                                     multiplier(Family.ODD, n))

    assert prime_image(Family.PRIME, 2, 1) == multiplier(Family.PRIME, 2)
    assert prime_image(Family.ODD, 3, 2) == multiplier(Family.ODD, 6)
    assert prime_image(Family.EVEN, 5, 3) == multiplier(Family.EVEN, 15)


# -- classical polynomial families -----------------------------------------------


def test_chebyshev_seeds_and_recursion():
    assert chebyshev_t(0) == (1,)
    assert chebyshev_t(1) == (0, 1)
    assert chebyshev_t(2) == (-1, 0, 2)
    assert chebyshev_t(5) == (0, 5, 0, -20, 0, 16)


def test_fibonacci_and_lucas_seeds():
    assert fibonacci_poly(1) == (1,)
    assert fibonacci_poly(2) == (0, 1)
    assert fibonacci_poly(3) == (1, 0, 1)
    assert fibonacci_poly(4) == (0, 2, 0, 1)
    assert lucas_poly(0) == (2,)
    assert lucas_poly(1) == (0, 1)
    assert lucas_poly(2) == (2, 0, 1)
    assert lucas_poly(3) == (0, 3, 0, 1)


def test_odd_member_halved_at_doubled_argument_is_chebyshev():
    # coefficient c_i of Odd(n) contributes c_i * 2^i / 2 to degree i.
    for n in range(0, 10):
        coeffs = multiplier(Family.ODD, n).coeffs
        halved = tuple(Fraction(c * 2**i, 2) for i, c in enumerate(coeffs))
        want = tuple(Fraction(c) for c in chebyshev_t(n))
        assert halved == want, n


def test_classical_comparison_sweep():
    assert verify_classical(16) is None
