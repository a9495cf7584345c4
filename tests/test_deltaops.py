import sys
import threading
from fractions import Fraction

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
    prime_function,
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
    p = DeltaPoly((3, 0, -1))
    assert p.coefficient(0) == 3
    assert p.coefficient(1) == 0
    assert p.coefficient(2) == -1
    assert p.coefficient(9) == 0


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
    with pytest.raises(DomainError):
        p.apply((1, 2, 3), 2)
    with pytest.raises(DomainError):
        p.apply((1, 2, 3), 0)


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
    assert prime_function(Family.PRIME, 2, 1) == multiplier(Family.PRIME, 2)
    assert prime_function(Family.ODD, 3, 2) == multiplier(Family.ODD, 6)
    assert prime_function(Family.EVEN, 5, 3) == multiplier(Family.EVEN, 15)


def test_prime_function_rejects_composite_p():
    with pytest.raises(DomainError):
        prime_function(Family.ODD, 4, 1)
    with pytest.raises(DomainError):
        prime_function(Family.ODD, 2, 0)


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
