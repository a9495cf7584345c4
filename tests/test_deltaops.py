import sys
import threading
from fractions import Fraction
from itertools import zip_longest
from operator import add, mul, sub
from unittest import mock

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
    Windows,
    base_constant,
    closed_form,
    format_poly,
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
from tablepaths.suite import run_suite

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


def test_slot_width_is_the_struct_width_or_whole_bytes():
    for bits in range(300):
        whole = max((bits + 7) // 8, 1)
        want = next((w for w in (1, 2, 4, 8) if whole <= w), whole)
        assert deltaops._slot_width(bits) == want, bits


def test_shape_caches_stay_bounded():
    cache = deltaops._cached_shape
    cache.cache_clear()

    def assert_bounded():
        info = cache.cache_info()
        assert info.maxsize == 256 and info.currsize <= 256

    # Slots wider than 8 bytes, few or many of them: nothing is cached.
    for count in (50, 5000):
        seq = [2**100 + i for i in range(count + 100)]
        windows = Windows(count, (seq,), (ONE, DELTA))
        assert windows.width > 8
        assert windows.values(windows.apply(DELTA, windows.seqs[0])) == [1] * count
    assert cache.cache_info().currsize == 0
    # Narrow slots: once the short shapes of the polynomials are cached, a
    # window of more than 1024 slots adds none.
    seq = list(range(1000, 2600))
    Windows(3, (seq,), (ONE, DELTA))
    before = cache.cache_info().currsize
    windows = Windows(1500, (seq,), (ONE, DELTA))
    assert windows.width <= 8
    assert windows.values(windows.apply(DELTA, windows.seqs[0])) == [1] * 1500
    assert cache.cache_info().currsize == before
    for length in range(1, 201):
        for scale in (1, 2**12, 2**40):
            a, b = DeltaPoly((scale,) * length), DeltaPoly((-1, 2) * length)
            product = a * b
            if length % 50 == 0:
                assert product == schoolbook_product(a, b)
            assert_bounded()
    info = cache.cache_info()
    assert info.currsize == 256 and info.misses > 256
    # 1000 coefficients each: the product has more slots than a cached shape.
    DeltaPoly((1,) * 1000) * DeltaPoly((1, -1) * 500)
    assert_bounded()


def test_threads_filling_the_shape_caches_keep_the_bound():
    deltaops._cached_shape.cache_clear()
    pairs = [(DeltaPoly((-3,) * length), DeltaPoly((1, 2) * (length // 2 + 1)))
             for length in range(2, 200)]
    want = [schoolbook_product(a, b) for a, b in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(8)
        results = []

        def worker(offset):
            start.wait(timeout=30)
            order = pairs[offset:] + pairs[:offset]
            got = [a * b for a, b in order]
            results.append(got[-offset:] + got[:-offset] if offset else got)

        threads = [threading.Thread(target=worker, args=(15 * i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 8
    # The pairs need 304 shapes, so the threads also evicted.
    assert deltaops._cached_shape.cache_info().currsize == 256


@pytest.mark.parametrize("width", [8, 9])
@pytest.mark.parametrize("count", [1024, 1025])
def test_cached_and_uncached_shapes_agree(width, count):
    before = deltaops._cached_shape.cache_info()
    half, struct = deltaops._shape(width, count)
    after = deltaops._cached_shape.cache_info()
    assert (after.hits + after.misses - before.hits - before.misses
            == (width == 8 and count == 1024))
    built_half, built_struct = deltaops._cached_shape.__wrapped__(width, count)
    bits = 8 * width
    assert half == built_half == sum(1 << bits * i + bits - 1
                                     for i in range(count))
    if width <= 8:
        assert (struct.format, struct.size) == (built_struct.format,
                                                 width * count)
    else:
        assert struct is None and built_struct is None
    edges = [-(1 << bits - 1), (1 << bits - 1) - 1, 0, -1]
    values = [edges[i % 4] for i in range(count)]
    assert deltaops._unpack(deltaops._pack(values, width), width,
                            count) == values


def test_a_repeated_suite_request_builds_no_shape():
    cache = deltaops._cached_shape
    cache.cache_clear()
    first = run_suite(27, 110)
    # One request's shapes all fit: none was evicted within the request.
    assert cache.cache_info().misses == cache.cache_info().currsize <= 256
    misses = cache.cache_info().misses
    second = run_suite(27, 110)
    assert cache.cache_info().misses == misses
    assert first.passed and first == second


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


# Values at slot-width edges: 2^k - 1 is the largest with k bits, 2^k the
# smallest with k + 1.
edge_values = st.integers(0, 140).flatmap(
    lambda k: st.sampled_from((2**k - 1, 2**k, 1 - 2**k, -2**k)))
window_values = st.one_of(seq_values, edge_values)
# Long windows take the shift route for every polynomial with two or more
# nonzero shift coefficients; the last kind has small ones, as the checks do.
window_polys = st.one_of(
    st.just(ZERO),
    st.lists(st.one_of(st.integers(-50, 50), edge_values),
             min_size=1, max_size=17).map(lambda cs: DeltaPoly(tuple(cs))),
    st.lists(st.integers(-3, 3), min_size=2, max_size=9).map(
        lambda cs: DeltaPoly(tuple(cs))))


def window_values_of(windows, poly, packed):
    return windows.values(windows.apply(poly, packed))


def route_of(windows, poly):
    """The route ``windows`` takes for poly, which its first apply builds:
    its entry holds packed coefficients on the product route and None on
    the shift route."""
    windows.apply(poly, 0)
    return "product" if windows._polys[poly][0] is not None else "shift"


def rule_route(windows, poly):
    """The route the rule in the Windows docstring gives: shift and add for
    a long window of a polynomial with at least two nonzero shift
    coefficients."""
    long = windows.count >= 64
    return ("shift" if long and sum(map(bool, poly.shift_coeffs)) > 1
            else "product")


# Window lengths on both sides of the shift route's 64 values.
window_counts = st.one_of(st.integers(1, 8), st.integers(60, 150))


@given(p=window_polys, data=st.data())
@settings(max_examples=200, deadline=None)
def test_windows_and_apply_match_the_difference_triangle(p, data):
    d = max(p.degree, 0)
    extra = data.draw(window_counts)
    seq = tuple(data.draw(st.lists(window_values, min_size=d + extra,
                                   max_size=d + extra + 3)))
    longest = len(seq) - d
    want = [difference_triangle_apply(p, seq, n) for n in range(1, longest + 1)]
    for count in (1, data.draw(st.integers(1, longest)), longest):
        windows = Windows(count, (seq,), (p,))
        assert route_of(windows, p) == rule_route(windows, p)
        assert window_values_of(windows, p, windows.seqs[0]) == want[:count]
    for n in range(0, longest + 2):
        assert (_outcome(p.apply, seq, n)
                == _outcome(difference_triangle_apply, p, seq, n)), n
    # One index past the longest window fails with the reference's message;
    # the zero polynomial reads no values and has no longest window.
    if p.is_zero:
        windows = Windows(longest + 1, (seq,), (p,))
        assert window_values_of(windows, p, windows.seqs[0]) == [0] * (longest + 1)
    else:
        with pytest.raises(DomainError) as windowed:
            Windows(longest + 1, (seq,), (p,))
        with pytest.raises(DomainError) as reference:
            difference_triangle_apply(p, seq, longest + 1)
        assert str(windowed.value) == str(reference.value)


@given(polys=st.lists(window_polys, min_size=1, max_size=4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_windows_share_one_width_and_find_the_first_difference(polys, data):
    d = max(max(p.degree for p in polys), 0)
    count = data.draw(window_counts)
    seqs = data.draw(st.lists(
        st.lists(window_values, min_size=count + d, max_size=count + d + 3),
        min_size=1, max_size=3))
    # weight: the sum of all the sequences is evaluated too, and a signed
    # combination within the same weight.
    windows = Windows(count, seqs, polys, weight=len(seqs))
    total = [sum(column) for column in zip(*seqs)]
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(seqs),
                               max_size=len(seqs)))
    mixed = [sum(map(mul, signs, column)) for column in zip(*seqs)]
    got, want = [], []
    for p in polys:
        assert route_of(windows, p) == rule_route(windows, p)
        for seq, packed in zip([*seqs, total, mixed],
                               [*windows.seqs, sum(windows.seqs),
                                sum(map(mul, signs, windows.seqs))]):
            got.append(windows.apply(p, packed))
            want.append([difference_triangle_apply(p, seq, n)
                         for n in range(1, count + 1)])
            assert windows.values(got[-1]) == want[-1]
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(got) - 1),
                                         st.integers(0, len(got) - 1))))
    first = None
    for i, (a, b) in enumerate(pairs):
        assert (got[a] == got[b]) == (want[a] == want[b])
        if want[a] != want[b]:
            n = next(n for n, (x, y) in enumerate(zip(want[a], want[b]), 1)
                     if x != y)
            if first is None or n < first[0]:
                first = (n, i)
    assert windows.first_difference((got[a], got[b]) for a, b in pairs) == first


@pytest.mark.parametrize("bits", range(60, 82))
def test_windows_hold_weighted_sums_at_slot_width_edges(bits):
    # Three sequences at 2^bits - 1 or -2^bits add up to past the slot
    # width of one of them; weight 3 makes room for their sum.
    for edge in ((1 << bits) - 1, -(1 << bits)):
        seqs = [(edge, -edge, edge, edge)] * 3
        windows = Windows(3, seqs, (ONE, DELTA), weight=3)
        total = sum(windows.seqs)
        assert window_values_of(windows, ONE, total) == [3 * edge, -3 * edge,
                                                          3 * edge]
        # The identity's window needs no product.
        assert windows.window(total) == windows.apply(ONE, total)
        assert window_values_of(windows, DELTA, total) == [-6 * edge,
                                                            6 * edge, 0]


# (count, sequence values, polynomial, route): long windows of polynomials
# with two or more nonzero shift coefficients shift and add, on signed and on
# nonnegative values, however wide the coefficients; short windows and
# one-term polynomials take the product.
ROUTE_CASES = [
    (150, (-(2**100), 2**100 - 1), multiplier(Family.ODD, 12), "shift"),
    (64, (0, 3**90), multiplier(Family.EVEN, 5), "shift"),
    (150, (-7, 7), DeltaPoly((2, -1)), "shift"),
    (63, (-(2**100), 2**100 - 1), multiplier(Family.ODD, 12), "product"),
    (150, (-(2**100), 2**100 - 1), ONE, "product"),
    (150, (-(2**100), 2**100 - 1), DeltaPoly((1, 1)), "product"),
    (150, (-(2**100), 2**100 - 1), DeltaPoly((2**40, -3, 1)), "shift"),
]


@pytest.mark.parametrize("count, ends, poly, route", ROUTE_CASES)
def test_windows_take_each_route_and_match_apply(count, ends, poly, route):
    lo, hi = ends
    seq = [(lo, hi)[i % 2] if i % 3 else (i * 7919) % (hi - lo + 1) + lo
           for i in range(count + poly.degree)]
    windows = Windows(count, (seq,), (poly,))
    assert route_of(windows, poly) == rule_route(windows, poly) == route
    assert (window_values_of(windows, poly, windows.seqs[0])
            == [poly.apply(seq, n) for n in range(1, count + 1)])


def test_windows_reject_a_polynomial_past_their_bounds():
    # Δ^2 (shift coefficients 1, -2, 1) sets degree 2 and reach 4, the sum
    # of |shift coefficients|.  E^3 = (Δ + 1)^3 is past the degree with
    # reach 1, and 5 past the reach with degree 0; 3 is within both.
    seq = list(range(1, 20))
    windows = Windows(10, (seq,), (DELTA, DeltaPoly((0, 0, 1))))
    cube = DeltaPoly((1, 3, 3, 1))
    assert cube.shift_coeffs == (0, 0, 0, 1)
    for poly in (cube, DeltaPoly((5,))):
        with pytest.raises(DomainError, match=r"past these windows' \(2, 4\)$"):
            windows.apply(poly, windows.seqs[0])
        assert poly not in windows._polys
    assert (window_values_of(windows, DeltaPoly((3,)), windows.seqs[0])
            == [3 * v for v in seq[:10]])


@given(polys=st.lists(window_polys, min_size=1, max_size=4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_windows_build_the_same_routes_in_any_order(polys, data):
    # A route is built at its polynomial's first apply, so the order in
    # which the constructor's polynomials are applied changes no window
    # and no route.
    d = max(max(p.degree for p in polys), 0)
    count = data.draw(window_counts)
    seq = data.draw(st.lists(window_values, min_size=count + d,
                             max_size=count + d + 3))
    order = data.draw(st.permutations(polys))
    first, second = Windows(count, (seq,), polys), Windows(count, (seq,), polys)
    assert first._polys == second._polys == {}
    got = {p: first.apply(p, first.seqs[0]) for p in polys}
    assert {p: second.apply(p, second.seqs[0]) for p in order} == got
    assert first._polys == second._polys
    assert list(first._polys) == list(dict.fromkeys(polys))


def test_windows_of_no_polynomial_match_the_zero_polynomial():
    # No polynomial reads no value, as the zero polynomial reads none, so
    # every nonzero polynomial is past the bounds.
    seqs = ((1, 2, 3),)
    empty, zero = Windows(3, seqs, ()), Windows(3, seqs, (ZERO,))
    assert ((empty.width, empty.seqs, empty._bounds)
            == (zero.width, zero.seqs, zero._bounds) == (1, [0], (-1, 0)))
    assert empty.values(empty.apply(ZERO, empty.seqs[0])) == [0, 0, 0]
    for poly in (ONE, DELTA):
        with pytest.raises(DomainError, match=r"past these windows' \(-1, 0\)$"):
            empty.apply(poly, empty.seqs[0])


def test_windows_reject_a_negative_length():
    with pytest.raises(DomainError, match=r"^window length must be >= 0, got -1$"):
        Windows(-1, ((1, 2),), (ONE,))
    windows = Windows(0, ((1, 2),), (DELTA,))
    assert windows.values(windows.apply(DELTA, windows.seqs[0])) == []


@given(p=wide_polys)
def test_shift_coeffs_are_the_taylor_shift_by_minus_one(p):
    assert p.shift_coeffs == p.compose(DeltaPoly((-1, 1))).coeffs
    assert DeltaPoly(p.shift_coeffs).compose(DeltaPoly((1, 1))) == p


@given(p=wide_polys)
def test_cached_shift_leaves_equality_and_hash_alone(p):
    p.shift_coeffs
    twin = DeltaPoly(p.coeffs)
    assert p == twin
    # The hash is the dataclass hash of coeffs, cached in the instance dict.
    assert hash(p) == hash(twin) == hash((p.coeffs,)) == p.__dict__["_hash"]


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


def test_apply_is_a_dot_product_without_windows(monkeypatch):
    def no_windows(*args, **kwargs):
        raise AssertionError("DeltaPoly.apply built a Windows")

    monkeypatch.setattr(deltaops, "Windows", no_windows)
    seqs = ((1, 2, 5, 13, 35, 96, 267, 750),
            (2**70, -3, 2**64 - 1, -2**90, 7, 0, 1 - 2**63, 5, 11))
    polys = (ZERO, ONE, DELTA, DeltaPoly((-2, 0, 1)), multiplier(Family.ODD, 6),
             DeltaPoly((10**6, -1, 0, 2**65, -7)), DeltaPoly((0,) * 7 + (3,)))
    for p in polys:
        for seq in seqs:
            for n in range(-1, len(seq) + 2):
                assert (_outcome(p.apply, seq, n)
                        == _outcome(difference_triangle_apply, p, seq, n)), (p, n)


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
            monkeypatch.setattr(deltaops, "_memo", {
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
            assert deltaops._memo[Family.ODD] == want
    finally:
        sys.setswitchinterval(interval)


def test_multiplier_rejects_what_is_not_a_family():
    for n in (3, -3):
        with pytest.raises(DomainError, match=r"^not an operator family: 'odd'$"):
            multiplier("odd", n)


def test_base_constant_rejects_what_is_not_a_family():
    with pytest.raises(DomainError, match=r"^not an operator family: 'odd'$"):
        base_constant("odd")


def test_closed_form_rejects_what_is_not_a_family():
    for n in (0, 3):
        with pytest.raises(DomainError, match=r"^not an operator family: 'odd'$"):
            closed_form("odd", n)


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


# (prime member, odd member, error) -> the first failures of
# verify_product_theorem(8) and verify_uniform_factorization(40) when every
# composition of that prime member with that odd member comes out plus the
# error.
CORRUPTED_COMPOSITIONS = {
    (2, 2, (1,)): (
        "odd a=3 b=2: Δ^6 - 6Δ^4 + 9Δ^2 - 2 != Δ^6 - 6Δ^4 + 10Δ^2 - 4",
        "odd n=6: prime map chain disagrees"),
    (1, 5, (0, 1)): (
        "odd a=2 b=5: Δ^10 - 10Δ^8 + 35Δ^6 - 50Δ^4 + 25Δ^2 - 2 != "
        "Δ^10 - 10Δ^8 + 36Δ^6 - 55Δ^4 + 30Δ^2 - 2",
        None),
    (4, 2, (0, 0, 3)): (
        "odd a=5 b=2: Δ^10 - 10Δ^8 + 35Δ^6 - 50Δ^4 + 25Δ^2 - 2 != "
        "Δ^10 - 10Δ^8 + 35Δ^6 - 47Δ^4 + 19Δ^2 - 2",
        "odd n=10: prime map chain disagrees"),
    (0, 4, (0, 1)): (
        "odd a=1 b=4: Δ^4 - 4Δ^2 + 2 != Δ^5 + Δ^4 - 4Δ^3 - 4Δ^2 + 2Δ + 2",
        "odd n=8: prime map chain disagrees"),
}


@pytest.mark.parametrize("case", CORRUPTED_COMPOSITIONS)
def test_prime_map_checks_report_a_corrupted_composition(monkeypatch, case):
    prime, odd, error = case
    target = (multiplier(Family.PRIME, prime), multiplier(Family.ODD, odd))
    compose = DeltaPoly.compose

    def corrupted(self, inner):
        out = compose(self, inner)
        return out + DeltaPoly(error) if (self, inner) == target else out

    monkeypatch.setattr(DeltaPoly, "compose", corrupted)
    got = (verify_product_theorem(8), verify_uniform_factorization(40))
    assert got == CORRUPTED_COMPOSITIONS[case]


def test_prime_function_reaches_composite_indices():
    def prime_image(family, p, n):
        left, right = deltaops._prime_map(p, n)
        return left * multiplier(family, n) - right * base_constant(family)

    assert prime_image(Family.PRIME, 2, 1) == multiplier(Family.PRIME, 2)
    assert prime_image(Family.ODD, 3, 2) == multiplier(Family.ODD, 6)
    assert prime_image(Family.EVEN, 5, 3) == multiplier(Family.EVEN, 15)


# -- classical polynomial families -----------------------------------------------


def _term(family, n):
    """Coefficients of term n of a classical sequence: T_n of _CHEBYSHEV,
    F_(n+1) of _FIBONACCI and L_n of _LUCAS."""
    return deltaops._two_term(*family, n)[n].coeffs


def test_chebyshev_seeds_and_recursion():
    assert _term(deltaops._CHEBYSHEV, 0) == (1,)
    assert _term(deltaops._CHEBYSHEV, 1) == (0, 1)
    assert _term(deltaops._CHEBYSHEV, 2) == (-1, 0, 2)
    assert _term(deltaops._CHEBYSHEV, 5) == (0, 5, 0, -20, 0, 16)


def test_fibonacci_and_lucas_seeds():
    assert _term(deltaops._FIBONACCI, 0) == (1,)
    assert _term(deltaops._FIBONACCI, 1) == (0, 1)
    assert _term(deltaops._FIBONACCI, 2) == (1, 0, 1)
    assert _term(deltaops._FIBONACCI, 3) == (0, 2, 0, 1)
    assert _term(deltaops._LUCAS, 0) == (2,)
    assert _term(deltaops._LUCAS, 1) == (0, 1)
    assert _term(deltaops._LUCAS, 2) == (2, 0, 1)
    assert _term(deltaops._LUCAS, 3) == (0, 3, 0, 1)


def reference_chebyshev_t(n):
    """Chebyshev T_n by the pair-swapping loop: T_0 = 1, T_1 = x."""
    prev, cur = ONE, DELTA
    if n == 0:
        return prev.coeffs
    for _ in range(n - 1):
        prev, cur = cur, DeltaPoly((0, 2)) * cur - prev
    return cur.coeffs


def reference_fibonacci_poly(n):
    """Fibonacci F_n by the pair-swapping loop: F_1 = 1, F_2 = x."""
    prev, cur = ONE, DELTA
    if n == 1:
        return prev.coeffs
    for _ in range(n - 2):
        prev, cur = cur, DELTA * cur + prev
    return cur.coeffs


def reference_lucas_poly(n):
    """Lucas L_n by the pair-swapping loop: L_0 = 2, L_1 = x."""
    prev, cur = DeltaPoly((2,)), DELTA
    if n == 0:
        return prev.coeffs
    for _ in range(n - 1):
        prev, cur = cur, DELTA * cur + prev
    return cur.coeffs


def test_classical_polynomials_match_their_pair_swapping_loops():
    for k in range(4):
        assert len(deltaops._two_term(*deltaops._LUCAS, k)) == k + 1
    for n in range(41):
        assert _term(deltaops._CHEBYSHEV, n) == reference_chebyshev_t(n), n
        assert _term(deltaops._LUCAS, n) == reference_lucas_poly(n), n
        if n:
            assert (_term(deltaops._FIBONACCI, n - 1)
                    == reference_fibonacci_poly(n)), n


def test_odd_member_halved_at_doubled_argument_is_chebyshev():
    # coefficient c_i of Odd(n) contributes c_i * 2^i / 2 to degree i.
    for n in range(0, 10):
        coeffs = multiplier(Family.ODD, n).coeffs
        halved = tuple(Fraction(c * 2**i, 2) for i, c in enumerate(coeffs))
        want = tuple(Fraction(c) for c in _term(deltaops._CHEBYSHEV, n))
        assert halved == want, n


def test_classical_comparison_sweep():
    assert verify_classical(16) is None


@pytest.mark.parametrize("name, skewed, detail", [
    ("_CHEBYSHEV", (ONE, DeltaPoly((0, 2)), add),
     "chebyshev n=2: coefficient of x^0 differs, got -1, want 1"),
    ("_FIBONACCI", (ONE, DELTA, sub),
     "fibonacci n=2: coefficient of x^0 differs, got 1, want -1"),
    ("_LUCAS", (DeltaPoly((2,)), DELTA, sub),
     "lucas n=2: coefficient of x^0 differs, got 2, want -2"),
])
def test_classical_comparison_reports_a_skewed_sequence(monkeypatch, name,
                                                        skewed, detail):
    # verify_classical builds each sequence once from these seeds.
    monkeypatch.setattr(deltaops, name, skewed)
    assert verify_classical(20) == detail


# -- packed identity checks -------------------------------------------------------
#
# The per-pair loops below are the checks as they were before they compared
# packed ints; they read deltaops.multiplier at call time, so a planted fault
# reaches them as it reaches the packed checks.


def reference_addition_theorem(limit=12):
    member, pf = deltaops.multiplier, Family.PRIME
    for family in Family:
        for a in range(1, limit + 1):
            for b in range(1, limit + 1):
                lhs = member(family, a + b)
                rhs = (member(pf, a) * member(family, b)
                       - member(pf, a - 1) * member(family, b - 1))
                if lhs != rhs:
                    return f"{family.value} a={a} b={b}: {lhs} != {rhs}"
    return None


def reference_action_theorem(limit=12):
    member = deltaops.multiplier
    for family in Family:
        for a in range(limit + 1):
            for b in range(a + 1):
                lhs = member(Family.ODD, b) * member(family, a)
                rhs = member(family, a + b) + member(family, a - b)
                if lhs != rhs:
                    return f"{family.value} a={a} b={b}: {lhs} != {rhs}"
    return None


def reference_prime_image(family, p, current, n):
    member = deltaops.multiplier
    base = member(Family.ODD, n)
    return (member(Family.PRIME, p - 1).compose(base) * current
            - member(Family.PRIME, p - 2).compose(base) * base_constant(family))


def reference_product_theorem(limit=8):
    member = deltaops.multiplier
    for family in Family:
        for a in range(1, limit + 1):
            for b in range(1, limit + 1):
                lhs = member(family, a * b)
                rhs = reference_prime_image(family, a, member(family, b), b)
                if lhs != rhs:
                    return f"{family.value} a={a} b={b}: {lhs} != {rhs}"
    return None


def reference_uniform_factorization(n_max=40):
    member = deltaops.multiplier
    for family in Family:
        for n in range(1, n_max + 1):
            poly, j = member(family, 1), 1
            for p, e in deltaops.factor(n).factors:
                for _ in range(e):
                    poly = reference_prime_image(family, p, poly, j)
                    j *= p
            if poly != member(family, n):
                return f"{family.value} n={n}: prime map chain disagrees"
    return None


BATCHED = {
    "addition": (verify_addition_theorem, reference_addition_theorem),
    "action": (verify_action_theorem, reference_action_theorem),
    "product": (verify_product_theorem, reference_product_theorem),
    "uniform": (verify_uniform_factorization, reference_uniform_factorization),
}


def plant(monkeypatch, faults):
    """Add delta * D**i to the member (family, n) for each (family, n, i,
    delta) in ``faults``, wherever deltaops reads that member."""
    member = deltaops.multiplier

    def faulty(family, n):
        poly = member(family, n)
        for f, m, i, delta in faults:
            if (family, n) == (f, m):
                poly = poly + DeltaPoly((0,) * i + (delta,))
        return poly

    monkeypatch.setattr(deltaops, "multiplier", faulty)


O, E, P = Family.ODD, Family.EVEN, Family.PRIME

# (check, planted faults) -> the detail the per-pair loop reports; all but
# the aliasing cases were recorded before the checks compared packed ints.
PLANTED_FAULTS = {
    # a = 1, a middle a (a = 6) and a = limit
    ("addition", ((O, 2, 0, 1),)): 'odd a=1 b=1: Δ^2 - 1 != Δ^2 - 2',
    ("addition", ((P, 6, 0, 1),)):
        'odd a=6 b=1: Δ^7 - 7Δ^5 + 14Δ^3 - 7Δ != Δ^7 - 7Δ^5 + 14Δ^3 - 6Δ',
    ("addition", ((O, 24, 1, -1),)):
        ('odd a=12 b=12: Δ^24 - 24Δ^22 + 252Δ^20 - 1520Δ^18 + 5814Δ^16 - '
         '14688Δ^14 + 24752Δ^12 - 27456Δ^10 + 19305Δ^8 - 8008Δ^6 + 1716Δ^4 - '
         '144Δ^2 - Δ + 2 != Δ^24 - 24Δ^22 + 252Δ^20 - 1520Δ^18 + 5814Δ^16 - '
         '14688Δ^14 + 24752Δ^12 - 27456Δ^10 + 19305Δ^8 - 8008Δ^6 + 1716Δ^4 - '
         '144Δ^2 + 2'),
    ("addition", ((E, 20, 0, 1),)):
        ('even a=8 b=12: Δ^20 - Δ^19 - 19Δ^18 + 18Δ^17 + 153Δ^16 - 136Δ^15 - '
         '680Δ^14 + 560Δ^13 + 1820Δ^12 - 1365Δ^11 - 3003Δ^10 + 2002Δ^9 + '
         '3003Δ^8 - 1716Δ^7 - 1716Δ^6 + 792Δ^5 + 495Δ^4 - 165Δ^3 - 55Δ^2 + '
         '10Δ + 2 != Δ^20 - Δ^19 - 19Δ^18 + 18Δ^17 + 153Δ^16 - 136Δ^15 - '
         '680Δ^14 + 560Δ^13 + 1820Δ^12 - 1365Δ^11 - 3003Δ^10 + 2002Δ^9 + '
         '3003Δ^8 - 1716Δ^7 - 1716Δ^6 + 792Δ^5 + 495Δ^4 - 165Δ^3 - 55Δ^2 + '
         '10Δ + 1'),
    ("addition", ((P, 20, 0, 1),)):
        ('prime a=8 b=12: Δ^20 - 19Δ^18 + 153Δ^16 - 680Δ^14 + 1820Δ^12 - '
         '3003Δ^10 + 3003Δ^8 - 1716Δ^6 + 495Δ^4 - 55Δ^2 + 2 != Δ^20 - 19Δ^18 '
         '+ 153Δ^16 - 680Δ^14 + 1820Δ^12 - 3003Δ^10 + 3003Δ^8 - 1716Δ^6 + '
         '495Δ^4 - 55Δ^2 + 1'),
    # a = 2, b = 12 comes before a = 12, b = 2, which its b meets first
    ("addition", ((O, 14, 0, 1),)):
        ('odd a=2 b=12: Δ^14 - 14Δ^12 + 77Δ^10 - 210Δ^8 + 294Δ^6 - 196Δ^4 + '
         '49Δ^2 - 1 != Δ^14 - 14Δ^12 + 77Δ^10 - 210Δ^8 + 294Δ^6 - 196Δ^4 + '
         '49Δ^2 - 2'),
    # Odd(6) first fails at a = 1, b = 5, P(4) at a = 4, b = 1: a loop over
    # a for each b meets P(4) first, the loop with a outside b Odd(6)
    ("addition", ((O, 6, 0, 1), (P, 4, 0, 1))):
        'odd a=1 b=5: Δ^6 - 6Δ^4 + 9Δ^2 - 1 != Δ^6 - 6Δ^4 + 9Δ^2 - 2',
    # a = b, a middle pair (a = 4, b = 3) and a = limit
    ("action", ((O, 2, 0, 1),)): 'odd a=1 b=1: Δ^2 != Δ^2 + 1',
    ("action", ((O, 7, 0, 1),)):
        'odd a=4 b=3: Δ^7 - 7Δ^5 + 14Δ^3 - 6Δ != Δ^7 - 7Δ^5 + 14Δ^3 - 6Δ + 1',
    ("action", ((O, 23, 0, 1),)):
        ('odd a=12 b=11: Δ^23 - 23Δ^21 + 230Δ^19 - 1311Δ^17 + 4692Δ^15 - '
         '10948Δ^13 + 16744Δ^11 - 16445Δ^9 + 9867Δ^7 - 3289Δ^5 + 506Δ^3 - 22Δ '
         '!= Δ^23 - 23Δ^21 + 230Δ^19 - 1311Δ^17 + 4692Δ^15 - 10948Δ^13 + '
         '16744Δ^11 - 16445Δ^9 + 9867Δ^7 - 3289Δ^5 + 506Δ^3 - 22Δ + 1'),
    ("action", ((E, 9, 1, -2),)):
        ('even a=5 b=4: Δ^9 - Δ^8 - 8Δ^7 + 7Δ^6 + 21Δ^5 - 15Δ^4 - 20Δ^3 + '
         '10Δ^2 + 6Δ - 2 != Δ^9 - Δ^8 - 8Δ^7 + 7Δ^6 + 21Δ^5 - 15Δ^4 - 20Δ^3 + '
         '10Δ^2 + 4Δ - 2'),
    ("action", ((P, 17, 0, 1),)):
        ('prime a=9 b=8: Δ^17 - 16Δ^15 + 105Δ^13 - 364Δ^11 + 715Δ^9 - 792Δ^7 '
         '+ 462Δ^5 - 120Δ^3 + 10Δ != Δ^17 - 16Δ^15 + 105Δ^13 - 364Δ^11 + '
         '715Δ^9 - 792Δ^7 + 462Δ^5 - 120Δ^3 + 10Δ + 1'),
    # a = 10, b = 10 comes before a = 12, b = 8, which its b meets first
    ("action", ((O, 20, 0, 1),)):
        ('odd a=10 b=10: Δ^20 - 20Δ^18 + 170Δ^16 - 800Δ^14 + 2275Δ^12 - '
         '4004Δ^10 + 4290Δ^8 - 2640Δ^6 + 825Δ^4 - 100Δ^2 + 4 != Δ^20 - 20Δ^18 '
         '+ 170Δ^16 - 800Δ^14 + 2275Δ^12 - 4004Δ^10 + 4290Δ^8 - 2640Δ^6 + '
         '825Δ^4 - 100Δ^2 + 5'),
    # A planted X(n) first fails at a = ceil(n/2) in the loop with a outside
    # b, and at b = 1 in a loop over a for each b, so with two planted
    # members of one family the lower one comes first both ways.
    ("action", ((E, 10, 0, 1), (E, 16, 2, 3))):
        ('even a=5 b=5: Δ^10 - Δ^9 - 9Δ^8 + 8Δ^7 + 28Δ^6 - 21Δ^5 - 35Δ^4 + '
         '20Δ^3 + 15Δ^2 - 5Δ != Δ^10 - Δ^9 - 9Δ^8 + 8Δ^7 + 28Δ^6 - 21Δ^5 - '
         '35Δ^4 + 20Δ^3 + 15Δ^2 - 5Δ + 1'),
    # one fault per family: odd, even, prime
    ("product", ((O, 9, 0, 1),)):
        ('odd a=3 b=3: Δ^9 - 9Δ^7 + 27Δ^5 - 30Δ^3 + 9Δ + 1 != Δ^9 - 9Δ^7 + '
         '27Δ^5 - 30Δ^3 + 9Δ'),
    ("product", ((E, 12, 2, 1),)):
        ('even a=2 b=6: Δ^12 - Δ^11 - 11Δ^10 + 10Δ^9 + 45Δ^8 - 36Δ^7 - 84Δ^6 '
         '+ 56Δ^5 + 70Δ^4 - 35Δ^3 - 20Δ^2 + 6Δ + 1 != Δ^12 - Δ^11 - 11Δ^10 + '
         '10Δ^9 + 45Δ^8 - 36Δ^7 - 84Δ^6 + 56Δ^5 + 70Δ^4 - 35Δ^3 - 21Δ^2 + 6Δ '
         '+ 1'),
    ("product", ((P, 9, 0, 1),)):
        ('prime a=3 b=3: Δ^9 - 8Δ^7 + 21Δ^5 - 20Δ^3 + 5Δ + 1 != Δ^9 - 8Δ^7 + '
         '21Δ^5 - 20Δ^3 + 5Δ'),
    # odd fails at a = b = 3, even at a = 1, b = 2
    ("product", ((O, 9, 0, 1), (E, 2, 0, 1))):
        ('odd a=3 b=3: Δ^9 - 9Δ^7 + 27Δ^5 - 30Δ^3 + 9Δ + 1 != Δ^9 - 9Δ^7 + '
         '27Δ^5 - 30Δ^3 + 9Δ'),
    ("uniform", ((O, 40, 0, 1),)): 'odd n=40: prime map chain disagrees',
    ("uniform", ((E, 30, 0, 1),)): 'even n=30: prime map chain disagrees',
    ("uniform", ((P, 39, 0, 1),)): 'prime n=39: prime map chain disagrees',
    # odd fails at n = 40, even at n = 3
    ("uniform", ((O, 40, 0, 1), (E, 3, 0, 1))):
        'odd n=40: prime map chain disagrees',
    # Aliasing faults: +2**(8w) * D**i and -D**(i+1) on one member leave its
    # packed int at the unfaulted slot width w unchanged, since they cancel
    # at x = 2**(8w).  w is 4 bytes for the addition, action and uniform
    # checks and 8 for the product check, so a check that packed at w would
    # miss these; the width must come from the members the check reads.
    ("addition", ((O, 2, 0, 2**32), (O, 2, 1, -1))):
        'odd a=1 b=1: Δ^2 - Δ + 4294967294 != Δ^2 - 2',
    ("action", ((E, 9, 3, 2**32), (E, 9, 4, -1))):
        ('even a=5 b=4: Δ^9 - Δ^8 - 8Δ^7 + 7Δ^6 + 21Δ^5 - 15Δ^4 - 20Δ^3 + '
         '10Δ^2 + 6Δ - 2 != Δ^9 - Δ^8 - 8Δ^7 + 7Δ^6 + 21Δ^5 - 16Δ^4 + '
         '4294967276Δ^3 + 10Δ^2 + 6Δ - 2'),
    ("product", ((P, 9, 0, 2**64), (P, 9, 1, -1))):
        ('prime a=3 b=3: Δ^9 - 8Δ^7 + 21Δ^5 - 20Δ^3 + 4Δ + '
         '18446744073709551616 != Δ^9 - 8Δ^7 + 21Δ^5 - 20Δ^3 + 5Δ'),
    ("uniform", ((E, 30, 2, 2**32), (E, 30, 3, -1))):
        'even n=30: prime map chain disagrees',
}


@pytest.mark.parametrize("case", PLANTED_FAULTS)
def test_batched_checks_report_what_the_per_pair_loops_report(monkeypatch,
                                                              case):
    name, faults = case
    check, reference = BATCHED[name]
    plant(monkeypatch, faults)
    want = PLANTED_FAULTS[case]
    assert want is not None
    assert check() == want
    assert reference() == want


def test_batched_checks_pass_where_the_per_pair_loops_pass():
    for check, reference in BATCHED.values():
        assert check() is None
        assert reference() is None
    for limit in (0, 1, 2, 5):
        assert verify_addition_theorem(limit) is None
        assert verify_action_theorem(limit) is None
        assert verify_product_theorem(limit) is None
    for n_max in (0, 1, 2, 7):
        assert verify_uniform_factorization(n_max) is None


def reference_compose_factorization(pair_limit=10, n_max=64):
    """The compose check as it was before it kept its chains per call: each
    n composes its whole prime chain from Odd(1)."""
    member = deltaops.multiplier
    for a in range(1, pair_limit + 1):
        for b in range(1, pair_limit + 1):
            composed = member(O, a).compose(member(O, b))
            direct = member(O, a * b)
            if composed != direct:
                return f"a={a} b={b}: {composed} != {direct}"
    for n in range(1, n_max + 1):
        poly = member(O, 1)
        for p, e in deltaops.factor(n).factors:
            for _ in range(e):
                poly = member(O, p).compose(poly)
        if poly != member(O, n):
            return f"n={n}: prime composition chain disagrees"
    return None


# (planted faults, pair limit) -> the first failure of
# verify_compose_factorization(pair_limit, 64).  Odd(13) and Odd(11) are no
# product of two indices up to 10, so the pairs pass and the first chain
# through them fails; Odd(44) fails its own chain; with no pairs a fault in
# Odd(2) fails the chain of 4 = 2 * 2; a fault in Odd(1) fails the first pair.
COMPOSE_FAULTS = {
    (((O, 13, 0, 1),), 10): "n=26: prime composition chain disagrees",
    (((O, 44, 0, 1),), 10): "n=44: prime composition chain disagrees",
    (((O, 11, 0, 1), (O, 39, 0, 1)), 10):
        "n=22: prime composition chain disagrees",
    (((O, 2, 0, 1),), 0): "n=4: prime composition chain disagrees",
    (((O, 1, 1, 1),), 10): "a=1 b=1: 4Δ != 2Δ",
}


@pytest.mark.parametrize("case", COMPOSE_FAULTS)
def test_compose_chains_report_what_the_per_n_loop_reports(monkeypatch, case):
    faults, pair_limit = case
    plant(monkeypatch, faults)
    want = COMPOSE_FAULTS[case]
    assert verify_compose_factorization(pair_limit, 64) == want
    assert reference_compose_factorization(pair_limit, 64) == want


def test_compose_chains_pass_where_the_per_n_loop_passes():
    for pair_limit, n_max in ((10, 64), (0, 0), (0, 1), (2, 12), (3, 90)):
        assert verify_compose_factorization(pair_limit, n_max) is None
        assert reference_compose_factorization(pair_limit, n_max) is None


CHECKS = {**BATCHED, "compose": (verify_compose_factorization,
                                 reference_compose_factorization)}
# The lowest and highest member index each check reads at its defaults.
CHECK_INDICES = {"addition": (0, 24), "action": (0, 24), "product": (-1, 64),
                 "uniform": (-1, 40), "compose": (1, 100)}


@given(name=st.sampled_from(sorted(CHECKS)),
       family=st.sampled_from(list(Family)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_planted_fault_is_reported_as_the_reference_loops_report(
        name, family, data):
    # One fault delta * D**i on one member; a delta of 2**32 or 2**64 may
    # come with -D**(i+1), the aliasing pair of PLANTED_FAULTS, which
    # cancels at the slot width of that size.
    lo, hi = CHECK_INDICES[name]
    n, power = data.draw(st.integers(lo, hi)), data.draw(st.integers(0, 66))
    delta = data.draw(st.one_of(st.integers(-3, 3), st.sampled_from(
        (2**32, -2**32, 2**64, -2**64))))
    faults = ((family, n, power, delta),)
    if abs(delta) > 3 and data.draw(st.booleans()):
        faults += ((family, n, power + 1, -1 if delta > 0 else 1),)
    check, reference = CHECKS[name]
    with pytest.MonkeyPatch.context() as monkeypatch:
        plant(monkeypatch, faults)
        assert check() == reference()


# Coefficients at bit-length edges, so that slot widths meet their bounds,
# and polynomials whose coefficients all share one such value, whose
# products have the largest coefficients that their sizes allow.
width_polys = st.one_of(
    st.lists(st.one_of(st.integers(-50, 50), edge_values),
             max_size=9).map(lambda cs: DeltaPoly(tuple(cs))),
    st.tuples(edge_values, st.integers(1, 9)).map(
        lambda vn: DeltaPoly((vn[0],) * vn[1])))


@given(factors=st.lists(width_polys, min_size=1, max_size=4),
       low=st.lists(width_polys, min_size=1, max_size=4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_row_bound_holds_both_sides_of_every_row(factors, low, data):
    # The one premise of the packed identity checks: at the width that
    # _first_failure takes, both sides of every row, X(t) and
    # A * X(i) - B * X(j), are below half a slot in size.  Then the right
    # side packs to the same sum of products of packed ints, and the two
    # sides pack to equal ints exactly when they are equal.  A target X(t)
    # is its right side, that plus an error, or a polynomial of its own, so
    # a right side may be far larger than every member.
    pick = st.integers(0, len(factors) - 1)
    index = st.integers(0, len(low) - 1)
    rows, targets = [], []
    for r in range(data.draw(st.integers(1, 4))):
        a, b, i, j = data.draw(st.tuples(pick, pick, index, index))
        rhs = factors[a] * low[i] - factors[b] * low[j]
        rows.append((r, len(low) + r, a, i, b, j))
        targets.append(data.draw(st.one_of(
            st.just(rhs), width_polys.map(rhs.__add__), width_polys)))
    xs = low + targets
    with mock.patch.object(deltaops, "_slot_width",
                           wraps=deltaops._slot_width) as spy:
        found = deltaops._first_failure({O: xs}, factors, rows)
    assert spy.call_count == 1
    width = deltaops._slot_width(*spy.call_args.args)
    half = 2 ** (8 * width - 1)

    def pack(p):
        return deltaops._pack(p.coeffs, width)

    first = None
    for key, t, a, i, b, j in rows:
        rhs = factors[a] * xs[i] - factors[b] * xs[j]
        assert all(abs(c) < half for c in (*xs[t].coeffs, *rhs.coeffs))
        packed = pack(factors[a]) * pack(xs[i]) - pack(factors[b]) * pack(xs[j])
        assert pack(rhs) == packed
        assert (pack(xs[t]) == packed) == (xs[t] == rhs)
        if first is None and xs[t] != rhs:
            first = (O, key)
    assert found == first
