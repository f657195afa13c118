import math
import random
import sys
from types import SimpleNamespace

import pytest
from fractions import Fraction

from qcongruence import polycore
from qcongruence.polycore import (
    INFINITE,
    _divide_one_minus,
    _pack,
    _times_one_minus,
    _unpack,
    Poly,
)
from qcongruence.cyclotomic import cyclotomic, valuation_at

from oracles import (
    add,
    div_rem_by_monic,
    eval_at,
    mul_schoolbook,
    normalize_one_minus_pow,
    one_minus_q,
    power,
    q_integer,
    q_integer_binomials,
    scale,
    shift,
    sub,
    times_binomials,
    times_one_minus,
)


def rand_poly(rng, degree, bound=9):
    return Poly([rng.randint(-bound, bound) for _ in range(degree + 1)])


@pytest.mark.parametrize("byteorder", sorted({sys.byteorder, "big"}))
def test_unpack_reads_back_every_slot_width(monkeypatch, byteorder):
    # w <= 8 on a little-endian host reads int64s, and w > 8 or a
    # big-endian host reads slot by slot; both at the extremes a slot
    # holds, -2^(8w - 1) and +-(2^(8w - 1) - 1)
    monkeypatch.setattr(polycore, "sys", SimpleNamespace(byteorder=byteorder))
    rng = random.Random(3901)
    for w in range(1, 13):
        top = 1 << (8 * w - 1)
        extremes = [-top, top - 1, 1 - top]
        assert _unpack(_pack(extremes + [0, 1, -1], w), w, 6) == \
            extremes + [0, 1, -1]
        for n in (1, 2, 7, 300):
            cs = [rng.randrange(-top, top) for _ in range(n)]
            for i, c in zip(rng.sample(range(n), min(n, 3)), extremes):
                cs[i] = c
            assert _unpack(_pack(cs, w), w, n) == cs, (w, n)


def test_mul_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def test_mul_cube_factorization():
    assert Poly([-1, 1]) * Poly([1, 1, 1]) == Poly([-1, 0, 0, 1])


def test_mul_zero_and_one():
    p = Poly([3, -2, 1])
    assert p * Poly() == Poly()
    assert p * Poly.one() == p
    assert Poly() * Poly() == Poly()


def test_dense_product_matches_schoolbook_large():
    rng = random.Random(20240201)
    a = rand_poly(rng, 2000)
    b = rand_poly(rng, 2000)
    assert a * b == mul_schoolbook(a, b)


def test_unbalanced_and_sparse_products_match_schoolbook():
    rng = random.Random(7)
    a = rand_poly(rng, 700)
    b = rand_poly(rng, 90)
    assert a * b == mul_schoolbook(a, b)
    sparse = [0] * 400
    for i in rng.sample(range(400), 11):
        sparse[i] = rng.randint(-5, 5)
    c = Poly(sparse + [1])
    assert a * c == mul_schoolbook(a, c)


def _signed(rng, bits):
    """A nonzero coefficient of magnitude at most 2**bits, extremes included."""
    c = rng.choice((1 << bits, (1 << bits) - 1, rng.randint(1, 1 << bits)))
    return c if rng.random() < 0.5 else -c


def _dense(rng, length, bits):
    return Poly([_signed(rng, bits) for _ in range(length)])


def _sparse(rng, length, nnz, bits):
    cs = [0] * length
    for i in rng.sample(range(length - 1), nnz - 1):
        cs[i] = _signed(rng, bits)
    cs[-1] = _signed(rng, bits)
    return Poly(cs)


def _with_zero_run(rng, length, bits):
    cs = [_signed(rng, bits) for _ in range(length)]
    start = rng.randrange(1, length // 2)
    cs[start:start + length // 2] = [0] * (length // 2)
    return Poly(cs)


@pytest.mark.parametrize("bits", [1, 7, 64, 300, 333])
def test_product_oracle_random(bits):
    # Seeded differential check of the Kronecker product against the
    # quadratic reference, with shorter operands of 1 to 97 coefficients
    # (below, at and above 16) and 300+-bit signed coefficients.
    rng = random.Random(bits)
    t = 16
    cases = []
    for la in (1, 2, t - 1, t, t + 1, 2 * t, 97):
        for lb in (la, la + 3, 20 * la + 5):
            cases.append((_dense(rng, la, bits), _dense(rng, lb, bits)))
    for la in (4 * t, 300):
        cases.append((_sparse(rng, la, 2, bits), _dense(rng, 20 * la, bits)))
        cases.append((_sparse(rng, la, la // 8, bits), _dense(rng, la, bits)))
        cases.append((_sparse(rng, la, la // 8 + 1, bits),
                      _dense(rng, 2 * la, bits)))
        cases.append((_dense(rng, la, bits), _sparse(rng, la + 7, 3, bits)))
        cases.append((_with_zero_run(rng, la, bits),
                      _with_zero_run(rng, 3 * la, bits)))
    for a, b in cases:
        expected = mul_schoolbook(a, b)
        assert a * b == expected
        assert b * a == expected


@pytest.mark.parametrize("length", [17, 63])
def test_product_oracle_extreme_magnitudes(length):
    # With all coefficients of one sign at 2^k - 1 or 2^k, the middle
    # product coefficient is as large as the operands allow.  Eight
    # consecutive k and lengths of odd and even bit length put its top
    # bit at every position within a byte.
    for k in range(300, 308):
        for top in ((1 << k) - 1, 1 << k):
            neg = Poly([-top] * length)
            pos = Poly([top] * (2 * length))
            square = neg * neg
            assert square == mul_schoolbook(neg, neg)
            assert max(square.coeffs) == length * top * top
            assert neg * pos == mul_schoolbook(neg, pos)
    ones = Poly([-1] * length)
    assert ones * ones == mul_schoolbook(ones, ones)


def test_laurent_product_oracle_negative_offsets():
    rng = random.Random(41)
    for la, lb in ((3, 5), (40, 40), (60, 1300)):
        a = shift(_dense(rng, la, 120), -rng.randint(1, 50))
        b = shift(_with_zero_run(rng, lb, 9), rng.randint(-70, 70))
        product = a * b
        assert product.offset == a.offset + b.offset
        assert product.coeffs == mul_schoolbook(Poly(a.coeffs),
                                                Poly(b.coeffs)).coeffs
        assert a * Poly(b.coeffs) == shift(mul_schoolbook(
            Poly(a.coeffs), Poly(b.coeffs)), a.offset)


def test_mul_commutative_associative():
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (rand_poly(rng, rng.randint(0, 12)) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_divmod_geometric_sum():
    q, r = div_rem_by_monic(Poly([-1, 0, 0, 1]), Poly([-1, 1]))
    assert (q, r) == (Poly([1, 1, 1]), Poly())


def test_divmod_long_division():
    q, r = div_rem_by_monic(Poly([1, 0, 1]), Poly([1, 1]))
    assert (q, r) == (Poly([-1, 1]), Poly([2]))


def test_divmod_reconstruction_random():
    rng = random.Random(99)
    for _ in range(1000):
        a = rand_poly(rng, rng.randint(0, 25))
        m = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [1])
        q, r = div_rem_by_monic(a, m)
        assert add(q * m, r) == a
        assert r.high_degree < m.high_degree


def test_binomial_kernels_round_trip():
    # (1 - q^m) * y, divided back in place, is y; a product bumped by 1 in
    # one coefficient is 1 at q = 1, so it is not divisible
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randint(1, 12)
        y = list(rand_poly(rng, rng.randint(0, 30), bound=1 << 70).coeffs)
        if not y:
            continue
        x = _times_one_minus(y, m)
        assert Poly(x) == Poly(y) * Poly([1] + [0] * (m - 1) + [-1])
        bumped = list(x)
        bumped[rng.randrange(len(bumped))] += 1
        assert _divide_one_minus(x, m) and x == y
        assert not _divide_one_minus(bumped, m)


def test_inexact_binomial_division_leaves_the_class_sums():
    # Dividing x by 1 - q^m is exact iff every class sum of x mod m
    # vanishes.  When it is not, a list longer than m ends with those sums,
    # the residue of x mod q^m - 1: slot j of the list holds the sum over
    # the exponents = j mod m.  A list of at most m slots is left as it is.
    rng = random.Random(23)
    for _ in range(400):
        m = rng.randint(1, 12)
        x = [rng.randint(-(1 << 70), 1 << 70)
             for _ in range(rng.randint(1, 3 * m))]
        if not any(x):
            continue
        n, work = len(x), list(x)
        sums = [sum(x[j::m]) for j in range(m)]
        assert _divide_one_minus(work, m) == (n > m and not any(sums))
        if n <= m:
            assert work == x
        elif any(sums):
            assert work[n - m:] == [sums[j % m] for j in range(n - m, n)]


def _fold_one_minus(lp, exps):
    # the oracle: one general product by one_minus_q(e) per factor
    for e in exps:
        lp = lp * one_minus_q(e)
    return lp


@pytest.mark.parametrize("bits", [3, 64, 300])
def test_times_one_minus_matches_binomial_fold(bits):
    # Seeded: positive, negative and repeated exponents, exponents beyond
    # the operand's length, Laurent offsets -9..9.
    rng = random.Random(1000 + bits)
    for _ in range(200):
        length = rng.randint(1, 40)
        lp = shift(_dense(rng, length, bits), rng.randint(-9, 9))
        exps = [rng.choice((1, -1)) * rng.randint(1, 12)
                for _ in range(rng.randint(0, 5))]
        exps.append(rng.choice((1, -1)) * (length + rng.randint(1, 20)))
        exps += exps[:rng.randint(0, len(exps))]
        rng.shuffle(exps)
        assert times_one_minus(lp, exps) == _fold_one_minus(lp, exps)


def test_times_one_minus_zero_exponent_and_zero_operand():
    lp = Poly([3, -1, 2], -4)
    for exps in ([0], [5, 0, -2], [-3, -3, 0]):
        assert times_one_minus(lp, exps).is_zero()
        assert times_one_minus(lp, exps) == _fold_one_minus(lp, exps)
    assert times_one_minus(lp, []) == lp
    zero = Poly.zero()
    for exps in ([], [0], [4, -7, 4]):
        assert times_one_minus(zero, exps) == zero == _fold_one_minus(zero,
                                                                     exps)


def _binomials_by_schoolbook(ms):
    # prod over ms of (1 - q^m), every product by the quadratic reference
    acc = Poly.one()
    for m in ms:
        acc = mul_schoolbook(acc, one_minus_q(m))
    return acc


@pytest.mark.parametrize("bits", [256, 300])
def test_times_binomials_matches_schoolbook_and_long_division(bits):
    # Seeded: x = base * (the binomials of the net's negative part), so
    # x * prod (1 - q^m)^g is exact and equals base times the positive
    # part; it is also the long quotient of x times the positive part by
    # the negative part, written monic as prod (q^m - 1).
    rng = random.Random(800 + bits)
    for _ in range(80):
        base = shift(_dense(rng, rng.randint(1, 30), bits),
                     -rng.randint(1, 20))
        net = {}
        for _ in range(rng.randint(0, 5)):
            m = rng.randint(1, 15)
            net[m] = net.get(m, 0) + rng.choice((-2, -1, 1, 2))
        net = {m: g for m, g in net.items() if g}
        up = [m for m, g in net.items() for _ in range(g)]
        down = [m for m, g in net.items() for _ in range(-g)]
        x = mul_schoolbook(base, _binomials_by_schoolbook(down))
        result = times_binomials(x, net)
        assert result == mul_schoolbook(base, _binomials_by_schoolbook(up))
        assert result == Poly(result.coeffs, result.offset)
        if not down:
            continue
        lifted = mul_schoolbook(Poly(x.coeffs), _binomials_by_schoolbook(up))
        monic = Poly.one()
        for m in down:
            monic = mul_schoolbook(monic, scale(one_minus_q(m), -1))
        quotient, remainder = div_rem_by_monic(lifted, monic)
        assert remainder.is_zero()
        assert result == shift(scale(quotient, (-1) ** len(down)), x.offset)
        # 1 more in the lowest coefficient: x(1) = 0 becomes 1, so no
        # binomial 1 - q^m divides the bumped list any more
        bumped = add(x, Poly([1], x.offset))
        with pytest.raises(AssertionError):
            times_binomials(bumped, {m: g for m, g in net.items() if g < 0})
    # Large coefficients: +-(2^b - 1), at most 4 of them, times (1 -
    # q^m)^k with m > 4 never meet in one slot, so the largest is (2^b -
    # 1) C(k, k // 2) > 2^(b + k - 5).
    for _ in range(6):
        k = rng.randint(150, 170)
        b = bits - (bits + k + 1) % 8
        m = rng.randint(5, 15)
        base = Poly([rng.choice((-1, 1)) * ((1 << b) - 1)
                     for _ in range(rng.randint(1, 4))], rng.randint(-9, 9))
        expected = Poly([(-1) ** (i // m) * math.comb(k, i // m)
                         if i % m == 0 else 0 for i in range(m * k + 1)])
        assert times_binomials(base, {m: k}) == mul_schoolbook(base,
                                                               expected)


def test_times_binomials_edge_cases():
    x = Poly([3, -1, 2], -4)
    assert times_binomials(x, {}) == x
    assert times_binomials(Poly.zero(), {5: -1}) == Poly.zero()
    with pytest.raises(AssertionError):     # (1 - q^4) / (1 - q^3)
        times_binomials(Poly.one(), {4: 1, 3: -1})
    # [1] in any base is 1: the literal {step * 1: 1, step: -1} would
    # collapse to a division by 1 - q^step
    for step in (1, 2, 7):
        assert q_integer_binomials(1, step) == {}
        assert times_binomials(x, q_integer_binomials(1, step)) == x
        for count in (2, 5):
            assert times_binomials(x, q_integer_binomials(count, step)) \
                == mul_schoolbook(x, q_integer(count, step))


def test_valuation_examples():
    phi3 = cyclotomic(3)
    sq = one_minus_q(6) * one_minus_q(6)
    assert valuation_at(sq, 3) == 2
    assert valuation_at(Poly.zero(), 3) == INFINITE
    a = shift(power(Poly([1, 1]), 3), 1)  # q (1+q)^3
    assert valuation_at(a, 3) == 0
    # confirmed by a nonzero division remainder
    _, rem = div_rem_by_monic(Poly(a.coeffs), phi3)
    assert not rem.is_zero()


def test_valuation_multiplicative_shift():
    rng = random.Random(5)
    phi3 = cyclotomic(3)
    for _ in range(40):
        a = shift(rand_poly(rng, rng.randint(0, 10)), rng.randint(-4, 4))
        if a.is_zero():
            continue
        base = valuation_at(a, 3)
        for k in (1, 2, 3):
            scaled = a * power(phi3, k)
            assert valuation_at(scaled, 3) == base + k


def test_valuation_ignores_negative_laurent_offset():
    # q is a unit modulo every Phi_d, so shifting by q^-e changes nothing
    a = power(cyclotomic(6), 2) * Poly([2, 0, 1])
    for e in (0, 1, 7):
        assert valuation_at(shift(a, -e), 6) == 2
        assert valuation_at(shift(a, -e), 3) == 0


def test_eval_examples():
    assert eval_at(Poly([1, 1, 1]), 1) == 3
    assert eval_at(cyclotomic(3), 1) == 3
    assert eval_at(power(Poly([1, -1]), 2), 2) == 1


def test_eval_rational_and_errors():
    lp = Poly([1, 1], -2)  # q^-2 + q^-1
    assert eval_at(lp, Fraction(1, 2)) == 6
    with pytest.raises(ZeroDivisionError):
        eval_at(lp, 0)


def test_eval_multiplicative():
    rng = random.Random(12)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(0, 8))
        b = rand_poly(rng, rng.randint(0, 8))
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert eval_at(a * b, x) == eval_at(a, x) * eval_at(b, x)


def test_normalize_one_minus_pow():
    assert normalize_one_minus_pow(-2) == ((-1, -2), 2)
    assert normalize_one_minus_pow(5) == ((1, 0), 5)
    with pytest.raises(ValueError):
        normalize_one_minus_pow(0)
    # the rewrite really is an identity: 1-q^m == sign q^e (1-q^f)
    for m in (-7, -1, 3):
        (sign, e), f = normalize_one_minus_pow(m)
        rebuilt = shift(scale(one_minus_q(f), sign), e)
        assert rebuilt == one_minus_q(m)


def test_laurent_normalization_and_arithmetic():
    a = Poly([0, 0, 2, 1], -5)
    assert a.offset == -3 and a.coeffs == (2, 1)
    b = Poly([1, 1], 2)
    assert sub(add(a, b), b) == a
    assert (a * b).offset == -1
    assert a * Poly.zero() == Poly.zero()
    assert scale(scale(a, -1), -1) == a


def _laurent_combine(x, y, sign):
    # x + sign * y through exponent -> coefficient maps
    terms = {}
    for lp, s in ((x, 1), (y, sign)):
        for i, c in enumerate(lp.coeffs):
            e = lp.offset + i
            terms[e] = terms.get(e, 0) + s * c
    live = [e for e, c in terms.items() if c]
    if not live:
        return Poly.zero()
    lo, hi = min(live), max(live)
    return Poly([terms.get(e, 0) for e in range(lo, hi + 1)], lo)


@pytest.mark.parametrize("bits", [3, 64, 300])
def test_laurent_subtract_matches_oracles(bits):
    rng = random.Random(97 + bits)
    bound = 1 << bits

    def rand_laurent(length):
        cs = [rng.randint(-bound, bound) for _ in range(length)]
        return Poly(cs + [rng.choice((-1, 1))], rng.randint(-9, 9))

    cases = []
    for _ in range(60):
        x = rand_laurent(rng.randint(0, 40))
        y = rand_laurent(rng.randint(0, 40))
        cases += [(x, y), (y, x), (x, Poly.zero()), (Poly.zero(), y)]
        # cancels to zero: the offset must normalise to 0
        cases.append((x, Poly(x.coeffs, x.offset)))
        # cancels at both ends: leading and trailing zeros must go
        tail = rand_laurent(5)
        shifted = shift(tail, x.high_degree + 1 - tail.offset)
        head = Poly([5], x.offset - 3)
        cases.append((add(add(x, shifted), head), add(add(shifted, head), y)))
    for x, y in cases:
        difference = sub(x, y)
        assert difference == _laurent_combine(x, y, -1)
        assert difference == add(x, scale(y, -1))
        assert add(x, y) == _laurent_combine(x, y, 1)
        cs = difference.coeffs
        if cs:
            assert cs[0] != 0 and cs[-1] != 0
        else:
            assert difference.offset == 0
    same = shift(rand_laurent(12), 7)
    assert sub(same, same).offset == 0 and sub(same, same).is_zero()


def test_mixed_mul_promotes_to_laurent():
    p = Poly([1, 1])
    lp = Poly([1], -1)
    assert p * lp == Poly([1, 1], -1)
    assert p * p == Poly([1, 2, 1])


# ---------------------------------------------------------------------------
# the normal form: the constructor trims


def _by_exponent(coeffs, offset):
    # the oracle: nonzero terms keyed by exponent, read back in order
    terms = {offset + i: c for i, c in enumerate(coeffs) if c}
    if not terms:
        return (), 0
    lo, hi = min(terms), max(terms)
    return tuple(terms.get(e, 0) for e in range(lo, hi + 1)), lo


@pytest.mark.parametrize("bits", [3, 64, 300])
def test_constructor_matches_exponent_map(bits):
    rng = random.Random(500 + bits)
    for offset in range(-9, 10):
        for _ in range(30):
            body = [_signed(rng, bits) if rng.random() < 0.7 else 0
                    for _ in range(rng.randint(0, 12))]
            cs = [0] * rng.randint(0, 5) + body + [0] * rng.randint(0, 5)
            expected = _by_exponent(cs, offset)
            for given in (cs, tuple(cs), iter(cs)):
                p = Poly(given, offset)
                assert (p.coeffs, p.offset) == expected
                assert type(p.coeffs) is tuple


def _normal(rng, bits, length):
    # nonzero at both ends, zero runs inside, offset -9..9
    cs = [_signed(rng, bits) if rng.random() < 0.6 else 0
          for _ in range(length)]
    cs[0], cs[-1] = _signed(rng, bits), _signed(rng, bits)
    return Poly(cs, rng.randint(-9, 9))


@pytest.mark.parametrize("bits", [3, 64, 300])
def test_add_and_subtract_trim_cancelled_ends(bits):
    # y agrees with x on its lowest lo and highest hi coefficients and
    # exceeds it by 1 in between, so x - y is -1 on the middle run alone
    rng = random.Random(700 + bits)
    for _ in range(200):
        x = _normal(rng, bits, rng.randint(1, 30))
        n = len(x.coeffs)
        lo = rng.randint(0, n)
        hi = rng.randint(0, n - lo)
        cs = list(x.coeffs)
        y = Poly(cs[:lo] + [c + 1 for c in cs[lo:n - hi]] + cs[n - hi:],
                 x.offset)
        expected = Poly([-1] * (n - lo - hi), x.offset + lo)
        for difference in (sub(x, y), add(x, scale(y, -1)),
                           scale(sub(y, x), -1), add(scale(y, -1), x)):
            assert difference == expected
            assert difference == Poly(difference.coeffs, difference.offset)
