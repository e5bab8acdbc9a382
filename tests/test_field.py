import numpy as np
import pytest

from mvphe.field import FieldContext, _is_prime, round_nearest


def test_inverse_examples_q7():
    F = FieldContext(7)
    assert F.inv(1) == 1
    assert F.inv(2) == 4  # 2*4 = 8 = 1 mod 7


def test_inverse_random_q10007():
    F = FieldContext(10007)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = int(rng.integers(1, F.q))
        assert a * F.inv(a) % F.q == 1


def test_inverse_of_zero_raises():
    F = FieldContext(7)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(7)


def test_balanced_examples():
    F = FieldContext(7)
    assert F.balanced(5) == -2
    assert F.balanced(3) == 3
    assert F.balanced(0) == 0


def test_balanced_range_and_roundtrip():
    for q in (2, 3, 7, 10007):
        F = FieldContext(q)
        for v in range(min(q, 200)):
            b = F.balanced(v)
            assert -q / 2 < b <= q / 2
            assert b % q == v
    F = FieldContext(10007)
    arr = np.arange(0, 10007, 97, dtype=np.int64)
    b = F.balanced(arr)
    assert np.all(b % F.q == arr)
    assert np.all((b > -F.q / 2) & (b <= F.q / 2))


def test_round_nearest_examples():
    assert round_nearest(7, 2) == 4    # tie toward +inf
    assert round_nearest(-7, 2) == -3  # tie toward +inf
    assert round_nearest(9, 4) == 2


def test_round_nearest_exact_multiples():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(-1000, 1000))
        d = int(rng.integers(1, 1000))
        assert round_nearest(k * d, d) == k


def test_round_nearest_characterization():
    # round-half-up is exactly: 2*(got*d - n) in (-d, d]
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(-10**6, 10**6))
        d = int(rng.integers(1, 10**4))
        err = round_nearest(n, d) * d - n
        assert -d < 2 * err <= d


def test_round_nearest_bad_denominator():
    with pytest.raises(ValueError):
        round_nearest(1, 0)
    with pytest.raises(ValueError):
        round_nearest(1, -2)


def test_context_rejects_nonprime_and_range():
    for bad in (0, 1, 4, 6, 9, 2**31, 2**31 + 11):
        with pytest.raises(ValueError):
            FieldContext(bad)
    FieldContext(2)
    FieldContext(2147483647)  # 2^31 - 1 is prime


def test_is_prime_matches_a_sieve():
    N = 10**5
    sieve = np.ones(N, dtype=bool)
    sieve[:2] = False
    for i in range(2, 317):  # 317^2 > N
        if sieve[i]:
            sieve[i * i :: i] = False
    assert [_is_prime(n) for n in range(N)] == sieve.tolist()
    assert _is_prime(2**31 - 1) and _is_prime(2**31 - 19)
    assert not _is_prime(46337**2)  # a prime square: trial division must reach isqrt
    assert not _is_prime(46327 * 46337)
    FieldContext(61)  # prime, yet a Miller-Rabin test with witness 61 calls it composite
