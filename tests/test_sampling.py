import hashlib

import numpy as np
import pytest
from scipy.stats import chi2

from mvphe import FieldContext, NoiseSpec, RandomStream
from mvphe.sampling import discrete_gaussian_vector, sample_noise_vector

Q = 10007


def test_same_seed_same_draws():
    a = RandomStream(123)
    b = RandomStream(123)
    assert [a.uniform_fq(Q) for _ in range(10)] == [b.uniform_fq(Q) for _ in range(10)]


def test_derived_streams_are_stable_and_distinct():
    base = RandomStream(5)
    a1 = RandomStream(5).derive(1).uniform_fq(Q, size=8)
    a2 = RandomStream(5).derive(1).uniform_fq(Q, size=8)
    b = base.derive(2).uniform_fq(Q, size=8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_uniform_mean_q2():
    stream = RandomStream(11)
    draws = stream.uniform_fq(2, size=100_000)
    assert 0.45 <= draws.mean() <= 0.55


def test_uniform_chi_square_q17():
    stream = RandomStream(12)
    draws = stream.uniform_fq(17, size=100_000)
    counts = np.bincount(draws, minlength=17)
    expected = 100_000 / 17
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1 - 1e-6, df=16)


def test_gaussian_std_and_mean_at_alpha_q8():
    spec = NoiseSpec(alpha=8.0 / Q, q=Q, support_len=1)
    stream = RandomStream(13)
    ctx = FieldContext(Q)
    draws = np.array([discrete_gaussian_vector(stream, spec, 1)[0] for _ in range(1000)])
    balanced = ctx.balanced(draws)
    assert abs(float(np.std(balanced)) - 8.0) <= 0.05 * 8.0 * 3  # loose at 10^3
    # the 10^5-draw 5% bound runs in the acceptance suite; vector path here
    big = ctx.balanced(discrete_gaussian_vector(RandomStream(14), spec, 100_000))
    assert abs(float(np.std(big)) - 8.0) <= 0.05 * 8.0
    assert abs(float(np.mean(big))) <= 0.1


def test_gaussian_tiny_alpha_always_zero():
    spec = NoiseSpec(alpha=1e-8, q=Q, support_len=1)  # alpha*q < 1e-3
    stream = RandomStream(15)
    assert np.all(discrete_gaussian_vector(stream, spec, 10_000) == 0)


def test_gaussian_alpha_zero_exact():
    spec = NoiseSpec(alpha=0.0, q=Q, support_len=1)
    assert np.all(discrete_gaussian_vector(RandomStream(16), spec, 1000) == 0)


def test_noise_vector_support_patterns():
    stream = RandomStream(17)
    zero = sample_noise_vector(stream, NoiseSpec(0.001, Q, 0), 8)
    assert np.all(zero == 0)
    full = sample_noise_vector(stream, NoiseSpec(0.2, Q, 8), 8)
    assert len(full) == 8  # all coordinates eligible for noise
    for _ in range(200):
        v = sample_noise_vector(stream, NoiseSpec(0.2, Q, 4), 10)
        assert np.all(v[:6] == 0)


def test_noise_rows_come_from_one_row_major_draw():
    spec = NoiseSpec(0.2, Q, 4)
    one = sample_noise_vector(RandomStream(20), spec, 10)
    assert np.array_equal(sample_noise_vector(RandomStream(20), spec, (1, 10))[0], one)
    rows = sample_noise_vector(RandomStream(20), spec, (3, 10))
    assert rows.shape == (3, 10) and np.all(rows[:, :6] == 0)
    flat = discrete_gaussian_vector(RandomStream(20), spec, 12)
    assert np.array_equal(rows[:, 6:].ravel(), flat)


def test_noise_vector_support_too_long():
    with pytest.raises(ValueError):
        sample_noise_vector(RandomStream(18), NoiseSpec(0.1, Q, 11), 10)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(alpha=-0.1, q=Q, support_len=1)
    with pytest.raises(ValueError):
        NoiseSpec(alpha=0.1, q=Q, support_len=-1)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            NoiseSpec(alpha=alpha, q=Q, support_len=1)


def test_counter_advances():
    s = RandomStream(19)
    c0 = s.counter
    s.uniform_fq(Q)
    s.gaussian(1.0, size=4)
    assert s.counter > c0


def _first_draws(stream) -> str:
    h = hashlib.sha256()
    h.update(stream.uniform_fq(Q, size=8).astype("<i8").tobytes())
    h.update(stream.ternary(5).astype("<i8").tobytes())
    h.update(np.int64(stream.coin()).tobytes())
    h.update(stream.unit_uniform(3).astype("<f8").tobytes())
    h.update(stream.gaussian(2.0, size=(2, 3)).astype("<f8").tobytes())
    return h.hexdigest()


def test_stream_golden_first_draws():
    # pins the draws of a root stream, of a derived child, and of streams
    # that derived children before drawing (parent first, then the children
    # in reverse order); Box-Muller goes through libm, so per platform
    assert _first_draws(RandomStream(7)) == (
        "d581a5cefd1b6f661625db7f4a8d89a8a28482bfc5d11acecced20ea2ba7184e")
    assert _first_draws(RandomStream(7).derive(3)) == (
        "b4059f2d700447f76df43de2812cd802dd042fdfc3add3faf03b5d31e4e2bca1")
    parent = RandomStream(7)
    child = parent.derive(3)
    grandchild = child.derive(1)
    assert parent._gen is None and child._gen is None  # deriving seeds nothing
    assert _first_draws(parent) == (
        "d581a5cefd1b6f661625db7f4a8d89a8a28482bfc5d11acecced20ea2ba7184e")
    assert _first_draws(grandchild) == (
        "c1cb411ab4a1cd6bc551584d2b8bc442f75af671b844344a677ebc39c4b98a23")
    assert _first_draws(child) == (
        "b4059f2d700447f76df43de2812cd802dd042fdfc3add3faf03b5d31e4e2bca1")
    assert grandchild.seed == 7 and grandchild.counter == 5
