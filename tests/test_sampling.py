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


def test_seed_is_a_nonnegative_integer():
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        RandomStream(-3)
    with pytest.raises(TypeError):  # 2.7 was silently truncated to 2
        RandomStream(2.7)
    assert RandomStream(np.int64(7)).uniform_fq(Q, size=4).tolist() == (
        RandomStream(7).uniform_fq(Q, size=4).tolist())
    assert repr(RandomStream(7).derive(3)) == "RandomStream(seed=7, path=(3,))"


def test_derive_judges_its_key_as_the_constructor_judges_the_seed():
    # refused at derive, not truncated (2.7 -> 2) or left to fail at the first draw
    with pytest.raises(TypeError):
        RandomStream(7).derive(2.7)
    with pytest.raises(ValueError, match="derive key must be >= 0, got -1"):
        RandomStream(7).derive(-1)
    assert np.array_equal(RandomStream(7).derive(np.int64(2)).uniform_fq(Q, size=4),
                          RandomStream(7).derive(2).uniform_fq(Q, size=4))


def test_a_seedless_stream_has_a_256_bit_seed():
    seeds = [RandomStream().seed for _ in range(8)]
    assert max(seeds) >= 2**64 and max(seeds) < 2**256  # each below 2^64 with chance 2^-192
    assert len(set(seeds)) == 8


# the documented encoding: a domain tag, then the seed, each path entry and
# the draw call's index, each as an 8-byte little-endian length and its bytes
def _enc(x: int) -> bytes:
    b = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return len(b).to_bytes(8, "little") + b


def _shake(seed: int, path: tuple, call: int, nbytes: int) -> bytes:
    key = b"mvphe.RandomStream.v1" + _enc(seed) + b"".join(map(_enc, path)) + _enc(call)
    return hashlib.shake_128(key).digest(nbytes)


def _words(seed, path, call, count):
    return np.frombuffer(_shake(seed, path, call, 4 * count), "<u4").tolist()


def test_stream_known_answer():
    # on [0, 2^32) no word is rejected and each value is its word
    count = 3
    root = RandomStream(7)
    assert root.integers(0, 2**32, size=count).tolist() == _words(7, (), 0, count)
    assert root.integers(0, 2**32, size=count).tolist() == _words(7, (), 1, count)
    child = RandomStream(7).derive(3)
    assert child.integers(0, 2**32, size=count).tolist() == _words(7, (3,), 0, count)
    assert child.derive(0).integers(0, 2**32) == _words(7, (3, 0), 0, 1)[0]
    big = 2**256 - 5
    assert RandomStream(big).integers(0, 2**32, size=count).tolist() == _words(big, (), 0, count)


def test_gaussian_is_box_muller_on_the_top_53_bits_of_64_bit_words():
    w = np.frombuffer(_shake(7, (5,), 0, 32), "<u8")
    u = (w >> 11).astype(np.float64) / 2.0**53
    r = np.sqrt(-2.0 * np.log(1.0 - u[:2]))
    expect = np.concatenate([r * np.cos(2 * np.pi * u[2:]), r * np.sin(2 * np.pi * u[2:])])
    got = RandomStream(7).derive(5).gaussian(3.0, 4)
    assert got == pytest.approx(3.0 * expect, rel=1e-12)


def test_distinct_paths_have_distinct_keys():
    def first(stream):
        return stream.integers(0, 2**32, size=4).tolist()

    assert first(RandomStream(5).derive(1).derive(2)) != first(RandomStream(5).derive(12))
    assert first(RandomStream(0)) != first(RandomStream(0).derive(0))
    big = 2**255 + 3
    assert first(RandomStream(big)) != first(RandomStream(big % 2**64))
    assert first(RandomStream(big)) != first(RandomStream(3).derive(2**255))


def _feed(monkeypatch, words):
    """Serve the draw calls from ``words`` in order; returns the words each call asked for."""
    buf, asked = np.array(words, dtype="<u4").tobytes(), []

    def read(self, nbytes):
        nonlocal buf
        assert 0 < nbytes <= len(buf)
        asked.append(nbytes // 4)
        out, buf = buf[:nbytes], buf[nbytes:]
        return out

    monkeypatch.setattr(RandomStream, "_read", read)
    return asked


@pytest.mark.parametrize("m", [3, 10007])
def test_lemire_rejects_exactly_the_low_products(monkeypatch, m):
    # m is odd, so w -> w·m mod 2^32 is a bijection and the t = 2^32 mod m
    # words w = k·m^-1 (k < t) are exactly the rejected ones
    accepted = 20
    t, inv = 2**32 % m, pow(m, -1, 2**32)
    rejected = [k * inv % 2**32 for k in range(t)][:8] + [(t - 1) * inv % 2**32]
    boundary = [t * inv % 2**32, 2**32 - 1, 1]  # accepted: w·m mod 2^32 = t, and two ends
    filler = _words(99, (m,), 0, accepted - len(boundary))
    words = boundary + filler
    for i, w in enumerate(rejected):  # spread the rejected words through the draw
        words.insert(3 * i + 1, w)
    kept = [i for i, w in enumerate(words) if (w * m) % 2**32 >= t]
    expect = [(words[i] * m) >> 32 for i in kept]
    assert len(expect) == accepted
    asked = _feed(monkeypatch, words)
    got = RandomStream(1).integers(0, m, size=accepted).tolist()
    assert got == expect
    # the first call asks one word per value, each further call the
    # shortfall, so the draw reads up to its last accepted word
    assert asked[0] == accepted and sum(asked) == kept[-1] + 1
    # one value: each rejected word costs one more call
    asked = _feed(monkeypatch, [0, rejected[-1], 2**32 - 1])
    assert RandomStream(1).integers(0, m) == m - 1 and asked == [1, 1, 1]


def test_integers_refuse_a_range_above_2_to_the_32():
    assert RandomStream(1).integers(0, 2**32, size=3).dtype == np.int64
    with pytest.raises(ValueError, match="high - low <= 2\\*\\*32, got 4294967297"):
        RandomStream(1).integers(0, 2**32 + 1)
    with pytest.raises(ValueError, match="got 0"):
        RandomStream(1).integers(5, 5)


def test_integers_take_numpy_bounds_as_python_ints():
    # w·m reaches 2^63 at q = 2^31 - 1, so a numpy bound must not make it int64
    got = RandomStream(1).integers(np.int64(0), np.int64(2**31 - 1), size=4)
    assert got.tolist() == RandomStream(1).integers(0, 2**31 - 1, size=4).tolist()
    one = RandomStream(2).uniform_fq(np.int64(2**31 - 1))
    assert type(one) is int and one == RandomStream(2).uniform_fq(2**31 - 1)


def _first_draws(stream) -> str:
    h = hashlib.sha256()
    h.update(stream.uniform_fq(Q, size=8).astype("<i8").tobytes())
    h.update(stream.uniform_fq(2**31 - 1, size=(5, 4)).astype("<i8").tobytes())
    h.update(stream.ternary(5).astype("<i8").tobytes())
    h.update(np.int64(stream.coin()).tobytes())
    h.update(stream.gaussian(2.0, size=(2, 3)).astype("<f8").tobytes())
    return h.hexdigest()


def test_stream_golden_first_draws():
    # pins the draws of a root stream, of a derived child, and of streams
    # that derived children before drawing (parent first, then the children
    # in reverse order); the integers are SHAKE-128 words, the Gaussian goes
    # through libm's log, cos and sin, so this digest holds per platform
    assert _first_draws(RandomStream(7)) == (
        "ee454285058f100b95c7692db468c8416e61b61a1550aa0328e88e860c6739b2")
    assert _first_draws(RandomStream(7).derive(3)) == (
        "934324c67f22000411426dccf90557147002fd388c0088928798844db9319140")
    parent = RandomStream(7)
    child = parent.derive(3)
    grandchild = child.derive(1)
    assert _first_draws(parent) == (
        "ee454285058f100b95c7692db468c8416e61b61a1550aa0328e88e860c6739b2")
    assert _first_draws(grandchild) == (
        "774ad834f50b5a0e19eaf2249bb5157c53e62c913c8b22eac3e738735b34920a")
    assert _first_draws(child) == (
        "934324c67f22000411426dccf90557147002fd388c0088928798844db9319140")
    assert grandchild.seed == 7
