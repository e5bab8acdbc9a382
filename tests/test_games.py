import hashlib

import numpy as np
import pytest
from scipy.stats import chi2

from mvphe import (
    MODE_ADDITIVE,
    Ciphertext,
    FieldContext,
    SchemeParams,
    decrypt,
    encrypt,
    NoiseSpec,
    ProtocolViolationError,
    RandomStream,
    dot_mod,
    estimate_advantage,
    indcpa_game,
    joint_ci,
    keygen,
    lemma1_experiment,
    theorem1_experiment,
)
from mvphe.adversaries import (
    IndCpaRankAdversary,
    KeyLeakAdversary,
    KnownSecretAdversary,
    LinearSolveAdversary,
    RandomGuesser,
    RankMembershipAdversary,
)
from mvphe import games
from mvphe.games import (
    SAMPLE_CAP,
    DlweOracles,
    HsmOracles,
    IndCpaOracles,
    Leak,
    Lemma1Adversary,
    SubspaceInstance,
    Theorem1Adversary,
    dlwe_game,
    hsm_game,
    lwe_subspace_instance,
    scheme_instance,
    uniform_subspace_instance,
)
from mvphe.linalg import in_rowspace
from mvphe.presets import toy_additive_params, toy_ideal

Q = 10007


class _BetaReader:
    """Cheating adversary: reads the hidden bit (always correct)."""

    def run(self, oracles, stream):
        return oracles.beta


def _with_beta(beta, make):
    """The oracles that ``make()`` builds, with hidden bit ``beta``: during the
    construction the coin that draws it returns ``beta`` and draws nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RandomStream, "coin", lambda self: beta)
        return make()


def _outputs_of(monkeypatch, name):
    """From now on, each output of ``games.<name>`` is appended to the list
    returned."""
    drawn = []
    real = getattr(games, name)
    monkeypatch.setattr(games, name, lambda *args: drawn.append(real(*args)) or drawn[-1])
    return drawn


def _small_instance(stream, alpha=0.0, n=12, l=6):
    noise = NoiseSpec(alpha, Q, n - l)
    return uniform_subspace_instance(n, Q, l, noise, stream)


# ---------------------------------------------------------------------------
# estimate_advantage

def test_estimate_random_guesser_near_half():
    inst = _small_instance(RandomStream(100))

    def game_fn(adv, sub):
        return hsm_game(inst, adv, sub)

    est = estimate_advantage(game_fn, RandomGuesser(), 10_000, RandomStream(101))
    assert est.advantage <= 0.02
    assert est.ci_halfwidth == pytest.approx(1.96 * (0.25 / 10_000) ** 0.5)
    assert 0 <= est.advantage <= 0.5 and est.wins <= est.trials


def test_estimate_always_correct_adversary():
    inst = _small_instance(RandomStream(102))

    def game_fn(adv, sub):
        return hsm_game(inst, adv, sub)

    est = estimate_advantage(game_fn, _BetaReader(), 200, RandomStream(103))
    assert est.advantage == 0.5 and est.wins == 200


def test_estimate_trials_validation():
    def game_fn(adv, sub):
        return True

    with pytest.raises(ValueError):
        estimate_advantage(game_fn, RandomGuesser(), 0, RandomStream(0))
    with pytest.raises(ValueError):
        estimate_advantage(game_fn, RandomGuesser(), 99, RandomStream(0))


def test_estimate_reproducible():
    inst = _small_instance(RandomStream(104))

    def game_fn(adv, sub):
        return hsm_game(inst, adv, sub)

    a = estimate_advantage(game_fn, RandomGuesser(), 300, RandomStream(105))
    b = estimate_advantage(game_fn, RandomGuesser(), 300, RandomStream(105))
    assert (a.wins, a.advantage) == (b.wins, b.advantage)


# ---------------------------------------------------------------------------
# HSM game

def test_hsm_rank_adversary_zero_noise():
    def game_fn(adv, sub):
        inst = _small_instance(sub.derive(0), alpha=0.0, n=12, l=6)  # n-l >= 2
        return hsm_game(inst, adv, sub.derive(1))

    est = estimate_advantage(game_fn, RankMembershipAdversary(), 1000, RandomStream(106))
    assert est.win_rate >= 0.99


def test_hsm_known_secret_on_scheme_instance_matches_direct_monte_carlo():
    params = toy_additive_params()
    sk = keygen(params, RandomStream(107))
    inst = scheme_instance(sk)
    threshold = Q // 4  # the adversary's fixed acceptance bound
    leak = Leak(s=sk.s)

    # independent estimate of both acceptance probabilities from the oracle
    # distributions themselves
    probe = RandomStream(108)
    ctx = FieldContext(Q)
    hits_noisy = hits_uniform = 0
    trials = 4000
    for i in range(trials):
        orc = _with_beta(1, lambda: HsmOracles(inst, probe.derive(i)))
        v = orc.challenge()
        hits_noisy += abs(ctx.balanced(dot_mod(sk.s, v, Q))) <= threshold
        u = probe.derive(trials + i).uniform_fq(Q, size=inst.n)
        hits_uniform += abs(ctx.balanced(dot_mod(sk.s, u, Q))) <= threshold
    expected = 0.5 * (hits_noisy / trials) + 0.5 * (1 - hits_uniform / trials)

    def game_fn(adv, sub):
        return hsm_game(inst, adv, sub, leak=leak)

    est = estimate_advantage(
        game_fn, KnownSecretAdversary(), 1000, RandomStream(109)
    )
    assert abs(est.win_rate - expected) <= 4 * est.ci_halfwidth


def test_hsm_challenge_once():
    inst = _small_instance(RandomStream(110))
    orc = HsmOracles(inst, RandomStream(111))
    orc.challenge()
    with pytest.raises(ProtocolViolationError):
        orc.challenge()


def test_hsm_sample_cap(monkeypatch):
    monkeypatch.setattr(games, "SAMPLE_CAP", 5)
    inst = _small_instance(RandomStream(112))
    orc = HsmOracles(inst, RandomStream(113))
    for _ in range(5):
        orc.sample()
    with pytest.raises(ProtocolViolationError):
        orc.sample()


def test_hsm_oracle_fidelity_beta1(monkeypatch):
    # the challenge minus the noise drawn for it is a subspace member, and
    # that noise follows the support pattern
    inst = _small_instance(RandomStream(114), alpha=8.0 / Q, n=10, l=4)
    head = inst.n - inst.noise.support_len
    noise = _outputs_of(monkeypatch, "sample_noise_vector")
    for i in range(1000):
        out = _with_beta(1, lambda: HsmOracles(inst, RandomStream(115).derive(i))).challenge()
        assert len(noise) == i + 1
        (e,) = noise[-1]
        assert in_rowspace(inst.basis, (out - e) % Q, Q)
        assert np.all(e[:head] == 0)


def test_hsm_oracle_fidelity_beta0_uniform():
    # chi-square on a projected coordinate across 1000 forced-uniform games
    basis = np.array([[1, 0, 1, 0, 1]])
    inst = SubspaceInstance(n=5, q=17, basis=basis, noise=NoiseSpec(0.2, 17, 2))
    # on coordinate 1 too, where every noisy member reads 0 (the basis is 0
    # there and the noise lands on the last 2 coordinates only)
    draws = []
    for i in range(1000):
        orc = _with_beta(0, lambda: HsmOracles(inst, RandomStream(116).derive(i)))
        draws.append(orc.challenge()[:2])
    for coord in np.array(draws).T:
        counts = np.bincount(coord, minlength=17)
        expected = len(coord) / 17
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1 - 1e-6, df=16)


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "beta, digest",
    [
        (1, "0d4a9a8f9a583c1c5f86510d819f69faa47a873c451289a599474580cfd9ef15"),
        (0, "5f09f668c276df56c7f0277e22f3817b658ed7bf4e1432786799495db42d2c47"),
    ],
)
def test_hsm_oracle_golden_draws(beta, digest):
    # five Sample calls, then Challenge, at live noise (alpha q = 8): pins the
    # draw order of the one-sample path; the noise goes through libm
    # (Box-Muller), so the digest holds per platform
    inst = _small_instance(RandomStream(141), alpha=8.0 / Q, n=12, l=6)
    orc = _with_beta(beta, lambda: HsmOracles(inst, RandomStream(142)))
    outs = [orc.sample() for _ in range(5)] + [orc.challenge()]
    assert _digest(outs) == digest


# ---------------------------------------------------------------------------
# DLWE game

def test_dlwe_random_guesser():
    def game_fn(adv, sub):
        return dlwe_game(8, Q, NoiseSpec(8.0 / Q, Q, 1), adv, sub)

    est = estimate_advantage(game_fn, RandomGuesser(), 10_000, RandomStream(117))
    assert est.advantage <= 0.02


def test_dlwe_linear_solve_zero_noise():
    def game_fn(adv, sub):
        return dlwe_game(8, Q, NoiseSpec(0.0, Q, 1), adv, sub)

    est = estimate_advantage(game_fn, LinearSolveAdversary(), 1000, RandomStream(118))
    assert est.win_rate >= 0.99


def test_dlwe_rank_adversary_blind_under_noise():
    # noisy samples are full rank, so membership carries no signal
    wrapped = Lemma1Adversary(RankMembershipAdversary())

    def game_fn(adv, sub):
        return dlwe_game(8, Q, NoiseSpec(8.0 / Q, Q, 1), adv, sub)

    est = estimate_advantage(game_fn, wrapped, 1000, RandomStream(120))
    assert est.advantage <= est.ci_halfwidth


@pytest.mark.parametrize(
    "beta, digest",
    [
        (1, "ca7c647424af4fc4c93caad242019d64fc83eb9c1f34d85e889d6c91272dedb4"),
        (0, "3ca35928015e2b61bd88bcb562017b6aac94c32118629a0fd327551fdeb5dd63"),
    ],
)
def test_dlwe_oracle_golden_draws(beta, digest):
    # the secret, five Sample pairs, then Challenge, at alpha q = 8
    orc = _with_beta(beta, lambda: DlweOracles(8, Q, NoiseSpec(8.0 / Q, Q, 1), RandomStream(143)))
    outs = [orc.secret]
    for a, b in [orc.sample() for _ in range(5)] + [orc.challenge()]:
        outs += [a, b]
    assert _digest(outs) == digest


# ---------------------------------------------------------------------------
# lemma1 adapter

class _Recorder:
    """Stands in for oracles or for a reduction's view of them: forwards every
    attribute and keeps each method call as (method, args, reply)."""

    def __init__(self, target):
        self._target, self.served = target, []

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def call(*args):
            reply = attr(*args)
            self.served.append((name, args, reply))
            return reply

        return call

    def calls(self):
        return [(method, args) for method, args, _ in self.served]

    def replies(self, name):
        return [reply for method, _, reply in self.served if method == name]


class _Recording:
    """Inner adversary of a reduction adapter: runs ``inner`` against the
    adapter's view through a _Recorder, kept as ``view``, and keeps the inner
    adversary's guess."""

    def __init__(self, inner):
        self.inner, self.view, self.guess = inner, None, None

    def run(self, view, stream):
        self.view = _Recorder(view)
        self.guess = self.inner.run(self.view, stream)
        return self.guess


def test_lemma1_transcript_is_a_minus_b():
    oracles = _Recorder(DlweOracles(6, Q, NoiseSpec(8.0 / Q, Q, 1), RandomStream(120)))
    inner = _Recording(RankMembershipAdversary())
    Lemma1Adversary(inner).run(oracles, RandomStream(121))
    # every DLWE row (a, b) the oracles served reached the inner adversary as (a, -b)
    assert oracles.calls() == [("samples", (6 + 1 + 8,)), ("challenge", ())]
    (A, b), (a, b_c) = oracles.replies("samples") + oracles.replies("challenge")
    rows = np.vstack(inner.view.replies("samples") + inner.view.replies("challenge"))
    assert rows.shape == ((6 + 1) + 8 + 1, 6 + 1)  # n + 8 samples, then Challenge
    assert np.array_equal(rows[:, :-1], np.vstack([A, a]))
    assert np.array_equal(rows[:, -1], (-np.append(b, b_c)) % Q)


def test_lemma1_wrapped_random_guesser_blind():
    wrapped = Lemma1Adversary(RandomGuesser())

    def game_fn(adv, sub):
        return dlwe_game(8, Q, NoiseSpec(8.0 / Q, Q, 1), adv, sub)

    est = estimate_advantage(game_fn, wrapped, 1000, RandomStream(122))
    assert est.advantage <= 3 * est.ci_halfwidth


def test_lemma1_wrapped_rank_zero_noise_wins():
    wrapped = Lemma1Adversary(RankMembershipAdversary())

    def game_fn(adv, sub):
        return dlwe_game(8, Q, NoiseSpec(0.0, Q, 1), adv, sub)

    est = estimate_advantage(game_fn, wrapped, 1000, RandomStream(123))
    assert est.win_rate >= 0.99


def test_lemma1_win_rate_equality():
    res = lemma1_experiment(
        8, Q, NoiseSpec(0.0, Q, 1), RankMembershipAdversary(), 1000, RandomStream(124)
    )
    native, wrapped = res["native_hsm"], res["wrapped_dlwe"]
    assert abs(native.win_rate - wrapped.win_rate) <= joint_ci(native, wrapped)


def test_lwe_subspace_instance_shape():
    s = RandomStream(125).uniform_fq(Q, size=6)
    inst = lwe_subspace_instance(s, Q, NoiseSpec(0.0, Q, 1))
    assert inst.n == 7 and inst.dim == 6
    # every basis row is orthogonal to (s, 1)
    s1 = np.concatenate([s, [1]])
    for row in inst.basis:
        assert dot_mod(row, s1, Q) == 0


# ---------------------------------------------------------------------------
# IND-CPA game

def test_indcpa_random_guesser(toy_params):
    def game_fn(adv, sub):
        return indcpa_game(toy_params, adv, sub)

    est = estimate_advantage(game_fn, RandomGuesser(), 300, RandomStream(126))
    assert est.advantage <= 3 * est.ci_halfwidth


def test_indcpa_key_leak_wins(toy_params):
    def game_fn(adv, sub):
        return indcpa_game(toy_params, adv, sub)

    est = estimate_advantage(game_fn, KeyLeakAdversary(), 1000, RandomStream(127))
    assert est.win_rate >= 1 - 2 * toy_params.epsilon_f


def test_indcpa_rank_adversary_zero_noise(toy_params_noiseless):
    def game_fn(adv, sub):
        return indcpa_game(toy_params_noiseless, adv, sub)

    est = estimate_advantage(game_fn, IndCpaRankAdversary(), 300, RandomStream(128))
    assert est.win_rate >= 0.99


def test_indcpa_challenge_protocol(toy_key):
    orc = IndCpaOracles(toy_key, RandomStream(129))
    with pytest.raises(ProtocolViolationError):
        orc.left_right(1, 1)  # neither message is 0
    orc2 = IndCpaOracles(toy_key, RandomStream(130))
    orc2.left_right(0, 1)
    with pytest.raises(ProtocolViolationError):
        orc2.left_right(0, 1)


def test_indcpa_samples_and_challenge_use_disjoint_streams(toy_key, monkeypatch):
    # one more sample than SAMPLE_CAP: sample SAMPLE_CAP + 1 once shared the
    # challenge's stream, so with beta = 0 the two were the same ciphertext
    monkeypatch.setattr(games, "SAMPLE_CAP", SAMPLE_CAP + 1)
    orc = _with_beta(0, lambda: IndCpaOracles(toy_key, RandomStream(134)))
    Z = orc.encrypt_zeros(SAMPLE_CAP + 1)
    ct = orc.left_right(0, 1)
    assert Z.shape == (SAMPLE_CAP + 1, toy_key.n)
    assert not np.any(np.all(Z == ct.c, axis=1))
    # beta = 0 picks m0 = 0, drawn from the documented child 1
    assert np.array_equal(ct.c, encrypt(toy_key, 0, RandomStream(134).derive(1)).c)


def test_encrypt_zeros_counts_against_the_cap_before_drawing(toy_key, monkeypatch):
    monkeypatch.setattr(games, "SAMPLE_CAP", 5)
    orc = IndCpaOracles(toy_key, RandomStream(135))
    Z = orc.encrypt_zeros(3)
    assert [decrypt(toy_key, Ciphertext(z, Q)) for z in Z] == [0, 0, 0]
    drawn = orc._zeros_stream._gen.bit_generator.state
    with pytest.raises(ProtocolViolationError):
        orc.encrypt_zeros(3)
    assert orc._zeros_stream._gen.bit_generator.state == drawn
    with pytest.raises(ValueError):
        IndCpaOracles(toy_key, RandomStream(135)).encrypt_zeros(0)
    one = IndCpaOracles(toy_key, RandomStream(136)).encrypt_zero()
    assert np.array_equal(one.c, IndCpaOracles(toy_key, RandomStream(136)).encrypt_zeros(1)[0])


def test_indcpa_rank_adversary_asks_once_for_its_samples(toy_key, monkeypatch):
    asked = []
    real = IndCpaOracles.encrypt_zeros
    monkeypatch.setattr(IndCpaOracles, "encrypt_zeros",
                        lambda self, k: asked.append(k) or real(self, k))
    indcpa_game(toy_key.params, IndCpaRankAdversary(), RandomStream(137), sk=toy_key)
    assert asked == [toy_key.n + 8]


# ---------------------------------------------------------------------------
# theorem1 adapter

def _theorem1_run(toy_key, seed):
    """Theorem 1's adapter around a recorded IndCpaRankAdversary, on fresh
    recorded HSM oracles: (oracles, inner adversary, the adapter's gamma)."""
    orc = _Recorder(HsmOracles(scheme_instance(toy_key), RandomStream(seed)))
    inner = _Recording(IndCpaRankAdversary())
    won = Theorem1Adversary(inner, toy_key.p, Leak(p=toy_key.p)).run(orc, RandomStream(seed + 1))
    # the adapter answers 1 exactly when the inner guess equals its gamma
    return orc, inner, inner.guess if won else 1 - inner.guess


def test_theorem1_transcripts(toy_key):
    orc, inner, gamma = _theorem1_run(toy_key, 131)
    k = toy_key.n + 8
    assert inner.view.calls() == [("encrypt_zeros", (k,)), ("left_right", (0, 1))]
    assert orc.calls() == [("samples", (k,)), ("challenge", ())]
    (served,) = inner.view.replies("encrypt_zeros")
    (samples,) = orc.replies("samples")
    assert np.array_equal(served, samples)  # bitwise the Sample outputs
    # the left-right reply is the challenge plus p * m_gamma * 1, m_gamma = gamma
    (challenge,) = orc.replies("challenge")
    (reply,) = inner.view.replies("left_right")
    assert np.array_equal(reply.c, (challenge + toy_key.p * gamma) % Q)


@pytest.mark.parametrize("m0, m1", [(2, 0), (0, -1)])
def test_theorem1_view_refuses_non_bit_messages_like_the_real_oracle(toy_key, m0, m1):
    real = IndCpaOracles(toy_key, RandomStream(159))
    view = games._IndCpaViewOfHsm(HsmOracles(scheme_instance(toy_key), RandomStream(160)),
                                  toy_key.p, 0, None)
    for oracles in (real, view):
        with pytest.raises(ValueError, match="challenge messages must be bits"):
            oracles.left_right(m0, m1)
        with pytest.raises(ProtocolViolationError, match="one challenge message must be 0"):
            oracles.left_right(1, 1)
        oracles.left_right(0, 1)  # the refused calls did not spend the challenge


def test_theorem1_wrapped_random_guesser_blind(toy_params):
    res = theorem1_experiment(toy_params, RandomGuesser(), 300, RandomStream(132))
    w = res["wrapped_hsm"]
    assert w.advantage <= 3 * w.ci_halfwidth


def test_theorem1_inequality_rank_zero_noise(toy_params_noiseless):
    res = theorem1_experiment(
        toy_params_noiseless, IndCpaRankAdversary(), 400, RandomStream(133)
    )
    native, wrapped = res["native_indcpa"], res["wrapped_hsm"]
    assert wrapped.advantage >= native.advantage / 2 - 3 * joint_ci(native, wrapped)
    # the adapter's information-theoretic ceiling is ind-cpa advantage / 2
    assert wrapped.advantage <= native.advantage / 2 + 3 * joint_ci(native, wrapped)


@pytest.mark.parametrize("q", [Q, 2**31 - 1])
def test_theorem1_full_advantage_at_zero_noise(q):
    params = toy_additive_params(alpha="0")
    if q != Q:
        params = SchemeParams(lam=32, q=q, ell=2, r=2, n=5, alpha="0", epsilon="0.01",
                              mode=MODE_ADDITIVE, ideal=toy_ideal(q), headroom=2)
    adv = IndCpaRankAdversary()
    res = theorem1_experiment(params, adv, 100, RandomStream(138))
    native, wrapped = res["native_indcpa"], res["wrapped_hsm"]
    assert native.wins == native.trials  # every noiseless game is won
    assert abs(wrapped.advantage - 0.25) <= 3 * wrapped.ci_halfwidth


def test_theorem1_view_serves_encrypt_zeros_from_hsm_samples(toy_key):
    orc, inner, _ = _theorem1_run(toy_key, 139)
    (samples,) = orc.replies("samples")
    (served,) = inner.view.replies("encrypt_zeros")
    assert len(samples) == len(served) == toy_key.n + 8
    assert np.array_equal(samples, served)


def test_subspace_instance_validation():
    with pytest.raises(ValueError):  # dependent rows
        SubspaceInstance(
            n=4, q=Q,
            basis=np.array([[1, 2, 3, 4], [2, 4, 6, 8]]),
            noise=NoiseSpec(0.0, Q, 1),
        )
    with pytest.raises(ValueError):  # l = n not allowed
        SubspaceInstance(
            n=2, q=Q, basis=np.eye(2, dtype=np.int64),
            noise=NoiseSpec(0.0, Q, 1),
        )


def test_identity_head_basis_skips_the_rank_check(monkeypatch):
    # lemma 1's instance [I | -s] has rank n by construction; a random basis,
    # or one whose head is only nearly the identity, is still eliminated
    calls = []
    real = games.rank
    monkeypatch.setattr(games, "rank", lambda M, q: calls.append(M.shape) or real(M, q))
    s = RandomStream(147).uniform_fq(Q, size=6)
    assert lwe_subspace_instance(s, Q, NoiseSpec(0.0, Q, 1)).dim == 6
    assert calls == []
    inst = _small_instance(RandomStream(144))
    assert calls == [(6, 12)] and inst.dim == 6
    nearly = np.hstack([np.eye(3, dtype=np.int64), np.ones((3, 2), dtype=np.int64)])
    nearly[2, 2] = 0  # rows e_0 + .., e_1 + .., and (0, 0, 0, 1, 1): rank 3
    SubspaceInstance(n=5, q=Q, basis=nearly, noise=NoiseSpec(0.0, Q, 1))
    assert calls == [(6, 12), (3, 5)]
    nearly[2] = nearly[0]  # dependent rows, head not the identity
    with pytest.raises(ValueError):
        SubspaceInstance(n=5, q=Q, basis=nearly, noise=NoiseSpec(0.0, Q, 1))


def test_lemma1_experiment_wins_are_unchanged_by_the_skipped_rank_check():
    # recorded while every native instance was still eliminated
    res = lemma1_experiment(12, Q, NoiseSpec(8.0 / Q, Q, 1), RankMembershipAdversary(),
                            100, RandomStream(148))
    assert (res["native_hsm"].wins, res["wrapped_dlwe"].wins) == (54, 52)


@pytest.mark.parametrize("n", [0, -3])
def test_dlwe_oracles_refuse_n_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        DlweOracles(n, Q, NoiseSpec(8.0 / Q, Q, 1), RandomStream(149))


def test_uniform_subspace_instance_eliminates_each_candidate_once(monkeypatch):
    calls = []
    real = games.rank
    monkeypatch.setattr(games, "rank", lambda M, q: calls.append(M.shape) or real(M, q))
    inst = _small_instance(RandomStream(144))
    assert calls == [(6, 12)] and inst.dim == 6
    with pytest.raises(ValueError):  # a shape error is not retried as a dependent draw
        uniform_subspace_instance(4, Q, 4, NoiseSpec(0.0, Q, 1), RandomStream(144))


# ---------------------------------------------------------------------------
# batched Sample queries

def _counting(monkeypatch, cls):
    asked = []
    real = cls.samples
    monkeypatch.setattr(cls, "samples", lambda self, k: asked.append(k) or real(self, k))
    return asked


@pytest.mark.parametrize("make", [
    lambda: HsmOracles(_small_instance(RandomStream(145)), RandomStream(146)),
    lambda: DlweOracles(8, Q, NoiseSpec(8.0 / Q, Q, 1), RandomStream(146)),
])
def test_samples_count_against_the_cap_before_drawing(make, monkeypatch):
    monkeypatch.setattr(games, "SAMPLE_CAP", 5)
    orc = make()
    orc.samples(3)
    drawn = orc._stream._gen.bit_generator.state
    with pytest.raises(ProtocolViolationError):
        orc.samples(3)
    assert orc._stream._gen.bit_generator.state == drawn
    with pytest.raises(ValueError):
        make().samples(0)


def test_hsm_samples_audit_members_plus_head_free_noise(monkeypatch):
    inst = _small_instance(RandomStream(147), alpha=8.0 / Q, n=12, l=6)
    noise = _outputs_of(monkeypatch, "sample_noise_vector")
    out = HsmOracles(inst, RandomStream(148)).samples(9)
    (E,) = noise  # one draw for the batch
    assert out.shape == E.shape == (9, 12)
    head = inst.n - inst.noise.support_len
    for row, e in zip(out, E):
        assert in_rowspace(inst.basis, (row - e) % Q, Q)
        assert np.all(e[:head] == 0) and np.any(e[head:])


def test_dlwe_samples_audit_the_errors(monkeypatch):
    errors = _outputs_of(monkeypatch, "discrete_gaussian_vector")
    orc = DlweOracles(8, Q, NoiseSpec(8.0 / Q, Q, 1), RandomStream(149))
    A, b = orc.samples(11)
    (e,) = errors  # one draw for the batch
    assert A.shape == (11, 8) and b.shape == e.shape == (11,) and np.any(e)
    assert np.array_equal((b - A @ orc.secret) % Q, e)


def test_rank_and_linear_adversaries_ask_once_for_their_samples(monkeypatch):
    hsm_asked = _counting(monkeypatch, HsmOracles)
    dlwe_asked = _counting(monkeypatch, DlweOracles)
    inst = _small_instance(RandomStream(151))
    hsm_game(inst, RankMembershipAdversary(), RandomStream(152))
    noise = NoiseSpec(0.0, Q, 1)
    dlwe_game(8, Q, noise, LinearSolveAdversary(), RandomStream(153))
    dlwe_game(8, Q, noise, Lemma1Adversary(RankMembershipAdversary()), RandomStream(154))
    assert hsm_asked == [12 + 8]
    assert dlwe_asked == [8 + 8, 9 + 8]


def test_theorem1_view_asks_once_for_encrypt_zeros(toy_key, monkeypatch):
    asked = _counting(monkeypatch, HsmOracles)
    wrapped = Theorem1Adversary(IndCpaRankAdversary(), toy_key.p, Leak(p=toy_key.p))
    hsm_game(scheme_instance(toy_key), wrapped, RandomStream(155))
    assert asked == [toy_key.n + 8]


def test_rank_games_are_won_every_time_at_zero_noise(toy_params_noiseless):
    res = lemma1_experiment(8, Q, NoiseSpec(0.0, Q, 1), RankMembershipAdversary(), 100,
                            RandomStream(156))
    assert all(e.wins == e.trials for e in res.values())
    sk = keygen(toy_params_noiseless, RandomStream(157))
    wrapped = Theorem1Adversary(IndCpaRankAdversary(), sk.p, Leak(p=sk.p))

    def game_fn(adv, sub):  # beta = 1: the simulation is the real IND-CPA game
        oracles = _with_beta(1, lambda: HsmOracles(scheme_instance(sk), sub.derive(0)))
        return oracles.finalize(adv.run(oracles, sub.derive(1)))

    assert estimate_advantage(game_fn, wrapped, 100, RandomStream(158)).wins == 100
