import numpy as np
import pytest
from scipy.stats import chi2

from mvphe import (
    MODE_ADDITIVE,
    Ciphertext,
    FieldContext,
    SchemeParams,
    decrypt,
    NoiseSpec,
    ProtocolViolationError,
    RandomStream,
    SubspaceInstance,
    dlwe_game,
    dot_mod,
    estimate_advantage,
    hsm_game,
    indcpa_game,
    joint_ci,
    keygen,
    lemma1_adapter,
    lemma1_experiment,
    lwe_subspace_instance,
    scheme_instance,
    theorem1_adapter,
    theorem1_experiment,
    uniform_subspace_instance,
)
from mvphe.adversaries import (
    IndCpaRankAdversary,
    KeyLeakAdversary,
    KnownSecretAdversary,
    LinearSolveAdversary,
    RandomGuesser,
    RankMembershipAdversary,
)
from mvphe.games import SAMPLE_CAP, DlweOracles, HsmOracles, IndCpaOracles, Leak
from mvphe.presets import toy_additive_params, toy_ideal

Q = 10007


class _BetaReader:
    """Cheating adversary: reads the hidden bit (always correct)."""

    def run(self, oracles, stream):
        return oracles.beta


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
    threshold = sk.sigma_s * sk.p // 2
    leak = Leak(s=sk.s, threshold=threshold)

    # independent estimate of both acceptance probabilities from the oracle
    # distributions themselves
    probe = RandomStream(108)
    ctx = FieldContext(Q)
    hits_noisy = hits_uniform = 0
    trials = 4000
    for i in range(trials):
        orc = HsmOracles(inst, probe.derive(i), force_beta=1)
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


def test_hsm_sample_cap():
    inst = _small_instance(RandomStream(112))
    orc = HsmOracles(inst, RandomStream(113), sample_cap=5)
    for _ in range(5):
        orc.sample()
    with pytest.raises(ProtocolViolationError):
        orc.sample()


def test_hsm_oracle_fidelity_beta1():
    # challenge minus its subspace component must follow the support pattern
    inst = _small_instance(RandomStream(114), alpha=8.0 / Q, n=10, l=4)
    support = inst.noise.support_len
    for i in range(1000):
        orc = HsmOracles(inst, RandomStream(115).derive(i), force_beta=1)
        out = orc.challenge()
        kind, v, e, recorded = orc.audit[-1]
        assert kind == "challenge"
        diff = (out - v) % Q
        assert np.array_equal(diff, e % Q)
        assert np.all(diff[: inst.n - support] == 0)


def test_hsm_oracle_fidelity_beta0_uniform():
    # chi-square on a projected coordinate across 1000 forced-uniform games
    basis = np.array([[1, 0, 1, 0, 1]])
    inst = SubspaceInstance(n=5, q=17, basis=basis, noise=NoiseSpec(0.2, 17, 2))
    draws = []
    for i in range(1000):
        orc = HsmOracles(inst, RandomStream(116).derive(i), force_beta=0)
        draws.append(int(orc.challenge()[0]))
    counts = np.bincount(draws, minlength=17)
    expected = len(draws) / 17
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1 - 1e-6, df=16)


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
    wrapped = lemma1_adapter(RankMembershipAdversary())

    def game_fn(adv, sub):
        return dlwe_game(8, Q, NoiseSpec(8.0 / Q, Q, 1), adv, sub)

    est = estimate_advantage(game_fn, wrapped, 1000, RandomStream(120))
    assert est.advantage <= est.ci_halfwidth


# ---------------------------------------------------------------------------
# lemma1 adapter

def test_lemma1_transcript_is_a_minus_b():
    oracles = DlweOracles(6, Q, NoiseSpec(8.0 / Q, Q, 1), RandomStream(120))
    wrapped = lemma1_adapter(RankMembershipAdversary(extra_samples=2))
    wrapped.run(oracles, RandomStream(121))
    view = wrapped.last_view
    assert view.transcript, "adapter recorded no queries"
    for a, b, vec in view.transcript:
        assert np.array_equal(vec[:-1], a)
        assert vec[-1] == (-b) % Q


def test_lemma1_wrapped_random_guesser_blind():
    wrapped = lemma1_adapter(RandomGuesser())

    def game_fn(adv, sub):
        return dlwe_game(8, Q, NoiseSpec(8.0 / Q, Q, 1), adv, sub)

    est = estimate_advantage(game_fn, wrapped, 1000, RandomStream(122))
    assert est.advantage <= 3 * est.ci_halfwidth


def test_lemma1_wrapped_rank_zero_noise_wins():
    wrapped = lemma1_adapter(RankMembershipAdversary())

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


def test_indcpa_samples_and_challenge_use_disjoint_streams(toy_key):
    # one more sample than SAMPLE_CAP: sample SAMPLE_CAP + 1 once shared the
    # challenge's stream, so with beta = 0 the two were the same ciphertext
    orc = IndCpaOracles(toy_key, RandomStream(134), force_beta=0, sample_cap=SAMPLE_CAP + 1)
    Z = orc.encrypt_zeros(SAMPLE_CAP + 1)
    ct = orc.left_right(0, 1)
    assert Z.shape == (SAMPLE_CAP + 1, toy_key.n)
    assert not np.any(np.all(Z == ct.c, axis=1))
    assert len(orc.audit) == SAMPLE_CAP + 2
    assert all(np.array_equal(a[1], z) for a, z in zip(orc.audit, Z))


def test_encrypt_zeros_counts_against_the_cap_before_drawing(toy_key):
    orc = IndCpaOracles(toy_key, RandomStream(135), sample_cap=5)
    Z = orc.encrypt_zeros(3)
    assert [decrypt(toy_key, Ciphertext(z, Q)) for z in Z] == [0, 0, 0]
    with pytest.raises(ProtocolViolationError):
        orc.encrypt_zeros(3)
    assert len(orc.audit) == 3
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

def test_theorem1_transcripts(toy_key):
    inst = scheme_instance(toy_key)
    wrapped = theorem1_adapter(
        IndCpaRankAdversary(), p=toy_key.p, leak=Leak(p=toy_key.p)
    )
    hsm_game(inst, wrapped, RandomStream(131))
    view = wrapped.last_view
    enc_zero = [t for t in view.transcript if t[0] == "encrypt_zero"]
    lr = [t for t in view.transcript if t[0] == "left_right"]
    assert enc_zero and lr
    for _, sample_out, reply in enc_zero:
        assert np.array_equal(sample_out, reply)  # bitwise the Sample output
    _, challenge_out, reply = lr[0]
    shift = (reply - challenge_out) % Q
    assert np.all((shift == 0) | (shift == toy_key.p * view.gamma % Q))


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
    inst = scheme_instance(toy_key)
    wrapped = theorem1_adapter(IndCpaRankAdversary(), p=toy_key.p, leak=Leak(p=toy_key.p))
    orc = HsmOracles(inst, RandomStream(139))
    wrapped.run(orc, RandomStream(140))
    samples = [a[3] for a in orc.audit if a[0] == "sample"]
    served = [t[2] for t in wrapped.last_view.transcript if t[0] == "encrypt_zero"]
    assert len(samples) == len(served) == toy_key.n + 8
    assert all(np.array_equal(a, b) for a, b in zip(samples, served))


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
