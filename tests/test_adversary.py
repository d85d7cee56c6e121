import dataclasses

import numpy as np
import pytest

from conftest import FAMILIES, PROBLEMS, check_block_schur_identity, random_valid_gamma
import qqc.adversary
from qqc.adversary import (
    WitnessError,
    make_dual_witness,
    perron_vector,
    search_gamma,
    spectral_bound,
)
import qqc.problem
from qqc.problem import QueryProblem
from qqc.programs import build_dual_relaxed, build_primal, build_primal_relaxed, pair_name
from qqc.reconstruct import reconstruct_algorithm
from qqc.simulate import run
from qqc.solver import verify_point

from test_solver import _pauli2


def test_perron_vector_agrees_with_dense_eig():
    rng = np.random.default_rng(17)
    for _ in range(25):
        raw = rng.uniform(0.0, 1.0, size=(5, 5))
        g = raw + raw.T
        lam, v = perron_vector(g)
        w = np.linalg.eigvalsh(g)
        assert lam == pytest.approx(w[-1], rel=1e-9, abs=1e-9)
        assert np.all(v >= -1e-9)
        assert np.linalg.norm(g @ v - lam * v) <= 1e-7 * max(1.0, lam)


def test_perron_vector_survives_tiny_spectral_gap():
    g = np.array([[1.0, 1e-14], [1e-14, 1.0]])
    lam, v = perron_vector(g)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(v) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "g, lam",
    [
        # two components: lambda = 1 is repeated
        (np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]), 1.0),
        # the deutsch K_{2,2} weighting: spectrum 2, 0, 0, -2
        (np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=float), 2.0),
    ],
)
def test_perron_vector_without_a_spectral_gap(g, lam):
    got, v = perron_vector(g)
    assert got == pytest.approx(lam, abs=1e-12)
    assert np.all(v >= 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(g @ v - got * v) <= 1e-12


def test_spectral_bound_pauli_pair_value(ix):
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = spectral_bound(ix, gamma, 0.0)
    assert rep.lambda_gamma == pytest.approx(1.0, abs=1e-12)
    assert rep.alpha == pytest.approx(4.0, abs=1e-12)
    assert rep.bound == pytest.approx(0.25, abs=1e-9)
    assert rep.ceil_bound == 1
    assert not rep.unbounded


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("s", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_from_the_difference_blocks(s, n):
    # alpha = 2 lambda_max(gamma ⊗ I - Omega (gamma ⊗ I) Omega†), formed densely here
    rng = np.random.default_rng(10 * s + n)
    labels = tuple(f"u{i}" for i in range(s))
    p = QueryProblem(n, labels, np.stack([_haar_unitary(rng, n) for _ in range(s)]),
                     labels, {lab: lab for lab in labels})
    diff = qqc.adversary._differences(p)
    assert not diff.flags.writeable
    for i in range(s):
        assert np.max(np.abs(diff[i * n:(i + 1) * n, i * n:(i + 1) * n])) <= 1e-14
    for _ in range(5):
        g = random_valid_gamma(p, rng)
        wide = np.kron(g, np.eye(n))
        want = 2.0 * np.linalg.eigvalsh(wide - p.omega @ wide @ p.omega.conj().T)[-1]
        got = qqc.adversary._spectrum(p, g).alpha
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("bound, want", [
    (0.5, 1),
    (1.0 + 1e-13, 1),  # within the rounding of 1
    (4096.0 * (1.0 + 2.0**-50), 4096),  # one ulp is 9.1e-13 here, so the slack is relative
    (4096.001, 4097),
])
def test_ceil_slack_is_relative(bound, want):
    assert qqc.adversary._ceil_bound(bound) == want


def test_spectral_bound_error_rate_prefactor(ix):
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact = spectral_bound(ix, gamma, 0.0).bound
    noisy = spectral_bound(ix, gamma, 0.1).bound
    assert noisy == pytest.approx((1.0 - 2.0 * np.sqrt(0.09)) * exact, rel=1e-12)
    with pytest.raises(ValueError):
        spectral_bound(ix, gamma, 0.5)


def test_spectral_bound_rejects_invalid_weights(deutsch):
    s = deutsch.size
    with pytest.raises(ValueError):
        spectral_bound(deutsch, np.zeros((s, s)), 0.0)
    bad = np.zeros((s, s))
    bad[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        spectral_bound(deutsch, bad, 0.0)
    neg = np.zeros((s, s))
    neg[0, 1] = neg[1, 0] = -1.0
    with pytest.raises(ValueError):
        spectral_bound(deutsch, neg, 0.0)
    same_class = np.zeros((s, s))
    same_class[1, 2] = same_class[2, 1] = 1.0  # 01 and 10 share an output
    same_class[0, 3] = same_class[3, 0] = 1.0  # and so do 00 and 11
    # the first offending pair in row-major order is named
    with pytest.raises(ValueError, match=r"weight at \(00, 11\) must vanish: equal outputs"):
        spectral_bound(deutsch, same_class, 0.0)


def test_spectral_bound_rejects_a_complex_weighting(deutsch):
    # the cast to float would drop the imaginary part and bound another
    # weighting; a complex array whose imaginary part is zero is the real one
    p = dataclasses.replace(deutsch)
    gamma = random_valid_gamma(p, np.random.default_rng(4))
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 1.0, -1.0  # Γ + iA is Hermitian
    for bad in (gamma + 1j * skew, gamma + 1j * np.nan * skew):
        with pytest.raises(ValueError, match="weight matrix entries must be real"):
            spectral_bound(p, bad, 0.1)
        with pytest.raises(ValueError, match="weight matrix entries must be real"):
            make_dual_witness(p, bad, 0, 0.1)
    assert qqc.adversary._last_weighting(p) == [None, None]
    want = spectral_bound(dataclasses.replace(deutsch), gamma, 0.1)
    got = spectral_bound(p, gamma.astype(complex), 0.1)  # no ComplexWarning either
    assert (got.bound, got.perron_v.tobytes()) == (want.bound, want.perron_v.tobytes())


def test_spectral_bound_validates_the_problem_before_the_weights():
    # g is not total: the weight check would read g(b) before validation did
    eye = np.eye(2, dtype=complex)
    p = QueryProblem(2, ("a", "b"), np.stack([eye, eye]), ("0", "1"), {"a": "0"})
    with pytest.raises(ValueError, match="invalid problem"):
        spectral_bound(p, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spectral_bound_rejects_non_finite_weights(deutsch, value):
    gamma = np.zeros((4, 4))
    gamma[0, 1] = gamma[1, 0] = value
    with pytest.raises(ValueError, match="finite"):
        spectral_bound(deutsch, gamma, 0.0)


def test_spectral_bound_unbounded_for_indistinguishable_family():
    # two identical oracles with different target outputs: no query helps
    eye = np.eye(2, dtype=complex)
    p = QueryProblem(2, ("a", "b"), np.stack([eye, eye]), ("0", "1"),
                     {"a": "0", "b": "1"})
    rep = spectral_bound(p, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)
    assert rep.unbounded
    assert rep.ceil_bound is None


def test_make_dual_witness_verifies_on_fixtures(deutsch, ix):
    for p in (deutsch, ix):
        gamma, rep = search_gamma(p, 0.0)
        for q in range(int(np.ceil(rep.bound - 1e-12))):
            witness = make_dual_witness(p, gamma, q, 0.0)
            check = verify_point(build_dual_relaxed(p, q, 0.0), witness)
            assert check.within(1e-8)
            assert check.strict_slack > 0


def test_make_dual_witness_on_a_disconnected_weighting(deutsch):
    # weights on (00, 01) and (11, 10) only: the top eigenvalue is repeated
    idx = {lab: i for i, lab in enumerate(deutsch.labels)}
    gamma = np.zeros((4, 4))
    for a, b in (("00", "01"), ("11", "10")):
        gamma[idx[a], idx[b]] = gamma[idx[b], idx[a]] = 1.0
    for eps in (0.0, 0.1):
        rep = spectral_bound(deutsch, gamma, eps)
        assert rep.ceil_bound >= 1
        for q in range(rep.ceil_bound):
            witness = make_dual_witness(deutsch, gamma, q, eps)
            check = verify_point(build_dual_relaxed(deutsch, q, eps), witness)
            assert check.max_residual <= 1e-8
            assert check.min_block_eig >= -1e-8
            assert check.strict_slack > 0


def test_make_dual_witness_last_step_is_the_j_trace():
    # OR of 17 bits under the promise of at most one 1: the star weighting
    # bounds it at sqrt(17)/4 > 1, so a witness exists at q = 1. With
    # W = gamma∘vvᵀ, the pair multipliers sum to the Laplacian diag(W 1) - W;
    # on the start face the last step Lap(W) + alpha diag(v∘v) is its 1x1
    # J-trace alpha, held as init's multiplier, and the strict slack is
    # lambda - alpha
    m = 17
    labels = ("0",) + tuple(f"e{i}" for i in range(m))
    flips = [np.eye(m)] + [np.diag(1.0 - 2.0 * np.eye(m)[i]) for i in range(m)]
    p = QueryProblem(m, labels, np.stack(flips).astype(complex), ("0", "1"),
                     {lab: str(int(lab != "0")) for lab in labels})
    gamma = np.zeros((m + 1, m + 1))
    gamma[0, 1:] = gamma[1:, 0] = 1.0
    rep = spectral_bound(p, gamma, 0.0)
    assert rep.ceil_bound == 2
    witness = make_dual_witness(p, gamma, 1, 0.0)
    w = gamma * np.outer(rep.perron_v, rep.perron_v)
    pairs = {(i, j): f"pair_{pair_name(p, (i, j))}" for i, j in p.differing_pairs()}
    assert set(witness) == {"init"} | set(pairs.values())
    lap = np.zeros((m + 1, m + 1), dtype=complex)
    for (i, j), name in pairs.items():
        lap[np.ix_([i, j], [i, j])] += witness[name]
    assert np.max(np.abs(lap - (np.diag(w.sum(axis=1)) - w))) <= 1e-15
    assert witness["init"].shape == (1, 1)
    assert witness["init"][0, 0] == pytest.approx(rep.alpha, rel=1e-14)
    check = verify_point(build_dual_relaxed(p, 1, 0.0), witness)
    assert check.max_residual <= 1e-8
    assert check.min_block_eig >= -1e-8
    assert check.strict_slack == pytest.approx(rep.lambda_gamma - rep.alpha, rel=1e-12)
    assert check.strict_slack > 0


WEIGHTED = {name: p for name, p in {**PROBLEMS, **FAMILIES}.items() if p.differing_pairs()}


@pytest.mark.parametrize("pname", sorted(WEIGHTED))
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
def test_witness_strict_slack_in_closed_form(pname, eps):
    # at every q below the bound the witness's strict slack is
    # (1 - margin) lambda - q alpha, for random weightings
    p = WEIGHTED[pname]
    rng = np.random.default_rng(29)
    margin = 2.0 * np.sqrt(eps * (1.0 - eps))
    for _ in range(3):
        gamma = random_valid_gamma(p, rng)
        rep = spectral_bound(p, gamma, eps)
        assert rep.ceil_bound is not None and rep.ceil_bound >= 1
        for q in range(rep.ceil_bound):
            check = verify_point(build_dual_relaxed(p, q, eps), make_dual_witness(p, gamma, q, eps))
            assert check.within(1e-8)
            want = (1.0 - margin) * rep.lambda_gamma - q * rep.alpha
            assert check.strict_slack == pytest.approx(want, rel=1e-12), q
            assert check.strict_slack > 0


def test_make_dual_witness_rejects_a_block_that_is_not_psd(deutsch, monkeypatch):
    # rows within tolerance do not make a witness: a pair multiplier that is
    # not PSD must raise, and the message names the least block eigenvalue
    # (at eps 0.1: at eps 0 the pair multipliers are free, and q = 0 has no
    # PSD block left)
    def tampered(prog, point):
        rep = verify_point(prog, point)
        name = next(iter(rep.block_min_eigs))
        rep.block_min_eigs[name] = -1e-3
        return rep

    monkeypatch.setattr(qqc.adversary, "verify_point", tampered)
    gamma = random_valid_gamma(deutsch, np.random.default_rng(1))
    with pytest.raises(WitnessError, match="least block eigenvalue -1.000e-03"):
        make_dual_witness(deutsch, gamma, 0, 0.1)


def test_validate_runs_once_per_problem(deutsch, monkeypatch):
    # a fresh copy of the problem builds its oracle once, on first use, and
    # every later program, bound, witness, reconstruction and run reads it
    p = dataclasses.replace(deutsch)
    calls = []
    validate = qqc.problem.validate

    def counted(problem):
        calls.append(problem)
        return validate(problem)

    monkeypatch.setattr(qqc.problem, "validate", counted)
    gamma = random_valid_gamma(p, np.random.default_rng(3))
    build_primal(p, 1, 0.0)
    build_dual_relaxed(p, 1, 0.1)
    spectral_bound(p, gamma, 0.1)
    make_dual_witness(p, gamma, 0, 0.1)
    search_gamma(p, 0.0)
    alg = reconstruct_algorithm(p, 1, 0.0).algorithm
    run(alg, p)
    assert len(calls) == 1 and calls[0] is p


def _eigensolver_calls(monkeypatch) -> dict[str, int]:
    # counts the weight checks and the two eigensolvers of a weighting's spectrum
    calls = {"check": 0, "perron": 0, "eigvalsh": 0}

    def counted(key, fn):
        def run(*args):
            calls[key] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(qqc.adversary, "_check_weight", counted("check", qqc.adversary._check_weight))
    monkeypatch.setattr(qqc.adversary, "perron_vector", counted("perron", qqc.adversary.perron_vector))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    return calls


@pytest.mark.parametrize("pname", ["deutsch", "weyl3"])
def test_a_witness_after_its_bound_runs_no_eigensolver(monkeypatch, pname):
    # the problem keeps the weighting just bounded with its spectrum, which
    # does not depend on eps: its witnesses, and its bound at another eps,
    # neither check it again nor run an eigensolver
    p = dataclasses.replace(WEIGHTED[pname])
    gamma = random_valid_gamma(p, np.random.default_rng(7))
    calls = _eigensolver_calls(monkeypatch)
    rep = spectral_bound(p, gamma, 0.0)
    assert calls == {"check": 1, "perron": 1, "eigvalsh": 1}
    for eps in (0.0, 0.1):
        for q in range(spectral_bound(p, gamma, eps).ceil_bound):
            make_dual_witness(p, gamma, q, eps)
    assert rep.ceil_bound >= 1
    assert calls == {"check": 1, "perron": 1, "eigvalsh": 1}
    # an equal weighting in another array hits too; another weighting does not
    spectral_bound(p, gamma.tolist(), 0.1)
    assert calls["perron"] == 1
    spectral_bound(p, 2.0 * gamma, 0.1)
    assert calls == {"check": 2, "perron": 2, "eigvalsh": 2}


def test_a_weighting_changed_in_place_misses_the_slot(or2):
    p = dataclasses.replace(or2)
    gamma = random_valid_gamma(p, np.random.default_rng(8))
    before = spectral_bound(p, gamma, 0.1)
    i, j = p.differing_pairs()[0]
    gamma[i, j] = gamma[j, i] = 5.0 * gamma[i, j]
    witness = make_dual_witness(p, gamma, 0, 0.1)
    after = spectral_bound(p, gamma, 0.1)
    fresh = dataclasses.replace(or2)
    want = spectral_bound(fresh, gamma, 0.1)
    assert after.bound != before.bound
    assert (after.bound, after.alpha, after.perron_v.tobytes()) == (want.bound, want.alpha, want.perron_v.tobytes())
    want_witness = make_dual_witness(fresh, gamma, 0, 0.1)
    assert list(witness) == list(want_witness)
    assert all(witness[k].tobytes() == want_witness[k].tobytes() for k in witness)


def test_a_weighting_that_fails_its_check_leaves_the_slot(deutsch, monkeypatch):
    p = dataclasses.replace(deutsch)
    gamma = random_valid_gamma(p, np.random.default_rng(9))
    spectral_bound(p, gamma, 0.1)
    key, kept = qqc.adversary._last_weighting(p)
    same_class = gamma.copy()
    same_class[1, 2] = same_class[2, 1] = 1.0  # 01 and 10 share an output
    negative = -gamma
    for bad in (same_class, negative, np.ones((3, 3)), gamma + 1j * gamma):
        with pytest.raises(ValueError):
            spectral_bound(p, bad, 0.1)
        with pytest.raises(ValueError):
            make_dual_witness(p, bad, 0, 0.1)
        slot = qqc.adversary._last_weighting(p)
        assert slot[0] == key and slot[1] is kept
    calls = _eigensolver_calls(monkeypatch)
    make_dual_witness(p, gamma, 0, 0.1)
    assert calls == {"check": 0, "perron": 0, "eigvalsh": 0}


def test_the_kept_spectrum_refuses_writes(ix):
    p = dataclasses.replace(ix)
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = spectral_bound(p, gamma, 0.0)
    kept = qqc.adversary._last_weighting(p)[1]
    for arr in (kept.g, kept.v, rep.perron_v):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0
    gamma[0, 1] = gamma[1, 0] = 2.0  # the caller's array is not frozen
    assert spectral_bound(p, gamma, 0.0).lambda_gamma == pytest.approx(2.0, rel=1e-14)
    names, ii, jj = qqc.adversary._pair_rows(p)
    assert names == ("pair_i|x",) and not ii.flags.writeable and not jj.flags.writeable


@pytest.mark.parametrize("pname", sorted(WEIGHTED))
def test_a_kept_spectrum_gives_the_bits_of_a_fresh_one(pname):
    # every report field and witness array, served from the slot, has the
    # bytes of an evaluation on an empty slot: the all-ones and a random
    # weighting, at eps 0 and 0.1, at every q below the bound
    p = dataclasses.replace(WEIGHTED[pname])
    ones = (p.output_index[:, None] != p.output_index[None, :]).astype(float)

    def fresh(call, *args):
        qqc.adversary._last_weighting(p)[:] = [None, None]
        return call(p, *args)

    def report_bits(rep):
        return (repr(rep.lambda_gamma), rep.perron_v.dtype, rep.perron_v.tobytes(),
                repr(rep.alpha), repr(rep.bound), rep.ceil_bound)

    for gamma in (ones, random_valid_gamma(p, np.random.default_rng(31))):
        for eps in (0.0, 0.1):
            rep = spectral_bound(p, gamma, eps)
            witnesses = [make_dual_witness(p, gamma, q, eps) for q in range(rep.ceil_bound)]
            assert witnesses
            assert report_bits(rep) == report_bits(fresh(spectral_bound, gamma, eps))
            for q, got in enumerate(witnesses):
                want = fresh(make_dual_witness, gamma, q, eps)
                assert list(got) == list(want)
                for k in want:
                    assert (got[k].dtype, got[k].shape, got[k].tobytes()) == \
                        (want[k].dtype, want[k].shape, want[k].tobytes()), (q, k)
    relaxed = build_primal_relaxed(p, 0, 0.1)
    assert qqc.adversary._pair_rows(p)[0] == tuple(r.name for r in relaxed.rows if r.name.startswith("pair_"))


def test_make_dual_witness_rejects_q_at_or_above_bound(ix):
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        make_dual_witness(ix, gamma, 1, 0.0)  # bound is 0.25


@pytest.mark.parametrize("q", [0.0, -1, False])
def test_make_dual_witness_checks_q_first(ix, q):
    # q is checked as the builders check it, before the weighting or the bound
    with pytest.raises(ValueError, match="query count must be a nonnegative integer"):
        make_dual_witness(ix, np.array([[0.0, 1.0], [1.0, 0.0]]), q, 0.0)
    with pytest.raises(ValueError, match="query count must be a nonnegative integer"):
        make_dual_witness(ix, np.ones((3, 3)), q, 0.7)


def test_random_weights_witness_property(deutsch, or2, ix):
    rng = np.random.default_rng(23)
    for p in (deutsch, or2, ix):
        for _ in range(5):
            gamma = random_valid_gamma(p, rng)
            rep = spectral_bound(p, gamma, 0.1)
            assert rep.bound > 0
            witness = make_dual_witness(p, gamma, 0, 0.1)
            assert "init" in witness


def test_search_gamma_improves_on_deutsch(deutsch):
    gamma, rep = search_gamma(deutsch, 0.0)
    assert rep.bound >= 0.5 - 1e-9
    # returned weights must themselves evaluate to the reported bound
    again = spectral_bound(deutsch, gamma, 0.0)
    assert again.bound == pytest.approx(rep.bound, rel=1e-12)


def _search_every_candidate(p, eps):
    # the ascent with every candidate evaluated, the halving that undoes an
    # accepted doubling included
    pairs = p.differing_pairs()
    gamma = np.zeros((p.size, p.size))
    for i, j in pairs:
        gamma[i, j] = gamma[j, i] = 1.0
    best = qqc.adversary._report(qqc.adversary._spectrum(p, gamma), eps)
    evals = 1
    improved = True
    while improved and evals < qqc.adversary._SEARCH_EVALS:
        improved = False
        for i, j in pairs:
            for factor in (2.0, 0.5):
                if evals >= qqc.adversary._SEARCH_EVALS:
                    break
                cand = gamma.copy()
                cand[i, j] = cand[j, i] = gamma[i, j] * factor
                rep = qqc.adversary._report(qqc.adversary._spectrum(p, cand), eps)
                evals += 1
                if rep.bound > best.bound * (1.0 + 1e-12):
                    gamma, best = cand, rep
                    improved = True
    return gamma, best


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("pname,evals", [("deutsch", 9), ("or2", 121), ("ix", 3), ("pauli_id", 22),
                                         ("pauli_class", 71), ("weyl3", 55), ("pauli2", 167)])
def test_search_gamma_skips_the_halving_that_undoes_a_doubling(monkeypatch, pname, evals, eps):
    # the skipped halving is the weighting its doubling beat, so the
    # weighting, bound and Perron vector are those of evaluating it; it
    # still counts toward the cap, which pauli2's ascent reaches
    p = _pauli2() if pname == "pauli2" else {**PROBLEMS, **FAMILIES}[pname]
    want_gamma, want = _search_every_candidate(p, eps)
    calls = [0]
    inner = qqc.adversary._spectrum

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(qqc.adversary, "_spectrum", counted)
    gamma, rep = search_gamma(p, eps)
    assert calls[0] == evals
    assert gamma.tobytes() == want_gamma.tobytes()
    assert (rep.bound, rep.alpha, rep.perron_v.tobytes()) == (want.bound, want.alpha, want.perron_v.tobytes())


def test_search_gamma_rejects_constant_map(const):
    with pytest.raises(ValueError):
        search_gamma(const, 0.0)


def test_block_schur_identity_detects_structure():
    rng = np.random.default_rng(31)
    s, n = 3, 2
    hits = 0
    for _ in range(20):
        blocks = [np.linalg.qr(rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))[0]
                  for _ in range(s)]
        z = np.zeros((s * n, s * n), dtype=complex)
        for i, b in enumerate(blocks):
            z[i * n:(i + 1) * n, i * n:(i + 1) * n] = b
        m = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        m = 0.5 * (m + m.conj().T)
        x = rng.standard_normal((s * n, s * n)) + 1j * rng.standard_normal((s * n, s * n))
        x = 0.5 * (x + x.conj().T)
        assert check_block_schur_identity(z, m, x) <= 1e-10
        dense = np.linalg.qr(rng.standard_normal((s * n, s * n))
                             + 1j * rng.standard_normal((s * n, s * n)))[0]
        if check_block_schur_identity(dense, m, x) > 1e-3:
            hits += 1
    assert hits >= 19


def test_block_schur_identity_rejects_unsplittable_dims():
    with pytest.raises(ValueError):
        check_block_schur_identity(np.eye(5), np.eye(2), np.eye(5))
