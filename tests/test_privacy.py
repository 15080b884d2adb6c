"""Quasiorthogonality suite and privacy certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipriv import (
    Channel,
    OperatorAlgebra,
    PreconditionError,
    annihilator,
    apply_channel,
    channel_from_subgroup,
    check_private_subsystem,
    check_privatized_algebra,
    check_privatized_subgroup,
    close,
    commutant,
    conditional_expectation,
    diagonal_algebra,
    full_matrix_algebra,
    is_abelian,
    is_quasiorthogonal,
    kraus_mutually_commuting,
    parse_pauli,
    quasiorth_condition_suite,
    scalar_algebra,
    span_closure,
    structure_type,
    subgroup_algebra,
)
from helpers import (
    haar_unitary,
    planted_basis,
    random_abelian_subgroup,
    random_class,
    random_subgroup,
    superoperator_conditions,
)


def dense(s, d=2):
    return parse_pauli(s, d=d).to_dense()


def motivating_algebra():
    return span_closure([dense(s) for s in ("II", "IX", "YY", "YZ")])


def phase_flip_channel():
    return Channel(np.array([dense(s) / 2 for s in ("II", "ZI", "IZ", "ZZ")]))


def qutrit_channel():
    K = close([parse_pauli("X2Z1:I", d=3).pauli_class(),
               parse_pauli("I:X1Z1", d=3).pauli_class()])
    return Channel(np.array([c.to_dense() / 3 for c in K])), K


def test_quasiorth_full_vs_scalars():
    assert is_quasiorthogonal(full_matrix_algebra(4), scalar_algebra(4))


def test_quasiorth_diagonal_vs_motivating():
    assert is_quasiorthogonal(diagonal_algebra(4), motivating_algebra())


def test_diagonal_not_quasiorth_to_itself():
    # a = b = e11 violates the product-trace identity directly
    d4 = diagonal_algebra(4)
    e11 = d4.basis[0]
    assert abs(np.trace(e11 @ e11) / 4 - (np.trace(e11) / 4) ** 2) > 0.1
    assert not is_quasiorthogonal(d4, d4)


def test_quasiorth_symmetry():
    rng = np.random.default_rng(40)
    for _ in range(20):
        a = subgroup_algebra(random_subgroup(rng, 2, 2))
        b = subgroup_algebra(random_subgroup(rng, 2, 2))
        assert is_quasiorthogonal(a, b) == is_quasiorthogonal(b, a)


def test_quasiorth_dimension_mismatch():
    with pytest.raises(PreconditionError):
        is_quasiorthogonal(scalar_algebra(2), scalar_algebra(4))


def test_condition_suite_extremal():
    report = quasiorth_condition_suite(full_matrix_algebra(3), scalar_algebra(3))
    assert all(report.verdicts) and report.consistent and report.verdict


def test_condition_suite_motivating_pair():
    report = quasiorth_condition_suite(diagonal_algebra(4), motivating_algebra())
    assert all(report.verdicts)
    assert max(report.deviations) <= 1e-9


def test_condition_suite_first_qubit_self():
    alg = span_closure([dense(s) for s in ("II", "XI", "YI", "ZI")])
    report = quasiorth_condition_suite(alg, alg)
    assert not any(report.verdicts)
    assert report.consistent


def test_condition_suite_agreement_random_corpus():
    rng = np.random.default_rng(50)
    for _ in range(50):
        a = subgroup_algebra(random_subgroup(rng, 2, 2))
        b = subgroup_algebra(random_subgroup(rng, 2, 2))
        report = quasiorth_condition_suite(a, b)
        assert report.consistent, (report.deviations,)


def condition3_oracle(A, B):
    """Condition (3) by applying each conditional expectation to each basis element."""
    eye = np.eye(A.N)
    dev = 0.0
    for X, Y in ((A, B), (B, A)):
        phi = conditional_expectation(X)
        for y in Y.basis:
            dev = max(dev, np.abs(apply_channel(phi, y) - np.trace(y) / A.N * eye).max())
    return dev


def test_condition3_matches_apply_channel_oracle():
    rng = np.random.default_rng(50)
    first_qubit = span_closure([dense(s) for s in ("II", "XI", "YI", "ZI")])
    pairs = [
        (full_matrix_algebra(3), scalar_algebra(3)),
        (diagonal_algebra(4), motivating_algebra()),
        (first_qubit, first_qubit),
    ]
    for _ in range(20):
        pairs.append((subgroup_algebra(random_subgroup(rng, 2, 2)),
                      subgroup_algebra(random_subgroup(rng, 2, 2))))
    for a, b in pairs:
        report = quasiorth_condition_suite(a, b)
        assert abs(report.deviations[2] - condition3_oracle(a, b)) <= 1e-12


def test_condition_suite_planted_pair_not_quasiorthogonal():
    # a planted algebra with two blocks and its commutant share the block
    # projections, so they are not quasiorthogonal
    rng = np.random.default_rng(51)
    alg = OperatorAlgebra(planted_basis(((1, 2), (2, 1)), haar_unitary(rng, 4)))
    report = quasiorth_condition_suite(alg, commutant(alg))
    assert report.verdicts == (False, False, False, False)
    assert abs(report.deviations[2] - condition3_oracle(alg, commutant(alg))) <= 1e-12


def diagonal_in(u):
    """The diagonal algebra of M_N conjugated by the unitary u."""
    n = u.shape[0]
    return OperatorAlgebra(np.einsum("ai,bi->iab", u, u.conj()).reshape(n, n, n))


def differential_pairs(kind):
    """Derandomized algebra pairs of one kind, each with its expected verdict or None."""
    rng = np.random.default_rng(52)
    if kind == "planted":  # a multi-block algebra and its commutant, N <= 24
        for blocks in (((1, 2), (2, 1)), ((2, 3), (3, 2)), ((3, 4),), ((1, 4), (4, 2), (4, 1)),
                       ((3, 3), (1, 5), (4, 1)), ((3, 4), (4, 3))):
            n = sum(k * q for k, q in blocks)
            alg = OperatorAlgebra(planted_basis(blocks, haar_unitary(rng, n)))
            yield alg, commutant(alg), len(blocks) == 1
    elif kind == "fourier":  # the diagonal algebra and its Fourier conjugate
        for n in (5, 14, 18, 24):
            u = haar_unitary(rng, n)
            f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
            yield diagonal_in(u), diagonal_in(u @ f), True
    else:  # spans of random Pauli subgroups
        for d, n in ((2, 2), (2, 3), (3, 2)):
            for _ in range(8):
                yield (subgroup_algebra(random_subgroup(rng, d, n)),
                       subgroup_algebra(random_subgroup(rng, d, n)), None)


@pytest.mark.parametrize("kind", ["planted", "fourier", "pauli"])
def test_condition_suite_matches_superoperator_oracle(kind):
    verdicts = set()
    for a, b, quasi in differential_pairs(kind):
        report = quasiorth_condition_suite(a, b)
        oracle = superoperator_conditions(a, b)
        assert np.abs(np.subtract(report.deviations[2:], oracle)).max() <= 1e-12
        assert report.verdicts[2:] == tuple(dev <= report.tolerance for dev in oracle)
        assert report.consistent and quasi in (None, report.verdict)
        verdicts.add(report.verdict)
    assert verdicts == ({True} if kind == "fourier" else {True, False})


def test_condition_suite_builds_no_superoperator_and_no_channel(monkeypatch):
    import paulipriv.algebra as algebra_module
    import paulipriv.privacy as privacy_module

    def refuse(*args, **kwargs):
        raise AssertionError("the suite built a superoperator or a channel")

    monkeypatch.setattr(algebra_module, "superoperator", refuse)
    monkeypatch.setattr(algebra_module, "conditional_expectation", refuse)
    monkeypatch.setattr(algebra_module.Channel, "__post_init__", refuse)
    assert not hasattr(privacy_module, "superoperator")
    assert not hasattr(privacy_module, "conditional_expectation")
    rng = np.random.default_rng(53)
    alg = OperatorAlgebra(planted_basis(((2, 2), (1, 3)), haar_unitary(rng, 7)))
    report = quasiorth_condition_suite(alg, commutant(alg))
    assert report.verdicts == (False, False, False, False)


def test_condition_suite_on_six_qubits_stays_small():
    import tracemalloc

    # the diagonal algebra and the span of the X-type Paulis, N = 64
    x_type = close([parse_pauli("I" * i + "X" + "I" * (5 - i)).pauli_class() for i in range(6)])
    a, b = diagonal_algebra(64), subgroup_algebra(x_type)
    tracemalloc.start()
    try:
        report = quasiorth_condition_suite(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdicts == (True, True, True, True)
    assert peak < 100 * 2**20


def test_condexp_privatizes_iff_quasiorthogonal():
    rng = np.random.default_rng(60)
    seen_true = seen_false = False
    for _ in range(50):
        a = subgroup_algebra(random_subgroup(rng, 2, 2))
        b = subgroup_algebra(random_subgroup(rng, 2, 2))
        phi = conditional_expectation(a)
        cert = check_privatized_algebra(phi, b)
        quasi = is_quasiorthogonal(a, b)
        rho0_scalar = np.abs(cert.rho0 - np.eye(4) / 4).max() < 1e-9
        assert (cert.verdict and rho0_scalar) == quasi
        seen_true |= quasi
        seen_false |= not quasi
    assert seen_true and seen_false


def test_certify_phase_flip():
    cert = check_privatized_algebra(phase_flip_channel(), motivating_algebra())
    assert cert.verdict
    assert np.abs(cert.rho0 - np.eye(4) / 4).max() < 1e-12
    assert abs(np.trace(cert.rho0) - 1) < 1e-12
    assert len(cert.per_basis) == 4


def test_certify_identity_channel_fails():
    cert = check_privatized_algebra(Channel.identity(4), motivating_algebra())
    assert not cert.verdict
    assert cert.max_deviation > 0.1


def test_certify_qutrit_channel():
    phi, _ = qutrit_channel()
    alg = span_closure([dense("X2:X1", d=3), dense("X1Z2:Z1", d=3)])
    cert = check_privatized_algebra(phi, alg)
    assert cert.verdict
    assert np.abs(cert.rho0 - np.eye(9) / 9).max() < 1e-12


def test_certificate_soundness_random_states():
    rng = np.random.default_rng(70)
    phi = phase_flip_channel()
    alg = motivating_algebra()
    cert = check_privatized_algebra(phi, alg)
    assert cert.verdict
    for _ in range(100):
        coeffs = rng.standard_normal(alg.dim)
        x = (coeffs @ alg.rows()).reshape(4, 4)
        h = x + x.conj().T
        lo = np.linalg.eigvalsh(h).min()
        rho = h + (abs(lo) + 0.1) * np.eye(4)
        rho /= np.trace(rho)
        assert alg.contains(rho)
        dev = np.abs(apply_channel(phi, rho) - cert.rho0).max()
        assert dev <= 10 * cert.tolerance


def test_subsystem_trivial_when_dim_b_one():
    phi = phase_flip_channel()
    v = np.eye(4, dtype=complex)[:, :2]  # embeds C^2 (dim_a=2, dim_b=1)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    cert = check_private_subsystem(phi, v, 2, 1, sigma)
    assert cert.verdict
    assert np.abs(cert.rho0 - apply_channel(phi, v @ sigma @ v.conj().T)).max() < 1e-12


def test_subsystem_phase_flip_maximally_mixed_sigma():
    phi = phase_flip_channel()
    _, u = structure_type(motivating_algebra())
    v = u.conj().T  # embedding of the 2 x 2 tensor split
    cert = check_private_subsystem(phi, v, 2, 2, np.eye(2) / 2)
    assert cert.verdict
    assert np.abs(cert.rho0 - np.eye(4) / 4).max() < 1e-9


def test_subsystem_pure_sigma_records_deviation():
    phi = phase_flip_channel()
    _, u = structure_type(motivating_algebra())
    v = u.conj().T
    sigma = np.zeros((2, 2), dtype=complex)
    sigma[0, 0] = 1.0
    cert = check_private_subsystem(phi, v, 2, 2, sigma)
    # privacy holds only for particular sigma_a; record, do not assume
    assert cert.verdict == (cert.max_deviation <= cert.tolerance)
    assert len(cert.per_basis) == 4
    assert cert.max_deviation >= 0.0


def test_subsystem_input_validation():
    phi = phase_flip_channel()
    bad_v = np.ones((4, 4), dtype=complex)
    with pytest.raises(PreconditionError):
        check_private_subsystem(phi, bad_v, 2, 2, np.eye(2) / 2)
    _, u = structure_type(motivating_algebra())
    v = u.conj().T
    with pytest.raises(PreconditionError):
        check_private_subsystem(phi, v, 2, 2, np.eye(2))  # trace 2
    with pytest.raises(PreconditionError):
        check_private_subsystem(phi, v, 2, 2, np.diag([2.0, -1.0]))  # not PSD


def test_kraus_mutually_commuting():
    assert kraus_mutually_commuting(phase_flip_channel())
    depol = Channel(np.array([dense(s) / 2 for s in ("I", "X", "Y", "Z")]))
    assert not kraus_mutually_commuting(depol)
    phi3, K = qutrit_channel()
    assert is_abelian(K)
    assert kraus_mutually_commuting(phi3)


# ---------------------------------------------------------------------------
# The integer certificate against the dense one
# ---------------------------------------------------------------------------


def classes(text, d=2):
    return [parse_pauli(t, d=d).pauli_class() for t in text.split(",")]


def assert_same_certificate(K, H):
    fast = check_privatized_subgroup(K, H)
    slow = check_privatized_algebra(channel_from_subgroup(K), subgroup_algebra(H))
    assert fast.verdict == slow.verdict
    assert len(fast.per_basis) == len(slow.per_basis) == len(H)
    assert np.abs(np.subtract(fast.per_basis, slow.per_basis)).max() <= 1e-12
    assert np.abs(fast.rho0 - slow.rho0).max() <= 1e-12
    assert fast.max_deviation == max(fast.per_basis)
    return fast


def test_subgroup_certificate_phase_flip_both_verdicts():
    K = close(classes("ZI,IZ"))
    private = assert_same_certificate(K, close(classes("IX,YY")))
    assert private.verdict and private.per_basis == (0.0,) * 4
    leaky = assert_same_certificate(K, close(classes("ZZ")))
    assert not leaky.verdict and leaky.per_basis == (0.0, 0.5)


# every (d, n) with d^n <= 32 from one list: nested draws of d and then n never reached (2, 2)
SPACES = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


@st.composite
def certificate_case(draw):
    """(d, n, seed, k_mode, h_mode): k_mode picks how K is drawn, h_mode how H is."""
    d, n = draw(st.sampled_from(SPACES))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, n, seed, draw(st.sampled_from(["abelian", "any"])), draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(certificate_case())
@example((2, 1, 0, "pauli", 0))
@example((2, 2, 0, "pauli", 0))
@example((2, 3, 0, "pauli", 0))
@example((3, 1, 0, "pauli", 0))
@example((4, 1, 0, "pauli", 0))
def test_property_subgroup_certificate_against_dense(case):
    d, n, seed, k_mode, h_mode = case
    rng = np.random.default_rng(seed)
    if k_mode == "pauli":  # the one-time pad: the full Pauli group privatizes all of M_N
        K = annihilator(close((), d=d, n=n))
        assert assert_same_certificate(K, K).verdict
        return
    K = (random_abelian_subgroup if k_mode == "abelian" else random_subgroup)(rng, d, n)
    if h_mode == 0:  # arbitrary H
        H = random_subgroup(rng, d, n)
    elif h_mode == 1:  # H inside Ann K: fixed by the channel, never private
        ann = annihilator(K).elements
        H = close([ann[i] for i in rng.integers(0, len(ann), 2)], d=d, n=n)
    else:  # one cyclic group, private for prime d unless it commutes with K
        H = close([random_class(rng, d, n)], d=d, n=n)
    assert_same_certificate(K, H)


def test_subgroup_certificate_refusals():
    K = close(classes("ZI,IZ"))
    # a non-Abelian K is no refusal: its channel twirls the first qubit, hiding XX and ZZ
    assert assert_same_certificate(close(classes("XI,ZI")), close(classes("XX,ZZ"))).verdict
    with pytest.raises(PreconditionError, match="different spaces"):
        check_privatized_subgroup(K, close(classes("ZII")))
    with pytest.raises(PreconditionError, match="different spaces"):
        check_privatized_subgroup(K, close(classes("Z1:I", d=3)))
