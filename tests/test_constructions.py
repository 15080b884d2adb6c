"""Private-subsystem construction pipelines and the worked demonstrations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulipriv import (
    PauliClass,
    PreconditionError,
    channel_from_subgroup,
    check_privatized_algebra,
    check_privatized_subgroup,
    choi_equal,
    close,
    commutant,
    diagonal_subgroup,
    encoded_qubit_generators,
    full_matrix_algebra,
    is_quasiorthogonal,
    kraus_mutually_commuting,
    max_private_qubits,
    parse_pauli,
    private_algebra_for_abelian,
    private_algebra_for_max_abelian,
    quasiorthogonal_to_diagonal,
    scalar_algebra,
    span_closure,
    structure_type,
    subgroup_algebra,
    two_qutrit_demo,
    diagonal_algebra,
)
from paulipriv import Channel
from paulipriv.cli import _algebra_from_arg
from helpers import random_abelian_subgroup, random_maximal_abelian, transvect


def dense(s, d=2):
    return parse_pauli(s, d=d).to_dense()


def cls(s, d=2):
    return parse_pauli(s, d=d).pauli_class()


def test_encoded_generators_n2():
    enc = encoded_qubit_generators(2)
    assert len(enc.pairs) == 1
    xhat, yhat = enc.pairs[0]
    assert np.abs(xhat.to_dense() - dense("IX")).max() < 1e-14
    assert np.abs(yhat.to_dense() - dense("YY")).max() < 1e-14


def test_encoded_generators_n3():
    enc = encoded_qubit_generators(3)
    assert len(enc.pairs) == 1
    xhat, yhat = enc.pairs[0]
    assert xhat.to_string() == "IXI"
    assert yhat.to_string() == "YYI"


def test_encoded_generators_n4_second_pair():
    enc = encoded_qubit_generators(4)
    assert len(enc.pairs) == 2
    xhat, yhat = enc.pairs[1]
    assert xhat.to_string() == "IIIX"
    assert yhat.to_string() == "IIYY"


def same_span(a, b):
    return a.dim == b.dim and all(b.contains(x) for x in a.basis)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encoded_algebra_matches_dense_span_closure(n):
    enc = encoded_qubit_generators(n)
    dense_alg = span_closure([p.to_dense() for pair in enc.pairs for p in pair])
    assert enc.algebra.dim == 4 ** (n // 2)
    assert same_span(enc.algebra, dense_alg)


@pytest.mark.parametrize("d, text", [
    (2, "IX,YY"),
    (2, "XI,ZI,IZ"),
    (3, "X2:X1,X1Z2:Z1"),  # non-Abelian: the two-qutrit private algebra
    (3, "X1:I,Z1:I,I:X1Z2"),
])
def test_cli_pauli_list_algebra_matches_dense_span_closure(d, text):
    alg = _algebra_from_arg(text, d, None)
    dense_alg = span_closure([dense(t, d) for t in text.split(",")])
    assert same_span(alg, dense_alg)


def test_encoded_generators_rejects_small_n():
    with pytest.raises(PreconditionError):
        encoded_qubit_generators(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encoded_pair_commutation(n):
    enc = encoded_qubit_generators(n)
    for i, (xi, yi) in enumerate(enc.pairs):
        dx, dy = xi.to_dense(), yi.to_dense()
        assert np.abs(dx @ dy + dy @ dx).max() < 1e-12  # same pair anticommutes
        for j, (xj, yj) in enumerate(enc.pairs):
            if i == j:
                continue
            for a in (dx, dy):
                for b in (xj.to_dense(), yj.to_dense()):
                    assert np.abs(a @ b - b @ a).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encoded_algebra_has_no_diagonal_elements(n):
    enc = encoded_qubit_generators(n)
    eye = np.eye(2**n) / np.sqrt(2**n)
    for b in enc.algebra.basis:
        traceless = b - np.vdot(eye, b) * eye
        if np.abs(traceless).max() < 1e-12:
            continue  # the identity direction
        off = traceless - np.diag(np.diag(traceless))
        assert np.abs(off).max() > 1e-8


def test_channel_from_phase_flip_group():
    K = close([cls("ZI"), cls("IZ")])
    phi = channel_from_subgroup(K)
    expected = sorted(
        (dense(s) / 2 for s in ("II", "ZI", "IZ", "ZZ")),
        key=lambda m: tuple(np.round(np.diag(m).real, 6)),
    )
    got = sorted(
        (k for k in phi.kraus), key=lambda m: tuple(np.round(np.diag(m).real, 6))
    )
    for a, b in zip(expected, got):
        assert np.abs(a - b).max() < 1e-14


def test_channel_from_trivial_group_is_identity():
    phi = channel_from_subgroup(close((), d=2, n=1))
    assert choi_equal(phi, Channel.identity(2))


def test_channel_from_qutrit_group():
    K = close([cls("X2Z1:I", 3), cls("I:X1Z1", 3)])
    phi = channel_from_subgroup(K)
    assert len(phi.kraus) == 9 and phi.N == 9
    for k in phi.kraus:
        assert np.abs(k @ k.conj().T * 9 - np.eye(9)).max() < 1e-12


def test_channel_rejects_nonabelian():
    with pytest.raises(PreconditionError) as err:
        channel_from_subgroup(close([cls("XI"), cls("ZI")]))
    assert "Abelian" in str(err.value)


def test_dense_refusal_names_the_integer_route_which_answers():
    K = diagonal_subgroup(4, 5)  # 1024 Kraus operators on C^1024: refused
    H = close([cls("X1:I:I:I:I", 4)])
    for build in (channel_from_subgroup, subgroup_algebra):
        with pytest.raises(PreconditionError, match="check_privatized_subgroup"):
            build(K)
    cert = check_privatized_subgroup(K, H)
    assert cert.verdict and cert.per_basis == (0.0,) * 4
    assert not check_privatized_subgroup(K, close([cls("Z2:I:I:I:I", 4)])).verdict


def test_max_pipeline_diagonal_group_reproduces_motivating_algebra():
    alg, cert = private_algebra_for_max_abelian(diagonal_subgroup(2, 2))
    assert cert.verdict
    assert np.abs(cert.rho0 - np.eye(4) / 4).max() < 1e-12
    ref = span_closure([dense(s) for s in ("II", "IX", "YY", "YZ")])
    assert all(ref.contains(b) for b in alg.basis)
    assert all(alg.contains(b) for b in ref.basis)


def test_max_pipeline_x_group():
    alg, cert = private_algebra_for_max_abelian(close([cls("XI"), cls("IX")]))
    assert cert.verdict and cert.max_deviation <= cert.tolerance


def test_max_pipeline_structure_n5():
    rng = np.random.default_rng(42)
    G = random_maximal_abelian(rng, 2, 5)
    alg, cert = private_algebra_for_max_abelian(G)
    assert cert.verdict
    st, _ = structure_type(alg)
    assert st.blocks == ((8, 4),)  # two encoded qubits


@pytest.mark.parametrize("n", [6, 7])
def test_encoded_algebra_blocks_and_commutant_at_n6_n7(n):
    alg = encoded_qubit_generators(n).algebra
    st, _ = structure_type(alg)
    assert st.blocks == ((2 ** (n - n // 2), 2 ** (n // 2)),)
    assert commutant(alg).dim == 4 ** (n - n // 2)


def test_max_pipeline_preconditions():
    with pytest.raises(PreconditionError):
        private_algebra_for_max_abelian(close([cls("ZI")]))  # not maximal
    with pytest.raises(PreconditionError):
        private_algebra_for_max_abelian(close([cls("X1Z1:I", 3)]))  # d != 2


def test_general_pipeline_k1_scalar():
    alg, cert = private_algebra_for_abelian(close([cls("ZI")]))
    assert alg.dim == 1 and cert.verdict


def test_general_pipeline_k2_in_n4():
    K = close([cls("ZIII"), cls("IZII")])
    alg, cert = private_algebra_for_abelian(K)
    assert cert.verdict
    st, _ = structure_type(alg)
    assert st.blocks == ((8, 2),)  # one certified qubit


def test_general_pipeline_matches_maximal_when_k_equals_n():
    G = diagonal_subgroup(2, 3)
    alg1, cert1 = private_algebra_for_abelian(G)
    alg2, cert2 = private_algebra_for_max_abelian(G)
    assert cert1.verdict and cert2.verdict
    assert np.abs(alg1.basis - alg2.basis).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_pipeline_property_sweep(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        G = random_maximal_abelian(rng, 2, n)
        alg, cert = private_algebra_for_max_abelian(G)
        assert cert.verdict and cert.max_deviation <= 1e-8
        assert is_quasiorthogonal(subgroup_algebra(G), alg)
        st, _ = structure_type(alg)
        assert st.blocks == ((2 ** (n - n // 2), 2 ** (n // 2)),)
        assert kraus_mutually_commuting(channel_from_subgroup(G))


def test_quasiorthogonal_to_diagonal():
    motivating = span_closure([dense(s) for s in ("II", "IX", "YY", "YZ")])
    assert quasiorthogonal_to_diagonal(motivating)
    assert not quasiorthogonal_to_diagonal(full_matrix_algebra(4))
    assert quasiorthogonal_to_diagonal(scalar_algebra(4))
    # the diagonal algebra itself: the abstract block condition holds but the
    # fixed embedding is not quasiorthogonal; the direct verdict wins
    assert not quasiorthogonal_to_diagonal(diagonal_algebra(4))


def test_max_private_qubits():
    assert max_private_qubits(2) == 1
    assert max_private_qubits(1) == 0
    assert max_private_qubits(5) == 2
    with pytest.raises(PreconditionError):
        max_private_qubits(0)


def test_two_qutrit_demo_passes():
    report = two_qutrit_demo()
    assert report.passed
    assert len(report.checks) == 5
    assert report.block_scale == pytest.approx(1 / np.sqrt(3))


def test_two_qutrit_demo_perturbed_fails_named():
    report = two_qutrit_demo(perturb=True)
    assert not report.passed
    assert report.failed_names == ("block_unitary_conjugation_identities",)
    failing = [c for c in report.checks if not c.passed][0]
    assert "conjugation_of_embedded_X" in failing.detail


def test_two_qutrit_kraus_commute_in_isolation():
    K = close([cls("X2Z1:I", 3), cls("I:X1Z1", 3)])
    assert kraus_mutually_commuting(channel_from_subgroup(K))


def test_abelian_channels_always_commute():
    rng = np.random.default_rng(9)
    for _ in range(10):
        K = random_abelian_subgroup(rng, 2, 3)
        assert kraus_mutually_commuting(channel_from_subgroup(K))


@st.composite
def qubit_abelian_case(draw):
    """(n, commuting independent qubit rows) for n <= 5: transvected Z's."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    rows = np.zeros((k, 2 * n), dtype=np.int64)
    rows[np.arange(k), n + np.arange(k)] = 1
    vec = st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n)
    moves = draw(st.lists(st.tuples(vec, st.just(1)), max_size=6))
    return n, transvect(rows, moves, 2).tolist()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(qubit_abelian_case())
def test_property_pipeline_against_dense_oracle(case):
    n, rows = case
    K = close([PauliClass(2, n, r[:n], r[n:]) for r in rows], d=2, n=n)
    k = len(rows)
    alg, cert = private_algebra_for_abelian(K)
    assert alg.dim == 4 ** (k // 2)
    assert same_span(alg, span_closure(alg.basis))  # closed *-algebra
    assert cert.verdict
    assert np.abs(cert.rho0 - np.eye(2**n) / 2**n).max() < 1e-12
    oracle = check_privatized_algebra(channel_from_subgroup(K), alg)
    assert oracle.verdict == cert.verdict
    assert np.abs(np.subtract(oracle.per_basis, cert.per_basis)).max() < 1e-12
    assert np.abs(oracle.rho0 - cert.rho0).max() < 1e-12
    assert is_quasiorthogonal(subgroup_algebra(K), alg)
