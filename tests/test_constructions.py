"""Private-subsystem construction pipelines and the worked demonstrations."""

import time

import numpy as np
import pytest
import paulipriv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipriv import (
    PauliClass,
    PreconditionError,
    apply_channel,
    channel_from_subgroup,
    check_privatized_algebra,
    check_privatized_subgroup,
    choi_equal,
    close,
    commutant,
    conditional_expectation,
    dense_paulis,
    diagonal_subgroup,
    encoded_subgroup,
    is_quasiorthogonal,
    kraus_mutually_commuting,
    parse_pauli,
    private_algebra_for_abelian,
    private_algebra_for_max_abelian,
    quasiorth_condition_suite,
    span_closure,
    structure_type,
    subgroup_algebra,
    two_qutrit_demo,
)
from paulipriv import Channel, NumericalAmbiguityError, OperatorAlgebra, annihilator, intersect
from paulipriv.algebra import _verify_block_form
from paulipriv.constructions import _frame_decomposition, phase_flip_demo
from paulipriv.cli import _algebra_from_arg
from paulipriv.groups import _symplectic_pairs, generating_set
from helpers import (
    random_abelian_subgroup,
    random_maximal_abelian,
    random_subgroup,
    table_symplectic_pairs,
    transvect,
)


def dense(s, d=2):
    return parse_pauli(s, d=d).to_dense()


def cls(s, d=2):
    return parse_pauli(s, d=d).pauli_class()


def encoded_diagonal(n):
    """The encoded subgroup of the diagonal group on n qubits."""
    return encoded_subgroup(diagonal_subgroup(2, n))


def oracle_pairs(n):
    """X_{2i} and Y_{2i-1} Y_{2i} for each encoded qubit i, as strings."""
    def put(sites):
        return "".join(sites.get(j, "I") for j in range(n))
    return [put(s) for i in range(n // 2)
            for s in ({2 * i + 1: "X"}, {2 * i: "Y", 2 * i + 1: "Y"})]


@pytest.mark.parametrize("n", range(2, 8))
def test_encoded_subgroup_of_diagonal_group_is_the_x_yy_pairs(n):
    oracle = close([cls(s) for s in oracle_pairs(n)], d=2, n=n)
    H = encoded_diagonal(n)
    assert len(H) == 4 ** (n // 2)
    assert np.array_equal(H.rows, oracle.rows)


def same_span(a, b):
    return a.dim == b.dim and all(b.contains(x) for x in a.basis)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encoded_algebra_matches_dense_span_closure(n):
    alg = subgroup_algebra(encoded_diagonal(n))
    dense_alg = span_closure([dense(s) for s in oracle_pairs(n)])
    assert alg.dim == 4 ** (n // 2)
    assert same_span(alg, dense_alg)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encoded_pair_commutation(n):
    # the Howell generators of H come in encoded pairs (Y_{2i-1} Y_{2i}, X_{2i})
    gens = [c.to_dense() for c in generating_set(encoded_diagonal(n))]
    assert len(gens) == 2 * (n // 2)
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            sign = -1 if i != j and i // 2 == j // 2 else 1
            assert np.abs(a @ b - sign * b @ a).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encoded_algebra_has_no_diagonal_elements(n):
    eye = np.eye(2**n) / np.sqrt(2**n)
    for b in subgroup_algebra(encoded_diagonal(n)).basis:
        traceless = b - np.vdot(eye, b) * eye
        if np.abs(traceless).max() < 1e-12:
            continue  # the identity direction
        off = traceless - np.diag(np.diag(traceless))
        assert np.abs(off).max() > 1e-8


def test_phase_flip_demo_is_an_exact_certificate(monkeypatch):
    # it decides the claim on a basis of the algebra and draws no random numbers
    monkeypatch.setattr(np.random, "default_rng", None)
    cert = phase_flip_demo()
    assert cert.verdict and cert.per_basis == (0.0,) * 4
    assert np.abs(cert.rho0 - np.eye(4) / 4).max() < 1e-15


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


def test_channel_from_nonabelian_subgroup():
    # <XI, ZI> twirls the first qubit: it keeps each class I P and sends the others to 0
    phi = channel_from_subgroup(close([cls("XI"), cls("ZI")]))
    assert len(phi.kraus) == 4 and not kraus_mutually_commuting(phi)
    for s in ("IX", "IZ", "XI", "YZ", "ZY"):
        kept = dense(s) if s[0] == "I" else 0
        assert np.abs(apply_channel(phi, dense(s)) - kept).max() < 1e-12


def test_dense_refusal_names_the_integer_route_which_answers():
    K = diagonal_subgroup(4, 5)  # 1024 Kraus operators on C^1024: refused
    H = close([cls("X1:I:I:I:I", 4)])
    with pytest.raises(PreconditionError, match="check_privatized_subgroup"):
        channel_from_subgroup(K)
    alg = subgroup_algebra(K)  # builds nothing; the first basis read is refused
    with pytest.raises(PreconditionError, match="check_privatized_subgroup"):
        alg.basis  # noqa: B018
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
    alg = subgroup_algebra(encoded_diagonal(n))
    st, _ = structure_type(alg)
    assert st.blocks == ((2 ** (n - n // 2), 2 ** (n // 2)),)
    assert commutant(alg).dim == 4 ** (n - n // 2)


def test_max_pipeline_preconditions():
    with pytest.raises(PreconditionError):
        private_algebra_for_max_abelian(close([cls("ZI")]))  # not maximal
    with pytest.raises(PreconditionError):
        private_algebra_for_max_abelian(close([cls("X1Z1:I", 3)]))  # not maximal
    with pytest.raises(PreconditionError, match="Abelian"):
        private_algebra_for_max_abelian(close([cls("XI"), cls("ZI")]))  # size 4, not Abelian
    alg, cert = private_algebra_for_max_abelian(diagonal_subgroup(3, 2))  # maximal, d = 3
    assert cert.verdict and structure_type(alg)[0].blocks == ((3, 3),)


def test_pipeline_refuses_a_group_above_the_len_limit_by_its_size_bound():
    n = 64  # |K| = 2^64 does not fit len(); nothing is enumerated
    zs = [PauliClass(2, n, (0,) * n, tuple(int(j == i) for j in range(n))) for i in range(n)]
    K = close(zs)
    assert K == K and K == close(zs[::-1])
    assert K != close(zs[1:])
    assert hash(K) == hash(close(zs[::-1]))
    for pipeline in (private_algebra_for_abelian, private_algebra_for_max_abelian):
        with pytest.raises(PreconditionError, match="the fixed state rho0"):
            pipeline(K)
    with pytest.raises(PreconditionError, match="check_privatized_subgroup"):
        channel_from_subgroup(K)
    alg = subgroup_algebra(K)
    assert alg.dim == K.order and alg.N == 2**n
    with pytest.raises(PreconditionError, match="check_privatized_subgroup"):
        alg.basis  # noqa: B018 - the first read applies the dense bound


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
    """(n, commuting independent qubit rows) for n <= 5: transvected Z's.

    n, k and the moves come from one drawn seed, as in :func:`qudit_abelian_case`.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 6))
    k = int(rng.integers(0, n + 1))
    rows = np.zeros((k, 2 * n), dtype=np.int64)
    rows[np.arange(k), n + np.arange(k)] = 1
    moves = [(rng.integers(0, 2, 2 * n), 1) for _ in range(rng.integers(0, 7))]
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


def test_two_qutrit_demo_group_through_the_pipeline():
    K = close([cls("X2Z1:I", 3), cls("I:X1Z1", 3)])
    alg, cert = private_algebra_for_max_abelian(K)
    assert cert.verdict and np.array_equal(cert.rho0, np.eye(9) / 9)
    assert structure_type(alg)[0].blocks == ((3, 3),)
    assert is_quasiorthogonal(subgroup_algebra(K), alg)


@st.composite
def qudit_abelian_case(draw):
    """(d, n, commuting independent rows) with d^n <= 64: transvected Z's over Z_d.

    The sizes and moves come from one drawn seed, so that derandomized examples
    spread over n, k and the moves instead of clustering at the smallest draws.
    """
    d = draw(st.sampled_from([2, 3, 4, 5, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, {2: 6, 3: 3, 4: 3, 5: 2, 6: 2}[d] + 1))
    k = int(rng.integers(0, n + 1))
    rows = np.zeros((k, 2 * n), dtype=np.int64)
    rows[np.arange(k), n + np.arange(k)] = 1
    moves = [(rng.integers(0, d, 2 * n), int(rng.integers(1, d)))
             for _ in range(rng.integers(0, 7))]
    return d, n, transvect(rows, moves, d).tolist()


# (x | z) rows of qubit stabilizers, k = 4 and 6, so two and three private qubits
FOUR_QUBIT_STABILIZERS = [  # ZZII, IZZI, IIZZ, XXXX
    [0, 0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 1, 1], [1, 1, 1, 1, 0, 0, 0, 0],
]
FIVE_QUBIT_CODE = [  # XZZXI and its cyclic shifts
    [1, 0, 0, 1, 0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
    [1, 0, 1, 0, 0, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1, 0, 0, 0, 1],
]
SIX_QUBIT_RING = [  # X_i Z_{i-1} Z_{i+1}, the graph state of a 6-cycle
    [int(j == i) for j in range(6)] + [int((j - i) % 6 in (1, 5)) for j in range(6)]
    for i in range(6)
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(qudit_abelian_case())
@example((6, 2, [[1, 0, 1, 0], [0, 1, 0, 1]]))  # XZ on each site: one private qudit
@example((4, 1, [[2, 1]]))  # <X^2 Z> over Z_4: Howell rows (2, 1), (0, 2), refused
@example((2, 4, FOUR_QUBIT_STABILIZERS))
@example((2, 5, FIVE_QUBIT_CODE))
@example((2, 6, SIX_QUBIT_RING))
def test_property_qudit_pipeline_against_dense_oracle(case):
    d, n, rows = case
    K = close([PauliClass(d, n, r[:n], r[n:]) for r in rows], d=d, n=n)
    if any(h[c] != 1 for h, c in zip(K._gens, K._pivots)):
        with pytest.raises(PreconditionError, match="no symplectic partner"):
            private_algebra_for_abelian(K)
        return
    N, m = d**n, len(rows) // 2
    alg, cert = private_algebra_for_abelian(K)
    assert same_span(alg, span_closure(alg.basis))  # closed *-algebra
    oracle = check_privatized_algebra(channel_from_subgroup(K), alg)
    assert cert.verdict and oracle.verdict
    assert np.abs(np.subtract(oracle.per_basis, cert.per_basis)).max() < 1e-12
    assert np.abs(oracle.rho0 - cert.rho0).max() < 1e-12
    assert structure_type(alg)[0].blocks == ((N // d**m, d**m),)
    assert is_quasiorthogonal(subgroup_algebra(K), alg)


# (d, n, k) of pipeline groups: k odd and even, k <= 1 included, d^n <= 64
FRAME_CASES = [(2, 1, 0), (2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 4), (2, 5, 2), (2, 5, 5),
               (3, 1, 1), (3, 2, 2), (3, 3, 3), (4, 1, 1), (4, 2, 2), (4, 3, 3), (5, 1, 1),
               (5, 2, 2)]


def pipeline_group(d, n, k):
    """k transvected Z's on n sites over Z_d, from the first seed whose rows have unit pivots."""
    for seed in range(100):
        rng = np.random.default_rng([d, n, k, seed])
        rows = np.zeros((k, 2 * n), dtype=np.int64)
        rows[np.arange(k), n + np.arange(k)] = 1
        moves = [(rng.integers(0, d, 2 * n), int(rng.integers(1, d))) for _ in range(4)]
        rows = transvect(rows, moves, d).tolist()
        K = close([PauliClass(d, n, r[:n], r[n:]) for r in rows], d=d, n=n)
        if all(h[c] == 1 for h, c in zip(K._gens, K._pivots)):
            return K
    raise AssertionError(f"no group with unit pivots for {(d, n, k)}")


@pytest.mark.parametrize("d,n,k", FRAME_CASES)
def test_frame_decomposition_serves_every_dense_consumer(d, n, k):
    K = pipeline_group(d, n, k)
    alg, cert = private_algebra_for_abelian(K)
    N, q = d**n, d ** (k // 2)
    st, u = structure_type(alg)
    assert cert.verdict and st.blocks == ((N // q, q),)
    _verify_block_form(u, alg.basis, st.blocks)  # every basis element, not only the generators
    assert alg.dim * commutant(alg).dim == N**2
    E = conditional_expectation(alg)
    for c in generating_set(alg.subgroup):
        g = c.to_dense()
        assert np.abs(apply_channel(E, g) - g).max() < 1e-9
    report = quasiorth_condition_suite(subgroup_algebra(K), alg)
    assert report.consistent and report.verdict
    assert structure_type(alg)[1] is u
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def refuse_dense_decomposition(monkeypatch):
    import paulipriv.algebra as algebra_module

    def refuse(A, rng):
        raise AssertionError("a dense decomposition was drawn")

    monkeypatch.setattr(algebra_module, "_decompose", refuse)


def pipeline_op(d, n, k):
    """The benchmark's certify_pipeline op on pipeline_group(d, n, k): close, the
    pipeline, structure_type and is_quasiorthogonal(subgroup_algebra(K), alg)."""
    K = close(generating_set(pipeline_group(d, n, k)), d=d, n=n)
    pipeline = private_algebra_for_max_abelian if k == n else private_algebra_for_abelian
    alg, cert = pipeline(K)
    st, _ = structure_type(alg)
    assert cert.verdict and st.blocks == ((d**n // d ** (k // 2), d ** (k // 2)),)
    assert is_quasiorthogonal(subgroup_algebra(K), alg)


def test_pipeline_op_draws_no_dense_decomposition_and_no_group_stack(monkeypatch):
    import paulipriv.constructions as constructions_module

    stacks = []

    def counting(d, x, z, phases=None):
        stacks.append(len(x))
        return dense_paulis(d, x, z, phases)

    refuse_dense_decomposition(monkeypatch)
    monkeypatch.setattr(constructions_module, "dense_paulis", counting)
    for case in FRAME_CASES:
        pipeline_op(*case)
    # one dense stack per case: the 2m generators of the frame, never H or K
    assert stacks == [2 * (k // 2) for _, _, k in FRAME_CASES]


def test_pipeline_op_runs_no_eigendecomposition(monkeypatch):
    # the frame reads V0 off the columns of its projector
    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for case in FRAME_CASES:
        pipeline_op(*case)


def test_frame_refuses_pairs_that_do_not_pair():
    H = encoded_diagonal(4)
    a, b = _symplectic_pairs(H)
    with pytest.raises(NumericalAmbiguityError, match="unitarity"):  # b = a: each B^tau V0 is V0
        _frame_decomposition(H, a, a)
    with pytest.raises(NumericalAmbiguityError, match="has 8 orbit columns, not N/q = 4"):
        _frame_decomposition(H, a[[0, 0]], b)  # a_2 = a_1 fixes a space of rank N/2


def test_pipeline_at_nine_qubits_reads_no_dense_basis():
    # |H| N^2 = 256 x 512 x 512 = 2^26 entries, above the dense bound of 2^24
    alg, cert = private_algebra_for_max_abelian(diagonal_subgroup(2, 9))
    assert cert.verdict and len(cert.per_basis) == alg.dim == 256
    assert structure_type(alg)[0].blocks == ((32, 16),)
    with pytest.raises(PreconditionError, match="check_privatized_subgroup"):
        alg.basis  # noqa: B018 - the first read applies the dense bound


def test_integer_quasiorthogonality_builds_no_dense_stack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense stack was built")

    monkeypatch.setattr(paulipriv.pauli, "dense_paulis", refuse)
    monkeypatch.setattr(paulipriv.constructions, "dense_paulis", refuse)
    K = diagonal_subgroup(2, 9)  # 512 x 512 x 512 entries, above the dense bound
    alg = subgroup_algebra(encoded_subgroup(K))
    assert is_quasiorthogonal(subgroup_algebra(K), alg)
    K = diagonal_subgroup(2, 64)
    assert is_quasiorthogonal(subgroup_algebra(K), subgroup_algebra(encoded_subgroup(K)))
    assert not is_quasiorthogonal(subgroup_algebra(K), subgroup_algebra(K))


def test_frame_is_taken_exactly_when_the_group_pairs_up(monkeypatch):
    # <IX, YY> is M_2 (x) I_2 with no centre: the frame, read off the group itself
    H = close([cls("IX"), cls("YY")])
    a, b = _symplectic_pairs(H)
    assert (len(a), len(b)) == (1, 1)
    with monkeypatch.context() as m:
        refuse_dense_decomposition(m)
        assert structure_type(subgroup_algebra(H))[0].blocks == ((2, 2),)
    # with Z_1 adjoined H has the centre {II, ZX}: M_2 + M_2, the generic route
    H = close([cls("IX"), cls("YY"), cls("ZI")])
    assert _symplectic_pairs(H) is None
    assert structure_type(subgroup_algebra(H))[0].blocks == ((1, 2), (1, 2))
    # Z_3^2 on site 1 and Z_2^2 on site 2 over Z_6: no centre and free, but no two
    # Howell rows pair to a unit, so the generic route decides
    H = close([cls(t, 6) for t in ("X2:I", "Z2:I", "I:X3", "I:Z3")])
    assert _symplectic_pairs(H) is None and intersect(H, annihilator(H)).order == 1
    assert structure_type(subgroup_algebra(H))[0].blocks == ((6, 6),)


def symplectic_group(d, n, m):
    """<X_i, Z_i : i <= m> on n sites over Z_d moved by transvections: no centre, free."""
    rng = np.random.default_rng([d, n, m])
    rows = np.zeros((2 * m, 2 * n), dtype=np.int64)
    rows[np.arange(m), np.arange(m)] = 1
    rows[m + np.arange(m), n + np.arange(m)] = 1
    moves = [(rng.integers(0, d, 2 * n), int(rng.integers(1, d))) for _ in range(6)]
    rows = transvect(rows, moves, d).tolist()
    return close([PauliClass(d, n, r[:n], r[n:]) for r in rows], d=d, n=n)


# (d, n, m) for every d in 2..12, d^n <= 64, m = 0 and pairs up to q = d^m <= 16
SYMPLECTIC_CASES = [(2, 6, 2), (2, 5, 4), (2, 3, 3), (2, 1, 0), (3, 3, 1), (3, 2, 2), (4, 3, 1),
                    (4, 2, 2), (5, 2, 1), (6, 2, 1), (7, 2, 1), (8, 2, 1), (8, 1, 1), (9, 1, 1),
                    (10, 1, 1), (11, 1, 1), (12, 1, 1), (12, 1, 0)]


@pytest.mark.parametrize("d,n,m", SYMPLECTIC_CASES)
def test_frame_route_agrees_with_the_generic_route(monkeypatch, d, n, m):
    H = symplectic_group(d, n, m)
    N, q = d**n, d**m
    assert H.order == q * q and intersect(H, annihilator(H)).order == 1
    alg = subgroup_algebra(H)
    with monkeypatch.context() as patched:
        refuse_dense_decomposition(patched)
        st, _ = structure_type(alg)
        C, E = commutant(alg), conditional_expectation(alg)
    dense = OperatorAlgebra(alg.basis)  # the generic route: the same basis, no subgroup
    assert st == structure_type(dense)[0] and st.blocks == ((N // q, q),)
    assert same_span(C, commutant(dense))
    E_dense = conditional_expectation(dense)
    if N <= 32:
        assert choi_equal(E, E_dense)
    else:  # the Choi matrices would hold 2 N^4 entries; compare on random inputs
        x = np.random.default_rng(N).standard_normal((3, N, N)).astype(complex)
        for y in x:
            assert np.abs(apply_channel(E, y) - apply_channel(E_dense, y)).max() < 1e-9


def listed(pairs):
    return None if pairs is None else [p.tolist() for p in pairs]


def test_symplectic_pairs_are_the_table_oracle_pairs():
    groups = [symplectic_group(*case) for case in SYMPLECTIC_CASES]
    groups += [encoded_subgroup(pipeline_group(*case)) for case in FRAME_CASES]
    for d in range(2, 13):
        rng = np.random.default_rng([d, 26])
        groups += [random_subgroup(rng, d, int(rng.integers(1, 4))) for _ in range(46)]
    assert len(groups) >= 500 + len(SYMPLECTIC_CASES) + len(FRAME_CASES)
    paired = 0
    for H in groups:
        pairs = listed(_symplectic_pairs(H))
        assert pairs == listed(table_symplectic_pairs(H))
        paired += pairs is not None
    assert len(SYMPLECTIC_CASES) + len(FRAME_CASES) < paired < len(groups)


def test_a_group_with_a_centre_keeps_the_generic_route_bit_for_bit():
    groups = [close([cls(g) for g in gens])
              for gens in (("ZI", "IX", "IZ"), ("ZII", "IZI", "IIZ"), ("XX", "ZZ"))]
    groups += [diagonal_subgroup(3, 2), random_maximal_abelian(np.random.default_rng(24), 2, 3)]
    for H in groups:
        assert _symplectic_pairs(H) is None
        st, u = structure_type(subgroup_algebra(H))
        # the generic route is the draw from the same fixed seed on the same basis
        st_dense, u_dense = structure_type(OperatorAlgebra(subgroup_algebra(H).basis))
        assert st == st_dense and np.array_equal(u, u_dense)


@pytest.mark.parametrize("d,n,k", FRAME_CASES)
def test_pipeline_algebra_is_the_span_of_the_encoded_subgroup(d, n, k):
    K = pipeline_group(d, n, k)
    alg, _ = private_algebra_for_abelian(K)
    H = encoded_subgroup(K)
    plain = subgroup_algebra(H)
    assert type(alg) is type(plain) and np.array_equal(alg.subgroup._gens, H._gens)
    assert alg.subgroup._pivots == H._pivots
    assert np.array_equal(structure_type(alg)[1], structure_type(plain)[1])


def test_structure_type_refuses_above_the_dense_bound_before_pairing(monkeypatch):
    def refuse(H):
        raise AssertionError("symplectic Gram-Schmidt ran before the size bound")

    monkeypatch.setattr(paulipriv.constructions, "_symplectic_pairs", refuse)
    n = 64  # every route builds a 2^64 x 2^64 unitary
    sites = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    full = close([PauliClass(2, n, s, (0,) * n) for s in sites]
                 + [PauliClass(2, n, (0,) * n, s) for s in sites])
    for H in (encoded_diagonal(n), full):
        alg = subgroup_algebra(H)
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="block decomposition's unitary"):
            structure_type(alg)
        assert time.perf_counter() - start < 0.1


def test_frame_refuses_a_dense_stack_above_the_bound_at_once():
    # n = 11: 10 generators of 2048 x 2048 entries, above the bound of 2^24
    H = encoded_subgroup(diagonal_subgroup(2, 11))
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="symplectic frame's generators need 10 x 2048"):
        structure_type(subgroup_algebra(H))
    assert time.perf_counter() - start < 0.1
