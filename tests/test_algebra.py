"""Dense *-algebra computations against explicit small oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipriv import (
    Channel,
    NumericalAmbiguityError,
    OperatorAlgebra,
    PreconditionError,
    apply_channel,
    choi_equal,
    choi_matrix,
    commutant,
    conditional_expectation,
    diagonal_algebra,
    full_matrix_algebra,
    parse_pauli,
    quasiorth_condition_suite,
    scalar_algebra,
    span_closure,
    structure_type,
    subgroup_algebra,
)
from paulipriv import character_matrix, check_privatized_subgroup, close, diagonal_subgroup
from paulipriv.algebra import _append_independent, _verify_block_form, superoperator
from helpers import (
    X2,
    gram_commutant,
    haar_unitary,
    planted_basis,
    product_closure,
    random_class,
    random_density,
    random_subgroup,
)


def dense(s, d=2):
    return parse_pauli(s, d=d).to_dense()


def motivating_algebra():
    return span_closure([dense(s) for s in ("II", "IX", "YY", "YZ")])


def phase_flip_channel():
    return Channel(np.array([dense(s) / 2 for s in ("II", "ZI", "IZ", "ZZ")]))


def test_span_closure_scalars():
    alg = span_closure([np.eye(3)])
    assert alg.dim == 1
    alg.verify()


def test_span_closure_motivating_dimension():
    alg = motivating_algebra()
    assert alg.dim == 4
    alg.verify()


def test_span_closure_single_x_rank_oracle():
    alg = span_closure([X2])
    # brute-force span rank of {I, X, X^2, ...}
    rows = np.array([np.eye(2).flatten(), X2.flatten(), (X2 @ X2).flatten()])
    assert alg.dim == np.linalg.matrix_rank(rows)
    assert alg.dim == 2


def test_span_closure_generates_products():
    alg = span_closure([dense("XI"), dense("ZI")])
    assert alg.dim == 4  # I, X, Z and XZ on the first site
    assert alg.contains(dense("XI") @ dense("ZI"))


def test_append_independent_skips_roundoff_without_svd(monkeypatch):
    # rows already in the span leave pure roundoff after projection, on which
    # LAPACK's SVD may fail to converge; such a block must never reach it
    rng = np.random.default_rng(105)
    stack = _append_independent(
        None, rng.standard_normal((6, 36)) + 1j * rng.standard_normal((6, 36))
    )
    again = stack + 1e-16 * rng.standard_normal(stack.shape)

    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert np.array_equal(_append_independent(stack, again), stack)


def test_commutant_of_diagonal_is_diagonal():
    c = commutant(diagonal_algebra(4))
    assert c.dim == 4
    for b in c.basis:
        assert np.abs(b - np.diag(np.diag(b))).max() < 1e-10


def test_commutant_of_full_is_scalars():
    c = commutant(full_matrix_algebra(4))
    assert c.dim == 1
    b = c.basis[0]
    assert np.abs(b - b[0, 0] * np.eye(4)).max() < 1e-10


def test_commutant_of_first_qubit_algebra():
    alg = span_closure([dense(s) for s in ("II", "XI", "YI", "ZI")])
    c = commutant(alg)
    assert c.dim == 4
    # every commutant element has the form I (x) m
    for b in c.basis:
        t = b.reshape(2, 2, 2, 2)
        m = (t[0, :, 0, :] + t[1, :, 1, :]) / 2
        assert np.abs(b - np.kron(np.eye(2), m)).max() < 1e-9


def test_commutant_dimension_identity_exhaustive_n1():
    # all five subgroups of the single-qubit class group
    from paulipriv import all_classes

    classes = all_classes(2, 1)
    seen = set()
    for i in range(4):
        for j in range(4):
            K = close([classes[i], classes[j]])
            key = tuple(sorted((c.x, c.z) for c in K))
            if key in seen:
                continue
            seen.add(key)
            alg = span_closure([c.to_dense() for c in K])
            assert alg.dim * commutant(alg).dim == 4
    assert len(seen) == 5


def test_structure_type_diagonal():
    st, _ = structure_type(diagonal_algebra(4))
    assert st.blocks == ((1, 1),) * 4


def test_structure_type_motivating():
    st, u = structure_type(motivating_algebra())
    assert st.blocks == ((2, 2),)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10


def test_structure_type_full():
    st, _ = structure_type(full_matrix_algebra(3))
    assert st.blocks == ((1, 3),)


def test_structure_type_qutrit_pair_algebra():
    g1 = parse_pauli("X2:X1", d=3).to_dense()
    g2 = parse_pauli("X1Z2:Z1", d=3).to_dense()
    st, _ = structure_type(span_closure([g1, g2]))
    assert st.blocks == ((3, 3),)


def test_structure_type_deterministic():
    alg = motivating_algebra()
    st1, u1 = structure_type(alg)
    st2, u2 = structure_type(alg)
    assert st1.blocks == st2.blocks
    assert np.array_equal(u1, u2)


def test_structure_block_form_holds():
    alg = motivating_algebra()
    st, u = structure_type(alg)
    (k, q), = st.blocks
    for a in alg.basis:
        m = (u @ a @ u.conj().T).reshape(k, q, k, q)
        avg = np.einsum("iaib->ab", m) / k
        assert np.abs(m - np.einsum("ij,ab->iajb", np.eye(k), avg)).max() < 1e-8


def test_commutative_pauli_algebras_flat_structure():
    rng = np.random.default_rng(8)
    found = 0
    while found < 10:
        K = random_subgroup(rng, 2, 2)
        from paulipriv import is_abelian

        if not is_abelian(K):
            continue
        found += 1
        st, _ = structure_type(subgroup_algebra(K))
        ks = {k for k, _ in st.blocks}
        assert all(q == 1 for _, q in st.blocks)
        assert len(ks) == 1  # equal multiplicities


def _block_form_deviation(u, basis, blocks):
    """Largest entry of u a u^dag outside sum_i I_k (x) M_q, over the basis."""
    dev = 0.0
    for a in basis:
        m = u @ a @ u.conj().T
        recon = np.zeros_like(m)
        offset = 0
        for k, q in blocks:
            blk = m[offset : offset + k * q, offset : offset + k * q].reshape(k, q, k, q)
            avg = np.einsum("iaib->ab", blk) / k
            recon[offset : offset + k * q, offset : offset + k * q] = np.kron(np.eye(k), avg)
            offset += k * q
        dev = max(dev, np.abs(m - recon).max())
    return dev


PLANTED_BLOCKS = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4
).filter(lambda blocks: sum(k * q for k, q in blocks) <= 16)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(blocks=PLANTED_BLOCKS, seed=st.integers(0, 2**32 - 1))
@example(blocks=[(2, 2), (2, 2), (1, 3)], seed=0)  # a repeated (k, q) pair
@example(blocks=[(3, 1), (1, 1), (2, 1)], seed=1)  # q = 1: commutative
@example(blocks=[(1, 3), (1, 2), (1, 1)], seed=2)  # k = 1: multiplicity free
@example(blocks=[(4, 4)], seed=3)  # a single block: a factor
def test_property_planted_structure_and_commutant_against_gram_oracle(blocks, seed):
    N = sum(k * q for k, q in blocks)
    alg = OperatorAlgebra(planted_basis(blocks, haar_unitary(np.random.default_rng(seed), N)))
    st_, u = structure_type(alg)
    assert st_.blocks == tuple(sorted(blocks, key=lambda b: (b[1], b[0])))
    assert np.abs(u @ u.conj().T - np.eye(N)).max() < 1e-10
    assert _block_form_deviation(u, alg.basis, st_.blocks) < 1e-8

    comm = commutant(alg)
    ref = gram_commutant(alg.basis)
    proj, ref_proj = comm.rows().conj().T @ comm.rows(), ref.conj().T @ ref
    assert np.abs(proj - ref_proj).max() <= 1e-8
    assert alg.dim * comm.dim == sum(q * q for _, q in blocks) * sum(k * k for k, _ in blocks)


def closure_case(kind, seed, count, shape):
    """``count`` generators of one kind: planted blocks, a Pauli list or non-normal.

    ``shape`` is the block list for "planted", (d, n) for "pauli" and N for
    "nonnormal" (sparse strictly upper triangular, so nilpotent and never
    normal, under a Haar unitary).
    """
    rng = np.random.default_rng(seed)
    if kind == "planted":
        N = sum(k * q for k, q in shape)
        basis = planted_basis(shape, haar_unitary(rng, N))
        coeffs = rng.standard_normal((count, len(basis))) + 1j * rng.standard_normal(
            (count, len(basis))
        )
        return list(np.tensordot(coeffs, basis, axes=1))
    if kind == "pauli":
        return [random_class(rng, *shape).to_dense() for _ in range(count)]
    u = haar_unitary(rng, shape)
    gens = []
    for _ in range(count):
        t = rng.standard_normal((shape, shape)) + 1j * rng.standard_normal((shape, shape))
        t[rng.random((shape, shape)) < 0.6] = 0
        gens.append(u @ np.triu(t, 1) @ u.conj().T)
    return gens


@st.composite
def closure_generators(draw):
    kind = draw(st.sampled_from(["planted", "pauli", "nonnormal"]))
    shape = draw(
        {
            "planted": PLANTED_BLOCKS,
            "pauli": st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]),
            "nonnormal": st.integers(2, 8),
        }[kind]
    )
    count = draw(st.integers(1, 5 if kind == "pauli" else 3))
    return closure_case(kind, draw(st.integers(0, 2**32 - 1)), count, shape)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(closure_generators())
@example(closure_case("pauli", 0, 8, (2, 4)))  # a 128-dimensional algebra in M_16
@example(closure_case("pauli", 1, 2, (3, 2)))
@example(closure_case("planted", 2, 1, [(1, 4), (3, 2), (2, 1)]))
@example(closure_case("planted", 3, 2, [(4, 4)]))
@example(closure_case("nonnormal", 4, 2, 8))
def test_property_spinning_matches_product_closure(gens):
    alg = span_closure(gens)
    ref = product_closure(gens)
    assert alg.dim == len(ref)
    proj = alg.rows().conj().T @ alg.rows()
    assert np.abs(proj - ref.conj().T @ ref).max() <= 1e-8


def test_span_closure_needs_adjoint_multipliers():
    # left products of E_12 alone stop at span{I, E_12}; E_21 = E_12^dag is needed
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    alg = span_closure([e12])
    assert alg.dim == 4
    alg.verify()


def closure_with_candidate_rows(monkeypatch, gens):
    """span_closure(gens) and the number of product rows it offered _append_independent."""
    import paulipriv.algebra as algebra_module

    real = algebra_module._append_independent
    rows = []

    def counting(stack, cands):
        if stack is not None:  # products, not the initial span{I, gens}
            rows.append(len(cands))
        return real(stack, cands)

    with monkeypatch.context() as m:
        m.setattr(algebra_module, "_append_independent", counting)
        return span_closure(gens), sum(rows)


def test_span_closure_candidates_per_element(monkeypatch):
    # spinning multiplies each element by at most 2 #gens operators: the generators
    # and their adjoints, with no identity direction
    rng = np.random.default_rng(107)
    basis = planted_basis(((2, 3), (3, 2)), haar_unitary(rng, 12))
    cases = [
        [np.array([[0, 1], [0, 0]], dtype=complex)],
        [dense(s) for s in ("II", "IX", "YY", "YZ")],
        [dense("XIZ"), dense("ZYI"), dense("IXX")],
        list(np.tensordot(rng.standard_normal((2, len(basis))), basis, axes=1)),
    ]
    for gens in cases:
        alg, rows = closure_with_candidate_rows(monkeypatch, gens)
        assert rows <= 2 * len(gens) * alg.dim


def test_span_closure_takes_a_hermitian_generator_once(monkeypatch):
    # a generator equal to its adjoint (a Pauli, a delta projector, x + x^dag) is one
    # multiplier, not two: #gens candidate rows per element, and the same algebra
    rng = np.random.default_rng(108)
    basis = planted_basis(((2, 3), (1, 2)), haar_unitary(rng, 8))
    x = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
    cases = [
        [dense(s) for s in ("ZII", "IZI", "IIZ")],
        [dense(s) for s in ("ZII", "IZI", "IIZ", "XXI", "IXX")],
        [dense(s) for s in ("IX", "YY", "YZ")],
        [np.diag(np.eye(4)[i]).astype(complex) for i in range(3)],
        [x + x.conj().T, dense("ZXY")],
    ]
    for gens in cases:
        alg, rows = closure_with_candidate_rows(monkeypatch, gens)
        assert rows <= len(gens) * alg.dim
        ref = product_closure(gens)
        assert alg.dim == len(ref)
        assert np.abs(alg.rows().conj().T @ alg.rows() - ref.conj().T @ ref).max() <= 1e-8


def test_span_closure_scales_its_multipliers():
    # 1e-14 E_12 is below the row filter, but it generates M_2 as E_12 does
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    alg = span_closure([1e-14 * e12])
    assert alg.dim == 4
    alg.verify()
    # a zero generator adds nothing and is not divided by its norm: span{I, Z}, and C I
    z = dense("Z")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alg = span_closure([np.zeros((2, 2)), z])
        assert span_closure([np.zeros((2, 2))]).dim == 1
    assert alg.dim == 2 and alg.contains(z) and not alg.contains(dense("X"))


# (k, q) blocks with some k != q, a repeated pair and a commutative algebra
SWAPPED_CASES = [((2, 3), (3, 2)), ((1, 4), (4, 2), (4, 1)), ((2, 3), (2, 3), (1, 2)),
                 ((3, 1), (2, 1))]


@pytest.mark.parametrize("blocks", SWAPPED_CASES)
def test_commutant_keeps_the_swapped_decomposition(monkeypatch, blocks):
    # A = U^dag (sum I_k (x) M_q) U has commutant U^dag (sum M_k (x) I_q) U: the
    # commutant carries A's U with each block's factors swapped, and draws nothing
    import paulipriv.algebra as algebra_module

    real = algebra_module._decompose
    drawn = []

    def counting(A, rng):
        drawn.append(A)
        return real(A, rng)

    rng = np.random.default_rng(109)
    N = sum(k * q for k, q in blocks)
    basis = planted_basis(blocks, haar_unitary(rng, N))
    A = span_closure(list(np.tensordot(rng.standard_normal((2, len(basis))), basis, 1)))
    monkeypatch.setattr(algebra_module, "_decompose", counting)
    C = commutant(A)
    report = quasiorth_condition_suite(A, C)
    assert len(drawn) == 1 and drawn[0] is A
    assert report.consistent and report.verdict == (len(blocks) == 1)
    st_c, u_c = structure_type(C)
    fresh, _ = real(OperatorAlgebra(C.basis), np.random.default_rng(110))
    assert st_c == fresh
    assert st_c.blocks == tuple(sorted(((q, k) for k, q in blocks), key=lambda b: (b[1], b[0])))
    _verify_block_form(u_c, C.basis, st_c.blocks)
    assert not u_c.flags.writeable
    assert choi_equal(conditional_expectation(C), conditional_expectation(OperatorAlgebra(C.basis)))


def test_span_closure_rejects_mismatched_N():
    with pytest.raises(PreconditionError):
        span_closure([np.eye(2)], N=3)
    with pytest.raises(PreconditionError):
        span_closure([np.eye(2), np.eye(3)])
    with pytest.raises(PreconditionError):
        span_closure([], N=0)
    assert span_closure([np.eye(2)], N=2).N == 2
    assert span_closure([], N=3).dim == 1


def test_span_not_closed_under_products_never_returns():
    # XI and ZZ anticommute, so XI ZZ lies outside span{II, XI, ZZ}
    not_closed = OperatorAlgebra(np.array([dense(s) / 2 for s in ("II", "XI", "ZZ")]))
    with pytest.raises(NumericalAmbiguityError):
        structure_type(not_closed)
    with pytest.raises(NumericalAmbiguityError):
        commutant(not_closed)


def test_one_decomposition_per_algebra(monkeypatch):
    # commutant, structure_type, the conditional expectation and the
    # quasiorthogonality suite all read one kept decomposition per algebra
    import paulipriv.algebra as algebra_module

    real = algebra_module._decompose
    drawn = []

    def counting(A, rng):
        drawn.append(A)
        return real(A, rng)

    monkeypatch.setattr(algebra_module, "_decompose", counting)
    rng = np.random.default_rng(108)
    basis = planted_basis(((2, 2), (1, 3)), haar_unitary(rng, 7))
    A = span_closure(list(np.tensordot(rng.standard_normal((2, len(basis))), basis, 1)))
    B = diagonal_algebra(7)
    commutant(A)
    structure_type(A)
    conditional_expectation(A)
    quasiorth_condition_suite(A, B)
    assert len(drawn) == 2
    assert drawn[0] is A and drawn[1] is B


def test_kept_unitary_is_read_only():
    alg = motivating_algebra()
    st1, u1 = structure_type(alg)
    st2, u2 = structure_type(alg)
    assert st1 is st2 and u1 is u2
    with pytest.raises(ValueError):
        u1[0, 0] = 0.0
    assert structure_type(alg)[1] is u1


def test_conditional_expectation_full_is_identity():
    phi = conditional_expectation(full_matrix_algebra(3))
    assert choi_equal(phi, Channel.identity(3))


def test_conditional_expectation_scalars_depolarizes():
    phi = conditional_expectation(scalar_algebra(2))
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = random_density(rng, 2)
        assert np.abs(apply_channel(phi, rho) - np.eye(2) / 2).max() < 1e-10


def test_conditional_expectation_diagonal_is_phase_flip():
    phi = conditional_expectation(diagonal_algebra(4))
    assert choi_equal(phi, phase_flip_channel())


def test_conditional_expectation_axioms_small():
    rng = np.random.default_rng(21)
    for _ in range(5):
        K = random_subgroup(rng, 2, 2)
        alg = subgroup_algebra(K)
        phi = conditional_expectation(alg)
        for a in alg.basis:
            assert np.abs(apply_channel(phi, a) - a).max() < 1e-8
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ca = (rng.standard_normal(alg.dim) @ alg.rows()).reshape(4, 4)
        cb = (rng.standard_normal(alg.dim) @ alg.rows()).reshape(4, 4)
        lhs = apply_channel(phi, ca @ x @ cb)
        rhs = ca @ apply_channel(phi, x) @ cb
        assert np.abs(lhs - rhs).max() < 1e-8
        rho = random_density(rng, 4)
        assert np.linalg.eigvalsh(apply_channel(phi, rho)).min() > -1e-10
        assert np.trace(apply_channel(phi, rho)) == pytest.approx(1.0)


def test_apply_channel_identity():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    assert np.abs(apply_channel(Channel.identity(3), rho) - rho).max() < 1e-14


def test_apply_channel_phase_flip_oracle():
    phi = phase_flip_channel()
    e01 = np.zeros((4, 4), dtype=complex)
    e01[1, 1] = 1.0  # |01><01|
    assert np.abs(apply_channel(phi, e01) - e01).max() < 1e-14
    xx = dense("XX")
    # direct 4x4 arithmetic oracle
    expected = sum(k @ xx @ k.conj().T for k in phi.kraus)
    assert np.abs(expected).max() < 1e-14
    assert np.abs(apply_channel(phi, xx)).max() < 1e-14


def test_apply_channel_dimension_mismatch():
    with pytest.raises(PreconditionError):
        apply_channel(phase_flip_channel(), np.eye(2))


def test_apply_channel_preserves_trace():
    rng = np.random.default_rng(6)
    phi = phase_flip_channel()
    for _ in range(20):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(np.trace(apply_channel(phi, x)) - np.trace(x)) < 1e-10


def test_channel_requires_trace_preservation():
    with pytest.raises(PreconditionError):
        Channel(np.array([np.eye(2) * 0.5]))


def test_channel_refuses_non_finite_kraus():
    # NaN passes any "deviation > tol" test, so the trace-preservation check alone lets it in
    kraus = np.eye(2, dtype=complex)[None].copy()
    kraus[0, 0, 1] = np.nan
    with pytest.raises(PreconditionError, match="non-finite"):
        Channel(kraus)


@pytest.mark.parametrize("build", [
    lambda: diagonal_algebra(4),
    lambda: Channel.identity(2),
    lambda: character_matrix(2, 1),
    lambda: check_privatized_subgroup(diagonal_subgroup(2, 2), diagonal_subgroup(2, 2)),
])
def test_array_holding_records_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_choi_of_identity_channel():
    n = 3
    c = choi_matrix(Channel.identity(n))
    expected = np.zeros((9, 9), dtype=complex)
    for j in range(n):
        for k in range(n):
            ejk = np.zeros((n, n), dtype=complex)
            ejk[j, k] = 1.0
            expected += np.kron(ejk, ejk)
    assert np.abs(c - expected).max() < 1e-14


def test_choi_equal_examples():
    phi = phase_flip_channel()
    assert choi_equal(phi, phi)
    assert choi_equal(phi, conditional_expectation(diagonal_algebra(4)))
    depol = Channel(np.array([dense(s) / 2 for s in ("I", "X", "Y", "Z")]))
    assert not choi_equal(depol, Channel.identity(2))
    with pytest.raises(PreconditionError):
        choi_equal(depol, phi)


def test_superoperator_consistent_with_apply():
    rng = np.random.default_rng(13)
    phi = phase_flip_channel()
    s = superoperator(phi)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.abs((s @ x.reshape(-1)).reshape(4, 4) - apply_channel(phi, x)).max() < 1e-12


def random_kraus_channel(rng, m, n):
    """A channel with m generic non-hermitian Kraus operators on C^n."""
    g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    w, v = np.linalg.eigh(np.einsum("kba,kbc->ac", g.conj(), g))
    return Channel(g @ (v / np.sqrt(w)) @ v.conj().T)


def test_superoperator_matches_kron_sum():
    rng = np.random.default_rng(106)
    for m in range(1, 6):
        for n in range(1, 7):
            phi = random_kraus_channel(rng, m, n)
            ref = sum(np.kron(k, k.conj()) for k in phi.kraus)
            assert np.abs(superoperator(phi) - ref).max() <= 1e-13


def test_dimension_identity_random_n2_n3():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        for _ in range(10):
            K = random_subgroup(rng, 2, n)
            alg = span_closure([c.to_dense() for c in K.elements])
            assert alg.dim == len(K)
            assert alg.dim * commutant(alg).dim == 4**n
