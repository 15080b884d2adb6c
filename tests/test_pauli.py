"""Symbolic Pauli arithmetic against dense-matrix oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from paulipriv import (
    FormatError,
    PauliClass,
    PauliElement,
    PreconditionError,
    all_classes,
    chi_exponent,
    chi_value,
    dense_paulis,
    parse_pauli,
)
from paulipriv.pauli import _dense_tables
from helpers import W3, X2, Y2, Z2, X3, Z3, dense_oracle, random_class, root_of_unity


def test_dense_z_qubit():
    z = parse_pauli("Z")
    assert np.array_equal(z.to_dense(), np.diag([1.0, -1.0]))


def test_dense_z_qutrit():
    z = PauliElement(3, 1, 0, (0,), (1,))
    assert np.allclose(z.to_dense(), np.diag([1.0, W3, W3**2]), atol=1e-15)


def test_dense_identity():
    for d, n in [(2, 3), (3, 2)]:
        assert np.array_equal(
            PauliElement.identity(d, n).to_dense(), np.eye(d**n)
        )


def test_dense_unitary():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = PauliElement(
                d,
                n,
                int(rng.integers(0, 2 * d)),
                tuple(rng.integers(0, d, n).tolist()),
                tuple(rng.integers(0, d, n).tolist()),
            )
            u = p.to_dense()
            assert np.abs(u @ u.conj().T - np.eye(d**n)).max() < 1e-12


@pytest.mark.parametrize(
    "d,n", [(d, n) for d in range(2, 7) for n in range(1, 7) if d**n <= 64]
)
def test_dense_paulis_and_to_dense_every_class_against_oracle(d, n):
    """Every class at phase 0 from one stack, and to_dense at every phase.

    Class i is also realized by to_dense at phase i mod 2d, so every phase is
    met.  For d in {2, 4} the entries are exact, so the stack and every
    quarter-turn phase must equal the oracle exactly.
    """
    classes = all_classes(d, n)
    x = np.array([c.x for c in classes])
    z = np.array([c.z for c in classes])
    exact = d in (2, 4)
    for start in range(0, len(classes), 256):
        stack = dense_paulis(d, x[start : start + 256], z[start : start + 256])
        assert stack.shape == (min(256, len(classes) - start), d**n, d**n)
        for i, (c, m) in enumerate(zip(classes[start : start + 256], stack), start):
            oracle = dense_oracle(d, 0, c.x, c.z)
            phase = i % (2 * d)
            u = PauliElement(d, n, phase, c.x, c.z).to_dense()
            phased = root_of_unity(phase / (2 * d)) * oracle
            if exact:
                assert np.array_equal(m, oracle)
            else:
                assert np.abs(m - oracle).max() <= 1e-14
            if exact and (2 * phase) % d == 0:
                assert np.array_equal(u, phased)
            else:
                assert np.abs(u - phased).max() <= 1e-14


@pytest.mark.parametrize("d", range(2, 10))
def test_dense_paulis_single_sites_match_the_full_table_bit_for_bit(d):
    # the table of all d^2 products X^a @ Z^b, which dense_paulis no longer keeps
    zeta, xp, zp = _dense_tables(d)
    a, b = np.divmod(np.arange(d * d), d)
    stack = dense_paulis(d, a[:, None], b[:, None])
    for i in range(d * d):
        assert stack[i].tobytes() == (zeta[0] * (xp[a[i]] @ zp[b[i]])).tobytes()


def test_dense_paulis_at_d128_builds_no_table_of_all_products():
    # all 128^2 products would take 4 GiB; the 128 classes X^a take 32 MiB
    _dense_tables.cache_clear()
    tracemalloc.start()
    try:
        stack = dense_paulis(128, np.arange(128)[:, None], np.zeros((128, 1), dtype=int))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.shape == (128, 128, 128)
    assert peak < 256 * 2**20


def test_dense_paulis_shapes_and_refusals():
    assert dense_paulis(3, np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 9, 9)
    ph = dense_paulis(2, [[0], [0]], [[1], [1]], phases=[0, 2])
    assert np.array_equal(ph[1], -ph[0])
    with pytest.raises(PreconditionError):
        dense_paulis(2, [[0, 1]], [[0]])
    with pytest.raises(PreconditionError):
        dense_paulis(2, [0, 1], [0, 1])
    with pytest.raises(PreconditionError):
        dense_paulis(2, [[0]], [[0]], phases=[0, 1])
    with pytest.raises(PreconditionError):
        dense_paulis(1, [[0]], [[0]])


def test_mul_involution_of_x():
    x = parse_pauli("X")
    assert (x * x).is_identity


def test_mul_x_z_qubit_dense_oracle():
    x, z = parse_pauli("X"), parse_pauli("Z")
    prod = x * z
    assert np.abs(prod.to_dense() - X2 @ Z2).max() < 1e-15
    # X Z has canonical phase 0 and equals the exponent-3 multiple of Y
    assert prod.phase == 0 and prod.x == (1,) and prod.z == (1,)
    assert np.abs(prod.to_dense() - (-1j) * Y2).max() < 1e-15
    assert prod.to_string() == "-iY"


def test_mul_qutrit_dense_oracle():
    x = PauliElement(3, 1, 0, (1,), (0,))
    z = PauliElement(3, 1, 0, (0,), (1,))
    xz = x * z
    assert xz.phase == 0
    assert np.abs(xz.to_dense() - X3 @ Z3).max() < 1e-15
    zx = z * x
    # dense oracle: Z X = omega^2 X Z for these matrices
    assert np.abs(zx.to_dense() - Z3 @ X3).max() < 1e-14
    assert np.abs(Z3 @ X3 - W3**2 * (X3 @ Z3)).max() < 1e-14
    assert zx.phase == 4  # zeta^4 = omega^2


def test_mul_homomorphism_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 5))
        a = PauliElement(
            d, n, int(rng.integers(0, 2 * d)),
            tuple(rng.integers(0, d, n).tolist()),
            tuple(rng.integers(0, d, n).tolist()),
        )
        b = PauliElement(
            d, n, int(rng.integers(0, 2 * d)),
            tuple(rng.integers(0, d, n).tolist()),
            tuple(rng.integers(0, d, n).tolist()),
        )
        assert np.abs((a * b).to_dense() - a.to_dense() @ b.to_dense()).max() <= 1e-12


def test_mul_mismatch_rejected():
    with pytest.raises(PreconditionError):
        parse_pauli("X") * parse_pauli("XX")
    with pytest.raises(PreconditionError):
        parse_pauli("X") * PauliElement(3, 1, 0, (1,), (0,))


def test_adjoint_is_inverse():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(50):
            p = random_class(rng, d, 2).representative()
            q = PauliElement(d, 2, int(rng.integers(0, 2 * d)), p.x, p.z)
            assert (q * q.adjoint()).is_identity
            assert np.abs(q.adjoint().to_dense() - q.to_dense().conj().T).max() < 1e-12


def test_chi_identity_always_one():
    for d, n in [(2, 2), (3, 1)]:
        e = PauliClass.identity(d, n)
        for c in all_classes(d, n):
            assert chi_value(e, c) == 1
            assert chi_value(c, e) == 1


def test_chi_x_z():
    assert chi_value(parse_pauli("X").pauli_class(), parse_pauli("Z").pauli_class()) == -1
    x3 = PauliClass(3, 1, (1,), (0,))
    z3 = PauliClass(3, 1, (0,), (1,))
    assert abs(chi_value(x3, z3) - W3) < 1e-15


def test_chi_matches_dense_commutation():
    # a b = chi(a, b) b a, exhaustively at small sizes
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        for a in all_classes(d, n):
            da = a.to_dense()
            for b in all_classes(d, n):
                db = b.to_dense()
                assert np.abs(da @ db - chi_value(a, b) * (db @ da)).max() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2)])
def test_bicharacter_laws_exhaustive(d, n):
    classes = all_classes(d, n)
    m = len(classes)
    for g in classes:
        assert chi_exponent(g, PauliClass.identity(d, n)) == 0
        assert chi_exponent(PauliClass.identity(d, n), g) == 0
    # multiplicativity in each argument over every triple, vectorized
    lookup = {(c.x, c.z): i for i, c in enumerate(classes)}
    xs = np.array([c.x for c in classes])
    zs = np.array([c.z for c in classes])
    table = (xs @ zs.T - zs @ xs.T) % d
    prod_idx = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            p = a * b
            prod_idx[i, j] = lookup[(p.x, p.z)]
    rhs = (table[:, :, None] + table[:, None, :]) % d
    assert np.array_equal(table[:, prod_idx], rhs)
    lhs_first = table[prod_idx, :]
    rhs_first = (table[:, None, :] + table[None, :, :]) % d
    assert np.array_equal(lhs_first, rhs_first)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_chi_nondegenerate(d, n):
    classes = all_classes(d, n)
    xs = np.array([c.x for c in classes])
    zs = np.array([c.z for c in classes])
    table = (xs @ zs.T - zs @ xs.T) % d
    nonzero_rows = (table != 0).any(axis=1)
    assert nonzero_rows[1:].all(), "some non-identity class commutes with everything"


def test_chi_antisymmetry_exhaustive():
    for d, n in [(2, 2), (3, 1)]:
        for a in all_classes(d, n):
            for b in all_classes(d, n):
                assert (chi_exponent(a, b) + chi_exponent(b, a)) % d == 0


def test_parse_zi():
    p = parse_pauli("ZI")
    assert (p.d, p.n, p.phase) == (2, 2, 0)
    assert p.x == (0, 0) and p.z == (1, 0)


def test_parse_minus_i_yy_dense_oracle():
    p = parse_pauli("-iYY")
    assert np.abs(p.to_dense() - (-1j) * np.kron(Y2, Y2)).max() < 1e-15
    assert p.phase == 1 and p.x == (1, 1) and p.z == (1, 1)


def test_parse_qutrit_token():
    p = parse_pauli("w2.X2Z1:X0Z2", d=3)
    assert p.phase == 4  # omega^2 = zeta^4
    assert p.x == (2, 0) and p.z == (1, 2)
    assert np.abs(p.to_dense() - dense_oracle(3, 4, p.x, p.z)).max() < 1e-14


def test_parse_format_roundtrip_corpus():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            phase = int(rng.integers(0, 2 * d))
            if d > 2:
                phase -= phase % 2  # string format carries omega powers only
            p = PauliElement(
                d, n, phase,
                tuple(rng.integers(0, d, n).tolist()),
                tuple(rng.integers(0, d, n).tolist()),
            )
            assert parse_pauli(p.to_string(), d=d) == p


def test_format_canonicalizes():
    assert parse_pauli("+X").to_string() == "X"
    assert parse_pauli("w0.X0Z0:X2Z0", d=3).to_string() == "I:X2"
    assert parse_pauli("w1.I", d=2).to_string() == "-I"


def test_parse_errors():
    for bad in ("", "A", "+iQ", "X,Z", "i", "w.XX"):
        with pytest.raises(FormatError):
            parse_pauli(bad)
    with pytest.raises(FormatError):
        parse_pauli("X3Z1", d=3)  # exponent out of range
    with pytest.raises(FormatError):
        parse_pauli("X1:bogus", d=3)
    with pytest.raises(FormatError):
        # odd phase exponents are unreachable in the d > 2 format
        PauliElement(3, 1, 1, (1,), (0,)).to_string()


def test_qubit_phase_values():
    values = {parse_pauli(s).phase_value for s in ("X", "-X", "+iX", "-iX")}
    assert values == {1, -1, 1j, -1j}


def test_qutrit_phases_stay_omega_powers():
    # products of omega-power phased elements never pick up odd exponents
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = PauliElement(3, 2, 2 * int(rng.integers(0, 3)),
                         tuple(rng.integers(0, 3, 2).tolist()),
                         tuple(rng.integers(0, 3, 2).tolist()))
        b = PauliElement(3, 2, 2 * int(rng.integers(0, 3)),
                         tuple(rng.integers(0, 3, 2).tolist()),
                         tuple(rng.integers(0, 3, 2).tolist()))
        assert ((a * b).phase % 2) == 0


def test_class_quotient_semantics():
    a = parse_pauli("-iY")
    b = parse_pauli("Y")
    assert a != b
    assert a.pauli_class() == b.pauli_class()
    assert a.pauli_class().representative().phase == 0
