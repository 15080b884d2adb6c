"""Subgroup machinery: closures, character matrices, annihilators, extensions."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipriv import (
    PauliClass,
    PreconditionError,
    all_classes,
    annihilator,
    character_matrix,
    close,
    diagonal_subgroup,
    encoded_subgroup,
    extend_to_maximal,
    is_abelian,
    parse_pauli,
)
from paulipriv.groups import (
    PauliSubgroup,
    _chi_rows,
    _commuting,
    _howell,
    _kernel,
    _partner_rows,
    _symplectic_pairs,
    generating_set,
    intersect,
)
from helpers import (
    brute_closure,
    dense_oracle,
    enumerating_extension,
    random_abelian_subgroup,
    random_subgroup,
    scanning_howell,
    transvect,
)

# Single-site commutation table in canonical class order I, X, Z, Y,
# matching the displayed 4x4 qubit table entrywise.
H_EXPONENTS = [
    [0, 0, 0, 0],
    [0, 0, 1, 1],
    [0, 1, 0, 1],
    [0, 1, 1, 0],
]
H_SIGNS = np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
])

# Single-qutrit table as omega exponents, class order I, X, X2, Z, XZ,
# X2Z, Z2, XZ2, X2Z2.
F_EXPONENTS = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 2, 2, 2],
    [0, 0, 0, 2, 2, 2, 1, 1, 1],
    [0, 2, 1, 0, 2, 1, 0, 2, 1],
    [0, 2, 1, 1, 0, 2, 2, 1, 0],
    [0, 2, 1, 2, 1, 0, 1, 0, 2],
    [0, 1, 2, 0, 1, 2, 0, 1, 2],
    [0, 1, 2, 1, 2, 0, 2, 0, 1],
    [0, 1, 2, 2, 0, 1, 1, 2, 0],
]


def cls(s, d=2):
    return parse_pauli(s, d=d).pauli_class()


def test_close_empty():
    K = close((), d=2, n=2)
    assert len(K) == 1 and K.elements[0].is_identity


def test_close_phase_flip_group():
    K = close([cls("ZI"), cls("IZ")])
    assert len(K) == 4
    assert {c.to_string() for c in K} == {"II", "ZI", "IZ", "ZZ"}


def test_close_two_qutrit_group_vs_brute_force():
    g1 = PauliClass(3, 2, (2, 0), (1, 0))  # X2Z1 on site 1
    g2 = PauliClass(3, 2, (0, 1), (0, 1))  # X1Z1 on site 2
    K = close([g1, g2])
    assert len(K) == 9
    oracle = brute_closure([(2, 0, 1, 0), (0, 1, 0, 1)], 3, 2)
    assert {(c.x + c.z) for c in K} == oracle
    expected = {((2 * i) % 3, j % 3, i % 3, j % 3) for i in range(3) for j in range(3)}
    assert oracle == expected


def test_close_size_bound():
    # the 10^6 element bound is checked where elements are enumerated, not on building
    D = diagonal_subgroup(2, 20)
    assert len(D) == 2**20
    with pytest.raises(PreconditionError, match="above the bound 1000000"):
        D.rows


def test_close_mixed_spaces_rejected():
    with pytest.raises(PreconditionError):
        close([cls("X"), cls("XX")])


def test_is_abelian():
    assert is_abelian(close([cls("ZI"), cls("IZ")]))
    assert not is_abelian(close([cls("XI"), cls("ZI")]))
    assert is_abelian(close((), d=2, n=1))


def test_noncommuting_pair_dense_cross_check():
    a, b = cls("XI"), cls("ZI")
    da, db = a.to_dense(), b.to_dense()
    assert np.abs(da @ db + db @ da).max() < 1e-14  # they anticommute


def test_character_matrix_qubit_exact():
    M = character_matrix(2, 1)
    assert [c.to_string() for c in M.classes] == ["I", "X", "Z", "Y"]
    assert M.exponents.tolist() == H_EXPONENTS
    assert np.array_equal(M.to_complex(), H_SIGNS)


def test_character_matrix_qutrit_exact():
    M = character_matrix(3, 1)
    assert [c.to_string() for c in M.classes] == [
        "I", "X1", "X2", "Z1", "X1Z1", "X2Z1", "Z2", "X1Z2", "X2Z2",
    ]
    assert M.exponents.tolist() == F_EXPONENTS


def test_character_matrix_identity_row():
    for d, n in [(2, 2), (3, 1)]:
        M = character_matrix(d, n)
        assert not M.exponents[0].any()
        assert not M.exponents[:, 0].any()


def test_character_matrix_antisymmetry():
    for d, n in [(2, 2), (3, 1)]:
        M = character_matrix(d, n)
        assert ((M.exponents + M.exponents.T) % d == 0).all()


@pytest.mark.parametrize("n", [2, 3])
def test_character_matrix_tensor_power_exact(n):
    h1 = character_matrix(2, 1).to_complex()
    power = h1
    for _ in range(n - 1):
        power = np.kron(power, h1)
    assert np.array_equal(character_matrix(2, n).to_complex(), power)


def test_character_matrix_dense_commutation_oracle():
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        M = character_matrix(d, n)
        values = M.to_complex()
        dense = [c.to_dense() for c in M.classes]
        for i, da in enumerate(dense):
            for j, db in enumerate(dense):
                assert np.abs(da @ db - values[i, j] * (db @ da)).max() <= 1e-9


def test_character_matrix_size_bound():
    with pytest.raises(PreconditionError):
        character_matrix(2, 8)


def test_annihilator_trivial_group():
    K = close((), d=2, n=2)
    assert len(annihilator(K)) == 16


def test_annihilator_phase_flip_is_self():
    K = close([cls("ZI"), cls("IZ")])
    ann = annihilator(K)
    assert set(ann.elements) == set(K.elements)
    assert len(K) * len(ann) == 4**2


def test_annihilator_single_z_scan_oracle():
    K = close([cls("Z")])
    ann = annihilator(K)
    # independent scan over the 4 classes of P_1
    expected = {
        c.to_string()
        for c in all_classes(2, 1)
        if np.abs(c.to_dense() @ cls("Z").to_dense()
                  - cls("Z").to_dense() @ c.to_dense()).max() < 1e-12
    }
    assert {c.to_string() for c in ann} == expected == {"I", "Z"}


def test_kernel_mod_d():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4, 5, 6):
        rows = rng.integers(0, d, (4, 6))
        basis, _ = _kernel(rows, d)
        for v in basis:
            assert not ((rows @ v) % d).any()
        # solution count against brute force over all vectors
        count = sum(
            1
            for idx in range(d**6)
            if not ((rows @ np.array([(idx // d**k) % d for k in range(6)])) % d).any()
        )
        assert len(brute_closure(basis.tolist(), d, 3)) == count


def test_annihilator_linear_path_matches_scan():
    # the kernel solver against a direct scan over all 3^8 classes of P_4
    rng = np.random.default_rng(9)
    K = random_abelian_subgroup(rng, 3, 4, steps=2)
    ann = annihilator(K)
    gens = generating_set(K)
    gx = np.array([g.x for g in gens])
    gz = np.array([g.z for g in gens])
    classes = all_classes(3, 4)
    xs = np.array([c.x for c in classes])
    zs = np.array([c.z for c in classes])
    mask = ~(((xs @ gz.T - zs @ gx.T) % 3).any(axis=1))
    expected = {(c.x, c.z) for c, keep in zip(classes, mask) if keep}
    assert {(c.x, c.z) for c in ann} == expected


@pytest.mark.parametrize("d", [2, 3])
def test_annihilator_duality_counting(d):
    rng = np.random.default_rng(d)
    for n in range(1, 5):
        for _ in range(50):
            K = random_subgroup(rng, d, n)
            assert len(K) * len(annihilator(K)) == d ** (2 * n)


def test_subgroup_contained_in_annihilator_iff_abelian():
    rng = np.random.default_rng(31)
    seen_abelian = seen_non = False
    for _ in range(40):
        K = random_subgroup(rng, 2, 3)
        contained = K.issubset(annihilator(K))
        assert contained == is_abelian(K)
        seen_abelian |= contained
        seen_non |= not contained
    assert seen_abelian and seen_non


def test_double_annihilator_is_identity():
    rng = np.random.default_rng(12)
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(20):
            K = random_subgroup(rng, d, n)
            assert set(annihilator(annihilator(K)).elements) == set(K.elements)


def test_extend_already_maximal_unchanged():
    K = close([cls("ZI"), cls("IZ")])
    assert extend_to_maximal(K) == K


@pytest.mark.parametrize("n,maximal", [(20, True), (64, True), (64, False)],
                         ids=["diagonal-20", "diagonal-64", "Z1-64"])
def test_extend_enumerates_nothing(monkeypatch, n, maximal):
    # Ann K has 2^n elements for the diagonal group and 2^(2n - 1) for <Z_1>,
    # both above the enumeration bound
    K = diagonal_subgroup(2, n) if maximal else close([cls("Z" + "I" * (n - 1))])
    monkeypatch.setattr(PauliSubgroup, "rows",
                        property(lambda self: pytest.fail("a group was enumerated")))
    M = extend_to_maximal(K)
    assert M.order == 2**n and is_abelian(M) and K.issubset(M)
    assert (M == K) if maximal else (cls("Z" + "I" * (n - 1)) in M)


def test_extend_trivial_picks_lexicographic():
    K = extend_to_maximal(close((), d=2, n=1))
    assert {c.to_string() for c in K} == {"I", "X"}


def test_extend_single_zi_exhaustive_maximality():
    K = extend_to_maximal(close([cls("ZI")]))
    assert len(K) == 4 and is_abelian(K)
    assert cls("ZI") in K
    # exhaustive scan: no commuting class remains outside
    for c in all_classes(2, 2):
        if c not in K:
            assert not all(
                np.abs(c.to_dense() @ k.to_dense() - k.to_dense() @ c.to_dense()).max()
                < 1e-12
                for k in K
            )


@pytest.mark.parametrize("d,max_n", [(2, 6), (3, 3)])
def test_extension_property_sweep(d, max_n):
    rng = np.random.default_rng(d * 100)
    for n in range(1, max_n + 1):
        for _ in range(20):
            K = random_abelian_subgroup(rng, d, n)
            M = extend_to_maximal(K)
            assert len(M) == d**n
            assert is_abelian(M)
            assert K.issubset(M)
            assert _same_howell(M, enumerating_extension(K))


def _same_howell(A, B):
    return np.array_equal(A._gens, B._gens) and A._pivots == B._pivots


def _random_abelian_rows(rng, d, n, count, scale=None):
    """Rows of ``count`` Z's, scaled at random or by ``scale``, moved by random transvections."""
    rows = np.zeros((count, 2 * n), dtype=np.int64)
    rows[np.arange(count), n + np.arange(count)] = scale or rng.integers(1, d, count)
    moves = [(rng.integers(0, d, 2 * n), int(rng.integers(1, d)))
             for _ in range(rng.integers(0, 6))]
    return transvect(rows, moves, d)


# every (d, n) with d in {2, 3, 4, 5, 6, 8, 9} and d^(2n) <= 65536
EXTEND_GRID = [(d, n) for d in (2, 3, 4, 5, 6, 8, 9) for n in range(1, 9)
               if d ** (2 * n) <= 65536]


@pytest.mark.parametrize("d,n", EXTEND_GRID)
def test_extend_matches_the_enumerating_rule(d, n):
    # trivial, maximal, transvected diagonal-type and K meet Ann K for random K
    rng = np.random.default_rng(1000 * d + n)
    cases = [close((), d=d, n=n), PauliSubgroup._span(d, n, _random_abelian_rows(rng, d, n, n, 1))]
    for _ in range(10):
        count = int(rng.integers(1, n + 1))
        cases.append(PauliSubgroup._span(d, n, _random_abelian_rows(rng, d, n, count)))
        K = random_subgroup(rng, d, n)
        cases.append(intersect(K, annihilator(K)))
    for K in cases:
        assert is_abelian(K)
        assert _same_howell(extend_to_maximal(K), enumerating_extension(K))
    assert cases[1].order == d**n


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 8, 9))
def test_one_constraint_update_is_the_next_annihilator(d):
    # Ann <K, g> from the Howell rows of Ann K and the one constraint chi(g, v) = 0, in
    # the identity column order and in extend_to_maximal's (z_n, x_n, ..., z_1, x_1)
    rng = np.random.default_rng(d)
    divisors = [k for k in range(1, d) if d % k == 0]
    non_unit = 0
    for n in (1, 2, 3, 4):
        canonical = np.arange(2 * n).reshape(2, n)[::-1, ::-1].T.reshape(-1)
        for order in (np.arange(2 * n), canonical):
            back = np.argsort(order)
            for _ in range(6):
                count = int(rng.integers(1, n + 1))
                K = PauliSubgroup._span(d, n, _random_abelian_rows(rng, d, n, count))
                h, _ = _commuting(K._gens, d, order)
                # g in Ann K, scaled by a divisor of d so that its chi values are non-units
                g = rng.integers(0, d, len(h)) @ h[:, back] * rng.choice(divisors) % d
                chi = _chi_rows(h[:, back], g[None], d).ravel().tolist()
                non_unit += any(math.gcd(v, d) not in (1, d) for v in chi)
                rows, pivots = _commuting(g[None], d, order, h)
                expected = _commuting(np.vstack([K._gens, g]), d, order)
                assert PauliSubgroup._from_howell(d, n, rows, pivots) == \
                    PauliSubgroup._from_howell(d, n, *expected)
                if d ** (2 * n) <= 4096:  # the rows from pivot j on span what vanishes before it
                    span = _span(rows, d, 2 * n)
                    for j, c in enumerate(pivots):
                        assert _span(rows[j:], d, 2 * n) == {v for v in span if not any(v[:c])}
    assert non_unit or len(divisors) == 1  # only a prime d has no non-unit chi value


def test_extend_rejects_nonabelian():
    with pytest.raises(PreconditionError):
        extend_to_maximal(close([cls("XI"), cls("ZI")]))


def test_diagonal_subgroup():
    D = diagonal_subgroup(2, 3)
    assert len(D) == 8 and is_abelian(D)
    assert all(not any(c.x) for c in D)


def test_subgroup_invariants():
    rng = np.random.default_rng(77)
    for _ in range(20):
        K = random_subgroup(rng, 2, 3)
        assert K.elements[0].is_identity
        assert bin(len(K)).count("1") == 1  # power of two for d = 2
        assert (4**3) % len(K) == 0
        for c in K.elements[:8]:
            assert c.inverse() in K


def _scan_annihilator(gens, d, n):
    """Direct scan of Z_d^{2n} for the rows commuting with every generator row."""
    rows = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
    g = np.array(gens).reshape(-1, 2 * n)
    chi = rows[:, :n] @ g[:, n:].T - rows[:, n:] @ g[:, :n].T
    return {tuple(r) for r in rows[~(chi % d).any(axis=1)].tolist()}


def test_composite_d6_n3_annihilator_and_extension():
    # composite d with 6^6 classes, checked against a direct scan
    gens = [PauliClass(6, 3, (0, 0, 0), (2, 0, 0)), PauliClass(6, 3, (3, 0, 0), (0, 0, 0))]
    K = close(gens)
    assert len(K) == 6
    ann = annihilator(K)
    assert len(K) * len(ann) == 6**6
    expected = _scan_annihilator([g.x + g.z for g in gens], 6, 3)
    assert {c.x + c.z for c in ann} == expected
    M = extend_to_maximal(K)
    assert len(M) == 6**3 and is_abelian(M) and K.issubset(M)
    assert all(g in M for g in gens)


# ---------------------------------------------------------------------------
# Differential properties over prime and composite d
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


# (d, n) with d^(2n) <= 1296, so that brute-force oracles stay cheap
SPACES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2),
          (6, 1), (6, 2)]


@st.composite
def subgroup_case(draw):
    """(d, n, generator rows) for d in 2..6."""
    d, n = draw(st.sampled_from(SPACES))
    row = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    return d, n, draw(st.lists(row, max_size=3))


@st.composite
def abelian_case(draw):
    """Commuting generator rows: scaled Z's moved by random symplectic transvections.

    The row count, scales and moves come from one drawn seed, so that
    derandomized examples spread over them instead of clustering at the
    smallest draws.
    """
    d, n = draw(st.sampled_from(SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = rng.integers(1, d, int(rng.integers(1, n + 1)))
    rows = np.zeros((len(scales), 2 * n), dtype=np.int64)
    rows[np.arange(len(scales)), n + np.arange(len(scales))] = scales
    moves = [(rng.integers(0, d, 2 * n), int(rng.integers(1, d)))
             for _ in range(rng.integers(0, 5))]
    return d, n, transvect(rows, moves, d).tolist()


def _subgroup(d, n, rows):
    return close([PauliClass(d, n, r[:n], r[n:]) for r in rows], d=d, n=n)


@PROPERTY_SETTINGS
@given(subgroup_case())
def test_property_close_matches_brute_closure(case):
    d, n, rows = case
    K = _subgroup(d, n, rows)
    expected = sorted(brute_closure(rows, d, n),
                      key=lambda r: PauliClass(d, n, r[:n], r[n:]).key())
    assert [c.x + c.z for c in K] == expected


@PROPERTY_SETTINGS
@given(subgroup_case())
def test_property_annihilator_counting_and_duality(case):
    d, n, rows = case
    K = _subgroup(d, n, rows)
    ann = annihilator(K)
    assert len(K) * len(ann) == d ** (2 * n)
    assert {c.x + c.z for c in ann} == _scan_annihilator(rows, d, n)
    assert annihilator(ann) == K
    assert {c.x + c.z for c in annihilator(ann)} == {c.x + c.z for c in K}


@PROPERTY_SETTINGS
@given(abelian_case())
def test_property_extension_is_maximal_abelian(case):
    d, n, rows = case
    K = _subgroup(d, n, rows)
    assert is_abelian(K)
    M = extend_to_maximal(K)
    assert len(M) == d**n
    x, z = M.xz_arrays()
    assert not ((x @ z.T - z @ x.T) % d).any()
    members = {c.x + c.z for c in M}
    assert all(c.x + c.z in members for c in K)


def _span(rows, d, width):
    """Brute-force row span over Z_d as a set of tuples."""
    out = np.zeros((1, width), dtype=np.int64)
    for r in np.asarray(rows, dtype=np.int64).reshape(-1, width):
        steps = (out[None, :, :] + np.arange(d)[:, None, None] * r) % d
        out = np.unique(steps.reshape(-1, width), axis=0)
    return set(map(tuple, out.tolist()))


@st.composite
def howell_case(draw):
    """A random matrix over Z_d, d in 2..12, width <= 8 and d^width <= 4096."""
    d = draw(st.integers(2, 12))
    width = draw(st.integers(1, max(w for w in range(1, 9) if d**w <= 4096)))
    row = st.lists(st.integers(0, d - 1), min_size=width, max_size=width)
    scale = st.sampled_from([k for k in range(1, d) if d % k == 0])
    rows = draw(st.lists(st.tuples(row, scale), max_size=5))
    return d, width, [[v * s % d for v in r] for r, s in rows]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(howell_case())
def test_property_howell_form(case):
    d, width, rows = case
    h, pivots = _howell(np.array(rows, dtype=np.int64).reshape(-1, width), d)
    span = _span(rows, d, width)
    assert _span(h, d, width) == span
    assert math.prod(d // int(r[c]) for r, c in zip(h, pivots)) == len(span)
    # echelon form, each pivot entry a divisor of d
    assert list(pivots) == sorted(set(pivots)) and len(pivots) == len(h)
    for r, c in zip(h, pivots):
        assert not r[:c].any() and r[c] > 0 and d % r[c] == 0
    # Howell property: what vanishes before column c is spanned by the rows from c on
    for c in range(width + 1):
        tail = [r for r, p in zip(h, pivots) if p >= c]
        assert {v for v in span if not any(v[:c])} == _span(tail, d, width)


@pytest.mark.parametrize("d", range(2, 65))
def test_howell_matches_the_scanning_oracle(d):
    # rows scaled by divisors of d, so that composite d meets non-unit pivots
    rng = np.random.default_rng(d)
    divisors = [k for k in range(1, d) if d % k == 0]
    non_unit = 0
    for _ in range(60):
        count, width = rng.integers(1, 6), rng.integers(1, 7)
        rows = rng.integers(0, d, (count, width)) * rng.choice(divisors, (count, 1)) % d
        h, pivots = _howell(rows, d)
        expected, expected_pivots = scanning_howell(rows, d)
        assert np.array_equal(h, expected) and pivots == expected_pivots
        non_unit += any(r[c] > 1 for r, c in zip(h, pivots))
    assert non_unit or len(divisors) == 1  # only a prime d has no non-unit pivot


# ---------------------------------------------------------------------------
# Symplectic partners
# ---------------------------------------------------------------------------


def _form(a, b, d):
    """chi exponents between (x | z) rows, shape (len(a), len(b))."""
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    n = a.shape[1] // 2
    return (a[:, :n] @ b[:, n:].T - a[:, n:] @ b[:, :n].T) % d


def _partners(K):
    return _partner_rows(K._gens, K.d)


def _check_partners(K):
    g, h = K._gens, _partners(K)
    assert (_form(g, h, K.d) == np.eye(len(g), dtype=np.int64)).all()
    assert not _form(h, h, K.d).any()
    return g, h


@pytest.mark.parametrize("k", [1, 2, 5, 64, 128])
def test_symplectic_partners_z_type_large_n(k):
    n = max(k, 64)
    zs = [PauliClass(2, n, (0,) * n, tuple(int(i == j) for i in range(n))) for j in range(k)]
    _, h = _check_partners(close(zs))  # Howell rows only; nothing is enumerated
    # the partners of the Z_j are exactly the X_j (the pinned ZI,IZ construction rests on it)
    assert h[:, :n].tolist() == [[int(i == j) for i in range(n)] for j in range(k)]
    assert not h[:, n:].any()


@st.composite
def free_abelian_case(draw):
    """Commuting rows of scale 1 over d in {2, 3, 5, 4, 6}, n <= 8: transvected Z's.

    n, k and the moves come from one drawn seed, as in :func:`abelian_case`.
    """
    d = draw(st.sampled_from([2, 3, 5, 4, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, n + 1))
    rows = np.zeros((k, 2 * n), dtype=np.int64)
    rows[np.arange(k), n + np.arange(k)] = 1
    moves = [(rng.integers(0, d, 2 * n), int(rng.integers(1, d)))
             for _ in range(rng.integers(0, 7))]
    return d, n, transvect(rows, moves, d).tolist()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(free_abelian_case())
def test_property_symplectic_partners(case):
    d, n, rows = case
    K = _subgroup(d, n, rows)
    # Partners of the Howell rows exist iff every pivot entry is 1: then the
    # rows have an invertible k x k minor; otherwise K has fewer characters
    # (|K| < d^k) than the d^k exponent tuples the partners would realize.
    # Over composite d a free K can have such rows, e.g. <X^2 Z> over Z_4
    # has the Howell rows X^2 Z and Z^2.
    if any(h[c] != 1 for h, c in zip(K._gens, K._pivots)):
        with pytest.raises(PreconditionError, match="no symplectic partner"):
            _partners(K)
        return
    g, h = _check_partners(K)
    assert len(g) == len(rows)
    if d in (2, 3, 4) and d**n <= 81:
        # dense oracle: g_i h_j = omega^delta_ij h_j g_i
        w = np.exp(2j * np.pi / d)
        dense = lambda r: dense_oracle(d, 0, r[:n], r[n:])  # noqa: E731
        for i, gi in enumerate(g):
            for j, hj in enumerate(h):
                a, b = dense(gi), dense(hj)
                assert np.allclose(a @ b, w ** (i == j) * b @ a)


def test_symplectic_partners_of_the_trivial_group():
    assert _partners(close((), d=4, n=3)).shape == (0, 6)


def test_symplectic_partners_name_the_generator_without_one():
    # over Z_4, <Z_1, Z_2^2>: Z_2^2 has even chi exponents with every class
    K = close([parse_pauli(s, d=4).pauli_class() for s in ("Z1:I", "I:Z2")])
    with pytest.raises(PreconditionError, match="generator 2 of K"):
        _partners(K)


def test_symplectic_partners_need_an_abelian_group():
    with pytest.raises(PreconditionError, match="Abelian"):
        _partners(close([cls("X"), cls("Z")]))


def test_symplectic_partners_need_a_free_generator():
    # over Z_4, 2 Z has chi exponent 0 or 2 with every class: no unit partner
    with pytest.raises(PreconditionError, match="generator 1 of K"):
        _partners(close([parse_pauli("Z2", d=4).pauli_class()]))


def test_symplectic_partners_refuse_a_system_above_the_bound_before_building_it():
    # one Z on 1500 sites: [M^T | I] would be 3000 x 3001 int64 entries (72 MB)
    n = 1500
    K = close([PauliClass(2, n, (0,) * n, (1,) + (0,) * (n - 1))])
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="3000 x 3001 entries is above the bound"):
        encoded_subgroup(K)
    assert time.perf_counter() - start < 1.0
    # 128 sites, k = 128: 256 x 384 entries, far below it
    assert encoded_subgroup(diagonal_subgroup(2, 128)).order == 2**128


def _centre(H):
    return intersect(H, annihilator(H))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 12])
def test_symplectic_pairs_span_every_centre_free_group_over_a_prime_power(d):
    rng = np.random.default_rng([d, 24])
    seen = set()
    for _ in range(40):
        n = int(rng.integers(1, 4))
        H = random_subgroup(rng, d, n)
        pairs = _symplectic_pairs(H)
        seen.add(pairs is None)
        if pairs is None:
            # over 6 and 12 also a non-free H, or Howell rows split over 2 and 3
            assert _centre(H).order > 1 or d in (6, 12)
            continue
        a, b = pairs
        m = len(a)
        assert (_form(a, b, d) == np.eye(m, dtype=np.int64)).all()
        assert not _form(a, a, d).any() and not _form(b, b, d).any()
        assert H.order == d ** (2 * m) and PauliSubgroup._span(d, n, np.vstack(pairs)) == H
        assert _centre(H).order == 1
    assert seen == {True, False}  # both outcomes are met


def test_groups_of_order_2_to_the_64_enumerate_nothing():
    n = 64
    zs = [PauliClass(2, n, (0,) * n, tuple(int(i == j) for i in range(n))) for j in range(n)]
    tracemalloc.start()
    try:
        # each of these raises if it enumerates a group above the element bound
        K, D = close(zs), diagonal_subgroup(2, n)
        ann, H, h = annihilator(K), encoded_subgroup(K), _partners(K)
        h2 = PauliClass(2, n, tuple(h[1, :n]), tuple(h[1, n:]))
        assert K == D == ann and hash(K) == hash(D) == hash(close(zs[::-1]))
        assert is_abelian(K) and not is_abelian(H) and K != H
        assert zs[5] in K and h2 not in K and h2 in H  # h_2 = X_2
        sub = close(zs[1:])
        assert sub.issubset(K) and not K.issubset(sub) and K != sub
        assert repr(K) == f"PauliSubgroup(d=2, n=64, size={2**64})"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert K.order == D.order == ann.order == H.order == 2**64
    assert peak < 64 * 2**20


def test_close_refuses_a_d_whose_int64_products_overflow():
    # chi sums 2n products of size up to (d - 1)^2, so 2n (d - 1)^2 must stay below 2^63
    d = 4 * 10**9
    with pytest.raises(PreconditionError, match="overflows 64-bit"):
        close([PauliClass(d, 1, (3,), (d - 1,)), PauliClass(d, 1, (1,), (1333333333,))])
    with pytest.raises(PreconditionError, match="overflows 64-bit"):
        close((), d=2**31 + 1, n=1)
    # the largest d accepted on one site is exact: X^3 Z^-1 and its 3^-1-th power
    d = 2**31
    K = close([PauliClass(d, 1, (3,), (d - 1,)),
               PauliClass(d, 1, (1,), ((d - 1) * pow(3, -1, d) % d,))])
    assert is_abelian(K) and K.order == d


def test_kernel_refuses_a_system_above_its_bound_before_building_it():
    # [a^T | I] at n = 20000 would hold 1.6e9 entries (11.9 GiB)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="kernel system"):
        annihilator(close((), d=2, n=20000))
    assert time.perf_counter() - start < 1.0
    assert annihilator(close((), d=2, n=512)).order == 4**512


_BIG = annihilator(close((), d=2, n=10))  # all 4^10 classes


@pytest.mark.parametrize("enumerate_group", [
    lambda: _BIG.rows,
    lambda: list(_BIG),
    lambda: _BIG.elements,
    lambda: _BIG.xz_arrays(),
])
def test_enumeration_above_the_element_bound_is_refused(enumerate_group):
    with pytest.raises(PreconditionError, match="above the bound 1000000"):
        enumerate_group()


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------


# every (d, n) with d in {2, 3, 4, 5, 6, 8, 9} and d^(2n) <= 5000
INTERSECT_SPACES = [(d, n) for d in (2, 3, 4, 5, 6, 8, 9) for n in range(1, 7)
                    if d ** (2 * n) <= 5000]


@st.composite
def intersect_case(draw):
    """(d, n, rows of A, rows of B): trivial, full or random subgroups, Abelian or not.

    The rows come from one drawn seed, so that derandomized examples spread over
    the kinds and sizes instead of clustering at the smallest draws.
    """
    d, n = draw(st.sampled_from(INTERSECT_SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    divisors = [s for s in range(1, d) if d % s == 0]

    def rows():
        kind = rng.integers(0, 4)
        if kind == 0:  # the trivial group
            return []
        if kind == 1:  # the full group
            return np.eye(2 * n, dtype=np.int64).tolist()
        # random rows, scaled by divisors of d so that composite d meets non-unit pivots
        r = rng.integers(0, d, (rng.integers(1, 2 * n + 1), 2 * n))
        return (r * rng.choice(divisors, (len(r), 1)) % d).tolist()

    return d, n, rows(), rows()


@settings(max_examples=350, deadline=None, derandomize=True)
@given(intersect_case())
@example((2, 1, [], [[1, 0], [0, 1]]))  # trivial meet full
@example((3, 2, np.eye(4, dtype=int).tolist(), np.eye(4, dtype=int).tolist()))  # full meet full
# <XI, ZI> meet <XI, IX> is <XI>
@example((2, 2, [[1, 0, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]]))
@example((4, 1, [[1, 0], [0, 1]], [[2, 2]]))  # <X, Z> meet <X^2 Z^2> over Z_4
@example((6, 1, [[2, 0], [0, 3]], [[1, 3]]))  # non-unit pivots over Z_6
def test_property_intersect_matches_enumeration(case):
    d, n, a_rows, b_rows = case
    A, B = _subgroup(d, n, a_rows), _subgroup(d, n, b_rows)
    meet = intersect(A, B)
    expected = set(map(tuple, A.rows.tolist())) & set(map(tuple, B.rows.tolist()))
    assert set(map(tuple, meet.rows.tolist())) == expected
    assert meet.order == len(expected)  # the Howell rows give the exact order
    assert meet == intersect(B, A) and meet.issubset(A) and meet.issubset(B)


def test_intersect_of_large_groups_enumerates_nothing():
    n = 64  # |K| = 2^64; the encoded subgroup meets K and Ann K = K only in I
    zs = [PauliClass(2, n, (0,) * n, tuple(int(i == j) for i in range(n))) for j in range(n)]
    K, low, high = diagonal_subgroup(2, n), close(zs[: n // 2]), close(zs[n // 2 :])
    H = encoded_subgroup(K)
    assert intersect(H, annihilator(K)).order == intersect(K, H).order == 1
    assert intersect(K, K) == K and intersect(K, low) == low
    assert intersect(low, high).order == 1 and intersect(H, H) == H


def test_intersect_refuses_a_system_above_its_bound_before_building_it(monkeypatch):
    import paulipriv.groups as groups_module

    def refuse(*args, **kwargs):
        raise AssertionError("the stacked system was solved")

    # [[A | A], [B | 0]] for the full 8-qubit group and its Z part: 24 x 32 entries
    zs = [PauliClass(2, 8, (0,) * 8, tuple(int(i == j) for i in range(8))) for j in range(8)]
    xs = [PauliClass(2, 8, tuple(int(i == j) for i in range(8)), (0,) * 8) for j in range(8)]
    A, B = close(xs + zs), close(zs)
    monkeypatch.setattr(groups_module, "_MAX_KERNEL_ENTRIES", 24 * 32 - 1)
    monkeypatch.setattr(groups_module, "_howell", refuse)
    with pytest.raises(PreconditionError, match="kernel system of 24 x 32 entries"):
        intersect(A, B)


def test_intersect_needs_one_space():
    with pytest.raises(PreconditionError, match="different spaces"):
        intersect(close([cls("Z")]), close([cls("ZI")]))
