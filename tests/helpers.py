"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the package internals: dense
single-site matrices are hard-coded, closures are brute-forced on exponent
tuples, and commutation phases are read off dense products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from paulipriv import PauliClass, all_classes, annihilator, close, conditional_expectation
from paulipriv.algebra import superoperator

W3 = np.exp(2j * np.pi / 3)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.diag([1.0, -1.0]).astype(complex)
Y2 = np.array([[0, -1j], [1j, 0]])
X3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
Z3 = np.diag([1.0, W3, W3**2]).astype(complex)


def root_of_unity(t: float) -> complex:
    """exp(2j*pi*t), rounded to 15 decimals so that quarter turns are exact."""
    return np.round(np.exp(2j * np.pi * t), 15)


@lru_cache(maxsize=None)
def site_matrix(d: int, x: int, z: int) -> np.ndarray:
    """Read-only X^x Z^z on one qudit: X[i, (i + 1) % d] = 1 and Z = diag(omega^j)."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=1)
    clock = np.diag([root_of_unity(j / d) for j in range(d)])
    out = np.linalg.matrix_power(shift, x) @ np.linalg.matrix_power(clock, z)
    out.setflags(write=False)
    return out


def dense_oracle(d: int, phase_exp: int, x, z) -> np.ndarray:
    """Independent dense realization of zeta^phase * kron(X^x Z^z)."""
    out = np.array([[root_of_unity(phase_exp / (2 * d))]], dtype=complex)
    for xk, zk in zip(x, z):
        out = np.kron(out, site_matrix(d, xk, zk))
    return out


def brute_closure(gens, d: int, n: int) -> set:
    """BFS closure over (x + z) exponent tuples of length 2n."""
    elems = {tuple([0] * (2 * n))}
    gens = [tuple(g) for g in gens]
    frontier = list(elems)
    while frontier:
        a = frontier.pop()
        for g in gens:
            c = tuple((ai + gi) % d for ai, gi in zip(a, g))
            if c not in elems:
                elems.add(c)
                frontier.append(c)
    return elems


def random_class(rng, d: int, n: int) -> PauliClass:
    return PauliClass(
        d, n, tuple(rng.integers(0, d, n).tolist()), tuple(rng.integers(0, d, n).tolist())
    )


def random_subgroup(rng, d: int, n: int):
    """Closure of a random handful of classes."""
    count = int(rng.integers(0, 2 * n + 1))
    return close([random_class(rng, d, n) for _ in range(count)], d=d, n=n)


def random_abelian_subgroup(rng, d: int, n: int, steps: int | None = None):
    """Random Abelian subgroup grown by random commuting adjunctions.

    Each step multiplies the size by d (for prime d), so ``steps`` adjunctions
    give size d**steps.  With ``steps=None`` a random count in [0, n] is used.
    """
    if steps is None:
        steps = int(rng.integers(0, n + 1))
    group = close((), d=d, n=n)
    for _ in range(steps):
        candidates = [c for c in annihilator(group) if c not in group]
        group = close(list(group.elements) + [candidates[rng.integers(len(candidates))]])
    return group


def random_maximal_abelian(rng, d: int, n: int):
    return random_abelian_subgroup(rng, d, n, steps=n)


def transvect(rows, moves, d: int) -> np.ndarray:
    """(x | z) rows moved by symplectic transvections w -> w + lam <w, v> v.

    Each (v, lam) in ``moves`` preserves the commutation form over any Z_d, so
    commuting rows keep commuting and independent rows stay independent.
    """
    rows = np.array(rows, dtype=np.int64)
    n = rows.shape[1] // 2
    for v, lam in moves:
        v = np.array(v, dtype=np.int64)
        form = rows[:, :n] @ v[n:] - rows[:, n:] @ v[:n]
        rows = (rows + lam * form[:, None] * v[None, :]) % d
    return rows


def gram_commutant(basis: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the joint commutant of a matrix family.

    The kernel of the N^2 x N^2 PSD Gram matrix sum_i K_i^dag K_i, where
    K_i = a_i (x) I - I (x) a_i^T is x -> [a_i, x] on row-major vec, read off
    by a dense eigendecomposition with a fixed relative cut.
    """
    r = basis.shape[1]
    eye = np.eye(r, dtype=complex)
    s1 = np.einsum("kab,kac->bc", basis.conj(), basis)
    s2 = np.einsum("kab,kcb->ac", basis.conj(), basis)
    gram = np.kron(s1, eye) + np.kron(eye, s2)
    # batched sums of kron(a^dag, a^T) and kron(a, conj(a))
    adag = np.conj(np.transpose(basis, (0, 2, 1)))
    gram -= np.einsum("kac,kbd->abcd", adag, np.transpose(basis, (0, 2, 1))).reshape(
        r * r, r * r
    )
    gram -= np.einsum("kac,kbd->abcd", basis, basis.conj()).reshape(r * r, r * r)
    w, v = np.linalg.eigh(gram)
    return v[:, w <= 1e-8 * max(w[-1], 1.0)].T.copy()


def haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_basis(blocks, u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of u (sum_i I_k (x) M_q) u^dag for blocks (k, q)."""
    n = sum(k * q for k, q in blocks)
    basis = []
    offset = 0
    for k, q in blocks:
        for a in range(q):
            for b in range(q):
                m = np.zeros((n, n), dtype=complex)
                unit = np.zeros((q, q))
                unit[a, b] = 1.0
                m[offset : offset + k * q, offset : offset + k * q] = np.kron(
                    np.eye(k), unit
                ) / np.sqrt(k)
                basis.append(u @ m @ u.conj().T)
        offset += k * q
    return np.array(basis)


def random_density(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def class_index(d: int, n: int):
    """Canonical class list plus a lookup from (x, z) tuples to positions."""
    classes = all_classes(d, n)
    return classes, {(c.x, c.z): i for i, c in enumerate(classes)}


def product_closure(ops, N: int | None = None, cut: float = 1e-8) -> np.ndarray:
    """Orthonormal rows spanning the unital *-algebra generated by ``ops``.

    The two-sided closure: every new basis element is multiplied by the whole
    basis on the left and on the right, and its adjoint is taken, until no
    candidate adds a dimension.  Independence is decided by an SVD of the
    projected candidates with a fixed relative cut and no ambiguity window.
    """
    mats = [np.asarray(op, dtype=complex) for op in ops]
    N = mats[0].shape[0] if mats else N
    L = N * N

    def extend(stack, cands):
        for lo in range(0, len(cands), 2048):
            c = cands[lo : lo + 2048]
            c = c[np.linalg.norm(c, axis=1) > 1e-12]
            if not len(c):
                continue
            c = c / np.linalg.norm(c, axis=1)[:, None]
            for _ in range(2):
                c = c - (c @ stack.conj().T) @ stack
            if np.linalg.norm(c) < cut:
                continue
            _, s, vh = np.linalg.svd(c, full_matrices=False)
            stack = np.vstack([stack, vh[s > cut * max(1.0, s[0])]])
        return stack

    stack = np.eye(N, dtype=complex).reshape(1, L) / np.sqrt(N)
    stack = extend(stack, np.array([m.reshape(-1) for m in mats]).reshape(-1, L))
    pending = list(range(len(stack)))
    while pending:
        chunk = max(1, 4_000_000 // (len(stack) * L))
        take, pending = pending[:chunk], pending[chunk:]
        new, every = stack[take].reshape(-1, N, N), stack.reshape(-1, N, N)
        cands = np.vstack([
            np.einsum("iab,jbc->ijac", every, new).reshape(-1, L),
            np.einsum("iab,jbc->ijac", new, every).reshape(-1, L),
            new.conj().transpose(0, 2, 1).reshape(-1, L),
        ])
        before = len(stack)
        stack = extend(stack, cands)
        pending.extend(range(before, len(stack)))
    return stack


def superoperator_conditions(A, B) -> tuple[float, float]:
    """Quasiorthogonality conditions (3) and (4) from the N^2 x N^2 superoperators.

    S_A and S_B are the superoperators of the two conditional-expectation
    channels.  (3) is the largest entry of S_A vec(b) - tr(b)/N vec(I) over the
    basis of B and the same with A and B swapped; (4) is the largest entry of
    S_A S_B - vec(I) vec(I)^T / N and of S_B S_A - the same.  O(N^6).
    """
    n = A.N
    vec_eye = np.eye(n, dtype=complex).reshape(-1)
    sa = superoperator(conditional_expectation(A))
    sb = superoperator(conditional_expectation(B))
    dev3 = max(
        np.abs(s @ Y.rows().T - np.outer(vec_eye, np.einsum("jaa->j", Y.basis)) / n).max()
        for s, Y in ((sa, B), (sb, A))
    )
    target = np.outer(vec_eye, vec_eye) / n
    dev4 = max(np.abs(sa @ sb - target).max(), np.abs(sb @ sa - target).max())
    return float(dev3), float(dev4)
