"""Finite-dimensional *-algebra computations on dense complex matrices.

Operator algebras are stored as orthonormal bases in the Hilbert-Schmidt
inner product tr(a^dag b).  The module provides span closure, commutants,
block-structure extraction with an explicit conjugating unitary,
simultaneous diagonalization of commuting normal families, trace-preserving
conditional expectations, and Kraus-channel utilities including Choi-matrix
equality.

Rank and cluster decisions are never silent: singular values or eigenvalue
gaps inside a factor-of-ten window around the decision threshold raise
:class:`~paulipriv.errors.NumericalAmbiguityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAmbiguityError, PreconditionError

__all__ = [
    "Channel",
    "OperatorAlgebra",
    "StructureType",
    "apply_channel",
    "choi_equal",
    "choi_matrix",
    "commutant",
    "conditional_expectation",
    "diagonal_algebra",
    "full_matrix_algebra",
    "left_regular_trace",
    "scalar_algebra",
    "simultaneous_diagonalize",
    "span_closure",
]

_RTOL_RANK = 1e-9          # relative singular-value threshold for rank decisions
_AMBIGUITY_FACTOR = 10.0   # window around the threshold that raises instead
_CLUSTER_TOL = 1e-7        # eigenvalue clustering tolerance
_BLOCK_TOL = 1e-8          # verification tolerance for block forms
_COMMUTE_TOL = 1e-9
_TP_TOL = 1e-9
_CHOI_TOL = 1e-8

_STRUCTURE_SEED = 2016     # fixed seed for central-element sampling


def _as_square(op, name="operator") -> np.ndarray:
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise PreconditionError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class OperatorAlgebra:
    """A unital *-subalgebra of M_N given by an orthonormal basis.

    ``basis`` has shape (dim, N, N) with tr(b_i^dag b_j) = delta_ij.  Use
    :func:`span_closure` to build one from arbitrary generators.
    """

    basis: np.ndarray
    unital: bool = True

    def __post_init__(self):
        arr = np.array(self.basis, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise PreconditionError(
                f"algebra basis must have shape (dim, N, N), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)

    @property
    def N(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def rows(self) -> np.ndarray:
        """Basis as flattened rows of length N*N."""
        return self.basis.reshape(self.dim, -1)

    def __iter__(self):
        return iter(self.basis)

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the span of the algebra."""
        x = _as_square(x)
        coeffs = self.rows().conj() @ x.reshape(-1)
        return (coeffs @ self.rows()).reshape(self.N, self.N)

    def contains(self, x, rtol: float = _RTOL_RANK) -> bool:
        x = _as_square(x)
        resid = x - self.project(x)
        return np.linalg.norm(resid) <= rtol * max(1.0, np.linalg.norm(x))

    def verify(self, tol: float = 1e-9) -> None:
        """Check orthonormality, identity membership and product closure."""
        g = self.rows() @ self.rows().conj().T
        if np.abs(g - np.eye(self.dim)).max() > tol:
            raise PreconditionError("algebra basis is not orthonormal")
        if not self.contains(np.eye(self.N)):
            raise PreconditionError("algebra does not contain the identity")
        for a in self.basis:
            if not self.contains(a.conj().T):
                raise PreconditionError("algebra is not closed under adjoints")
            for b in self.basis:
                if not self.contains(a @ b):
                    raise PreconditionError("algebra is not closed under products")


def _append_independent(
    stack: np.ndarray | None, cands: np.ndarray, rtol: float = _RTOL_RANK
) -> np.ndarray:
    """Extend an orthonormal row stack by the independent part of ``cands``."""
    pieces = [] if stack is None else [stack]
    for lo in range(0, len(cands), 2048):
        c = np.array(cands[lo : lo + 2048], dtype=complex)
        norms = np.linalg.norm(c, axis=1)
        c = c[norms > 1e-12]
        if not len(c):
            continue
        c /= np.linalg.norm(c, axis=1)[:, None]
        for _ in range(2):  # twice for numerical orthogonality
            for p in pieces:
                c -= (c @ p.conj().T) @ p
        _, s, vh = np.linalg.svd(c, full_matrices=False)
        tau = rtol * max(1.0, s[0] if len(s) else 0.0)
        inside = (s > tau / _AMBIGUITY_FACTOR) & (s < tau * _AMBIGUITY_FACTOR)
        if inside.any():
            raise NumericalAmbiguityError(
                f"singular value {s[inside][0]:.3e} within a factor of "
                f"{_AMBIGUITY_FACTOR} of the rank threshold {tau:.3e}"
            )
        new = vh[s > tau]
        if len(new):
            pieces.append(new)
    return pieces[0] if len(pieces) == 1 else np.vstack(pieces)


def span_closure(ops, *, N: int | None = None, rtol: float = _RTOL_RANK) -> OperatorAlgebra:
    """Smallest unital *-algebra containing ``ops``, as an orthonormal basis.

    The identity is adjoined automatically; the span is enriched by products
    and adjoints until it reaches a fixed point (at most N^2 dimensions).
    """
    mats = [_as_square(op) for op in ops]
    if mats:
        N = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != N:
                raise PreconditionError("span_closure inputs differ in dimension")
    elif N is None:
        raise PreconditionError("span_closure with no operators needs explicit N")
    L = N * N
    rows = [np.eye(N, dtype=complex).reshape(-1) / math.sqrt(N)]
    rows += [m.reshape(-1) for m in mats]
    stack = _append_independent(None, np.array(rows), rtol)
    pending = list(range(len(stack)))
    while pending:
        chunk = max(1, 8_000_000 // max(1, len(stack) * L))
        take, pending = pending[:chunk], pending[chunk:]
        newm = stack[take].reshape(-1, N, N)
        allm = stack.reshape(-1, N, N)
        p1 = np.einsum("iab,jbc->ijac", allm, newm).reshape(-1, L)
        p2 = np.einsum("iab,jbc->ijac", newm, allm).reshape(-1, L)
        adj = np.conj(np.transpose(newm, (0, 2, 1))).reshape(-1, L)
        before = len(stack)
        stack = _append_independent(stack, np.vstack([p1, p2, adj]), rtol)
        if len(stack) > L:
            raise NumericalAmbiguityError(
                f"span closure exceeded N^2 = {L} dimensions; rank decisions drifted"
            )
        pending.extend(range(before, len(stack)))
    return OperatorAlgebra(stack.reshape(-1, N, N))


def _commutator_gram(mats: np.ndarray) -> np.ndarray:
    """PSD Gram matrix of the stacked commutator maps x -> [a_i, x].

    Its kernel is the joint commutant of the family, using the identity
    sum_i K_i^dag K_i with K_i = a_i (x) I - I (x) a_i^T on row-major vec.
    """
    r = mats.shape[1]
    eye = np.eye(r, dtype=complex)
    s1 = np.einsum("kab,kac->bc", mats.conj(), mats)
    s2 = np.einsum("kab,kcb->ac", mats.conj(), mats)
    m = np.kron(s1, eye) + np.kron(eye, s2)
    # batched sums of kron(a^dag, a^T) and kron(a, conj(a))
    adag = np.conj(np.transpose(mats, (0, 2, 1)))
    m -= np.einsum("kac,kbd->abcd", adag, np.transpose(mats, (0, 2, 1))).reshape(
        r * r, r * r
    )
    m -= np.einsum("kac,kbd->abcd", mats, mats.conj()).reshape(r * r, r * r)
    return m


def _commutant_kernel(mats: np.ndarray, rtol: float = _RTOL_RANK) -> np.ndarray:
    """Orthonormal rows spanning the joint commutant of a matrix family.

    The Gram matrix splits candidates from clear non-members; candidates are
    then accepted or rejected on their exact commutator residuals, since the
    eigenvalue route alone cannot resolve singular values near rtol * smax.
    """
    m = _commutator_gram(mats)
    w, v = np.linalg.eigh(m)
    lam_max = float(w[-1])
    r = mats.shape[1]
    if lam_max < 1e-12:
        return v.T.copy()
    tau = rtol * math.sqrt(lam_max)
    cand = np.nonzero(w <= 1e-8 * lam_max)[0]
    if not len(cand):
        raise NumericalAmbiguityError("commutant kernel came out empty")
    xs = v[:, cand].T.reshape(len(cand), r, r)
    comms = np.matmul(mats[None], xs[:, None]) - np.matmul(xs[:, None], mats[None])
    sigmas = np.sqrt(np.einsum("ckad,ckad->c", comms.conj(), comms).real)
    inside = (sigmas > tau / _AMBIGUITY_FACTOR) & (sigmas < tau * _AMBIGUITY_FACTOR)
    if inside.any():
        raise NumericalAmbiguityError(
            f"commutator residual {sigmas[inside][0]:.3e} within a factor of "
            f"{_AMBIGUITY_FACTOR} of the threshold {tau:.3e}"
        )
    keep = v[:, cand[sigmas <= tau]].T.copy()
    if not len(keep):
        raise NumericalAmbiguityError("commutant kernel came out empty")
    return keep


def commutant(A: OperatorAlgebra, *, rtol: float = _RTOL_RANK) -> OperatorAlgebra:
    """All matrices commuting with every element of A, as an algebra."""
    kernel = _commutant_kernel(A.basis, rtol)
    return OperatorAlgebra(kernel.reshape(-1, A.N, A.N))


def _subspace_intersection(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the intersection of two row spans."""
    m = p.conj() @ q.T
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    inside = (s > 1 - 1e-5) & (s < 1 - 1e-9)
    if inside.any():
        raise NumericalAmbiguityError(
            f"principal angle cosine {s[inside][0]:.12f} too close to 1 to decide"
        )
    count = int((s >= 1 - 1e-9).sum())
    if count == 0:
        return np.zeros((0, p.shape[1]), dtype=complex)
    rows = vh[:count].conj() @ q
    # re-orthonormalize; near-unit singular values leave tiny skew
    qmat, _ = np.linalg.qr(rows.T)
    return qmat.T[:count]


def _cluster_indices(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters separated by more than tol."""
    gaps = np.diff(values)
    inside = (gaps > tol / _AMBIGUITY_FACTOR) & (gaps < tol * _AMBIGUITY_FACTOR)
    if inside.any():
        raise NumericalAmbiguityError(
            f"eigenvalue gap {gaps[inside][0]:.3e} within a factor of "
            f"{_AMBIGUITY_FACTOR} of the cluster tolerance {tol:.3e}"
        )
    splits = np.nonzero(gaps > tol)[0] + 1
    return np.split(np.arange(len(values)), splits)


@dataclass(frozen=True)
class StructureType:
    """Block structure (k_1, q_1), ..., (k_m, q_m): multiplicities and sizes.

    The algebra is unitarily equivalent to the direct sum over i of
    I_{k_i} (x) M_{q_i}; blocks are sorted by (q_i, k_i).
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple((int(k), int(q)) for k, q in self.blocks)
        )

    @property
    def total_dimension(self) -> int:
        return sum(k * q for k, q in self.blocks)

    @property
    def algebra_dimension(self) -> int:
        return sum(q * q for _, q in self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def _hermitian_family(rows: np.ndarray, r: int) -> list[np.ndarray]:
    fam = []
    for row in rows:
        m = row.reshape(r, r)
        h = (m + m.conj().T) / 2
        g = (m - m.conj().T) / 2j
        if np.abs(h).max() > 1e-12:
            fam.append(h)
        if np.abs(g).max() > 1e-12:
            fam.append(g)
    return fam


def _generic_split(
    herms: list[np.ndarray], want: int, rng, cluster_tol: float, sizes=None
) -> list[np.ndarray] | None:
    """Eigenspaces of a generic hermitian combination, or None if degenerate."""
    dim = herms[0].shape[0]
    for _ in range(16):
        c = np.zeros((dim, dim), dtype=complex)
        for h in herms:
            c += rng.standard_normal() * h
        w, v = np.linalg.eigh(c)
        clusters = _cluster_indices(w, cluster_tol)
        if len(clusters) != want:
            continue
        if sizes is not None and any(len(c_) != s for c_, s in zip(clusters, sizes)):
            continue
        return [v[:, inds] for inds in clusters]
    return None


def _intertwiner(pi_ref: np.ndarray, pi_j: np.ndarray, q: int) -> np.ndarray:
    """Unitary T with pi_j(a) T = T pi_ref(a) for all basis images a."""
    eye = np.eye(q, dtype=complex)
    rows = []
    for a_ref, a_j in zip(pi_ref, pi_j):
        rows.append(np.kron(a_j, eye) - np.kron(eye, a_ref.T))
    s_mat = np.vstack(rows)
    _, s, vh = np.linalg.svd(s_mat)
    if len(s) >= 2 and s[-2] < 1e-4:
        raise NumericalAmbiguityError("intertwiner space is not one-dimensional")
    if s[-1] > 1e-8:
        raise NumericalAmbiguityError("no intertwiner found between block copies")
    t = vh[-1].conj().reshape(q, q)  # right singular vector, not its conjugate
    g = t.conj().T @ t
    lam = np.trace(g).real / q
    if np.abs(g - lam * np.eye(q)).max() > 1e-8 * max(lam, 1e-12):
        raise NumericalAmbiguityError("intertwiner failed the unitarity check")
    return t / math.sqrt(lam)


def _verify_block_form(
    u: np.ndarray, A: OperatorAlgebra, blocks, tol: float = _BLOCK_TOL
) -> float:
    n = A.N
    if np.abs(u @ u.conj().T - np.eye(n)).max() > 1e-10:
        raise NumericalAmbiguityError("structure unitary failed the unitarity check")
    dev = 0.0
    for a in A.basis:
        m = u @ a @ u.conj().T
        offset = 0
        recon = np.zeros_like(m)
        for k, q in blocks:
            size = k * q
            blk = m[offset : offset + size, offset : offset + size]
            t4 = blk.reshape(k, q, k, q)
            avg = np.einsum("iaib->ab", t4) / k
            recon[offset : offset + size, offset : offset + size] = np.kron(
                np.eye(k), avg
            )
            offset += size
        dev = max(dev, np.abs(m - recon).max())
    if dev > tol:
        raise NumericalAmbiguityError(
            f"block form deviates by {dev:.3e}, above the tolerance {tol:.1e}"
        )
    return dev


def structure_type(
    A: OperatorAlgebra,
    *,
    seed: int = _STRUCTURE_SEED,
    cluster_tol: float = _CLUSTER_TOL,
) -> tuple[StructureType, np.ndarray]:
    """Block structure of A and a unitary U with U a U^dag in block form.

    Parameters
    ----------
    A : OperatorAlgebra
    seed : int
        Seed for the generic central-element draws; fixed by default so that
        repeated runs return identical unitaries.

    Returns
    -------
    (StructureType, U) where U a U^dag lies in the direct sum of
    I_{k_i} (x) M_{q_i} for every basis element a, within 1e-8.
    """
    n = A.N
    rng = np.random.default_rng(seed)
    comm = commutant(A)
    center_rows = _subspace_intersection(A.rows(), comm.rows())
    m = len(center_rows)
    if m == 0:
        raise NumericalAmbiguityError("empty center; the algebra is not unital")
    spaces = _generic_split(_hermitian_family(center_rows, n), m, rng, cluster_tol)
    if spaces is None:
        raise NumericalAmbiguityError(
            f"could not split the center into {m} distinct eigenvalue clusters"
        )

    blocks = []
    for v in spaces:
        r = v.shape[1]
        restricted = np.einsum("ai,kab,bj->kij", v.conj(), A.basis, v)
        rbasis = _append_independent(None, restricted.reshape(len(restricted), -1))
        q2 = len(rbasis)
        q = math.isqrt(q2)
        if q * q != q2:
            raise NumericalAmbiguityError(
                f"restricted block dimension {q2} is not a perfect square"
            )
        k, rem = divmod(r, q)
        if rem:
            raise NumericalAmbiguityError(
                f"block size {r} is not a multiple of the factor size {q}"
            )
        if q == 1 or k == 1:
            cols = v
        else:
            rmats = rbasis.reshape(q2, r, r)
            sub_comm = _commutant_kernel(rmats)
            w_spaces = _generic_split(
                _hermitian_family(sub_comm, r), k, rng, cluster_tol, sizes=[q] * k
            )
            if w_spaces is None:
                raise NumericalAmbiguityError(
                    "could not split a factor block into multiplicity copies"
                )
            pis = [
                np.einsum("ai,kab,bj->kij", w.conj(), rmats, w) for w in w_spaces
            ]
            local = [w_spaces[0]]
            for w, pi in zip(w_spaces[1:], pis[1:]):
                local.append(w @ _intertwiner(pis[0], pi, q))
            cols = v @ np.hstack(local)
        blocks.append((k, q, cols))

    blocks.sort(key=lambda item: (item[1], item[0]))
    u = np.hstack([cols for _, _, cols in blocks]).conj().T
    st = StructureType(tuple((k, q) for k, q, _ in blocks))
    if st.total_dimension != n:
        raise NumericalAmbiguityError("block dimensions do not add up to N")
    _verify_block_form(u, A, st.blocks)
    return st, u


def simultaneous_diagonalize(
    ops, *, commute_tol: float = _COMMUTE_TOL, cluster_tol: float = _CLUSTER_TOL
) -> np.ndarray:
    """Unitary U with U a U^dag diagonal for every commuting normal input.

    Columns of U^dag are ordered canonically: joint eigenvalue tuples sorted
    in descending lexicographic order (real part before imaginary part,
    operators in input order), so already-diagonal inputs yield a
    permutation.  Raises :class:`PreconditionError` when the inputs fail the
    normality or commutation checks at ``commute_tol``.
    """
    mats = [_as_square(op) for op in ops]
    if not mats:
        raise PreconditionError("simultaneous_diagonalize needs at least one operator")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape[0] != n:
            raise PreconditionError("operators differ in dimension")
        if np.abs(a @ a.conj().T - a.conj().T @ a).max() > commute_tol:
            raise PreconditionError("input operator is not normal")
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            if np.abs(a @ b - b @ a).max() > commute_tol:
                raise PreconditionError("input operators do not commute")

    herms = []
    for a in mats:
        h = (a + a.conj().T) / 2
        g = (a - a.conj().T) / 2j
        if np.abs(h).max() > 1e-14:
            herms.append(h)
        if np.abs(g).max() > 1e-14:
            herms.append(g)

    def recurse(family, dim):
        if dim == 1:
            return np.eye(1, dtype=complex)
        # near-scalar restrictions split nothing; skip them
        while family:
            h = family[0]
            if np.abs(h - (np.trace(h) / dim) * np.eye(dim)).max() > 1e-12:
                break
            family = family[1:]
        if not family:
            return np.eye(dim, dtype=complex)
        w, v = np.linalg.eigh(family[0])
        cols = []
        for inds in _cluster_indices(w, cluster_tol):
            vc = v[:, inds]
            rest = [vc.conj().T @ h @ vc for h in family[1:]]
            cols.append(vc @ recurse(rest, len(inds)))
        return np.hstack(cols)

    v = recurse(herms, n)
    keys = []
    for j in range(n):
        col = v[:, j]
        key = []
        for a in mats:
            lam = col.conj() @ a @ col
            key.extend((round(lam.real, 6), round(lam.imag, 6)))
        keys.append(tuple(key))
    order = sorted(range(n), key=lambda j: keys[j], reverse=True)
    v = v[:, order]
    for j in range(n):
        idx = int(np.argmax(np.abs(v[:, j])))
        ph = v[idx, j]
        v[:, j] *= np.conj(ph) / abs(ph)
    u = v.conj().T
    for a in mats:
        diag = u @ a @ u.conj().T
        if np.abs(diag - np.diag(np.diag(diag))).max() > _BLOCK_TOL:
            raise NumericalAmbiguityError("joint diagonalization failed verification")
    return u


def left_regular_trace(A: OperatorAlgebra, a, *, rtol: float = _RTOL_RANK) -> complex:
    """Trace of left multiplication by ``a`` acting on all of M_N.

    ``a`` must lie in the span of A (projection residual at most ``rtol``
    relative).  L_a(x) = a x is a (x) I on the N^2 dimensional space, so its
    trace is N tr(a).
    """
    a = _as_square(a)
    if a.shape[0] != A.N:
        raise PreconditionError("operator dimension does not match the algebra")
    resid = a - A.project(a)
    if np.linalg.norm(resid) > rtol * max(1.0, np.linalg.norm(a)):
        raise PreconditionError("operator lies outside the algebra span")
    return complex(A.N * np.trace(a))


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map as a stack of Kraus operators."""

    kraus: np.ndarray

    def __post_init__(self):
        arr = np.array(self.kraus, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise PreconditionError(
                f"kraus stack must have shape (m, N, N), got {arr.shape}"
            )
        total = np.einsum("kba,kbc->ac", arr.conj(), arr)
        if np.abs(total - np.eye(arr.shape[1])).max() > _TP_TOL:
            raise PreconditionError("kraus operators are not trace preserving")
        arr.setflags(write=False)
        object.__setattr__(self, "kraus", arr)

    @classmethod
    def identity(cls, n: int) -> "Channel":
        return cls(np.eye(n, dtype=complex)[None])

    @property
    def N(self) -> int:
        return self.kraus.shape[1]


def apply_channel(phi: Channel, rho) -> np.ndarray:
    """Evaluate sum_k K rho K^dag."""
    rho = _as_square(rho, "state")
    if rho.shape[0] != phi.N:
        raise PreconditionError(
            f"state dimension {rho.shape[0]} does not match channel dimension {phi.N}"
        )
    tmp = np.matmul(phi.kraus, rho)
    return np.matmul(tmp, np.conj(np.transpose(phi.kraus, (0, 2, 1)))).sum(axis=0)


def superoperator(phi: Channel) -> np.ndarray:
    """Matrix of the channel on row-major vectorized inputs."""
    return sum(np.kron(k, k.conj()) for k in phi.kraus)


def choi_matrix(phi: Channel) -> np.ndarray:
    """Unnormalized Choi matrix sum_{jk} E_jk (x) Phi(E_jk)."""
    n = phi.N
    s = superoperator(phi)
    return s.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)


def choi_equal(phi1: Channel, phi2: Channel, tol: float = _CHOI_TOL) -> bool:
    """True iff the two channels agree as maps (equal Choi matrices)."""
    if phi1.N != phi2.N:
        raise PreconditionError("channels act on different dimensions")
    return bool(np.abs(choi_matrix(phi1) - choi_matrix(phi2)).max() <= tol)


def conditional_expectation(
    A: OperatorAlgebra, *, seed: int = _STRUCTURE_SEED
) -> Channel:
    """The trace-preserving conditional expectation onto A as a Kraus channel.

    Built from the block decomposition: within each I_k (x) M_q block the map
    is the normalized partial trace over the multiplicity factor, realized by
    matrix-unit Kraus operators scaled by 1/sqrt(k).
    """
    st, u = structure_type(A, seed=seed)
    cols_all = u.conj().T
    kraus = []
    offset = 0
    for k, q in st.blocks:
        cols = cols_all[:, offset : offset + k * q]
        eye_q = np.eye(q, dtype=complex)
        for j in range(k):
            for l in range(k):
                unit = np.zeros((k, k), dtype=complex)
                unit[j, l] = 1.0
                kraus.append(cols @ np.kron(unit, eye_q) @ cols.conj().T / math.sqrt(k))
        offset += k * q
    return Channel(np.array(kraus))


def scalar_algebra(n: int) -> OperatorAlgebra:
    """The scalars C I inside M_n."""
    return OperatorAlgebra(np.eye(n, dtype=complex)[None] / math.sqrt(n))


def full_matrix_algebra(n: int) -> OperatorAlgebra:
    """All of M_n, with the matrix units as orthonormal basis."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            basis[i * n + j, i, j] = 1.0
    return OperatorAlgebra(basis)


def diagonal_algebra(n: int) -> OperatorAlgebra:
    """The diagonal subalgebra of M_n."""
    basis = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        basis[i, i, i] = 1.0
    return OperatorAlgebra(basis)
