"""Finite-dimensional *-algebra computations on dense complex matrices.

Operator algebras are stored as orthonormal bases in the Hilbert-Schmidt
inner product tr(a^dag b).  The module provides span closure, commutants,
block-structure extraction with an explicit conjugating unitary,
trace-preserving conditional expectations, and Kraus-channel utilities
including Choi-matrix equality.

The block structure A = U^dag (sum_i I_{k_i} (x) M_{q_i}) U comes from the
eigenspaces of one generic element of A (Murota, Kanno, Kojima & Kojima,
Japan J. Indust. Appl. Math. 27, 2010) in O(dim A N^2 + N^3), with no
N^2 x N^2 matrix.  Each algebra computes it once and keeps it; the conditional
expectation reads it, and the commutant U^dag (sum_i M_{k_i} (x) I_{q_i}) U
keeps it, each block's factors swapped, as its own.

The span of a Pauli subgroup (:func:`~paulipriv.constructions.subgroup_algebra`,
the one way in) keeps its subgroup; its basis is built on first read, where
the same bound refuses it, and integer quasiorthogonality works at any n.  The
block structure of a span with a symplectic basis, the pipeline's included, is
built from that frame, with no generic element.

Rank, cluster and coupling decisions are never silent: singular values,
eigenvalue gaps or coupling norms inside a factor-of-ten window around the
decision threshold raise :class:`~paulipriv.errors.NumericalAmbiguityError`.
Dense constructors refuse inputs above ``_MAX_DENSE_ENTRIES`` complex entries
with :class:`~paulipriv.errors.PreconditionError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    "scalar_algebra",
    "span_closure",
    "structure_type",
]

_RTOL_RANK = 1e-9          # relative singular-value threshold for rank decisions
_AMBIGUITY_FACTOR = 10.0   # window around the threshold that raises instead
_CLUSTER_TOL = 1e-7        # eigenvalue clustering tolerance
_BLOCK_TOL = 1e-8          # verification tolerance for block forms
_TP_TOL = 1e-9
_CHOI_TOL = 1e-8

_STRUCTURE_SEED = 2016     # fixed seed for generic-element sampling
_STRUCTURE_DRAWS = 16      # generic draws before structure_type gives up
_MAX_DENSE_ENTRIES = 2**24  # bound on count * N^2 for dense operator stacks


def _require_dense(count: int, N: int, what: str, hint: str = "") -> None:
    """Refuse a stack of ``count`` dense N x N operators above the size bound."""
    entries = count * N * N
    if entries > _MAX_DENSE_ENTRIES:
        try:
            need = f"{count} x {N} x {N} = {entries}"
        except ValueError:  # more digits than str() prints, as for N = 2^20000
            need = f"at least 2^{entries.bit_length() - 1}"
        raise PreconditionError(
            f"{what} need {need} complex entries, above the limit of {_MAX_DENSE_ENTRIES}"
            + (f"; {hint}" if hint else "")
        )


def _as_square(op, name="operator") -> np.ndarray:
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise PreconditionError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class OperatorAlgebra:
    """A unital *-subalgebra of M_N given by an orthonormal basis.

    ``basis`` has shape (dim, N, N) with tr(b_i^dag b_j) = delta_ij.  Use
    :func:`span_closure` to build one from arbitrary generators.  ``subgroup``
    is None here; the span of a Pauli subgroup
    (:func:`~paulipriv.constructions.subgroup_algebra`) keeps the subgroup
    and builds its basis only on first read.
    """

    basis: np.ndarray
    subgroup = None  # a class attribute, not a field

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

    def contains(self, x) -> bool:
        x = _as_square(x)
        resid = x - self.project(x)
        return np.linalg.norm(resid) <= _RTOL_RANK * max(1.0, np.linalg.norm(x))

    def verify(self) -> None:
        """Check orthonormality, identity membership and product closure."""
        g = self.rows() @ self.rows().conj().T
        if np.abs(g - np.eye(self.dim)).max() > 1e-9:
            raise PreconditionError("algebra basis is not orthonormal")
        if not self.contains(np.eye(self.N)):
            raise PreconditionError("algebra does not contain the identity")
        for a in self.basis:
            if not self.contains(a.conj().T):
                raise PreconditionError("algebra is not closed under adjoints")
            for b in self.basis:
                if not self.contains(a @ b):
                    raise PreconditionError("algebra is not closed under products")

    @cached_property
    def _decomposition(self) -> tuple[StructureType, np.ndarray]:
        """The decomposition of :func:`structure_type`; a failure is not kept."""
        rng = np.random.default_rng(_STRUCTURE_SEED)
        for _ in range(_STRUCTURE_DRAWS):
            try:
                return _decompose(self, rng)
            except NumericalAmbiguityError as exc:
                last = exc
        raise NumericalAmbiguityError(
            f"no verified block form in {_STRUCTURE_DRAWS} generic draws; last: {last}"
        )


def _append_independent(stack: np.ndarray | None, cands: np.ndarray) -> np.ndarray:
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
        # every singular value is at most the Frobenius norm, so a block below
        # the window adds nothing and is kept away from the SVD, which may fail
        # to converge on pure roundoff
        if np.linalg.norm(c) < _RTOL_RANK / _AMBIGUITY_FACTOR:
            continue
        _, s, vh = np.linalg.svd(c, full_matrices=False)
        tau = _RTOL_RANK * max(1.0, s[0] if len(s) else 0.0)
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


def span_closure(ops, *, N: int | None = None) -> OperatorAlgebra:
    """Smallest unital *-algebra containing ``ops``, as an orthonormal basis.

    The identity is adjoined automatically.  The orthonormal basis of
    span{I, ops}, kept by an input already closed, is grown by spinning
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005):
    each new basis element is multiplied on the left by the nonzero generators,
    scaled to unit Frobenius norm so that the row filter keeps a tiny one's
    products, and by their adjoints, until no product adds a dimension.  The
    span W reached contains I and is closed under these multipliers, so it holds
    every word in the generators and nothing else: W is the *-algebra they
    generate.  Each element costs at most 2 len(ops) candidate products, and the
    span never exceeds N^2 dimensions.  ``N``, when given, must match the ops.
    """
    mats = [_as_square(op) for op in ops]
    if N is None and not mats:
        raise PreconditionError("span_closure with no operators needs explicit N")
    N = mats[0].shape[0] if N is None else N
    if N < 1 or any(m.shape[0] != N for m in mats):
        raise PreconditionError(f"span_closure needs N >= 1 and every input {N} x {N}")
    L = N * N
    rows = [np.eye(N, dtype=complex).reshape(-1) / math.sqrt(N)]
    rows += [m.reshape(-1) for m in mats]
    stack = _append_independent(None, np.array(rows))
    gens = np.array([m / s for m in mats if (s := np.linalg.norm(m)) > 0]).reshape(-1, N, N)
    mults = np.concatenate([gens, gens.conj().transpose(0, 2, 1)]).reshape(-1, N)
    pending = list(range(len(stack))) if len(gens) else []
    while pending:
        chunk = max(1, 8_000_000 // (len(mults) * L))
        take, pending = pending[:chunk], pending[chunk:]
        # every multiplier times every new element in one (2 r N, N) @ (N, t N) product
        newm = stack[take].reshape(-1, N, N).transpose(1, 0, 2).reshape(N, -1)
        cands = (mults @ newm).reshape(-1, N, len(take), N).transpose(0, 2, 1, 3)
        before = len(stack)
        stack = _append_independent(stack, cands.reshape(-1, L))
        if len(stack) > L:
            raise NumericalAmbiguityError(
                f"span closure exceeded N^2 = {L} dimensions; rank decisions drifted"
            )
        pending.extend(range(before, len(stack)))
    return OperatorAlgebra(stack.reshape(-1, N, N))


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
    def algebra_dimension(self) -> int:
        return sum(q * q for _, q in self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def _block_average(x: np.ndarray, blocks, u: np.ndarray | None = None) -> np.ndarray:
    """E_A on a stack x, O(len(x) N^3): each I_k (x) M_q block of U x U^dag becomes
    I_k (x) the mean of its k diagonal q x q blocks, the rest is dropped, and U^dag
    maps back.  Without ``u``, x and the result are in the block frame."""
    y = x if u is None else u @ x @ u.conj().T
    out = np.zeros_like(y)
    offset = 0
    for k, q in blocks:
        span = slice(offset, offset + k * q)
        avg = np.einsum("niaib->nab", y[:, span, span].reshape(-1, k, q, k, q)) / k
        out[:, span, span] = np.einsum("ij,nab->niajb", np.eye(k), avg).reshape(-1, k * q, k * q)
        offset += k * q
    return out if u is None else u.conj().T @ out @ u


def _verify_block_form(u: np.ndarray, ops: np.ndarray, blocks) -> None:
    """Raise unless U is unitary and U a U^dag lies in sum_i I_k (x) M_q for each a in ops."""
    if np.abs(u @ u.conj().T - np.eye(len(u))).max() > 1e-10:
        raise NumericalAmbiguityError("structure unitary failed the unitarity check")
    m = u @ ops @ u.conj().T
    dev = np.abs(m - _block_average(m, blocks)).max(initial=0.0)
    if dev > _BLOCK_TOL:
        raise NumericalAmbiguityError(
            f"block form deviates by {dev:.3e}, above the tolerance {_BLOCK_TOL:.1e}"
        )


def _generic_element(A: OperatorAlgebra, rng) -> np.ndarray:
    coeffs = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    return np.tensordot(coeffs, A.basis, axes=1)


def _decompose(A: OperatorAlgebra, rng) -> tuple[StructureType, np.ndarray]:
    """One generic-element draw of the block decomposition, verified, or raise.

    A generic hermitian h in A has, inside each block I_k (x) M_q, q distinct
    eigenvalues of multiplicity k; a generic g in A couples two eigenspaces of
    h exactly when they lie in the same block, and there g's coupling block is
    a multiple of the unitary that aligns their multiplicity bases.
    """
    x = _generic_element(A, rng)
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    clusters = _cluster_indices(w, _CLUSTER_TOL * np.abs(w).max())
    starts = [c[0] for c in clusters]
    gv = v.conj().T @ _generic_element(A, rng) @ v
    norms = np.sqrt(
        np.add.reduceat(np.add.reduceat(np.abs(gv) ** 2, starts, axis=0), starts, axis=1)
    )
    tau = _RTOL_RANK * np.linalg.norm(gv)
    inside = (norms > tau / _AMBIGUITY_FACTOR) & (norms < tau * _AMBIGUITY_FACTOR)
    if inside.any():
        raise NumericalAmbiguityError(
            f"eigenspace coupling {norms[inside][0]:.3e} within a factor of "
            f"{_AMBIGUITY_FACTOR} of the threshold {tau:.3e}"
        )

    # each block is a first free eigenspace with the free ones g couples it to;
    # a wrong grouping cannot pass the checks below
    blocks = []
    free = np.ones(len(clusters), dtype=bool)
    for first, ref in enumerate(clusters):
        if not free[first]:
            continue
        free[first] = False
        members = [first, *np.nonzero(free & (norms[first] > tau))[0]]
        free[members] = False
        aligned = []
        for t in members:
            inds = clusters[t]
            if len(inds) != len(ref):
                raise NumericalAmbiguityError("coupled eigenspaces differ in size")
            # polar factor of the coupling block v_t^dag g v_first
            left, _, right = np.linalg.svd(gv[np.ix_(inds, ref)])
            aligned.append(v[:, inds] @ (left @ right))
        k, q = len(ref), len(members)
        # column j*q + a is multiplicity vector j of eigenspace a
        blocks.append((k, q, np.stack(aligned, axis=2).reshape(A.N, k * q)))

    blocks.sort(key=lambda item: (item[1], item[0]))
    st = StructureType(tuple((k, q) for k, q, _ in blocks))
    if st.algebra_dimension != A.dim:
        raise NumericalAmbiguityError(
            f"blocks {st.blocks} span {st.algebra_dimension} dimensions, "
            f"the algebra {A.dim}"
        )
    u = np.hstack([cols for _, _, cols in blocks]).conj()
    u.setflags(write=False)  # kept with A; the transpose U inherits read-only
    _verify_block_form(u.T, A.basis, st.blocks)
    return st, u.T


def structure_type(A: OperatorAlgebra) -> tuple[StructureType, np.ndarray]:
    """Block structure of A and a unitary U with U a U^dag in block form.

    The blocks come from the eigenspaces of one generic element of A
    (Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math. 27, 2010):
    O(dim A N^2 + N^3) per draw.  A draw is accepted only when the blocks
    have sum q_i^2 = dim A and every basis element passes the block-form
    check, which together prove A = U^dag (sum_i I_{k_i} (x) M_{q_i}) U;
    otherwise another draw is taken, up to 16.  The seed is fixed, so U
    depends only on A; it is computed once, kept with A and read-only.  A
    commutant draws none: it keeps its algebra's, checked as its own.

    The span of a Pauli subgroup H with a trivial centre takes another route
    when symplectic Gram-Schmidt reads pairs (a_i, b_i) with
    chi(a_i, b_j) = omega^delta_ij off the Howell rows of H (for a prime
    power d it always does): U^dag maps the joint eigenvalue-1 eigenspace of
    the a_i across by powers of the b_i.  Unitarity and the block form of the
    2m generators prove the same decomposition, and no basis is read, so it
    runs where the basis is above the dense bound (the pipeline's algebra on
    9 and 10 qubits); above 2m N^2 = 2^24 entries it is refused.

    Returns
    -------
    (StructureType, U) where U a U^dag lies in the direct sum of
    I_{k_i} (x) M_{q_i} for every basis element a, within 1e-8.

    Raises
    ------
    NumericalAmbiguityError
        When no draw yields a verified block form, e.g. for a span that is
        not closed under products; nothing is kept, so every call raises.
    """
    return A._decomposition


def _matrix_units(st: StructureType, u: np.ndarray):
    """Yield (k, q, units) per block: the k^2 operators U^dag (E_jl (x) I_q) U."""
    n = u.shape[0]
    _require_dense(sum(k * k for k, _ in st.blocks), n, "the commutant matrix units")
    cols_all = u.conj().T
    offset = 0
    for k, q in st.blocks:
        cols = cols_all[:, offset : offset + k * q].reshape(n, k, q)
        offset += k * q
        units = np.einsum("xja,yla->jlxy", cols, cols.conj()).reshape(k * k, n, n)
        yield k, q, units


def commutant(A: OperatorAlgebra) -> OperatorAlgebra:
    """All matrices commuting with every element of A, as an algebra.

    With A = U^dag (sum_i I_{k_i} (x) M_{q_i}) U from :func:`structure_type`,
    the commutant is U^dag (sum_i M_{k_i} (x) I_{q_i}) U, spanned by the
    normalized matrix units E_jl (x) I_q of each block.  It keeps A's
    decomposition, checked on its basis, with the factors of each block swapped.
    """
    st, u = structure_type(A)
    C = OperatorAlgebra(
        np.concatenate([units / math.sqrt(q) for _, q, units in _matrix_units(st, u)])
    )
    # row j q + a of block (k, q) is row a k + j of block (q, k); blocks sorted by (k, q)
    starts = np.cumsum([0] + [k * q for k, q in st.blocks])
    swapped = sorted(zip(st.blocks, starts), key=lambda block: block[0])
    perm = [lo + np.arange(k * q).reshape(k, q).T.ravel() for (k, q), lo in swapped]
    v = u[np.concatenate(perm)]
    v.setflags(write=False)
    st_c = StructureType(tuple((q, k) for (k, q), _ in swapped))
    _verify_block_form(v, C.basis, st_c.blocks)
    object.__setattr__(C, "_decomposition", (st_c, v))
    return C


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive trace-preserving map as a stack of Kraus operators."""

    kraus: np.ndarray

    def __post_init__(self):
        arr = np.array(self.kraus, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise PreconditionError(
                f"kraus stack must have shape (m, N, N), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise PreconditionError("kraus operators have non-finite entries")
        total = np.einsum("kba,kbc->ac", arr.conj(), arr)
        if np.abs(total - np.eye(arr.shape[1])).max() > _TP_TOL:
            raise PreconditionError("kraus operators are not trace preserving")
        arr.setflags(write=False)
        object.__setattr__(self, "kraus", arr)

    @classmethod
    def identity(cls, n: int) -> "Channel":
        _require_dense(1, n, "the identity channel's Kraus operator")
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
    """Matrix of the channel on row-major vectorized inputs, sum_k K (x) conj(K).

    One product F^T conj(F) of the flattened Kraus stack F, shape (m, N^2),
    gives the entries K[a, b] conj(K[c, d]) summed over k at ((a, b), (c, d));
    the reshuffle to ((a, c), (b, d)) is the Kronecker layout.
    """
    n = phi.N
    f = phi.kraus.reshape(len(phi.kraus), n * n)
    s = (f.T @ f.conj()).reshape(n, n, n, n)
    return s.transpose(0, 2, 1, 3).reshape(n * n, n * n)


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


def conditional_expectation(A: OperatorAlgebra) -> Channel:
    """The trace-preserving conditional expectation onto A as a Kraus channel.

    Built from the block decomposition: within each I_k (x) M_q block the map
    is the normalized partial trace over the multiplicity factor, realized by
    matrix-unit Kraus operators scaled by 1/sqrt(k).
    """
    st, u = structure_type(A)
    return Channel(
        np.concatenate([units / math.sqrt(k) for k, _, units in _matrix_units(st, u)])
    )


def scalar_algebra(n: int) -> OperatorAlgebra:
    """The scalars C I inside M_n."""
    _require_dense(1, n, "the scalar algebra's basis operator")
    return OperatorAlgebra(np.eye(n, dtype=complex)[None] / math.sqrt(n))


def full_matrix_algebra(n: int) -> OperatorAlgebra:
    """All of M_n, with the matrix units as orthonormal basis."""
    _require_dense(n * n, n, "the full matrix algebra's basis operators")
    basis = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            basis[i * n + j, i, j] = 1.0
    return OperatorAlgebra(basis)


def diagonal_algebra(n: int) -> OperatorAlgebra:
    """The diagonal subalgebra of M_n."""
    _require_dense(n, n, "the diagonal algebra's basis operators")
    basis = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        basis[i, i, i] = 1.0
    return OperatorAlgebra(basis)
