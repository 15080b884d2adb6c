"""Quasiorthogonality tests and privacy certification for channels.

A channel privatizes an algebra B when Phi(x) = tr(x) rho0 for every x in B;
by linearity a basis suffices, so a certificate holds rho0, one deviation per
basis input and a tolerance.  For the group channel of any Pauli subgroup K
and the span of a Pauli subgroup H the same certificate is an integer fact, H
meeting Ann K only in the identity, and is computed as one.
Quasiorthogonality of two algebras is the trace condition
tr(ab)/N = tr(a) tr(b)/N^2 on basis pairs.  The module also reports the
centered-trace form (N times that deviation) and evaluates the two
conditional-expectation forms, through each algebra's block decomposition and
with no N^2 x N^2 superoperator, as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Channel,
    OperatorAlgebra,
    _block_average,
    _require_dense,
    apply_channel,
    structure_type,
)
from .errors import PreconditionError
from .groups import PauliSubgroup, _chi_rows

__all__ = [
    "PrivacyCertificate",
    "QuasiorthogonalityReport",
    "check_private_subsystem",
    "check_privatized_algebra",
    "check_privatized_subgroup",
    "is_quasiorthogonal",
    "kraus_mutually_commuting",
    "quasiorth_condition_suite",
]

_QUASI_TOL = 1e-9
_PRIVACY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PrivacyCertificate:
    """Outcome of a privatization check: Phi(x) = tr(x) rho0 for each input x.

    ``per_basis`` holds the largest entry of |Phi(x) - tr(x) rho0| for each
    input x; the verdict is True exactly when none exceeds ``tolerance``.
    """

    rho0: np.ndarray
    per_basis: tuple[float, ...]
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max(self.per_basis)

    @property
    def verdict(self) -> bool:
        return self.max_deviation <= self.tolerance


def _fixed_state_sweep(phi: Channel, rho0, inputs, tol: float) -> PrivacyCertificate:
    """Certificate of Phi(x) = tr(x) rho0 over the inputs x."""
    per_basis = tuple(
        float(np.abs(apply_channel(phi, x) - np.trace(x) * rho0).max()) for x in inputs
    )
    return PrivacyCertificate(rho0, per_basis, tol)


def _check_same_dim(A: OperatorAlgebra, B: OperatorAlgebra) -> None:
    if A.N != B.N:
        raise PreconditionError(f"algebras act on different dimensions {A.N} != {B.N}")


def _pair_deviation(A: OperatorAlgebra, B: OperatorAlgebra) -> float:
    """Largest violation of tr(ab)/N = tr(a)tr(b)/N^2 over basis pairs."""
    n = A.N
    # tr(a b) is the row of a against the row of b transposed, one BLAS product
    prod = A.rows() @ B.basis.transpose(0, 2, 1).reshape(B.dim, -1).T
    tra = np.einsum("iaa->i", A.basis)
    trb = np.einsum("jaa->j", B.basis)
    return float(np.abs(prod / n - np.outer(tra, trb) / n**2).max())


def is_quasiorthogonal(A: OperatorAlgebra, B: OperatorAlgebra) -> bool:
    """Trace condition for quasiorthogonality, checked on all basis pairs."""
    _check_same_dim(A, B)
    return _pair_deviation(A, B) <= _QUASI_TOL


@dataclass(frozen=True)
class QuasiorthogonalityReport:
    """Per-condition deviations for the four equivalent formulations.

    Conditions: (1) centered products have zero trace, (2) the product-trace
    identity, (3) each conditional expectation scalarizes the other algebra,
    (4) the composed conditional expectations equal tr(.) I / N.
    """

    N: int
    tolerance: float
    deviations: tuple[float, float, float, float]

    @property
    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        return tuple(d <= self.tolerance for d in self.deviations)

    @property
    def consistent(self) -> bool:
        return len(set(self.verdicts)) == 1

    @property
    def verdict(self) -> bool:
        return self.verdicts[1]


def quasiorth_condition_suite(
    A: OperatorAlgebra, B: OperatorAlgebra, tol: float = _QUASI_TOL
) -> QuasiorthogonalityReport:
    """Evaluate the four quasiorthogonality conditions; three are independent.

    Condition (2) comes from the trace pairing of the two bases, and (1) is N
    times (2).  (3) and (4) apply the conditional expectations through each
    algebra's block unitary, not the trace pairing, so they cross-check (2).
    (3) is the largest entry of D_A = E_A(b) - tr(b) I/N over the basis of B,
    O(dim B N^3), and of D_B.  (4) is the largest entry of S_A S_B - vec(I)
    vec(I)^T / N and of S_B S_A - the same: E_B is the Hilbert-Schmidt
    projection onto span B, which holds I, so S_B = B^T conj(B) for the basis
    rows B and S_A S_B - vec(I) vec(I)^T / N = D_A conj(B), O(N^4 dim B) in
    row chunks of 2^20 entries, against O(N^6) and N^2 x N^2 arrays for S_A S_B.
    """
    _check_same_dim(A, B)
    n = A.N
    dev2 = _pair_deviation(A, B)
    dev1 = n * dev2  # tr(ab) - tr(a)tr(b)/N, the centered product trace
    dev3 = dev4 = 0.0
    diag, step = np.arange(n), max(1, 2**20 // (n * n))
    for X, Y in ((A, B), (B, A)):
        # the rows of D_X: E_X(y) - tr(y) I/N for every basis element y of Y
        st, u = structure_type(X)
        resid = _block_average(Y.basis, st.blocks, u)
        resid[:, diag, diag] -= np.einsum("jaa->j", Y.basis)[:, None] / n
        resid, conj_rows = resid.reshape(Y.dim, -1), Y.rows().conj()
        dev3 = max(dev3, float(np.abs(resid).max()))
        for lo in range(0, n * n, step):
            chunk = resid[:, lo : lo + step].T @ conj_rows
            dev4 = max(dev4, float(np.abs(chunk).max()))
    return QuasiorthogonalityReport(n, tol, (dev1, dev2, dev3, dev4))


def check_privatized_algebra(
    phi: Channel, B: OperatorAlgebra, tol: float = _PRIVACY_TOL
) -> PrivacyCertificate:
    """Certify that phi sends every unit-trace element of B to a fixed state.

    The criterion is linear: with rho0 := phi(I)/N, the channel privatizes B
    iff phi(b) = tr(b) rho0 for every basis element b.
    """
    if phi.N != B.N:
        raise PreconditionError("channel and algebra dimensions differ")
    n = phi.N
    rho0 = apply_channel(phi, np.eye(n, dtype=complex)) / n
    return _fixed_state_sweep(phi, rho0, B.basis, tol)


def check_privatized_subgroup(K: PauliSubgroup, H: PauliSubgroup) -> PrivacyCertificate:
    """Certify that the group channel of K privatizes span H, from integers.

    Phi_K(rho) = |K|^-1 sum_k k rho k^dag sends a class P to
    |K|^-1 sum_k chi(k, P) P.  chi is bilinear, so chi(., P) is a character of
    K and the sum is P for P in Ann K and 0 otherwise, Abelian K or not.  So
    rho0 = I/N, and the deviation of the basis element P/sqrt(N) of
    ``subgroup_algebra(H)`` is 1/sqrt(N) when P is a non-identity class of
    Ann K and 0 otherwise: span H is privatized exactly when H meets Ann K
    only in the identity (for the full Pauli group, every H).  The certificate
    matches :func:`check_privatized_algebra` on the dense channel and algebra,
    with ``per_basis`` in the class order of H, and needs no dense operator
    but rho0.  It is exact: every deviation is 0 or 1/sqrt(N) >= 1/64 within
    the dense size bound, so it takes no tolerance and records the default.
    """
    if (K.d, K.n) != (H.d, H.n):
        raise PreconditionError(
            f"subgroups live on different spaces: d={K.d},n={K.n} vs d={H.d},n={H.n}"
        )
    n = K.d**K.n
    _require_dense(1, n, "the fixed state rho0 = I/N")
    rows = H.rows.astype(np.int64)
    # P is fixed by the channel iff chi(P, g) = 1 for every Howell generator g of K
    fixed = ~_chi_rows(rows, K._gens, K.d).any(axis=1) & rows.any(axis=1)
    per_basis = tuple(np.where(fixed, 1.0 / math.sqrt(n), 0.0).tolist())
    return PrivacyCertificate(np.eye(n, dtype=complex) / n, per_basis, _PRIVACY_TOL)


def check_private_subsystem(
    phi: Channel,
    V,
    dim_a: int,
    dim_b: int,
    sigma_a,
) -> PrivacyCertificate:
    """Certify a private subsystem behind the isometry V: A (x) B -> H.

    The check sweeps the matrix units E_jk of the B factor with the supplied
    state sigma_a on the A factor: x = V (sigma_a (x) E_jk) V^dag must map to
    tr(x) rho0 = delta_jk rho0 with rho0 := phi(V (sigma_a (x) I/dim_b) V^dag).
    Matrix units certify every state on B by linearity.  Privacy may hold for
    one sigma_a and fail for another; the certificate records what was tested.
    """
    v = np.asarray(V, dtype=complex)
    if v.ndim != 2 or v.shape != (phi.N, dim_a * dim_b):
        raise PreconditionError(
            f"isometry must have shape ({phi.N}, {dim_a * dim_b}), got {v.shape}"
        )
    if np.abs(v.conj().T @ v - np.eye(dim_a * dim_b)).max() > 1e-9:
        raise PreconditionError("V is not an isometry")
    sigma = np.asarray(sigma_a, dtype=complex)
    if sigma.shape != (dim_a, dim_a):
        raise PreconditionError(f"sigma_a must be {dim_a} x {dim_a}")
    if abs(np.trace(sigma) - 1) > 1e-9:
        raise PreconditionError("sigma_a must have unit trace")
    if np.linalg.eigvalsh((sigma + sigma.conj().T) / 2).min() < -1e-9:
        raise PreconditionError("sigma_a must be positive semidefinite")

    rho0 = apply_channel(
        phi, v @ np.kron(sigma, np.eye(dim_b) / dim_b) @ v.conj().T
    )
    units = np.eye(dim_b * dim_b, dtype=complex).reshape(-1, dim_b, dim_b)
    inputs = (v @ np.kron(sigma, unit) @ v.conj().T for unit in units)
    return _fixed_state_sweep(phi, rho0, inputs, _PRIVACY_TOL)


def kraus_mutually_commuting(phi: Channel) -> bool:
    """True iff all Kraus operator pairs commute.

    Channels with commuting normal Kraus operators cannot privatize a
    multi-dimensional subspace, so a True verdict licenses that claim in
    reports.
    """
    ks = phi.kraus
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            if np.abs(ks[i] @ ks[j] - ks[j] @ ks[i]).max() > _QUASI_TOL:
                return False
    return True
