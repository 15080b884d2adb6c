"""Quasiorthogonality tests and privacy certification for channels.

A channel privatizes an algebra B when every unit-trace element of B maps to
one fixed state rho0; by linearity it is enough to check the basis, which is
what the certificate records.  For the group channel of an Abelian Pauli
subgroup K and the span of a Pauli subgroup H the same certificate is an
integer fact, H meeting Ann K only in the identity, and is computed as one.
Quasiorthogonality of two algebras is the trace condition
tr(ab)/N = tr(a) tr(b)/N^2 on basis pairs.  The module also reports the
centered-trace form (N times that deviation) and evaluates the two
conditional-expectation forms as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Channel,
    OperatorAlgebra,
    _require_dense,
    apply_channel,
    conditional_expectation,
    superoperator,
)
from .errors import PreconditionError
from .groups import PauliSubgroup, _chi_rows, is_abelian

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
    """Outcome of a privatization check.

    ``verdict`` is True exactly when ``max_deviation <= tolerance``; ``rho0``
    is the common output state all certified inputs map to.
    """

    channel_description: str
    subject_description: str
    rho0: np.ndarray
    max_deviation: float
    tolerance: float
    verdict: bool
    per_basis: tuple[float, ...]
    input_hashes: dict = field(default_factory=dict)


def _certificate(rho0, per_basis, tol, channel_description, subject_description,
                 input_hashes) -> PrivacyCertificate:
    dev = max(per_basis)
    return PrivacyCertificate(
        channel_description=channel_description,
        subject_description=subject_description,
        rho0=rho0,
        max_deviation=dev,
        tolerance=tol,
        verdict=dev <= tol,
        per_basis=tuple(per_basis),
        input_hashes=dict(input_hashes or {}),
    )


def _check_same_dim(A: OperatorAlgebra, B: OperatorAlgebra) -> None:
    if A.N != B.N:
        raise PreconditionError(f"algebras act on different dimensions {A.N} != {B.N}")


def _pair_deviation(A: OperatorAlgebra, B: OperatorAlgebra) -> float:
    """Largest violation of tr(ab)/N = tr(a)tr(b)/N^2 over basis pairs."""
    n = A.N
    prod = np.einsum("iab,jba->ij", A.basis, B.basis)
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
    """Evaluate all four quasiorthogonality conditions independently.

    Conditions (1) and (2) come from the trace pairing of the two bases.
    Conditions (3) and (4) come from the superoperators S_A and S_B of the
    two conditional expectations, not from the bases, so they cross-check
    (2): (3) is the largest entry of S_A vec(b) - tr(b)/N vec(I) over the
    basis of B, one matrix product for the whole basis, and the same with A
    and B swapped; (4) compares S_A S_B and S_B S_A with vec(I) vec(I)^T / N.
    """
    _check_same_dim(A, B)
    n = A.N
    vec_eye = np.eye(n, dtype=complex).reshape(-1)

    tra = np.einsum("iaa->i", A.basis)
    trb = np.einsum("jaa->j", B.basis)
    dev2 = _pair_deviation(A, B)
    dev1 = n * dev2  # tr(ab) - tr(a)tr(b)/N, the centered product trace

    sa = superoperator(conditional_expectation(A))
    sb = superoperator(conditional_expectation(B))
    # E_A(b) for every basis element b of B at once: columns S_A vec(b)
    dev3 = float(max(
        np.abs(sa @ B.rows().T - np.outer(vec_eye, trb) / n).max(),
        np.abs(sb @ A.rows().T - np.outer(vec_eye, tra) / n).max(),
    ))

    target = np.outer(vec_eye, vec_eye) / n
    dev4 = float(
        max(np.abs(sa @ sb - target).max(), np.abs(sb @ sa - target).max())
    )
    return QuasiorthogonalityReport(n, tol, (dev1, dev2, dev3, dev4))


def check_privatized_algebra(
    phi: Channel,
    B: OperatorAlgebra,
    tol: float = _PRIVACY_TOL,
    *,
    channel_description: str = "channel",
    subject_description: str = "algebra",
    input_hashes: dict | None = None,
) -> PrivacyCertificate:
    """Certify that phi sends every unit-trace element of B to a fixed state.

    The criterion is linear: with rho0 := phi(I)/N, the channel privatizes B
    iff phi(b) = tr(b) rho0 for every basis element b.
    """
    if phi.N != B.N:
        raise PreconditionError("channel and algebra dimensions differ")
    n = phi.N
    rho0 = apply_channel(phi, np.eye(n, dtype=complex)) / n
    per_basis = [
        float(np.abs(apply_channel(phi, b) - np.trace(b) * rho0).max())
        for b in B.basis
    ]
    return _certificate(rho0, per_basis, tol, channel_description,
                        subject_description, input_hashes)


def check_privatized_subgroup(
    K: PauliSubgroup,
    H: PauliSubgroup,
    *,
    channel_description: str = "group channel",
    subject_description: str = "subgroup algebra",
) -> PrivacyCertificate:
    """Certify that the group channel of an Abelian K privatizes span H, from integers.

    By character orthogonality Phi_K(rho) = |K|^-1 sum_k k rho k^dag fixes a
    class P of Ann K and sends every other class to 0.  So rho0 = I/N, and the
    deviation of the basis element P/sqrt(N) of ``subgroup_algebra(H)`` is
    1/sqrt(N) when P is a non-identity class of Ann K and 0 otherwise: span H
    is privatized exactly when H meets Ann K only in the identity.  The
    certificate matches :func:`check_privatized_algebra` on the dense channel
    and algebra, with ``per_basis`` in the class order of H, and needs no
    dense operator but rho0.  The certificate is exact: every deviation is 0
    or 1/sqrt(N) >= 1/64 within the dense size bound, so it takes no tolerance
    and records the default one.
    """
    if (K.d, K.n) != (H.d, H.n):
        raise PreconditionError(
            f"subgroups live on different spaces: d={K.d},n={K.n} vs d={H.d},n={H.n}"
        )
    if not is_abelian(K):
        raise PreconditionError("the group channel needs an Abelian subgroup K")
    n = K.d**K.n
    _require_dense(1, n, "the fixed state rho0 = I/N")
    rows = H.rows.astype(np.int64)
    # P is fixed by the channel iff chi(P, g) = 1 for every Howell generator g of K
    fixed = ~_chi_rows(rows, K._gens, K.d).any(axis=1) & rows.any(axis=1)
    per_basis = np.where(fixed, 1.0 / math.sqrt(n), 0.0).tolist()
    return _certificate(np.eye(n, dtype=complex) / n, per_basis, _PRIVACY_TOL,
                        channel_description, subject_description, None)


def check_private_subsystem(
    phi: Channel,
    V,
    dim_a: int,
    dim_b: int,
    sigma_a,
    *,
    channel_description: str = "channel",
    subject_description: str = "subsystem",
) -> PrivacyCertificate:
    """Certify a private subsystem behind the isometry V: A (x) B -> H.

    The check sweeps the matrix units E_jk of the B factor with the supplied
    state sigma_a on the A factor: phi(V (sigma_a (x) E_jk) V^dag) must equal
    tr(E_jk) rho0 with rho0 := phi(V (sigma_a (x) I/dim_b) V^dag).  Matrix
    units certify every state on B by linearity.  Privacy may hold for one
    sigma_a and fail for another; the certificate records what was tested.
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
    per_basis = []
    for j in range(dim_b):
        for k in range(dim_b):
            unit = np.zeros((dim_b, dim_b), dtype=complex)
            unit[j, k] = 1.0
            out = apply_channel(phi, v @ np.kron(sigma, unit) @ v.conj().T)
            target = rho0 if j == k else 0.0
            per_basis.append(float(np.abs(out - target).max()))
    return _certificate(rho0, per_basis, _PRIVACY_TOL, channel_description,
                        subject_description, None)


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
