"""Explicit private-subsystem constructions for Abelian Pauli subgroups.

The group channel of any subgroup of the n-qudit class group, Abelian or not,
has its equally weighted class representatives as Kraus operators.  The
pipeline turns an Abelian subgroup K = <g_1, ..., g_k>, for any d >= 2, into
that channel plus a certified private algebra: the span
of the subgroup H of :func:`~paulipriv.groups.encoded_subgroup`, generated by
the encoded qudits h_{2i} and h_{2i-1} h_{2i} g_{2i-1} g_{2i} built from
symplectic partners h_j of the g_j.  Every non-identity class of H fails to
commute with some g_j, so the group channel sends it to zero, which is exactly
why span H is privatized.  A maximal K is the case k = n of the same
construction; a non-Abelian K, or one whose Howell rows have a non-unit pivot
(composite d only), has no partners and is refused.

The pipeline's certificate is read off the intersection of H and Ann K by
:func:`~paulipriv.privacy.check_privatized_subgroup`, with no dense channel;
the dense :func:`~paulipriv.privacy.check_privatized_algebra` stays the test
oracle and certifies what the CLI is given.

:func:`subgroup_algebra` is the one way to build the span of a Pauli subgroup
K, the pipeline's included.  It keeps K and builds nothing: the one dense class
stack of K is built, under the dense bound, on the first basis read, which is
where a large K is refused.  :func:`~paulipriv.privacy.is_quasiorthogonal`
decides two such spans from K meet H, at any n.  When K has a trivial centre,
symplectic Gram-Schmidt reads a symplectic basis off its Howell rows (for a
prime power d always; over other composite d when the rows do not split over
its prime factors), and :func:`~paulipriv.algebra.structure_type` builds the
block unitary from that frame, V0 read off its projector's columns, with no
basis or eigendecomposition.  What bounds the pipeline is the frame's 2m dense
generators (its blocks to n = 10 qubits), the certificate's rho0 (N <= 4096),
and ``privacy certify --construct``, which hashes the dense basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .algebra import (
    Channel,
    OperatorAlgebra,
    StructureType,
    _require_dense,
    _verify_block_form,
    structure_type,
)
from .errors import NumericalAmbiguityError, PreconditionError
from .groups import PauliSubgroup, _symplectic_pairs, close, encoded_subgroup
from .pauli import PauliClass, PauliElement, dense_paulis, omega_power, parse_pauli
from .privacy import (
    PrivacyCertificate,
    check_privatized_algebra,
    check_privatized_subgroup,
    is_quasiorthogonal,
    kraus_mutually_commuting,
)

__all__ = [
    "TwoQutritReport",
    "channel_from_subgroup",
    "private_algebra_for_abelian",
    "private_algebra_for_max_abelian",
    "subgroup_algebra",
    "two_qutrit_demo",
]


def _dense_classes(K: PauliSubgroup, what: str) -> np.ndarray:
    """K's class representatives in canonical order; a refusal names the integer route."""
    _require_dense(K.order, K.d**K.n, what,
                   "check_privatized_subgroup(K, H) decides the privacy of span H from H and "
                   "annihilator(K), with no operator stack and only the N x N fixed state")
    return dense_paulis(K.d, *K.xz_arrays())


class PauliAlgebra(OperatorAlgebra):
    """span H for a Pauli subgroup H, kept as H; the dense basis is built on first read.

    Not exported: :func:`subgroup_algebra` builds it.  The basis is the class
    representatives of H in canonical order over sqrt(N).  When symplectic
    Gram-Schmidt finds a symplectic basis of H in its Howell rows
    (:func:`~paulipriv.groups._symplectic_pairs`: for a prime power d, exactly
    when H has a trivial centre), :func:`_frame_decomposition` builds the block
    decomposition from it, V0 read off a projector's columns, with no basis;
    otherwise it is the dense one of :func:`~paulipriv.algebra.structure_type`.
    """

    def __init__(self, H: PauliSubgroup):
        # the frozen base refuses only its own field, basis, on a subclass
        self.subgroup = H

    @property
    def N(self) -> int:
        return self.subgroup.d**self.subgroup.n

    @property
    def dim(self) -> int:
        return self.subgroup.order

    @cached_property
    def basis(self) -> np.ndarray:
        out = _dense_classes(self.subgroup, "the subgroup's dense class representatives")
        out = out / math.sqrt(self.N)
        out.setflags(write=False)
        return out

    @cached_property
    def _decomposition(self) -> tuple[StructureType, np.ndarray]:
        H = self.subgroup
        _require_dense(1, self.N, "the block decomposition's unitary")  # before any pairing
        pairs = _symplectic_pairs(H)
        return super()._decomposition if pairs is None else _frame_decomposition(H, *pairs)

    def __repr__(self) -> str:
        H = self.subgroup
        return f"PauliAlgebra(d={H.d}, n={H.n}, dim={H.order})"


def _frame_decomposition(H: PauliSubgroup, a: np.ndarray, b: np.ndarray):
    """span H = U^dag (I_{N/q} (x) M_q) U from a symplectic basis (a_i, b_i) of H.

    With the phase zeta^{(1-d) x.z} each dense A_i has A_i^d = I.  The A_i generate
    a free Z_d^m, q = d^m, of monomial matrices, traceless but for I; their mean p0
    projects onto V0 of rank N/q, each entry 0 or at least 1/q in modulus.  One
    orbit's columns are parallel, two orbits' disjoint: the N/q normalized columns
    j whose first nonzero entry is p0[j, j], decided at 1/(2q), are an orthonormal
    basis of V0.  Column j q + tau of U^dag is B^tau V0[:, j] (Poulin,
    quant-ph/0508131).  Unitarity and the block form of the 2m generators check it:
    the block-form set is a *-algebra, so it holds span H, of dimension q^2 = |H|.
    O(m d N^3); no basis is read, and the 2m generators obey the dense bound.
    """
    d, n, m = H.d, H.n, len(a)
    N, q = d**n, d**m
    _require_dense(2 * m or 1, N, "the symplectic frame's generators")
    x, z = np.vstack([a[:, :n], b[:, :n]]), np.vstack([a[:, n:], b[:, n:]])
    gens = dense_paulis(d, x, z, (1 - d) * (x * z).sum(axis=1))
    # (1/d) sum_t A_i^t projects onto the eigenvalue-1 eigenspace of A_i; they commute
    power = total = np.eye(N, dtype=complex)
    for _ in range(d - 1):
        power = power @ gens[:m]
        total = total + power
    p0 = reduce(np.matmul, total / d, np.eye(N, dtype=complex))
    big = np.abs(p0) > 1 / (2 * q)
    reps = np.flatnonzero(big.diagonal() & ~np.triu(big, 1).any(axis=0))
    if len(reps) != N // q:
        raise NumericalAmbiguityError(
            f"the a_i's projector has {len(reps)} orbit columns, not N/q = {N // q}")
    cols = (p0[:, reps] / np.sqrt(p0[reps, reps].real))[None]  # cols[tau] = B^tau V0, b_m slowest
    for y in gens[m:]:
        steps = [cols]
        for _ in range(d - 1):
            steps.append(y @ steps[-1])
        cols = np.concatenate(steps)
    u = cols.transpose(2, 0, 1).reshape(N, N).conj()
    u.setflags(write=False)
    blocks = ((N // q, q),)
    _verify_block_form(u, gens, blocks)
    return StructureType(blocks), u


def subgroup_algebra(K: PauliSubgroup) -> OperatorAlgebra:
    """The span of a subgroup's class representatives as an operator algebra.

    The one public way to build a Pauli-spanned algebra.  It keeps K and builds
    nothing; the first basis read builds it, or refuses a K above the dense
    bound.  Integer quasiorthogonality of two of them answers at any n.
    """
    return PauliAlgebra(K)


def channel_from_subgroup(G: PauliSubgroup) -> Channel:
    """Channel with the subgroup's phase-0 representatives as equal Kraus weights.

    Any subgroup, Abelian or not: the representatives are unitary, so the
    equal weights make the channel trace preserving, and global phases cancel
    in K rho K^dag, so the quotient classes determine the channel.
    """
    scale = 1.0 / math.sqrt(G.order)
    return Channel(_dense_classes(G, "the subgroup's dense Kraus operators") * scale)


def private_algebra_for_abelian(
    K: PauliSubgroup,
) -> tuple[OperatorAlgebra, PrivacyCertificate]:
    """Certified private algebra of floor(k/2) qudits for Abelian K of size d^k, any d.

    K needs Howell pivot entries 1 (every K does for prime d); blocks (N/d^m, d^m).
    The algebra is subgroup_algebra(encoded_subgroup(K)); its basis is built on first read.
    """
    H = encoded_subgroup(K)
    return subgroup_algebra(H), check_privatized_subgroup(K, H)


def private_algebra_for_max_abelian(
    G: PauliSubgroup,
) -> tuple[OperatorAlgebra, PrivacyCertificate]:
    """Certified private algebra of floor(n/2) qudits for a maximal Abelian G."""
    if G.order != G.d**G.n:
        raise PreconditionError(
            f"subgroup of size {G.order} is not maximal on {G.n} sites"
        )
    return private_algebra_for_abelian(G)


# ---------------------------------------------------------------------------
# Two-qutrit demonstration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemoCheck:
    name: str
    passed: bool
    deviation: float
    detail: str = ""


@dataclass(frozen=True)
class TwoQutritReport:
    """Verification record for the two-qutrit private-subalgebra construction."""

    checks: tuple[DemoCheck, ...]
    block_scale: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def _qutrit_class(x1, z1, x2, z2) -> PauliClass:
    return PauliClass(3, 2, (x1, x2), (z1, z2))


def two_qutrit_demo(perturb: bool = False) -> TwoQutritReport:
    """Run the two-qutrit construction end to end and verify every claim.

    The channel averages the nine two-qutrit classes X^{2i} Z^i (x) X^j Z^j;
    the privatized algebra is generated by X^2 (x) X and X Z^2 (x) Z.  The
    report covers: (a) commuting Kraus operators, (b) privatization with
    rho0 = I/9, (c) block structure (3, 3), (d) the 9 x 9 block unitary and
    its two conjugation identities, (e) quasiorthogonality of the Kraus
    algebra and the privatized algebra.

    ``perturb`` deliberately replaces the expected phase omega^2 in the first
    conjugation identity by its square, which must make that check fail.
    """
    w = omega_power(3, 1)
    group = close([_qutrit_class(2, 1, 0, 0), _qutrit_class(0, 0, 1, 1)])
    phi = channel_from_subgroup(group)
    checks = []

    commuting = kraus_mutually_commuting(phi)
    checks.append(
        DemoCheck("kraus_mutually_commuting", commuting, 0.0 if commuting else 1.0)
    )

    # generated by X^2 (x) X and X Z^2 (x) Z
    algebra = subgroup_algebra(close([_qutrit_class(2, 0, 1, 0), _qutrit_class(1, 2, 0, 1)]))
    cert = check_privatized_algebra(phi, algebra)
    rho0_dev = float(np.abs(cert.rho0 - np.eye(9) / 9).max())
    priv_dev = max(cert.max_deviation, rho0_dev)
    checks.append(
        DemoCheck(
            "privatized_with_rho0_identity_over_9",
            cert.verdict and rho0_dev <= cert.tolerance,
            priv_dev,
        )
    )

    st, _ = structure_type(algebra)
    st_ok = st.blocks == ((3, 3),)
    checks.append(
        DemoCheck("structure_type_(3,3)", st_ok, 0.0 if st_ok else 1.0, str(st.blocks))
    )

    # Block unitary assembled from single-qutrit frames; the bottom-right
    # entry must be Z^2 for the rows to be orthogonal.
    def site(x, z):
        return PauliElement(3, 1, 0, (x,), (z,)).to_dense()

    grid = [
        [site(0, 0), site(2, 2), site(1, 1)],
        [site(1, 2), site(0, 1), site(2, 0)],
        [site(2, 1), site(1, 0), site(0, 2)],
    ]
    scale = 1 / math.sqrt(3)  # each row of the block grid has norm sqrt(3)
    u = scale * np.block(grid)
    unitary_dev = float(np.abs(u @ u.conj().T - np.eye(9)).max())

    eye3 = np.eye(3, dtype=complex)
    phase = w**2 if not perturb else (w**2) ** 2
    lhs_x = u @ np.kron(eye3, site(1, 0)) @ u.conj().T
    rhs_x = phase * np.kron(site(1, 2), site(0, 1))
    dev_x = float(np.abs(lhs_x - rhs_x).max())
    lhs_z = u @ np.kron(eye3, site(0, 1)) @ u.conj().T
    rhs_z = np.kron(site(2, 0), site(1, 0))
    dev_z = float(np.abs(lhs_z - rhs_z).max())
    conj_dev = max(unitary_dev, dev_x, dev_z)
    failing = []
    if unitary_dev > 1e-9:
        failing.append("block_unitary_not_unitary")
    if dev_x > 1e-9:
        failing.append("conjugation_of_embedded_X")
    if dev_z > 1e-9:
        failing.append("conjugation_of_embedded_Z")
    checks.append(
        DemoCheck(
            "block_unitary_conjugation_identities",
            not failing,
            conj_dev,
            "failed: " + ", ".join(failing) if failing else f"scale {scale:.6f}",
        )
    )

    qdev_ok = is_quasiorthogonal(subgroup_algebra(group), algebra)
    checks.append(
        DemoCheck("kraus_and_private_algebras_quasiorthogonal", qdev_ok, 0.0 if qdev_ok else 1.0)
    )

    return TwoQutritReport(checks=tuple(checks), block_scale=scale)


def phase_flip_demo() -> PrivacyCertificate:
    """Certify that the two-qubit phase-flip channel hides a qubit.

    The channel averages the four diagonal Pauli words, so it is the group
    channel of <ZI, IZ>; it privatizes the span of <IX, YY> = {II, IX, YY, YZ},
    one qubit with multiplicity two.  Returns the exact dense certificate of
    :func:`~paulipriv.privacy.check_privatized_algebra`, whose rho0 is I/4.
    """
    K, H = (close([parse_pauli(w) for w in words]) for words in (("ZI", "IZ"), ("IX", "YY")))
    return check_privatized_algebra(channel_from_subgroup(K), subgroup_algebra(H))
