"""Explicit private-subsystem constructions for Abelian Pauli subgroups.

The pipelines turn an Abelian subgroup K = <g_1, ..., g_k> of the n-qubit
class group into a channel (equally weighted class representatives as Kraus
operators) plus a certified private algebra.  Symplectic partners h_j of the
g_j play the role of X_j in a Clifford frame where g_j is Z_j, so the encoded
qubits of that frame (X at site 2i, Y at sites 2i-1 and 2i) are the classes
h_{2i} and h_{2i-1} h_{2i} g_{2i-1} g_{2i}.  The private algebra is the span
of the subgroup H they generate: every non-identity class of H anticommutes
with some g_j, so the group channel sends it to zero, which is exactly why
span H is privatized.  Maximal K (k = n) and general K (k < n) are alike.

The pipeline's certificate is read off the intersection of H and Ann K by
:func:`~paulipriv.privacy.check_privatized_subgroup`, with no dense channel;
the dense :func:`~paulipriv.privacy.check_privatized_algebra` stays the test
oracle and certifies what the CLI is given.  Dense class stacks come from one
:func:`~paulipriv.pauli.dense_paulis` call per subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Channel,
    OperatorAlgebra,
    _require_dense,
    apply_channel,
    diagonal_algebra,
    structure_type,
)
from .errors import PreconditionError
from .groups import PauliSubgroup, _howell, _partner_rows, close, is_abelian
from .pauli import PauliClass, PauliElement, dense_paulis, omega_power
from .privacy import (
    PrivacyCertificate,
    check_privatized_algebra,
    check_privatized_subgroup,
    is_quasiorthogonal,
    kraus_mutually_commuting,
)

# Where a dense stack is refused, the privacy question itself stays answerable.
_INTEGER_ROUTE = (
    "check_privatized_subgroup(K, H) decides the privacy of span H from H and "
    "annihilator(K), with no operator stack and only the N x N fixed state"
)

__all__ = [
    "EncodedQubitAlgebra",
    "TwoQutritReport",
    "channel_from_subgroup",
    "encoded_qubit_generators",
    "max_private_qubits",
    "private_algebra_for_abelian",
    "private_algebra_for_max_abelian",
    "quasiorthogonal_to_diagonal",
    "subgroup_algebra",
    "two_qutrit_demo",
]


@dataclass(frozen=True)
class EncodedQubitAlgebra:
    """Generator pairs and realized algebra for floor(n/2) encoded qubits.

    ``pairs[i]`` holds the X-type and Y-type generators of encoded qubit i+1;
    ``algebra`` is the span of the subgroup of classes they generate.
    """

    n: int
    pairs: tuple[tuple[PauliElement, PauliElement], ...]
    algebra: OperatorAlgebra


def encoded_qubit_generators(n: int) -> EncodedQubitAlgebra:
    """X/Y generator pairs on n qubit sites, one pair per encoded qubit.

    Encoded qubit i (1-based) uses X at site 2i and Y at sites 2i-1 and 2i.
    Requires n >= 2.
    """
    if n < 2:
        raise PreconditionError(f"encoded qubits need n >= 2 sites, got n={n}")
    pairs = []
    for i in range(n // 2):
        x = tuple(int(j == 2 * i + 1) for j in range(n))
        yy = tuple(int(j // 2 == i) for j in range(n))
        # Y(x)Y = (i XZ)(x)(i XZ) carries phase i*i
        pairs.append((PauliElement(2, n, 0, x, (0,) * n), PauliElement(2, n, 2, yy, yy)))
    algebra = subgroup_algebra(close([p for pair in pairs for p in pair]))
    return EncodedQubitAlgebra(n=n, pairs=tuple(pairs), algebra=algebra)


def subgroup_algebra(K: PauliSubgroup) -> OperatorAlgebra:
    """The span of a subgroup's class representatives as an operator algebra."""
    n_dim = K.d**K.n
    _require_dense(len(K), n_dim, "the subgroup's dense class representatives",
                   _INTEGER_ROUTE)
    return OperatorAlgebra(dense_paulis(K.d, *K.xz_arrays()) / math.sqrt(n_dim))


def channel_from_subgroup(G: PauliSubgroup) -> Channel:
    """Channel with the subgroup's phase-0 representatives as equal Kraus weights.

    Only Abelian subgroups are accepted; global phases of the representatives
    cancel in K rho K^dag, so the quotient classes determine the channel.
    """
    if not is_abelian(G):
        raise PreconditionError(
            "channel_from_subgroup requires an Abelian subgroup; "
            "the given subgroup has non-commuting elements"
        )
    _require_dense(len(G), G.d**G.n, "the subgroup's dense Kraus operators",
                   _INTEGER_ROUTE)
    scale = 1.0 / math.sqrt(len(G))
    return Channel(dense_paulis(G.d, *G.xz_arrays()) * scale)


def max_private_qubits(n: int) -> int:
    """Number of qubits these channels can privatize on n sites: floor(n/2)."""
    if n < 1:
        raise PreconditionError(f"site count must be >= 1, got {n}")
    return n // 2


def _private_pipeline(K: PauliSubgroup) -> tuple[OperatorAlgebra, PrivacyCertificate]:
    g, h = K._gens, _partner_rows(K._gens, 2)
    # (x | z) rows of h_{j+1}, then of h_j h_{j+1} g_j g_{j+1}, for even j < k - 1
    encoded = np.vstack([h[1::2], h[:-1:2] + h[1::2] + g[:-1:2] + g[1::2]]) % 2
    H = PauliSubgroup._from_howell(2, K.n, *_howell(encoded, 2))
    cert = check_privatized_subgroup(
        K,
        H,
        channel_description=f"group channel, {len(K)} Kraus operators on {2**K.n} dims",
        subject_description=f"encoded Pauli subgroup algebra, {len(g) // 2} qubits",
    )
    return subgroup_algebra(H), cert


def private_algebra_for_max_abelian(
    G: PauliSubgroup,
) -> tuple[OperatorAlgebra, PrivacyCertificate]:
    """Certified private algebra of floor(n/2) qubits for a maximal Abelian G."""
    if G.d != 2:
        raise PreconditionError("the qubit pipeline requires d = 2")
    if not is_abelian(G):
        raise PreconditionError("subgroup must be Abelian")
    if len(G) != 2**G.n:
        raise PreconditionError(
            f"subgroup of size {len(G)} is not maximal on {G.n} qubits"
        )
    return _private_pipeline(G)


def private_algebra_for_abelian(
    K: PauliSubgroup,
) -> tuple[OperatorAlgebra, PrivacyCertificate]:
    """Certified private algebra of floor(k/2) qubits for Abelian K of size 2^k."""
    if K.d != 2:
        raise PreconditionError("the qubit pipeline requires d = 2")
    if not is_abelian(K):
        raise PreconditionError("subgroup must be Abelian")
    return _private_pipeline(K)


def quasiorthogonal_to_diagonal(A: OperatorAlgebra) -> bool:
    """Is A quasiorthogonal to the diagonal algebra on its space?

    Evaluated directly on basis pairs; the block structure of A provides a
    necessary condition (every multiplicity must reach its block size), and
    an impossible combination of the two verdicts raises.
    """
    direct = is_quasiorthogonal(A, diagonal_algebra(A.N))
    st, _ = structure_type(A)
    admissible = all(k >= q for k, q in st.blocks)
    if direct and not admissible:
        raise PreconditionError(
            "direct quasiorthogonality contradicts the block-structure bound; "
            "numerical results are inconsistent"
        )
    return direct


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
    u_raw = np.block(grid)
    scale = 1.0
    if np.abs(u_raw @ u_raw.conj().T - np.eye(9)).max() > 1e-9:
        scale = 1.0 / math.sqrt(3)
    u = scale * u_raw
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


def phase_flip_demo(trials: int = 100, seed: int = 2016) -> tuple[float, np.ndarray]:
    """Sweep random encoded states through the two-qubit phase-flip channel.

    Returns the worst deviation of the outputs from I/4 and the fixed state,
    over ``trials`` random positive unit-trace inputs in the span of the
    privatized algebra.
    """
    group = close(
        [PauliClass(2, 2, (0, 0), (1, 0)), PauliClass(2, 2, (0, 0), (0, 1))]
    )
    phi = channel_from_subgroup(group)
    basis = {
        "IX": PauliElement(2, 2, 0, (0, 1), (0, 0)).to_dense(),
        "YY": PauliElement(2, 2, 2, (1, 1), (1, 1)).to_dense(),
        "YZ": PauliElement(2, 2, 1, (1, 0), (1, 1)).to_dense(),
    }
    eye4 = np.eye(4, dtype=complex)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        c = rng.standard_normal(3)
        c *= rng.random() ** (1 / 3) / np.linalg.norm(c)  # uniform in the unit ball
        rho = (eye4 + c[0] * basis["IX"] + c[1] * basis["YY"] + c[2] * basis["YZ"]) / 4
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            raise PreconditionError("sampled state is not positive semidefinite")
        worst = max(worst, float(np.abs(apply_channel(phi, rho) - eye4 / 4).max()))
    return worst, eye4 / 4
