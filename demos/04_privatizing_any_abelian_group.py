"""Every Abelian Pauli subgroup channel hides floor(k/2) qubits (or qudits).

For a maximal Abelian subgroup G on n qubits (size 2^n), the equally
weighted group channel privatizes floor(n/2) qubits: pair each generator g_j
of G with a symplectic partner h_j, form the encoded qubits h_{2i} and
h_{2i-1} h_{2i} g_{2i-1} g_{2i}, take the span of the Pauli subgroup they
generate, and certify it from integers: span H is private exactly when H
meets Ann G only in the identity.  For a non-maximal subgroup of size 2^k
the same works with floor(k/2) qubits.  Over Z_d the same code privatizes
floor(k/2) qudits whenever the Howell rows of the subgroup have unit pivots.
"""

import numpy as np

from paulipriv import (
    annihilator,
    close,
    diagonal_subgroup,
    encoded_subgroup,
    private_algebra_for_abelian,
    private_algebra_for_max_abelian,
    structure_type,
    subgroup_algebra,
)
from paulipriv.groups import generating_set


def random_maximal(rng, n):
    group = close((), d=2, n=n)
    while len(group) < 2**n:
        options = [c for c in annihilator(group) if c not in group]
        group = close(list(group.elements) + [options[rng.integers(len(options))]])
    return group


def hidden_qubits(blocks):
    """m for the blocks ((N / 2^m, 2^m),) of m private qubits."""
    (_, q), = blocks
    return q.bit_length() - 1


print("== the encoded subgroup of the diagonal group ==")
for n in (2, 4, 5):
    H = encoded_subgroup(diagonal_subgroup(2, n))
    gens = ", ".join(str(c) for c in generating_set(H))
    m = hidden_qubits(structure_type(subgroup_algebra(H))[0].blocks)
    print(f"n = {n}: {m} encoded qubits, |H| = {len(H)}, "
          f"generated by {gens}")

print("\n== random maximal Abelian subgroups, n = 2..5 ==")
rng = np.random.default_rng(12)
for n in (2, 3, 4, 5):
    group = random_maximal(rng, n)
    algebra, cert = private_algebra_for_max_abelian(group)
    st, _ = structure_type(algebra)
    gens_preview = ", ".join(str(c) for c in group.elements[1:4])
    print(f"n = {n}: G from [{gens_preview}, ...] -> "
          f"{'certified' if cert.verdict else 'FAILED'} "
          f"(deviation {cert.max_deviation:.1e}), structure {st.blocks} "
          f"= {hidden_qubits(st.blocks)} hidden qubits")

print("\n== a non-maximal subgroup still hides floor(k/2) qubits ==")
from paulipriv import parse_pauli

K = close([parse_pauli("ZIII").pauli_class(), parse_pauli("IZII").pauli_class()])
algebra, cert = private_algebra_for_abelian(K)
st, _ = structure_type(algebra)
print(f"|K| = {len(K)} (k = 2) on n = 4 sites: "
      f"{'certified' if cert.verdict else 'FAILED'}, structure {st.blocks} "
      "= one hidden qubit")
print("fixed output state is I/16:",
      np.abs(cert.rho0 - np.eye(16) / 16).max() < 1e-12)

algebra, cert = private_algebra_for_max_abelian(diagonal_subgroup(3, 4))
st, _ = structure_type(algebra)
print(f"d = 3, diagonal group on n = 4 sites: "
      f"{'certified' if cert.verdict else 'FAILED'}, structure {st.blocks} "
      "= two hidden qutrits")
