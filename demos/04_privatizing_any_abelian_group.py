"""Every Abelian Pauli subgroup channel hides floor(k/2) qubits.

For a maximal Abelian subgroup G on n qubits (size 2^n), the equally
weighted group channel privatizes floor(n/2) qubits: pair each generator g_j
of G with a symplectic partner h_j, form the encoded qubits h_{2i} and
h_{2i-1} h_{2i} g_{2i-1} g_{2i}, take the span of the Pauli subgroup they
generate, and certify it densely.  For a non-maximal subgroup of size 2^k
the same works with floor(k/2) qubits.
"""

import numpy as np

from paulipriv import (
    annihilator,
    close,
    encoded_qubit_generators,
    max_private_qubits,
    private_algebra_for_abelian,
    private_algebra_for_max_abelian,
    structure_type,
)


def random_maximal(rng, n):
    group = close((), d=2, n=n)
    while len(group) < 2**n:
        options = [c for c in annihilator(group) if c not in group]
        group = close(list(group.elements) + [options[rng.integers(len(options))]])
    return group


print("== the encoded qubit generators ==")
for n in (2, 4, 5):
    enc = encoded_qubit_generators(n)
    pairs = ", ".join(f"({x}, {y})" for x, y in enc.pairs)
    print(f"n = {n}: {max_private_qubits(n)} encoded qubits via {pairs}")

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
          f"= {max_private_qubits(n)} hidden qubits")

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
