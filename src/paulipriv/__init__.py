"""Pauli-group machinery for private quantum subsystems.

Exact arithmetic on phased tensor products of generalized Pauli operators,
subgroup theory on the phase quotient (character matrices, annihilators,
maximal Abelian extensions), dense operator-algebra computations
(commutants, block structure, conditional expectations), and certification
that channels built from Abelian Pauli subgroups privatize explicitly
constructed subsystem algebras.
"""

from .algebra import (
    Channel,
    OperatorAlgebra,
    StructureType,
    apply_channel,
    choi_equal,
    choi_matrix,
    commutant,
    conditional_expectation,
    diagonal_algebra,
    full_matrix_algebra,
    scalar_algebra,
    span_closure,
    structure_type,
)
from .constructions import (
    TwoQutritReport,
    channel_from_subgroup,
    private_algebra_for_abelian,
    private_algebra_for_max_abelian,
    quasiorthogonal_to_diagonal,
    subgroup_algebra,
    two_qutrit_demo,
)
from .errors import FormatError, NumericalAmbiguityError, PreconditionError
from .groups import (
    CharacterMatrix,
    PauliSubgroup,
    all_classes,
    annihilator,
    character_matrix,
    close,
    diagonal_subgroup,
    encoded_subgroup,
    extend_to_maximal,
    intersect,
    is_abelian,
)
from .pauli import (
    PauliClass,
    PauliElement,
    chi_exponent,
    chi_value,
    dense_paulis,
    format_pauli,
    omega_power,
    parse_pauli,
    zeta_power,
)
from .privacy import (
    PrivacyCertificate,
    QuasiorthogonalityReport,
    check_private_subsystem,
    check_privatized_algebra,
    check_privatized_subgroup,
    is_quasiorthogonal,
    kraus_mutually_commuting,
    quasiorth_condition_suite,
)

__version__ = "0.1.0"
