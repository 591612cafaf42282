"""Lindblad dynamics of an N-cell register coupled to a spatially
correlated bosonic environment, with construction and verification of
sub-decoherent and noiseless codes.
"""

__version__ = "0.1.0"

from . import bath, codes, dynamics, errors, linalg, liouvillian, observables, register
from .bath import (
    BathSpec,
    cell_limit,
    clustered,
    exponential_decay,
    gauge_phased,
    microscopic_coefficients,
    replica_symmetric,
)
from .codes import (
    CodeSubspace,
    dephasing_cluster_code,
    gauge_transport,
    is_noiseless,
    multiplicity,
    n4_code,
    n4_codewords,
    noiseless_test,
    null_code,
    simultaneous_eigenspace,
)
from .dynamics import (
    Trajectory,
    dephasing_solve,
    evolve,
    evolve_into,
    integrate,
    propagate_exact,
)
from .errors import ConfigError, QregError
from .liouvillian import (
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    build_liouvillian,
    canonical_form,
    lamb_shift,
    pairwise_dissipator,
    superoperator_matrix,
)
from .observables import (
    DecoherenceReport,
    decoherence_report,
    fidelity,
    linear_entropy,
    pure_decoherence_rate,
    register_energy,
    tau_inverse_n,
)
from .register import (
    RegisterModel,
    basis_state,
    casimir,
    collective_op,
    dephasing_register,
    dicke_state,
    embed_cell_op,
    free_hamiltonian,
    heisenberg_ring,
    pair_singlet_state,
    qubit_register,
    register_hamiltonian,
    su2_basis_state,
    su2_multiplicity,
    total_sminus,
    total_splus,
    total_sz,
)

# The public names are the ones imported above: one list, not two.
__all__ = sorted(name for name in globals() if not name.startswith("_"))
