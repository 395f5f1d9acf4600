"""Quantum Fisher information under dephasing from imperfect reference frames."""

from .channels import (
    DEFAULT_CLUSTER_TOL,
    ProjectorSet,
    finite_time_average,
    spectral_projectors,
    twirl,
    twirl_hermitian,
)
from .hilbert import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    StateVector,
    anticommutator,
    commutator,
    expectation,
    sym_covariance,
    tensor,
)
from .metrology import (
    ConsistencyError,
    Generators,
    NonCommutingError,
    QfiReport,
    Scenario,
    check_max_loss,
    check_no_loss,
    classical_fisher,
    loss_covariance_form,
    necessary_conditions,
    optimal_povm,
    qfi_anticommutator_form,
    qfi_commuting_form,
    qfi_covariance_form,
    qfi_eigenvector_form,
    qfi_loss,
    qfi_mixed,
    qfi_pure,
    qfi_twirled_pure,
    qfi_unitary,
    report,
    sld_mixed,
    sld_twirled,
)
from .models import (
    Example2System,
    QrfStateSpec,
    TruncationError,
    coherent_qfi_asymptote,
    coherent_qfi_hypergeometric,
    counterexample_scenario,
    example1_qfi_closed_form,
    example1_scenario,
    example2_qfi_closed_form,
    example2_system,
    example3_alice_qfi,
    example3_bob_qfi,
    example3_sld_diag,
    example3_scenario,
    fock_ops,
    kummer_m,
    mean_occupation,
    qrf_amplitudes,
)
from .probeopt import OptProblem, OptResult, optimize_probe

__all__ = [name for name in dir() if not name.startswith("_")]
