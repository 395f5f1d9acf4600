#!/usr/bin/env python3
"""Walk through the core objects: dephasing channel, QFI forms, loss theorem.

A spin-1/2 probe carries a rotation angle around a tilted axis while only the
z axis is shared with the receiver, so the state dephases in the z eigenbasis.
We build the channel from the noise generator, compare every closed form of
the dephased QFI, and audit the exact no-loss / max-loss conditions.
"""

import numpy as np

from twirlqfi import (
    check_max_loss,
    check_no_loss,
    counterexample_scenario,
    example3_scenario,
    finite_time_average,
    necessary_conditions,
    qfi_anticommutator_form,
    qfi_covariance_form,
    qfi_eigenvector_form,
    qfi_mixed,
    qfi_twirled_pure,
    qfi_unitary,
    report,
    spectral_projectors,
    twirl,
    twirl_hermitian,
)

scenario = example3_scenario((0.0, np.sqrt(0.75), 0.5), lam=1.1)

print("== spin-1/2 direction indicator, axis (0, sqrt(3)/2, 1/2), lambda = 1.1 ==")
eigenvalues, _ = scenario.g_generator.eig  # decomposed once, cached on the operator
projectors = spectral_projectors(scenario.g_generator)
print(f"noise eigenvalues: {eigenvalues}, ranks {projectors.ranks()}")

rho_b = twirl(scenario.rho_lambda, projectors)
print("\ndephased state (coherences are gone):")
print(np.round(rho_b.matrix, 6))

print("\nall dephased-QFI forms must agree:")
print(f"  projector-overlap form : {qfi_twirled_pure(scenario, projectors):.12f}")
print(f"  anticommutator form    : {qfi_anticommutator_form(scenario, projectors):.12f}")
print(f"  covariance form        : {qfi_covariance_form(scenario, projectors):.12f}")
print(f"  eigenvector form       : {qfi_eigenvector_form(scenario, scenario.g_generator):.12f}")
drho_b = twirl_hermitian(scenario.drho_lambda, projectors)
print(f"  mixed-state form       : {qfi_mixed(rho_b, drho_b):.12f}")
print(f"clean (unitary) QFI      : {qfi_unitary(scenario.fiducial, scenario.k_generator):.12f}")

print("\nfinite-time average converges to the pinching:")
for t_max in (10.0, 100.0, 1000.0):
    averaged = finite_time_average(scenario.rho_lambda, scenario.g_generator, t_max, 20000)
    gap = np.max(np.abs(averaged.matrix - rho_b.matrix))
    print(f"  t_max = {t_max:6.0f} -> max deviation {gap:.3e}")

print("\n== the zero-covariance counterexample ==")
ce = counterexample_scenario(lam=0.7)
cov_gk, mean_comm = necessary_conditions(ce)
print(f"Cov(G, K) = {cov_gk:.3e} (vanishes), <[G, K]> = {abs(mean_comm):.3e}")
print(f"yet dephased QFI = {report(ce).bob_qfi:.3e}")
p_ce = spectral_projectors(ce.g_generator)
print(f"no_loss predicate : {check_no_loss(ce, p_ce)}")
print(f"max_loss predicate: {check_max_loss(ce, p_ce)}  (everything is lost)")
print("zero covariance is necessary for losslessness, not sufficient")
