#!/usr/bin/env python3
"""Optimize the probe amplitudes and compare against standard profiles.

For each mean energy the dephased QFI is maximized over all occupation
profiles on the simplex (with the energy pinned).  The coherent profile is
nearly optimal; the uniform superposition of the matched number of Fock
levels trails behind.  Data mirrors the optimal-state comparison curve.
"""

import numpy as np

from twirlqfi import OptProblem, example1_qfi_closed_form, optimize_probe
from twirlqfi.probeopt import FIXED_MEAN_ENERGY, coherent_weight_profile

N_LEVELS = 24

print(f"probe optimization over {N_LEVELS} Fock levels (energy constrained)\n")
print("energy   uniform(matched)   coherent    optimal    optimal profile (top levels)")
for energy in (0.5, 1.0, 2.0, 3.0, 4.0):
    matched = min(N_LEVELS, int(round(2 * energy + 1)))
    uniform = np.zeros(N_LEVELS)
    uniform[:matched] = 1.0 / np.sqrt(matched)
    qfi_uniform = example1_qfi_closed_form(uniform)
    qfi_coherent = example1_qfi_closed_form(
        np.sqrt(coherent_weight_profile(N_LEVELS, energy))
    )
    result = optimize_probe(
        OptProblem(
            n_levels=N_LEVELS,
            constraint=FIXED_MEAN_ENERGY,
            energy_target=energy,
        )
    )
    weights = result.amplitudes**2
    top = np.argsort(weights)[-3:][::-1]
    profile = ", ".join(f"n={k}: {weights[k]:.3f}" for k in top)
    print(
        f"{energy:5.2f}    {qfi_uniform:14.8f}   {qfi_coherent:9.6f}  {result.qfi:9.6f}"
        f"    {profile}"
    )

print("\nunconstrained optimum (energy free to grow within the truncation):")
free = optimize_probe(OptProblem(n_levels=N_LEVELS))
print(f"  QFI {free.qfi:.8f} at mean energy {float(np.arange(N_LEVELS) @ free.amplitudes**2):.4f}")
print(f"  certified: the optimum exceeds it by at most {free.gap:.1e} (duality gap)")
