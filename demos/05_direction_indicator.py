#!/usr/bin/env python3
"""Direction indicator: how much of a rotation angle survives z-dephasing.

A spin-1/2 is rotated by lambda around a unit axis (x, y, z); only the z axis
is shared, so the state is pinched in the sigma_z eigenbasis.  The clean QFI
is 1 - z^2 and the dephased one gains a lambda-dependent suppression.  The
optimal measurement afterwards is simply the computational basis, and its
classical Fisher information saturates the quantum bound.
"""

import numpy as np

from twirlqfi import (
    HermitianOperator,
    classical_fisher,
    example3_alice_qfi,
    example3_bob_qfi,
    example3_sld_diag,
    example3_scenario,
    optimal_povm,
    sld_twirled,
    twirl,
    twirl_hermitian,
)

print("dephased QFI (clean value in brackets) over the (z, lambda) surface\n")
lams = np.array([0.1, 0.5, 1.0, 2.0, 3.0])
print("   z    " + "".join(f"  lam={l:3.1f}" for l in lams))
for z in (0.0, 0.25, 0.5, 0.75, 1.0):
    cells = "".join(f"  {example3_bob_qfi(z, l):7.4f}" for l in lams)
    print(f"  {z:4.2f} {cells}   [clean {example3_alice_qfi(z):.4f}]")

print("\nz = 0 keeps everything (encoding axis orthogonal to the noise axis);")
print("z = 1 encodes nothing to begin with; in between the dephasing bites")
print("harder as lambda approaches +-pi.\n")

z, lam = 0.5, np.pi / 3
scenario = example3_scenario((0.0, np.sqrt(1 - z * z), z), lam)
sld = sld_twirled(scenario)
upper, lower = example3_sld_diag(z, lam)
print(f"optimal-measurement operator at z = {z}, lambda = pi/3 (diagonal):")
print(f"  computed  diag({sld.matrix[0, 0].real:.6f}, {sld.matrix[1, 1].real:.6f})")
print(f"  closed    diag({upper:.6f}, {lower:.6f})")

povm = optimal_povm(sld)
print(f"its eigenprojectors (the measurement): {[np.round(p.matrix.real, 3).tolist() for p in povm]}")

projectors = scenario.generators.dephasing  # the pinching sld_twirled used
rho_b = twirl(scenario.rho_lambda, projectors)
drho_b = twirl_hermitian(scenario.drho_lambda, projectors)
basis = [
    HermitianOperator(np.diag([1.0, 0.0]).astype(complex)),
    HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
]
fisher = classical_fisher(basis, rho_b, drho_b)
print(f"\nclassical Fisher of the computational basis: {fisher:.12f}")
print(f"dephased QFI                                : {example3_bob_qfi(z, lam):.12f}")
print("the bound is saturated: measuring populations is already optimal")
