"""A 40-digit reference for report() on diagonal generator pairs.

For diagonal K = diag(k) and G = diag(g) the evolved state is
psi(lambda) = exp(-i k lambda) psi0 entry by entry, and G's eigenspaces are
index sets.  The caller names them by a label per index, taken from how G
was built rather than from clustering a rounded spectrum.  Everything is
evaluated in mpmath at 40 significant digits from the double inputs, with
no code shared with the library:

* alice = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2) with dpsi = -i k psi,
* bob = 4 <dpsi|dpsi> - 4 sum_i Im(<psi|P_i|dpsi>)^2 / p_i over eigenspaces
  with p_i = <psi|P_i|psi> above 1e-12 (below it a term carries no
  information, by the Schwarz inequality, and the library skips it too),
* loss = alice - bob and cov_gk = <GK> - <G><K>.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

DIGITS = 40
EPS_PROBABILITY = mpmath.mpf("1e-12")


@dataclass(frozen=True)
class Reference:
    alice_qfi: mpmath.mpf
    bob_qfi: mpmath.mpf
    loss: mpmath.mpf
    cov_gk: mpmath.mpf


def diagonal_pair(psi0, k, g, labels, lam: float) -> Reference:
    """The reference values for (psi0, diag(k), diag(g), lam).

    `labels[j]` names the eigenspace of G that index j belongs to; entries
    with one label must have one g value.
    """
    with mpmath.workdps(DIGITS):
        amps = [mpmath.mpc(complex(x).real, complex(x).imag) for x in psi0]
        norm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in amps))
        k = [mpmath.mpf(float(x)) for x in k]
        g = [mpmath.mpf(float(x)) for x in g]
        lam = mpmath.mpf(float(lam))
        psi = [mpmath.exp(-1j * kj * lam) * x / norm for kj, x in zip(k, amps)]
        dpsi = [-1j * kj * x for kj, x in zip(k, psi)]
        kinetic = mpmath.fsum(abs(x) ** 2 for x in dpsi)
        overlap = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(psi, dpsi))
        alice = 4 * (kinetic - abs(overlap) ** 2)
        dephasing = mpmath.mpf(0)
        for label in sorted(set(labels)):
            members = [j for j, other in enumerate(labels) if other == label]
            assert len({g[j] for j in members}) == 1, "one eigenspace, one eigenvalue"
            p = mpmath.fsum(abs(psi[j]) ** 2 for j in members)
            if p > EPS_PROBABILITY:
                part = mpmath.fsum(mpmath.conj(psi[j]) * dpsi[j] for j in members)
                dephasing += mpmath.im(part) ** 2 / p
        bob = 4 * (kinetic - dephasing)
        weights = [abs(x) ** 2 for x in psi]
        mean_g = mpmath.fsum(gj * w for gj, w in zip(g, weights))
        mean_k = mpmath.fsum(kj * w for kj, w in zip(k, weights))
        cov = mpmath.fsum(gj * kj * w for gj, kj, w in zip(g, k, weights)) - mean_g * mean_k
        return Reference(alice, bob, alice - bob, cov)
