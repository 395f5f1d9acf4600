"""A 40-digit reference for report() on diagonal and on dense generator pairs.

Everything is evaluated in mpmath at 40 significant digits from the double
inputs, with no code shared with the library.  G's eigenspaces are named by
the caller, from how G was built rather than from clustering a rounded
spectrum:

* for diagonal K = diag(k) and G = diag(g) (diagonal_pair) the evolved state
  is psi(lambda) = exp(-i k lambda) psi0 entry by entry, and G's eigenspaces
  are index sets, given by a label per index;
* for dense K and G (dense_pair), K's 40-digit decomposition (mpmath.eighe)
  gives psi(lambda), and G's gives its eigenvectors in ascending order, which
  the multiplicities of G's construction cut into eigenspaces.

Then, with dpsi = -i K psi:

* alice = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2),
* bob = 4 <dpsi|dpsi> - 4 sum_i Im(<psi|P_i|dpsi>)^2 / p_i over eigenspaces
  with p_i = <psi|P_i|psi> above 1e-12 (below it a term carries no
  information, by the Schwarz inequality, and the library skips it too),
* loss = alice - bob and cov_gk = Re<G psi|K psi> - <G><K>,
* mean_commutator = <[G, K]> = <G psi|K psi> - <K psi|G psi> = 2i Im<G psi|K psi>,
* the loss theorem's residuals over the same eigenspaces above the floor:
  no_loss_residual = max_i |Im<psi|P_i|dpsi> - c p_i| with c = Im<psi|dpsi>,
  and max_loss_residuals = (max_i |Re<psi|P_i|dpsi>|, kappa), where kappa is
  the norm of dpsi minus its projection onto each P_i psi, formed as that
  vector; an eigenspace below the floor keeps all its dpsi weight in kappa.

bob keeps the cancelling difference above rather than a sum of the
residuals' squares, so it shares no arithmetic with the library's form.
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
    mean_commutator: mpmath.mpc
    no_loss_residual: mpmath.mpf
    max_loss_residuals: tuple[mpmath.mpf, mpmath.mpf]


def _complex(x) -> mpmath.mpc:
    x = complex(x)
    return mpmath.mpc(x.real, x.imag)


def _normalized(psi0) -> list:
    amps = [_complex(x) for x in psi0]
    norm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in amps))
    return [x / norm for x in amps]


def _vdot(x, y) -> mpmath.mpc:
    return mpmath.fsum(mpmath.conj(a) * b for a, b in zip(x, y))


def _reference(psi, dpsi, eigenspaces, gpsi, kpsi) -> Reference:
    """alice, bob, the loss, Cov(G, K), <[G, K]> and the loss theorem's
    residuals, each eigenspace given as its pairs (<v|psi>, <v|dpsi>) over an
    orthonormal basis v of it, and G psi and K psi as vectors."""
    kinetic = mpmath.re(_vdot(dpsi, dpsi))
    mean_dpsi = _vdot(psi, dpsi)
    alice = 4 * (kinetic - abs(mean_dpsi) ** 2)
    dephasing, no_loss, real, kernel = (mpmath.mpf(0) for _ in range(4))
    for pairs in eigenspaces:
        p = mpmath.fsum(abs(a) ** 2 for a, _ in pairs)
        if p > EPS_PROBABILITY:
            overlap = mpmath.fsum(mpmath.conj(a) * b for a, b in pairs)
            dephasing += mpmath.im(overlap) ** 2 / p
            no_loss = max(no_loss, abs(mpmath.im(overlap) - mpmath.im(mean_dpsi) * p))
            real = max(real, abs(mpmath.re(overlap)))
            kernel += mpmath.fsum(abs(b - overlap / p * a) ** 2 for a, b in pairs)
        else:
            kernel += mpmath.fsum(abs(b) ** 2 for _, b in pairs)
    bob = 4 * (kinetic - dephasing)
    mean_g, mean_k = (mpmath.re(_vdot(psi, x)) for x in (gpsi, kpsi))
    gk = _vdot(gpsi, kpsi)
    return Reference(alice, bob, alice - bob, mpmath.re(gk) - mean_g * mean_k,
                     2j * mpmath.im(gk), no_loss, (real, mpmath.sqrt(kernel)))


def diagonal_pair(psi0, k, g, labels, lam: float) -> Reference:
    """The reference values for (psi0, diag(k), diag(g), lam).

    `labels[j]` names the eigenspace of G that index j belongs to; entries
    with one label must have one g value.
    """
    with mpmath.workdps(DIGITS):
        k = [mpmath.mpf(float(x)) for x in k]
        g = [mpmath.mpf(float(x)) for x in g]
        lam = mpmath.mpf(float(lam))
        psi = [mpmath.exp(-1j * kj * lam) * x for kj, x in zip(k, _normalized(psi0))]
        dpsi = [-1j * kj * x for kj, x in zip(k, psi)]
        eigenspaces = []
        for label in sorted(set(labels)):
            members = [j for j, other in enumerate(labels) if other == label]
            assert len({g[j] for j in members}) == 1, "one eigenspace, one eigenvalue"
            eigenspaces.append([(psi[j], dpsi[j]) for j in members])
        gpsi = [gj * x for gj, x in zip(g, psi)]
        kpsi = [kj * x for kj, x in zip(k, psi)]
        return _reference(psi, dpsi, eigenspaces, gpsi, kpsi)


def dense_pair(psi0, k, g, ranks, lam: float) -> Reference:
    """The reference values for (psi0, K, G, lam), K and G as d x d arrays.

    `ranks` are G's multiplicities from its construction, in ascending order
    of eigenvalue: eigenspace i holds the next ranks[i] of G's eigenvectors.
    """
    with mpmath.workdps(DIGITS):
        k = mpmath.matrix([[_complex(x) for x in row] for row in k])
        g = mpmath.matrix([[_complex(x) for x in row] for row in g])
        d, lam = k.rows, mpmath.mpf(float(lam))

        def apply(m, x):
            return [mpmath.fsum(m[i, j] * x[j] for j in range(d)) for i in range(d)]

        def coordinates(q, x):  # Q^dag x
            return [mpmath.fsum(mpmath.conj(q[j, i]) * x[j] for j in range(d)) for i in range(d)]

        w, q = mpmath.eighe(k)
        coords = coordinates(q, _normalized(psi0))
        psi = apply(q, [mpmath.exp(-1j * w[i] * lam) * coords[i] for i in range(d)])
        kpsi, gpsi = apply(k, psi), apply(g, psi)
        dpsi = [-1j * x for x in kpsi]
        _, v = mpmath.eighe(g)
        a, b = coordinates(v, psi), coordinates(v, dpsi)
        assert sum(ranks) == d, "the eigenspaces partition the space"
        ends = [sum(ranks[: i + 1]) for i in range(len(ranks))]
        eigenspaces = [list(zip(a[end - r : end], b[end - r : end])) for r, end in zip(ranks, ends)]
        return _reference(psi, dpsi, eigenspaces, gpsi, kpsi)
