"""Constructors and closed-form references for the worked example systems.

Three families are covered, each with a fully numerical pipeline route and an
independent closed form that must agree with it:

* a qubit carrying a phase parameter next to a single-mode bosonic quantum
  reference frame, dephased by total excitation number (clean clock case,
  commuting noise),
* two coupled oscillators whose interaction makes the noise non-commuting
  with the encoding,
* a spin-1/2 direction indicator dephased around the z axis.

The a = 1 confluent hypergeometric series is implemented directly, the
squeezed-state amplitudes carry their own Hermite recurrence, and every log
factorial comes from the standard library's math.lgamma, so the closed forms
carry no opaque special-function dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DEFAULT_CLUSTER_TOL, _cluster_layout
from .hilbert import HermitianOperator, StateVector
from .metrology import Scenario

__all__ = [
    "TruncationError",
    "QrfStateSpec",
    "fock_ops",
    "qrf_amplitudes",
    "mean_occupation",
    "kummer_m",
    "example1_scenario",
    "example1_qfi_closed_form",
    "coherent_qfi_hypergeometric",
    "coherent_qfi_asymptote",
    "Example2System",
    "example2_system",
    "example2_qfi_closed_form",
    "example3_scenario",
    "example3_alice_qfi",
    "example3_bob_qfi",
    "example3_sld_diag",
    "counterexample_scenario",
]

TAIL_TOL = 1e-10
MAX_TRUNCATION = 4096


class TruncationError(ValueError):
    """The requested Fock truncation discards too much probability."""


def fock_ops(n_levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated ladder matrices (lowering, raising, number).

    The truncation artifact is confined to the top level: [a, a^dag] equals
    the identity except at the (n-1, n-1) corner entry.
    """
    if n_levels < 2:
        raise ValueError("n_levels must be at least 2")
    lowering = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1).astype(complex)
    raising = lowering.conj().T
    number = np.diag(np.arange(n_levels, dtype=float)).astype(complex)
    return lowering, raising, number


UNIFORM = "uniform_superposition"
COHERENT = "coherent"
SQUEEZED_DISPLACED = "squeezed_displaced"
EXPLICIT = "explicit"
_KINDS = (UNIFORM, COHERENT, SQUEEZED_DISPLACED, EXPLICIT)


@dataclass(frozen=True)
class QrfStateSpec:
    """Declarative description of the reference-frame probe state.

    kind selects the family; only the fields that family needs may be set.
    A squeezed, displaced vacuum takes (alpha, r) directly, or (alpha,
    x_fraction) with x = alpha^2 / <N> from which the squeezing follows;
    x_fraction < 1 needs alpha > 0, since alpha = 0 leaves r undetermined.
    """

    kind: str
    n_fock: int | None = None
    alpha: float | None = None
    r: float | None = None
    x_fraction: float | None = None
    amplitudes: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown QRF state kind {self.kind!r}")
        set_fields = {
            name
            for name in ("n_fock", "alpha", "r", "x_fraction", "amplitudes")
            if getattr(self, name) is not None
        }
        required = {
            UNIFORM: ({"n_fock"},),
            COHERENT: ({"alpha"},),
            SQUEEZED_DISPLACED: ({"alpha", "r"}, {"alpha", "x_fraction"}),
            EXPLICIT: ({"amplitudes"},),
        }[self.kind]
        if set_fields not in required:
            raise ValueError(
                f"kind {self.kind!r} needs exactly one of {required}, got {set_fields}"
            )
        if self.kind == UNIFORM and self.n_fock < 1:
            raise ValueError("uniform superposition needs n_fock >= 1")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.r is not None and self.r < 0:
            raise ValueError("squeezing parameter r must be non-negative here")
        if self.x_fraction is not None and not 0.0 < self.x_fraction <= 1.0:
            raise ValueError("x_fraction must lie in (0, 1]")
        if self.x_fraction is not None and self.x_fraction < 1.0 and self.alpha == 0.0:
            raise ValueError("x_fraction < 1 with alpha = 0 leaves r undetermined")
        if self.kind == EXPLICIT and len(self.amplitudes) == 0:
            raise ValueError("explicit amplitudes must be non-empty")

    @classmethod
    def uniform(cls, n_fock: int) -> "QrfStateSpec":
        return cls(kind=UNIFORM, n_fock=n_fock)

    @classmethod
    def coherent(cls, alpha: float) -> "QrfStateSpec":
        return cls(kind=COHERENT, alpha=float(alpha))

    @classmethod
    def squeezed_displaced(cls, alpha: float, r: float) -> "QrfStateSpec":
        return cls(kind=SQUEEZED_DISPLACED, alpha=float(alpha), r=float(r))

    @classmethod
    def from_mean_energy(cls, mean: float, x_fraction: float) -> "QrfStateSpec":
        """Squeezed, displaced vacuum with mean occupation `mean`, of which
        the fraction x_fraction is due to the displacement."""
        if mean < 0:
            raise ValueError("mean occupation must be non-negative")
        if not 0.0 <= x_fraction <= 1.0:
            raise ValueError("x_fraction must lie in [0, 1]")
        alpha = math.sqrt(x_fraction * mean)
        r = math.asinh(math.sqrt((1.0 - x_fraction) * mean))
        return cls(kind=SQUEEZED_DISPLACED, alpha=alpha, r=r)

    def squeezing(self) -> float:
        """Resolved squeezing parameter r."""
        if self.r is not None:
            return self.r
        if self.x_fraction is not None:
            return math.asinh(self.alpha * math.sqrt(1.0 / self.x_fraction - 1.0))
        return 0.0


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! for each entry of a 1-d array of non-negative integer values."""
    return np.array([math.lgamma(k + 1.0) for k in n], dtype=float)


def _coherent_amplitudes(alpha: float, truncation: int) -> np.ndarray:
    n = np.arange(truncation, dtype=float)
    if alpha == 0.0:
        amps = np.zeros(truncation)
        amps[0] = 1.0
        return amps
    log_amp = -0.5 * alpha**2 + n * math.log(alpha) - 0.5 * _log_factorial(n)
    return np.exp(log_amp)


def _squeezed_displaced_amplitudes(alpha: float, r: float, truncation: int) -> np.ndarray:
    # |alpha, r> expansion: prefactor exp(-(alpha^2/2)(1 + tanh r)) / sqrt(cosh r),
    # term_n = (tanh r)^(n/2) / sqrt(2^n n!) * H_n(gamma / sqrt(sinh 2r)),
    # gamma = alpha exp(r).  Singular at r = 0, where the coherent form applies.
    # The Hermite recurrence is carried in amplitude scale (s_n = term_n * pref)
    # so deep truncations never overflow.
    t = math.tanh(r)
    y = alpha * math.exp(r) / math.sqrt(math.sinh(2.0 * r))
    log_pref = -0.5 * alpha**2 * (1.0 + t) - 0.5 * math.log(math.cosh(r))
    factor = math.sqrt(0.5 * t)
    amps = np.empty(truncation)
    s_prev = math.exp(log_pref)
    s_cur = 2.0 * y * factor * s_prev
    for n in range(truncation):
        amps[n] = s_prev if n == 0 else s_cur
        if n >= 1:
            s_prev, s_cur = s_cur, (
                2.0 * y * factor / math.sqrt(n + 1.0) * s_cur
                - t * math.sqrt(n / (n + 1.0)) * s_prev
            )
    return amps


def _series(spec: QrfStateSpec, truncation: int) -> np.ndarray:
    r = spec.squeezing()
    if r == 0.0:
        return _coherent_amplitudes(spec.alpha, truncation)
    return _squeezed_displaced_amplitudes(spec.alpha, r, truncation)


def _tail(amps: np.ndarray) -> float:
    return 1.0 - float(np.sum(np.abs(amps) ** 2))


def _sufficient_series(spec: QrfStateSpec) -> np.ndarray | None:
    """The series at the first sufficient truncation of the doubling rule.

    Starts at max(32, int(4 <n> + 16)) levels and doubles up to
    MAX_TRUNCATION; None when no tried truncation keeps the tail below
    TAIL_TOL.
    """
    mean = (spec.alpha or 0.0) ** 2 + math.sinh(spec.squeezing()) ** 2
    truncation = max(32, int(4.0 * mean + 16))
    while truncation <= MAX_TRUNCATION:
        amps = _series(spec, truncation)
        if _tail(amps) < TAIL_TOL:
            return amps
        truncation *= 2
    return None


def qrf_amplitudes(spec: QrfStateSpec, truncation: int | None = None) -> StateVector:
    """Fock amplitudes of the requested probe state, truncated and normalized.

    With truncation None a sufficient size is chosen: n_fock levels for a
    uniform superposition, the given amplitudes for an explicit state, and
    otherwise the first of max(32, int(4 <n> + 16)) levels and its
    doublings, up to 4096, that leaves a tail probability below 1e-10.
    Raises TruncationError when the discarded tail probability exceeds 1e-10
    or no truncation up to 4096 levels suffices.
    """
    if truncation is None:
        if spec.kind == UNIFORM:
            truncation = spec.n_fock
        elif spec.kind == EXPLICIT:
            truncation = len(spec.amplitudes)
        else:
            amps = _sufficient_series(spec)
            if amps is None:
                raise TruncationError(
                    f"no Fock truncation up to {MAX_TRUNCATION} levels keeps the tail "
                    f"probability below {TAIL_TOL}"
                )
            return StateVector(amps)
    if truncation < 1:
        raise ValueError("truncation must be positive")
    if spec.kind == UNIFORM:
        if truncation < spec.n_fock:
            raise TruncationError(
                f"uniform superposition over {spec.n_fock} levels needs truncation >= {spec.n_fock}"
            )
        amps = np.zeros(truncation)
        amps[: spec.n_fock] = 1.0 / math.sqrt(spec.n_fock)
        return StateVector(amps)
    if spec.kind == EXPLICIT:
        if truncation < len(spec.amplitudes):
            raise TruncationError("explicit amplitudes exceed the requested truncation")
        amps = np.zeros(truncation, dtype=complex)
        amps[: len(spec.amplitudes)] = spec.amplitudes
        return StateVector(amps)
    amps = _series(spec, truncation)
    tail = _tail(amps)
    if tail < TAIL_TOL:
        return StateVector(amps)
    sufficient = _sufficient_series(spec)
    hint = f"; {sufficient.size} levels suffice" if sufficient is not None else ""
    raise TruncationError(
        f"truncation {truncation} discards tail probability {tail:.3e} >= {TAIL_TOL}{hint}"
    )


def mean_occupation(state: StateVector) -> float:
    """Mean Fock occupation sum_n n |c_n|^2."""
    n = np.arange(state.dim)
    return float(np.sum(n * np.abs(state.amplitudes) ** 2))


def kummer_m(b: float, z: float) -> float:
    """Confluent hypergeometric M(1, b, z) = sum_k z^k / (b (b+1) ... (b+k-1)).

    Direct series with compensated summation; terminates when the term drops
    below 1e-16 of the partial sum, capped at 1e6 terms.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    total = 0.0
    comp = 0.0
    term = 1.0
    for k in range(1_000_000):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term *= z / (b + k)
        if abs(term) < 1e-16 * abs(total):
            return total
    raise ArithmeticError("confluent hypergeometric series did not converge")


# ---------------------------------------------------------------------------
# Example family 1: qubit + single-mode QRF, dephased by total number.


def example1_scenario(qrf: StateVector, lam: float = 0.0) -> Scenario:
    """(|0> + |1>)/sqrt(2) (x) qrf, K = n_qubit, G = total number."""
    # the products np.kron forms: qubit index major, QRF index minor
    plus = StateVector(np.array([1.0, 1.0])).amplitudes
    psi0 = StateVector(np.outer(plus, qrf.amplitudes).ravel())
    n_qubit = np.repeat([0.0, 1.0], qrf.dim)
    k = HermitianOperator.from_diagonal(n_qubit)
    total = n_qubit + np.tile(np.arange(qrf.dim, dtype=float), 2)
    # G on K's layout: the pair's products and both decompositions share its grouping
    g = HermitianOperator.from_blocks(k.blocks.layout, (total.reshape(-1, 1, 1),))
    return Scenario(psi0, k, g, lam)


def example1_qfi_closed_form(c) -> float:
    """Dephased QFI for qubit + QRF with probe amplitudes c_0 ... c_{N-1}.

    2 - 2 (sum_{n<N-1} |c_n|^4 / (|c_n|^2 + |c_{n+1}|^2) + |c_{N-1}|^2);
    vanishing neighbour pairs contribute nothing.
    """
    q = np.abs(np.asarray(c, dtype=complex)) ** 2
    if q.ndim != 1 or q.size == 0:
        raise ValueError("amplitudes must form a non-empty vector")
    if abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("amplitudes must be normalized")
    if q.size == 1:
        return 0.0
    return _example1_qfi_weights(q)


def _example1_qfi_weights(q: np.ndarray) -> float:
    """The closed form above on validated occupation weights q_n = |c_n|^2."""
    den = q[:-1] + q[1:]
    terms = np.divide(q[:-1] ** 2, den, out=np.zeros_like(den), where=den > 0)
    return 2.0 - 2.0 * (float(terms.sum()) + float(q[-1]))


def coherent_qfi_hypergeometric(alpha_sq: float) -> float:
    """Dephased QFI with a coherent probe: 2 x/(1+x) M(1, 2+x, -x), x=|alpha|^2."""
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be non-negative")
    if alpha_sq == 0.0:
        return 0.0
    return 2.0 * alpha_sq / (1.0 + alpha_sq) * kummer_m(2.0 + alpha_sq, -alpha_sq)


def coherent_qfi_asymptote(alpha_sq: float) -> float:
    """Large-energy asymptote 1 - C/(x+1) with C = 1/4."""
    return 1.0 - 0.25 / (alpha_sq + 1.0)


# ---------------------------------------------------------------------------
# Example family 2: two interacting oscillators (non-commuting noise).


@dataclass(frozen=True)
class Example2System:
    """Coupled-oscillator pair restricted to total excitation <= n_total_max.

    The Hamiltonian omega (n_a + n_b) + kappa (a^dag b + b^dag a) conserves
    total excitation number, so the restriction to the sector is exact for
    fiducial states supported inside it.  Labels (m, n) run by total m + n, then
    m, so H is one contiguous tridiagonal block per total, and the Hamiltonian
    is built from those blocks (HermitianOperator.from_blocks).
    """

    omega: float
    kappa: float
    n_total_max: int
    labels: tuple[tuple[int, int], ...]
    hamiltonian: HermitianOperator
    k_generator: HermitianOperator

    @property
    def dim(self) -> int:
        return len(self.labels)

    def label_index(self, m: int, n: int) -> int:
        return self.labels.index((m, n))

    def normal_mode_energy(self, m: int, n: int) -> float:
        """(omega + kappa) m + (omega - kappa) n for normal-mode occupations."""
        return (self.omega + self.kappa) * m + (self.omega - self.kappa) * n

    def normal_mode_vector(self, m: int, n: int) -> np.ndarray:
        """Fock expansion of the (m, n) normal-mode eigenvector.

        Components on |k+l, m+n-k-l> carry binomial weights
        C(m,k) C(n,l) sqrt((k+l)! (m+n-k-l)! / (2^{m+n} m! n!)) and the sign
        (-1)^{n-l} from expanding ((a - b)/sqrt(2))^n.
        """
        if m + n > self.n_total_max:
            raise ValueError("normal-mode occupation exceeds the sector")
        vec = np.zeros(self.dim, dtype=complex)
        log_norm = -0.5 * ((m + n) * math.log(2.0) + math.lgamma(m + 1) + math.lgamma(n + 1))
        for k in range(m + 1):
            for l in range(n + 1):
                weight = math.comb(m, k) * math.comb(n, l) * (-1) ** (n - l)
                log_fact = 0.5 * (math.lgamma(k + l + 1) + math.lgamma(m + n - k - l + 1))
                vec[self.label_index(k + l, m + n - k - l)] += weight * math.exp(
                    log_norm + log_fact
                )
        return vec

    def embed_product_state(self, mode_a, mode_b) -> StateVector:
        """Product state with the given per-mode Fock amplitudes, in the sector."""
        amps_a = np.asarray(mode_a, dtype=complex)
        amps_b = np.asarray(mode_b, dtype=complex)
        if (amps_a.size - 1) + (amps_b.size - 1) > self.n_total_max:
            raise ValueError("product state support leaves the truncation sector")
        vec = np.zeros(self.dim, dtype=complex)
        for i, amp_a in enumerate(amps_a):
            for j, amp_b in enumerate(amps_b):
                vec[self.label_index(i, j)] = amp_a * amp_b
        return StateVector(vec)

    def scenario(self, qrf: StateVector, lam: float = 0.0) -> Scenario:
        """(|0> + |1>)/sqrt(2) on mode a, the probe on mode b, noise = H."""
        psi0 = self.embed_product_state(np.array([1.0, 1.0]) / math.sqrt(2.0), qrf.amplitudes)
        return Scenario(psi0, self.k_generator, self.hamiltonian, lam)


def example2_system(omega: float = 1.0, kappa: float = 1.0 / math.sqrt(2.0),
                    n_total_max: int = 6) -> Example2System:
    """Build the coupled-oscillator pair on the total-number <= n_total_max sector.

    Defaults pick an irrational omega/kappa ratio so the spectrum carries no
    accidental degeneracies; a degenerate spectrum (cluster collision under
    the default tolerance) is reported as an error.
    """
    if not omega > kappa > 0:
        raise ValueError("need omega > kappa > 0")
    if n_total_max < 1:
        raise ValueError("n_total_max must be at least 1")
    labels = tuple((m, s - m) for s in range(n_total_max + 1) for m in range(s + 1))
    m, n = np.array(labels, dtype=float).T
    # a^dag b takes (m, s - m) to (m + 1, s - m - 1), the next label of the block of total s
    couplings = [kappa * (np.sqrt(np.arange(1.0, s + 1)) * np.sqrt(np.arange(s, 0.0, -1)))
                 for s in range(n_total_max + 1)]
    blocks = [(np.diag(c, 1) + np.diag(c, -1) + omega * s * np.eye(s + 1))[None]
              for s, c in enumerate(couplings)]
    h_sector = HermitianOperator.from_blocks(np.cumsum(np.arange(1, n_total_max + 2)), blocks)
    k_sector = HermitianOperator.from_diagonal(m)
    expected = np.sort((omega + kappa) * m + (omega - kappa) * n)
    if _cluster_layout(expected, DEFAULT_CLUSTER_TOL).ends.size < expected.size:
        raise ValueError(
            "spectrum is degenerate at this (omega, kappa); clusters would collide"
        )
    return Example2System(
        omega=omega,
        kappa=kappa,
        n_total_max=n_total_max,
        labels=labels,
        hamiltonian=h_sector,
        k_generator=k_sector,
    )


def _interaction_weight(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    # (m+n-1)! (m-n)^2 / 2^{m+n+1} m! n!, for m + n >= 1
    return np.exp(
        _log_factorial(m + n - 1) - (m + n + 1) * math.log(2.0)
        - _log_factorial(m) - _log_factorial(n)
    ) * (m - n) ** 2


def _interference_fraction(m: np.ndarray, n: np.ndarray, sin_sq: float) -> np.ndarray:
    # d_{m,n} = s (D^2 + s) sin^2 / ((D^2 - s)^2 + 4 s D^2 sin^2), s = m+n,
    # D = m-n.  When D^2 = s and sin^2 = 0 both vanish; the continuous limit
    # along sin^2 -> 0 is (D^2 + s) / (4 D^2) = 1/2, which is the value that
    # keeps the closed form equal to the pipeline at lambda in {0, +-pi}.
    s = m + n
    d_sq = (m - n) ** 2
    num = s * (d_sq + s) * sin_sq
    den = (d_sq - s) ** 2 + 4.0 * s * d_sq * sin_sq
    limit = (d_sq + s) / (4.0 * d_sq)
    return np.where(den == 0, limit, num / np.where(den == 0, 1.0, den))


def example2_qfi_closed_form(n_fock: int, lam: float) -> float:
    """Dephased QFI of the coupled pair with a uniform N-level probe.

    Triple-sum closed form over normal-mode pairs (m, n); independent of
    omega and kappa because the eigenprojectors are.
    """
    if n_fock < 2:
        raise ValueError("the uniform probe needs at least 2 levels")
    n_levels = n_fock
    sin_sq = math.sin(lam) ** 2
    half = n_levels // 2
    m_grid, n_grid = np.meshgrid(
        np.arange(n_levels + 1, dtype=float), np.arange(n_levels + 1, dtype=float), indexing="ij"
    )
    mask1 = (m_grid >= 1) & (m_grid <= half) & (n_grid <= m_grid - 1)
    mask2 = (m_grid >= half + 1) & (m_grid <= n_levels) & (n_grid <= n_levels - m_grid)
    mask3 = (m_grid >= half + 1) & (m_grid <= n_levels - 1) & (n_grid <= n_levels - m_grid - 1)
    used = mask1 | mask2 | mask3
    c = np.zeros_like(m_grid)
    d = np.zeros_like(m_grid)
    c[used] = _interaction_weight(m_grid[used], n_grid[used])
    d[used] = _interference_fraction(m_grid[used], n_grid[used], sin_sq)
    s1 = float(np.sum(c[mask1] * (1.0 - d[mask1])))
    s2 = float(np.sum(c[mask2]))
    s3 = float(np.sum(c[mask3] * d[mask3]))
    return 2.0 - (8.0 / n_levels) * (s1 + s2 - s3)


# ---------------------------------------------------------------------------
# Example family 3: spin-1/2 direction indicator.

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def example3_scenario(axis, lam: float = 0.0) -> Scenario:
    """K = (1/2) axis . sigma, G = sigma_z / 2, fiducial |0>."""
    x, y, z = (float(v) for v in axis)
    if abs(x * x + y * y + z * z - 1.0) > 1e-10:
        raise ValueError("rotation axis must be a unit vector")
    return Scenario(
        fiducial=StateVector(np.array([1.0, 0.0])),
        k_generator=HermitianOperator(0.5 * (x * _SIGMA_X + y * _SIGMA_Y + z * _SIGMA_Z)),
        g_generator=HermitianOperator(0.5 * _SIGMA_Z),
        lam=lam,
    )


def example3_alice_qfi(z: float) -> float:
    """Clean QFI 1 - z^2 for the axis component z along the fiducial spin."""
    return 1.0 - z * z


def example3_bob_qfi(z: float, lam: float) -> float:
    """Dephased QFI (1 - z^2) / (1 + z^2 tan^2(lambda/2)).

    Evaluated in the tangent-free form (1 - z^2) cos^2 / (cos^2 + z^2 sin^2);
    at lambda = +-pi the analytic limit (0 for z != 0, 1 - z^2 = 1 for z = 0)
    is returned exactly.
    """
    if z == 0.0:
        return 1.0
    if abs(lam) == math.pi:
        return 0.0
    c = math.cos(0.5 * lam)
    s = math.sin(0.5 * lam)
    return (1.0 - z * z) * c * c / (c * c + z * z * s * s)


def example3_sld_diag(z: float, lam: float) -> tuple[float, float]:
    """Diagonal entries of the dephased-family SLD in the computational basis.

    ((z^2 - 1) tan(lambda/2) / (1 + z^2 tan^2(lambda/2)), cot(lambda/2));
    undefined where sin(lambda/2) = 0.
    """
    s = math.sin(0.5 * lam)
    c = math.cos(0.5 * lam)
    if s == 0.0:
        raise ValueError("SLD closed form is singular at lambda = 0 (mod 2 pi)")
    upper = (z * z - 1.0) * s * c / (c * c + z * z * s * s)
    return upper, c / s


# ---------------------------------------------------------------------------
# The commuting non-degenerate counterexample: zero covariance, total loss.


def counterexample_scenario(lam: float = 0.0) -> Scenario:
    """K = |2><2|, G = diag(6, 3, 4), psi0 = (1/sqrt6, 1/sqrt3, 1/sqrt2).

    Cov(G, K) vanishes on this state, yet K and G commute and G is
    non-degenerate, so the dephased state carries no information at all.
    """
    psi0 = StateVector(np.array([1.0 / math.sqrt(6), 1.0 / math.sqrt(3), 1.0 / math.sqrt(2)]))
    k = HermitianOperator.from_diagonal([0.0, 0.0, 1.0])
    g = HermitianOperator.from_diagonal([6.0, 3.0, 4.0])
    return Scenario(fiducial=psi0, k_generator=k, g_generator=g, lam=lam)
