import hashlib
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import src_env
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from twirlqfi import probeopt
from twirlqfi.models import MAX_TRUNCATION, QrfStateSpec, example1_qfi_closed_form, qrf_amplitudes
from twirlqfi.probeopt import (
    FIXED_MEAN_ENERGY,
    OptProblem,
    OptResult,
    _feasible,
    _recursion,
    _sample,
    coherent_weight_profile,
    optimize_probe,
)


def qfi_of_weights(q):
    """The objective at occupation weights q, normalized or not."""
    den = q[:-1] + q[1:]
    terms = np.divide(q[:-1] ** 2, den, out=np.zeros_like(den), where=den > 0)
    return 2.0 - 2.0 * (float(terms.sum()) + float(q[-1]))


def qfi_gradient(q):
    """Gradient of the objective 2 - 2 (sum q_n^2 / (q_n + q_n+1) + q_N-1)."""
    n = q.size
    grad = np.zeros(n)
    den = q[:-1] + q[1:]
    # den**2 underflows for pairs of near-empty levels.  Their term is at
    # most den <= 1e-150 and never negative, so the zero vector stands in
    # for its gradient (a supergradient of -2 * term up to 1e-150).
    safe = den > 1e-150
    own = np.zeros(n - 1)
    own[safe] = (q[:-1][safe] ** 2 + 2.0 * q[:-1][safe] * q[1:][safe]) / den[safe] ** 2
    neighbour = np.zeros(n - 1)
    neighbour[safe] = q[:-1][safe] ** 2 / den[safe] ** 2
    grad[: n - 1] -= 2.0 * own
    grad[1:] += 2.0 * neighbour
    grad[n - 1] -= 2.0
    return grad


def slsqp_reference(n_levels, energy):
    """f at a feasible point found by SLSQP with the exact gradient.

    The solver's point is clipped, normalized and mixed with the vacuum or
    the top level so that its mean energy is exactly the target.  f is
    concave and 0 at both, so the mixing never raises f, and the result
    is a value the optimum must reach.
    """
    levels = np.arange(n_levels, dtype=float)
    sol = minimize(
        lambda q: -qfi_of_weights(np.clip(q, 0.0, None)),
        coherent_weight_profile(n_levels, energy),
        jac=lambda q: -qfi_gradient(np.clip(q, 0.0, None)),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n_levels,
        constraints=[
            {"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones(n_levels)},
            {"type": "eq", "fun": lambda q: levels @ q - energy, "jac": lambda q: levels},
        ],
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    q = np.clip(sol.x, 0.0, None)
    q /= q.sum()
    mean = float(levels @ q)
    vertex = np.zeros(n_levels)
    if mean > energy:
        vertex[0] = 1.0
        share = (mean - energy) / mean
    else:
        vertex[-1] = 1.0
        share = (energy - mean) / (n_levels - 1 - mean)
    q = (1.0 - share) * q + share * vertex
    return example1_qfi_closed_form(np.sqrt(q)), abs(float(levels @ q) - energy)


def simplex_grid_best(n_levels, resolution=100):
    """Exhaustive search over the simplex at 1/resolution weight steps."""
    best = -np.inf
    best_q = None
    for combo in itertools.combinations(
        range(resolution + n_levels - 1), n_levels - 1
    ):
        parts = []
        prev = -1
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + n_levels - 2 - prev)
        q = np.array(parts, dtype=float) / resolution
        value = example1_qfi_closed_form(np.sqrt(q))
        if value > best:
            best, best_q = value, q
    return best, best_q


class TestOptimizeProbe:
    def test_two_levels_against_line_scan(self):
        # oracle: 1-d brute force over q0
        q0 = np.linspace(0.0, 1.0, 100001)
        objective = 2 - 2 * (q0**2 + (1 - q0))
        best = float(np.max(objective))
        assert best == pytest.approx(0.5, abs=1e-9)
        result = optimize_probe(OptProblem(n_levels=2))
        assert result.qfi == pytest.approx(best, abs=1e-9)
        assert np.allclose(result.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-5)

    def test_ten_levels_beats_uniform(self):
        result = optimize_probe(OptProblem(n_levels=10))
        assert result.qfi >= 1 - 1 / 10 - 1e-12

    def test_matched_energy_ordering(self):
        for energy in (1.0, 2.0, 4.0):
            result = optimize_probe(
                OptProblem(
                    n_levels=24,
                    constraint=FIXED_MEAN_ENERGY,
                    energy_target=energy,
                )
            )
            coherent = qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(energy)), 24)
            qfi_coherent = example1_qfi_closed_form(coherent.amplitudes)
            levels = int(round(2 * energy + 1))
            qfi_uniform = 1 - 1 / levels
            assert result.converged
            assert result.qfi >= qfi_coherent - 1e-6
            assert qfi_coherent >= qfi_uniform - 1e-6

    def test_matches_simplex_grid_oracle(self):
        for n in (2, 3, 4):
            grid_best, _ = simplex_grid_best(n)
            result = optimize_probe(OptProblem(n_levels=n))
            assert abs(result.qfi - grid_best) <= 1e-4
            assert result.qfi >= grid_best - 1e-12

    def test_feasibility_of_returned_iterate(self):
        result = optimize_probe(
            OptProblem(n_levels=12, constraint=FIXED_MEAN_ENERGY, energy_target=2.5)
        )
        q = result.amplitudes**2
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.all(result.amplitudes >= 0.0)
        assert result.energy_residual <= 1e-5
        mean = float(np.arange(12) @ q)
        assert abs(mean - 2.5) == pytest.approx(result.energy_residual, abs=1e-12)

    def test_trace_logs_one_entry_per_iteration(self):
        # one entry per bracket of the energy multiplier; the first bracket
        # mixes the top level and the vacuum, where f = 0 at both ends
        result = optimize_probe(
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY, energy_target=2.0)
        )
        assert [entry[0] for entry in result.trace] == list(range(1, len(result.trace) + 1))
        assert len(result.trace) > 1
        q = np.zeros(8)
        q[0], q[-1] = 5.0 / 7.0, 2.0 / 7.0
        assert result.trace[0][1] == pytest.approx(example1_qfi_closed_form(np.sqrt(q)), abs=1e-15)
        assert result.trace[-1][1] == result.qfi
        free = optimize_probe(OptProblem(n_levels=8))
        assert free.trace == ((1, free.qfi),)

    def test_bitwise_reproducibility(self):
        problem = OptProblem(n_levels=9)
        first = optimize_probe(problem)
        second = optimize_probe(problem)
        assert first.trace == second.trace
        assert first.qfi == second.qfi
        assert first.gap == second.gap
        assert np.array_equal(first.amplitudes, second.amplitudes)

    def test_seed_fields_select_nothing(self):
        base = optimize_probe(
            OptProblem(n_levels=9, constraint=FIXED_MEAN_ENERGY, energy_target=2.0)
        )
        seeded = optimize_probe(
            OptProblem(
                n_levels=9,
                constraint=FIXED_MEAN_ENERGY,
                energy_target=2.0,
                seeds=5,
                rng_seed=17,
            )
        )
        assert seeded.trace == base.trace
        assert np.array_equal(seeded.amplitudes, base.amplitudes)
        with pytest.raises(ValueError):
            OptProblem(n_levels=9, seeds=0)

    @pytest.mark.parametrize(
        "n_levels, energy, optimum",
        [(40, 10.0, 0.986909), (24, 5.0, 0.960817), (16, 3.0, 0.920335)],
    )
    def test_certified_fixed_energy_optima(self, n_levels, energy, optimum):
        # reference values of an exact-gradient SLSQP solve, reproduced by
        # the full report() pipeline; an earlier multistart optimizer
        # reported converged at 0.976676, 0.955460, 0.919687
        problem = OptProblem(
            n_levels=n_levels, constraint=FIXED_MEAN_ENERGY, energy_target=energy
        )
        result = optimize_probe(problem)
        assert result.qfi == pytest.approx(optimum, abs=1e-6)
        assert result.converged
        assert result.gap <= problem.tol

    def test_certificate_bounds_feasible_profiles(self):
        # f is concave, so qfi + gap must bound f at every feasible q; mixtures
        # of two-level vertices (weights on levels i <= E <= j) cover the
        # polytope's extreme points, so this probes the bound where it is tight
        # and far from the optimum alike.
        rng = np.random.default_rng(5)
        for n_levels, energy in ((24, 2.0), (16, 3.45), (8, 0.01), (12, 9.5)):
            result = optimize_probe(
                OptProblem(n_levels=n_levels, constraint=FIXED_MEAN_ENERGY, energy_target=energy)
            )
            assert result.converged
            assert result.gap >= -1e-12
            below = np.arange(n_levels)[np.arange(n_levels) <= energy]
            above = np.arange(n_levels)[np.arange(n_levels) > energy]
            for _ in range(200):
                q = np.zeros(n_levels)
                for weight in rng.dirichlet(np.ones(3)):
                    i, j = rng.choice(below), rng.choice(above)
                    q[i] += weight * (j - energy) / (j - i)
                    q[j] += weight * (energy - i) / (j - i)
                value = example1_qfi_closed_form(np.sqrt(q))
                assert value <= result.qfi + result.gap + 1e-12

    def test_finite_support_optimum_is_certified(self):
        # At N=24, E=2 the optimal profile is empty above level ~16.  There f
        # is not differentiable, and the gradient formula is a loose
        # supergradient: the empty level right after the support has slope
        # +2.  Its linear bound over the polytope, the best two-level vertex,
        # stays far above the optimum, while the Lagrange dual bound is tight.
        energy = 2.0
        result = optimize_probe(
            OptProblem(n_levels=24, constraint=FIXED_MEAN_ENERGY, energy_target=energy)
        )
        assert result.converged
        assert result.gap <= 1e-8
        q = result.amplitudes**2
        assert np.sum(q[16:]) <= 1e-10
        g = qfi_gradient(q)
        vertex_bound = max(
            ((j - energy) * g[i] + (energy - i) * g[j]) / (j - i)
            for i in range(3)
            for j in range(2, 24)
            if i < j
        )
        assert vertex_bound - g @ q > 0.1

    @pytest.mark.parametrize(
        "n_levels, energy, optimum",
        [
            (37, 2.36, 0.892388988620),
            (60, 2.68, 0.907993577054),
            (45, 38.96, 0.961275921592),
            (40, 37.2, None),
            (16, 1.1, None),
        ],
    )
    def test_hard_cases_are_certified(self, n_levels, energy, optimum):
        # problems where an SLSQP solve needed hundreds of iterations, or
        # stopped uncertified: far from the coherent start, or near the top
        result = optimize_probe(
            OptProblem(n_levels=n_levels, constraint=FIXED_MEAN_ENERGY, energy_target=energy)
        )
        assert result.converged
        assert result.gap <= 1e-12
        assert result.energy_residual <= 1e-12
        if optimum is not None:
            assert result.qfi == pytest.approx(optimum, abs=1e-9)

    def test_first_bracket_matches_the_recursion(self):
        # the search starts from closed-form maximizers at nu = -2 and 2; at
        # nu = -2 the recursion ties a_N-2 = a_N-1 = 0, and only a support
        # that starts at the last minimal level is the top level
        n = 6
        for nu, mu, level in ((-2.0, 2.0 * n - 4.0, n - 1), (2.0, -2.0, 0)):
            assert _recursion(mu - 1e-9, nu, n) is None
            sample = _sample(nu, mu, mu, n)
            assert sample.mu == mu
            assert sample.q.tolist() == np.eye(n)[level].tolist()
            assert (sample.energy, sample.qfi) == (level, 0.0)

    def test_infeasible_hi_falls_back_to_nonnegative_costs(self):
        # a given hi that is not dual feasible is replaced by the smallest mu
        # with every c_n = mu + nu n >= 0, and the bisection ends where it
        # would have from that hi
        n, nu = 6, 0.3
        assert _recursion(-5.0, nu, n) is None
        fallback = _sample(nu, -10.0, -5.0, n)
        direct = _sample(nu, -10.0, max(0.0, -nu * (n - 1)), n)
        assert fallback.mu == direct.mu
        assert fallback.q.tolist() == direct.q.tolist()

    def test_bisection_replays_on_the_recursion(self, monkeypatch):
        # every mid the bisection visits on the benchmark's energy ladder gets
        # the recursion's verdict, and the recursion itself runs once per sample
        verdicts, recursions, samples = [], [], []

        def feasible(mu, offsets):
            verdicts.append((mu, offsets))
            return _feasible(mu, offsets)

        def recursion(mu, nu, n):
            recursions.append((mu, nu, n))
            return _recursion(mu, nu, n)

        def sample(nu, lo, hi, n):
            samples.append(nu)
            return _sample(nu, lo, hi, n)

        monkeypatch.setattr(probeopt, "_feasible", feasible)
        monkeypatch.setattr(probeopt, "_recursion", recursion)
        monkeypatch.setattr(probeopt, "_sample", sample)
        n = 16
        for energy in (2.5, 3.45):
            optimize_probe(
                OptProblem(n_levels=n, constraint=FIXED_MEAN_ENERGY, energy_target=energy)
            )
        assert len(recursions) == len(samples) > 10
        assert len(verdicts) > 20 * len(samples)
        outcomes = set()
        for mu, offsets in verdicts:
            nu = offsets[-2]
            assert offsets == [nu * i for i in range(n - 1, -1, -1)]
            outcomes.add(verdict := _feasible(mu, offsets))
            assert verdict == (_recursion(mu, nu, n) is not None), (mu, nu)
        assert outcomes == {False, True}

    def test_results_compare_by_identity(self):
        first = OptResult(np.ones(2), 1.0, (), True, 0.0)
        second = OptResult(np.ones(2), 1.0, (), True, 0.0)
        assert first != second and first == first
        assert len({first, second}) == 2

    def test_never_below_an_slsqp_oracle(self):
        for n_levels in range(2, 25):
            # the certificate holds up to the rounding of f, where the solve stops
            rounding = 2.0 * n_levels * np.finfo(float).eps
            for energy in np.linspace(0.0, n_levels - 1, 8)[1:-1].tolist():
                result = optimize_probe(
                    OptProblem(
                        n_levels=n_levels, constraint=FIXED_MEAN_ENERGY, energy_target=energy
                    )
                )
                reference, residual = slsqp_reference(n_levels, energy)
                assert residual <= 1e-12
                assert result.qfi >= reference - 1e-12, (n_levels, energy)
                assert result.qfi + result.gap >= reference - rounding, (n_levels, energy)

    def test_tolerance_below_rounding_is_not_certified(self):
        problem = OptProblem(
            n_levels=60, constraint=FIXED_MEAN_ENERGY, energy_target=2.68, tol=1e-300
        )
        result = optimize_probe(problem)
        assert not result.converged
        assert result.gap > problem.tol
        assert "residual" in result.message
        assert "gap" in result.message
        assert abs(np.sum(result.amplitudes**2) - 1.0) <= 1e-12

    def test_unconstrained_certificate(self):
        for n_levels in (2, 10, 24):
            result = optimize_probe(OptProblem(n_levels=n_levels))
            assert result.converged
            assert result.energy_residual == 0.0
            assert -1e-12 <= result.gap <= 1e-10

    def test_starts_from_the_coherent_profile(self):
        # a zero-energy problem has one feasible point, the vacuum, which is
        # also the coherent profile at zero energy; the first bracket's
        # mixture is already that point, certified by the vacuum's bound
        result = optimize_probe(
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY, energy_target=0.0)
        )
        assert np.array_equal(result.amplitudes**2, coherent_weight_profile(8, 0.0))
        assert result.qfi == 0.0
        assert result.converged

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_levels", 3.0),
            ("n_levels", "4"),
            ("n_levels", True),
            ("seeds", 2.5),
            ("seeds", True),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        # n_levels=3.0 used to fail deep in the solve, and seeds=2.5 passed
        with pytest.raises(ValueError, match=field):
            OptProblem(**{"n_levels": 4, field: value})

    def test_numpy_integer_counts_are_accepted(self):
        problem = OptProblem(n_levels=np.int64(9), seeds=np.int32(3))
        assert (type(problem.n_levels), type(problem.seeds)) == (int, int)
        assert optimize_probe(problem).trace == optimize_probe(OptProblem(n_levels=9)).trace

    def test_n_levels_within_the_largest_truncation(self):
        # a larger count reached the solve, which builds a list of n_levels offsets
        assert OptProblem(n_levels=MAX_TRUNCATION).n_levels == MAX_TRUNCATION
        for n_levels in (1, MAX_TRUNCATION + 1, 10**19):
            with pytest.raises(ValueError, match="n_levels must be between 2 and 4096"):
                OptProblem(n_levels=n_levels)

    def test_infeasible_targets_rejected(self):
        with pytest.raises(ValueError):
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY, energy_target=7.0)
        with pytest.raises(ValueError):
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY, energy_target=-0.5)
        with pytest.raises(ValueError):
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY)
        with pytest.raises(ValueError, match="unknown constraint 'energy'"):
            OptProblem(n_levels=8, constraint="energy")
        with pytest.raises(ValueError, match="only meaningful with fixed_mean_energy"):
            OptProblem(n_levels=8, energy_target=2.0)

    def test_coherent_weight_profile_needs_a_non_negative_mean(self):
        with pytest.raises(ValueError, match="mean must be non-negative"):
            coherent_weight_profile(8, -0.5)


# optimize_probe's exact output on a fixed grid: per (n_levels, energy), the
# qfi and a SHA-256 of amplitudes.tobytes() followed by repr((qfi, gap,
# energy_residual, trace)); energy None is the unconstrained solve.  N = 16 at
# 2.5 and 3.45 are the ends of the benchmark's energy ladder.  Any change to
# the floats the solve forms, or to their order, moves a digest.
PINNED_SOLVES = {
    (2, None): (
        0.5, "1dbfd0176ad945fe0a998b4c33588b5afe89b8d99b8de9158d5b28556e267076"
    ),
    (2, 0.25): (
        0.375, "b8f089e0a5d191c57b9266ac1a9e65ce67181655265affd6dd152a1606e10da4"
    ),
    (2, 0.5): (
        0.5, "3f4426d5ee882c389f0e0d68f32b31d2bea98a79ea2c2aed054aba6af0d84ef7"
    ),
    (2, 0.9): (
        0.17999999999999994, "57695579ae9e1dc34500082e62ae861d7ee9667406657d5096600d31f9813ddc"
    ),
    (3, None): (
        0.6862915010152397, "d908b2a5b1e5099c3dcdb1f78fbc0ca2cea78642cd29f26cacc1a28f7b7a4ea2"
    ),
    (3, 0.4): (
        0.49778985389326547, "20fbe62ffaa330b40c8283be45368ab9117bf643f1c2c134fbc35a3a18d22adc"
    ),
    (3, 1.0): (
        0.6862915010152397, "b717b0c47a8ae3397639af5fd81cf56ec1d65788ad02343ca57ffc8d8acd9877"
    ),
    (3, 1.7): (
        0.4209531893604088, "a127b62c5e5918d1638c2c58353d94fb0474896f123884cab99a4a7f4b3d3ad5"
    ),
    (16, None): (
        0.9728720501228159, "d5565a5f0acdf3125beded3843e5d44889ab50fd07ddedf3f054146d4703dfdb"
    ),
    (16, 1.1): (
        0.7581535729582682, "f9f8fe50ea1a2c884b0946b97e65b74c426824b14ec61b42af60c6fa735b222c"
    ),
    (16, 2.5): (
        0.8996889933229841, "0862f17462f0d82a5eae2402604277eb54f0b40045b21c75f415cd911f9121d4"
    ),
    (16, 3.45): (
        0.9337829182101152, "081425faed01f34b425b68194e254fa0dbee0c3bb7c8f137396336b7d9922267"
    ),
    (16, 7.0): (
        0.9724130227337848, "3d1753457a2e019e8ad30221c983e572bc0028a8488ca1260a68cef25dfcc2a3"
    ),
    (16, 12.3): (
        0.9088496487160407, "45d173028f74da2473475a5ea3d1954058cc17d5a152943a39fb7dc7b3140d2d"
    ),
    (24, None): (
        0.9865903604282027, "a29bc7750defced86df9ee093ac6c09da7bc87923b46422329eb626201490182"
    ),
    (24, 2.0): (
        0.8692555465132186, "7492882b60e26f4d241b935de19b72d1801049780944e0d8c68ca64579836512"
    ),
    (24, 5.0): (
        0.9608165393408907, "a0297def55a04ec57beba641325e797741b321db92bbf3d70e49ff1e4a5491b2"
    ),
    (24, 11.5): (
        0.9865903604282027, "9f584b2bba06ec90ed076bae6812b4300463c77c3e82615314515833525acc4a"
    ),
    (24, 20.0): (
        0.9203359333882761, "698d2c977be539c0bb1152ce1c856a6fd609b876aa339fec01290e9e984e8caa"
    ),
    (40, None): (
        0.9947059297680891, "8dd9bcbedf43a49c70d81f26cf8ae8e068e605f98698e49b4ecea377e1cb26a8"
    ),
    (40, 3.0): (
        0.9203359333883876, "d45d166d084214f9b7c4e34f751f17cb1bb2cf19dd5afe41cf0562f83551c643"
    ),
    (40, 10.0): (
        0.9869090270383143, "1b1bbabaf4e9e669489f06a30f6b3582469ddc47c2a4010e72dcfb62434bc558"
    ),
    (40, 37.2): (
        0.8528113808891431, "b54bc64dd3f5a30eb33171c724788153137a0738f9df35980eb970d29f54a8f2"
    ),
}


def solve_digest(result):
    h = hashlib.sha256(result.amplitudes.tobytes())
    h.update(repr((result.qfi, result.gap, result.energy_residual, result.trace)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n_levels, energy", list(PINNED_SOLVES), ids=str)
def test_solves_are_pinned_bit_for_bit(n_levels, energy):
    if energy is None:
        problem = OptProblem(n_levels=n_levels)
    else:
        problem = OptProblem(
            n_levels=n_levels, constraint=FIXED_MEAN_ENERGY, energy_target=energy
        )
    result = optimize_probe(problem)
    qfi, digest = PINNED_SOLVES[n_levels, energy]
    assert (result.qfi, solve_digest(result)) == (qfi, digest)


@settings(max_examples=400, deadline=None)
@given(
    mu=st.one_of(st.floats(-60.0, 60.0), st.floats(allow_nan=False, allow_infinity=False)),
    nu=st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False)),
    n=st.integers(2, 40),
)
def test_verdict_is_the_recursions(mu, nu, n):
    offsets = [nu * i for i in range(n - 1, -1, -1)]
    assert _feasible(mu, offsets) == (_recursion(mu, nu, n) is not None)


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(-3.0, 3.0), n=st.integers(2, 40))
def test_verdict_is_the_recursions_at_the_feasibility_edge(nu, n):
    # a random mu rarely lands where one rounding flips the verdict: find the
    # two adjacent floats that bracket the edge and check the ulps around them
    offsets = [nu * i for i in range(n - 1, -1, -1)]
    lo, hi = -200.0, max(0.0, -nu * (n - 1))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _recursion(mid, nu, n) is None:
            lo = mid
        else:
            hi = mid
    for mu in (lo, hi):
        for direction in (-math.inf, math.inf):
            for _ in range(4):
                assert _feasible(mu, offsets) == (_recursion(mu, nu, n) is not None), mu
                mu = math.nextafter(mu, direction)


def test_import_leaves_scipy_optimize_unloaded():
    # the library needs no scipy at all: the probe solve has its own dual
    # recursion (scipy.optimize costs ~0.3 s at import) and log factorials
    # come from math.lgamma (scipy.special costs ~0.2 s)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, twirlqfi; "
         "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestPhaseInvariance:
    def test_alternating_signs_uniform(self):
        n = 6
        c = np.array([(-1.0) ** k for k in range(n)]) / math.sqrt(n)
        assert example1_qfi_closed_form(c) == pytest.approx(1 - 1 / n, abs=1e-12)

    def test_spread_is_tiny(self):
        # random per-amplitude phases leave the objective unchanged, which
        # justifies optimizing over nonnegative real amplitudes only
        rng = np.random.default_rng(37)
        random_probe = rng.normal(size=5) + 1j * rng.normal(size=5)
        alternating = np.array([(-1.0) ** k for k in range(6)])
        for c in (random_probe, alternating):
            c = c / np.linalg.norm(c)
            base = example1_qfi_closed_form(c)
            worst = 0.0
            for _ in range(100):
                phases = np.exp(1j * rng.uniform(0, 2 * np.pi, c.size))
                worst = max(worst, abs(example1_qfi_closed_form(c * phases) - base))
            assert worst < 1e-12
