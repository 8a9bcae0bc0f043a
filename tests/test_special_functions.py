import cmath
import inspect
import math
import random
import re
import warnings

import numpy as np
import pytest

from eulerlab.core_numerics import integrate_semi_infinite
from eulerlab.errors import DomainError, IllConditionedError, PoleError
from eulerlab.identity_engine import _grid_points
from eulerlab.integral_forms import rhs_eq12, rhs_eq15, rhs_eq15_many
from eulerlab import special_functions
from eulerlab.special_functions import (
    _COMPLEX_BINOMIALS,
    _HEAD_MAX_IM,
    _HEAD_ROWS,
    _LOG_K1,
    _NOISE_ULPS,
    _PANEL_POINTS,
    _SCALED_BINOMIALS,
    _SIGNS,
    _TABLE_SIZE,
    _TERM_FLOOR,
    _alternating_powers,
    _euler_transform,
    _part_powers,
    eta,
    eta_many,
    eta_prime,
    gamma,
    zeta,
    zeta_minus_pole,
    zeta_prime,
)

from conftest import (
    EULER_GAMMA,
    GLAISHER_A,
    ZETA_3,
    ZETA_PRIME_MINUS_1,
    central_difference,
    dirichlet_eta_partial,
)


class TestGamma:
    def test_lanczos_sum_is_the_loops_bit_for_bit(self):
        # the unrolled sum performs the loop's operations in order
        def loop(s):
            x = s - 1.0
            acc = special_functions._LANCZOS_COEFFS[0]
            for k, c in enumerate(special_functions._LANCZOS_COEFFS[1:], start=1):
                acc += c / (x + k)
            return x, x + special_functions._LANCZOS_G + 0.5, acc

        rng = random.Random(11)
        points = [complex(rng.uniform(0.5, 200.0), rng.uniform(-300.0, 300.0))
                  for _ in range(500)]
        points += [complex(rng.uniform(0.5, 30.0)) for _ in range(100)]
        assert [repr(special_functions._lanczos(s)) for s in points] == [
            repr(loop(s)) for s in points
        ]

    def test_integer_values(self):
        assert abs(gamma(1.0) - 1.0) <= 1e-14
        assert abs(gamma(5.0) - 24.0) / 24.0 <= 1e-13

    def test_half_against_quadrature_oracle(self):
        # Euler-integral route, independent of the Lanczos coefficients
        oracle = integrate_semi_infinite(
            lambda t: math.exp(-t) * t**-0.5, 1e-11, -0.5
        )
        assert oracle.converged
        assert abs(gamma(0.5) - oracle.value) <= 1e-10
        assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-13

    def test_recurrence_at_two_point_five(self):
        assert abs(gamma(3.5) / 2.5 - gamma(2.5)) / abs(gamma(2.5)) <= 1e-12

    def test_against_stdlib_on_real_grid(self):
        for x in [0.1, 0.5, 1.3, 2.0, 4.7, 9.5, -0.5, -1.7, -2.3]:
            assert abs(gamma(x) - math.gamma(x)) / abs(math.gamma(x)) <= 1e-13

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, s):
        with pytest.raises(PoleError, match="pole of Gamma"):
            gamma(s)

    # next to 0 the reflection's pi / sin(pi s) overflows
    @pytest.mark.parametrize("s", [172.0, 171.7, 200.0, -190.5, 1e-320, -1e-320, 1e-320j])
    def test_overflow_raises_domain_error(self, s):
        with pytest.raises(DomainError, match="overflows"):
            gamma(s)

    def test_reflection_overflow_names_the_callers_point(self):
        with pytest.raises(DomainError, match=r"at s = \(-190\.5\+0j\)"):
            gamma(-190.5)

    def test_log_space_reflection_against_stdlib(self):
        # Gamma(1 - s) overflows below about -170.6; Gamma(s) is still
        # representable (subnormal from about -171.6) down to about -177
        for k in range(1, 6500):
            x = -177.0 + 0.001 * k
            if abs(x - round(x)) < 1e-9:
                continue
            expected = math.gamma(x)
            value = gamma(x)
            assert value.imag == 0.0
            assert abs(value.real - expected) <= 1e-12 * abs(expected) + 1e-323, x
        assert gamma(-171.5).real == pytest.approx(1.93e-310, rel=1e-3)

    def test_log_space_reflection_off_the_axis(self):
        mpmath = pytest.importorskip("mpmath")
        for s in (-171.25 + 0.5j, -170.75 - 0.1j, -173.5 + 0.01j):
            expected = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
            assert abs(gamma(s) - expected) <= 1e-12 * abs(expected) + 1e-322
            assert gamma(s.conjugate()) == gamma(s).conjugate()

    @pytest.mark.parametrize("s", [
        -5 + 1e-9j, -50 + 1e-9j, -4.999999999, -50.000000001, -1 + 1e-12j,
        -3 - 1e-10j, -100.000001, -140 + 1e-6j,
    ])
    def test_reflection_next_to_a_pole(self, s):
        # sin(pi s) is reduced exactly; formed as sin(pi * s) its rounding
        # gave 2e-7 (-5+1e-9j) to 4e-5 (-1+1e-12j) relative error here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
        assert abs(gamma(s) - expected) <= 1e-13 * abs(expected)

    def test_log_space_power_up_to_gammas_own_overflow(self):
        # the Lanczos power alone overflows from about s = 142.25, where
        # it used to come back as inf and turn the value into nan
        for k in range(0, 127):
            x = 140.0 + 0.25 * k
            assert abs(gamma(x) - math.gamma(x)) <= 1e-12 * math.gamma(x)
        for x in (143.0, 150.0, 171.5, -170.5):
            assert abs(gamma(x) - math.gamma(x)) <= 1e-12 * abs(math.gamma(x))

    def test_functional_equation_residual_on_seeded_panel(self):
        rng = random.Random(0x5EED)
        checked = 0
        while checked < 200:
            s = complex(rng.uniform(-3.0, 5.0), rng.uniform(-3.0, 3.0))
            if min(abs(s - p) for p in (0, -1, -2, -3)) < 0.25:
                continue
            lhs = gamma(s + 1.0)
            assert abs(lhs - s * gamma(s)) / abs(lhs) <= 1e-12
            checked += 1

    @pytest.mark.parametrize(
        "s",
        [
            # sin(pi s) overflows from about |Im(s)| = 226; it raised a
            # bare OverflowError here
            0.2 + 300j, 0.2 - 300j, -3.3 + 240j, 0.4 + 460j,
            # sin(pi s) and Gamma(1 - s) are finite but their product is
            # not; the quotient came back nan (raising "overflows") or 0j
            -120 + 100j, -120 - 100j, -169.9 + 1.9j, -170.5 + 0.5j,
        ],
    )
    def test_log_space_reflection_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
        assert abs(gamma(s) - expected) <= 1e-12 * abs(expected) + 1e-322

    @pytest.mark.parametrize(
        "s", [0.6 + 1000j, 0.6 + 500j, 0.4 + 480j, -3.3 - 500j, -150 + 50j, -140 + 120j]
    )
    def test_underflow_raises_domain_error(self, s):
        # 0.6+1000j came back as 0j
        with pytest.raises(DomainError, match="underflows to zero"):
            gamma(s)

    def test_reflection_consistency(self):
        for re in [-2.7, -1.4, -0.3, 0.2, 0.8]:
            for im in [0.0, 0.6, 1.7]:
                s = complex(re, im)
                product = gamma(s) * gamma(1.0 - s)
                expected = math.pi / cmath.sin(math.pi * s)
                assert abs(product - expected) / abs(expected) <= 1e-11


EPS = np.finfo(float).eps


def euler_transform_loop(weights):
    """Row-by-row reference for _euler_transform: add outer terms until
    three consecutive ones fall below max(16 eps noise_n, 1e-15), where
    noise_n is the same row's sum over |w_k|.  Returns the sum and the
    largest noise_n of the rows added."""
    total = 0j
    small_run = 0
    largest_noise = 0.0
    for n in range(len(weights)):
        row = [math.comb(n, k) * 2.0 ** -(n + 1) for k in range(n + 1)]
        term = sum(b * w for b, w in zip(row, weights))
        noise = sum(b * abs(w) for b, w in zip(row, weights))
        total += term
        largest_noise = max(largest_noise, noise)
        small_run = small_run + 1 if abs(term) < max(16 * EPS * noise, 1e-15) else 0
        if small_run == 3:
            break
    return total, largest_noise


def unit_weight():
    weights = np.zeros(_TABLE_SIZE, dtype=complex)
    weights[0] = 1.0
    return weights


def cancelling_weights():
    # (-1)**k 1e12 plus 1 at k = 0: outer terms 5e11 + 1/2, then exactly
    # 2**-(n+1) while the rows' noise scale stays near 5e11
    weights = 1e12 * _SIGNS.astype(complex)
    weights[0] += 1.0
    return weights


def growing_weights():
    # 2**k: outer terms (3/2)**n / 2 grow and are never small
    return 2.0 ** np.arange(_TABLE_SIZE) + 0j


class TestEta:
    @pytest.mark.parametrize(
        "re_lo, re_hi, noise_ulps",
        # a few dozen ulps of the O(1) result; where the rows cancel, also
        # 16 ulps of the largest noise scale among the rows summed
        [(-1.0, 4.0, 0.0), (-4.0, -1.0, 16 * EPS)],
        ids=["re_-1_to_4", "re_-4_to_-1"],
    )
    def test_matches_row_by_row_loop(self, re_lo, re_hi, noise_ulps):
        # eta and eta' weights; only the summation order differs
        rng = random.Random(0xB10)
        for _ in range(10):
            s = complex(rng.uniform(re_lo, re_hi), rng.uniform(0.0, 2.0))
            powers = _alternating_powers(s)
            for weights in (powers, -_LOG_K1 * powers):
                expected, noise = euler_transform_loop(list(weights))
                bound = max(1e-14, noise_ulps * noise)
                assert abs(_euler_transform(weights) - expected) <= bound

    @pytest.mark.parametrize(
        "make_weights, expected, rel",
        [
            # terms 2**-(n+1) fall below the 1e-15 floor at n = 49, 50, 51
            (unit_weight, 1.0 - 2.0**-52, 0.0),
            # 2**-(n+1) falls below 16 eps times the noise scale 5e11 at
            # n = 9, 10, 11 (a fixed tolerance of 1e-13 would run to n = 45)
            (cancelling_weights, 5e11 + 1.0 - 2.0**-12, 0.0),
            # never three small terms: sums all 128 rows
            (growing_weights, 1.5**_TABLE_SIZE - 1.0, 1e-15),
        ],
        ids=["floor", "noise", "never_small"],
    )
    def test_stopping_rule(self, make_weights, expected, rel):
        value = _euler_transform(make_weights())
        assert abs(value - expected) <= rel * expected

    def test_matrix_columns_follow_their_own_stopping_rule(self):
        weights = np.stack([unit_weight(), cancelling_weights(), growing_weights()], axis=1)
        value = _euler_transform(weights)
        assert value[0] == 1.0 - 2.0**-52
        assert value[1] == 5e11 + 1.0 - 2.0**-12
        assert abs(value[2] - (1.5**_TABLE_SIZE - 1.0)) <= 1e-15 * 1.5**_TABLE_SIZE

    def test_panel_matches_single_points(self):
        # one matrix product instead of one per point: only the
        # summation order of the product differs
        rng = random.Random(0xB10)
        points = [complex(rng.uniform(-1.0, 4.0), rng.uniform(0.0, 2.0)) for _ in range(40)]
        panel = eta_many(points)
        assert panel.shape == (40,)
        for s, value in zip(points, panel):
            assert abs(value - eta(s)) <= 1e-14
        assert eta_many([]).shape == (0,)

    def test_special_values(self):
        assert abs(eta(1.0) - math.log(2.0)) <= 1e-12
        assert abs(eta(0.0) - 0.5) <= 1e-12
        assert abs(eta(-1.0) - 0.25) <= 1e-12
        assert abs(eta(2.0) - math.pi**2 / 12.0) <= 1e-12

    def test_continuation_agrees_with_direct_dirichlet_sum(self):
        # direct alternating sums converge for Re(s) > 1.5 with a
        # first-omitted-term remainder after pair averaging
        for s in [2.0, 3.0, 1.75, 2.5 + 1j, 4.0 - 2j, 1.6 + 0.4j]:
            n = 4000
            bracket = 0.5 * (
                dirichlet_eta_partial(complex(s), n)
                + dirichlet_eta_partial(complex(s), n + 1)
            )
            assert abs(eta(s) - bracket) <= 1e-12 + abs((n + 1) ** -complex(s).real)

    def test_default_accuracy(self):
        assert abs(eta(1.0) - math.log(2.0)) <= 5e-15

    @pytest.mark.parametrize("f", [
        eta, eta_many, eta_prime, zeta, zeta_prime, zeta_minus_pole,
        rhs_eq12, rhs_eq15, rhs_eq15_many,
    ])
    def test_no_truncation_argument(self, f):
        # the sum stops by its own rounding scale; only the point is an input
        assert len(inspect.signature(f).parameters) == 1


def one_pass_euler_transform(weights):
    """The sum as it was computed before it had two stages: every row of
    the table at once, then the stopping rule.  The values the two stages
    must give bit for bit, and the number of rows each column sums."""
    terms = _COMPLEX_BINOMIALS @ weights
    noise = _SCALED_BINOMIALS @ np.abs(weights)
    small = np.abs(terms) < np.maximum(_NOISE_ULPS * noise, _TERM_FLOOR)
    run = small[:-2] & small[1:-1] & small[2:]
    stop = np.where(run.any(axis=0), run.argmax(axis=0) + 3, _TABLE_SIZE)
    if weights.ndim == 1:
        return complex(terms[: int(stop)].sum()), int(stop)
    return np.where(np.arange(_TABLE_SIZE)[:, None] < stop, terms, 0.0).sum(axis=0), stop


def one_pass_eta_many(points):
    # eta_many's blocks, each summed in one pass, a block of one point as
    # two columns (no point here is reflected)
    blocks = [points[i : i + _PANEL_POINTS] for i in range(0, len(points), _PANEL_POINTS)]
    return np.concatenate([
        one_pass_euler_transform(_alternating_powers(np.resize(block, max(2, len(block)))))[0]
        [: len(block)]
        for block in blocks
    ])


def seeded_points(seed, count, re_band, im_band):
    rng = np.random.default_rng(seed)
    im = rng.uniform(*im_band, count) * rng.choice([-1.0, 1.0], count)
    return rng.uniform(*re_band, count) + 1j * im


RE_BANDS = [(-4.0, -1.0), (-1.0, 2.0), (2.0, 10.0)]
IM_BANDS = [(0.0, 3.0), (10.0, 90.0)]


class TestTwoStageSum:
    """The table's first _HEAD_ROWS rows, then the rest only where a column
    has not stopped: the same floats summed in the same order as one pass
    over the whole table, so every value is equal to the bit."""

    @pytest.mark.parametrize("im_band", IM_BANDS, ids=["im_0_3", "im_10_90"])
    @pytest.mark.parametrize("re_band", RE_BANDS, ids=["re_-4_-1", "re_-1_2", "re_2_10"])
    @pytest.mark.parametrize("columns", [1, 2, 7, 8, 30, 60, 128, 129])
    def test_eta_many_matches_one_pass(self, columns, re_band, im_band):
        points = seeded_points(columns, columns, re_band, im_band)
        assert eta_many(points).tobytes() == one_pass_eta_many(points).tobytes()

    def test_block_with_two_large_imaginary_parts(self):
        # two columns at Im(s) near 50 make the whole block start from
        # the whole table
        points = seeded_points(128, 128, (-4.0, 10.0), (0.0, 3.0))
        points[[17, 90]] = [0.5 + 50.0j, -2.0 - 49.5j]
        assert eta_many(points).tobytes() == one_pass_eta_many(points).tobytes()

    @pytest.mark.parametrize("im_band", IM_BANDS, ids=["im_0_3", "im_10_90"])
    @pytest.mark.parametrize("re_band", RE_BANDS, ids=["re_-4_-1", "re_-1_2", "re_2_10"])
    def test_eta_and_eta_prime_match_one_pass(self, re_band, im_band):
        for s in seeded_points(7, 20, re_band, im_band).tolist():
            powers = _alternating_powers(s)
            assert eta(s) == one_pass_euler_transform(powers)[0]
            assert eta_prime(s) == one_pass_euler_transform(-_LOG_K1 * powers)[0]

    # |Im(s)| in [8, 30], and two points at 80 and 90: some columns stop
    # within the first stage, some by a run of small terms across its last
    # row, some later, and two never.
    STAGE_TWO_PANEL = np.append(seeded_points(3, 126, (-4.0, 10.0), (8.0, 30.0)),
                                [0.5 + 80.0j, -3.0 - 90.0j])

    def test_panel_reaches_every_case(self):
        stops = one_pass_euler_transform(_alternating_powers(self.STAGE_TWO_PANEL))[1]
        straddling = (stops > _HEAD_ROWS) & (stops <= _HEAD_ROWS + 2)
        assert (stops <= _HEAD_ROWS).any() and straddling.any()
        assert ((stops > _HEAD_ROWS + 2) & (stops < _TABLE_SIZE)).any()
        assert (stops == _TABLE_SIZE).any()

    def test_eta_many_value_does_not_depend_on_the_panel(self):
        # a point's value alone equals its value at any position of a panel
        # of any size: one-point tail blocks (1, 129 and 257 points), blocks
        # that a large |Im(s)| sends to the whole table, reflected points, and
        # grid-shaped panels, whose repeated points and few distinct parts
        # take the part tables past one block
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
        @hypothesis.given(st.sampled_from([1, 2, 3, 128, 129, 257]),
                          st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5]),
                          st.sampled_from([0.0, 0.02, 0.3]), st.booleans())
        def check(size, seed, reflected_share, far_share, grid_shaped):
            rng = np.random.default_rng(seed)
            re = rng.uniform(-4.0, 10.0, size) - 8.0 * (rng.random(size) < reflected_share)
            im = rng.uniform(-3.0, 3.0, size) + rng.uniform(-90.0, 90.0, size) * (
                rng.random(size) < far_share)
            if grid_shaped:
                re, im = rng.choice(re[:8], size), rng.choice(im[:5], size)
            panel = re + 1j * im
            values = eta_many(panel)
            # each point one place on, so that points cross block boundaries
            assert eta_many(np.roll(panel, 1)).tobytes() == np.roll(values, 1).tobytes()
            for i in rng.choice(size, min(size, 4), replace=False).tolist() + [size - 1]:
                assert values[i] == eta_many(panel[i : i + 1])[0]

        check()

    @pytest.mark.parametrize("derivative", [False, True], ids=["eta", "eta_prime"])
    def test_second_stage_matches_one_pass(self, derivative):
        # the start rule sends such panels to the whole table; started
        # from the first stage anyway, the second stage must still give
        # the one-pass values, the column sums and the scalar sums alike
        def weigh(s, rows=slice(None)):
            powers = _alternating_powers(s, rows)
            if not derivative:
                return powers
            logs = _LOG_K1[rows, None] if isinstance(s, np.ndarray) else _LOG_K1[rows]
            return -logs * powers

        def two_stage(s):
            return _euler_transform(weigh(s, slice(_HEAD_ROWS)), lambda rows: weigh(s, rows))

        panel = self.STAGE_TWO_PANEL
        assert two_stage(panel).tobytes() == one_pass_euler_transform(weigh(panel))[0].tobytes()
        for s in panel.tolist():
            assert two_stage(s) == one_pass_euler_transform(weigh(s))[0]

    @pytest.mark.parametrize("derivative", [False, True], ids=["eta", "eta_prime"])
    def test_first_stage_holds_every_stop_up_to_the_start_bound(self, derivative):
        # The premise of _HEAD_MAX_IM: with |Im(s)| up to it and Re(s) in
        # [-4, 10], no eta or eta' sum needs the second stage.
        points = np.concatenate([
            seeded_points(11, 2000, (-4.0, 10.0), (0.0, _HEAD_MAX_IM)),
            [-4.0 + _HEAD_MAX_IM * 1j, -4.0 - _HEAD_MAX_IM * 1j, 10.0 + _HEAD_MAX_IM * 1j],
        ])
        for i in range(0, len(points), _PANEL_POINTS):
            block = _alternating_powers(points[i : i + _PANEL_POINTS])
            if derivative:
                block = -_LOG_K1[:, None] * block
            assert one_pass_euler_transform(block)[1].max() <= _HEAD_ROWS


def sweep_panel(re_range, im_range, extra=()):
    # the etas rhs_eq15_many asks for over an eq15 grid, s + 2 then s + 1, and extra
    points = np.array(_grid_points(re_range, im_range))
    return np.concatenate([points + 2.0, points + 1.0, np.asarray(extra, dtype=complex)])


def alone(points):
    # each point's eta as the lone point of a panel: the scalar eta where it is reflected
    summed = points.real >= -4.0
    values = np.array([0j if kept else eta(s) for s, kept in zip(points.tolist(), summed)])
    values[summed] = one_pass_eta_many(points[summed])
    return values


@pytest.fixture
def part_tables(monkeypatch):
    # (real, imaginary) part counts of each panel whose weights come from the part tables
    built = []

    def spy(re, im):
        built.append((len(re), len(im)))
        return _part_powers(re, im)

    monkeypatch.setattr(special_functions, "_part_powers", spy)
    return built


class TestDistinctArguments:
    """Past one block eta_many sums each distinct point once, from weights
    formed per distinct real and imaginary part where the points share few:
    every value must stay the one the point has alone, to the bit."""

    REFLECTED = [-5.5 + 0.3j, -7.25, -5.5 + 0.3j]

    @pytest.mark.parametrize("re_range,im_range,extra", [
        ((-2.5, 3.0, 0.05), (0.0, 2.0, 0.1), ()),  # the grid_eq15 workload's sweep
        ((-2.9, 3.0, 0.5), (-8.0, 8.0, 0.5), REFLECTED),  # |Im(s)| up to 8, and at it
        ((-2.0, 1.0, 0.25), (8.5, 90.0, 9.0), REFLECTED),  # |Im(s)| in (8, 90]
        ((-1.0, 9.5, 0.25), (-80.0, 4.0, 12.0), ()),  # both stages of the table
    ], ids=["workload", "im_up_to_8", "im_8_90", "mixed"])
    def test_grid_panels_match_each_point_alone(self, part_tables, re_range, im_range, extra):
        panel = sweep_panel(re_range, im_range, extra)
        values = eta_many(panel)
        assert part_tables, "the panel must take the part tables"
        assert values.tobytes() == alone(panel).tobytes()

    @pytest.mark.parametrize("distinct", [129, 257])
    def test_one_point_tail_block(self, part_tables, distinct):
        # distinct points from a grid of 3 imaginary parts, each twice: the last
        # block of distinct points holds one, summed as two columns as a lone point is
        rows = -(-distinct // 3)
        points = np.array(_grid_points((0.5, 0.5 + 0.1 * (rows - 1), 0.1), (0.0, 2.0, 1.0)))
        points = points[:distinct]
        panel = np.concatenate([points, points[::-1]])
        assert len(np.unique(panel)) == distinct
        values = eta_many(panel)
        assert part_tables
        assert values.tobytes() == alone(panel).tobytes()

    def test_repeated_arguments_get_identical_bits(self, part_tables):
        panel = sweep_panel((-2.9, 3.0, 0.5), (0.0, 2.0, 0.5))
        panel = np.concatenate([panel, panel[::3], panel[:5]])
        values = eta_many(panel)
        assert part_tables
        for s in np.unique(panel):
            same = values[panel == s]
            assert len(np.unique(same.view(np.int64).reshape(-1, 2), axis=0)) == 1
        assert values.tobytes() == alone(panel).tobytes()

    def test_signed_zero_parts_each_equal_their_value_alone(self, part_tables):
        # -0.0 and 0.0 are told apart: each keeps the bits it has alone, past
        # the real part where the weights underflow too
        zeros = [complex(r, z) for r in (2.0, 3.0, -1.5, 0.0, -0.0, 200.0, 900.0)
                 for z in (0.0, -0.0)]
        panel = np.concatenate([sweep_panel((-2.9, 3.0, 0.5), (0.0, 2.0, 0.5)), zeros * 3])
        values = eta_many(panel)
        assert part_tables
        for i in range(len(panel)):
            assert values[i : i + 1].tobytes() == eta_many(panel[i : i + 1]).tobytes()

    def test_part_weights_are_the_powers_to_the_bit(self):
        re = np.array([-4.0, -1.5, -0.0, 0.0, 5e-324, 0.5, 2.0, 200.0, 900.0, 1e300])
        im = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, -7.3, 60.0, -90.0, 1e300])
        re_at, im_at = (a.ravel() for a in np.meshgrid(np.arange(len(re)), np.arange(len(im)),
                                                       indexing="ij"))
        points = np.empty(len(re_at), dtype=complex)
        points.real, points.imag = re[re_at], im[im_at]
        for rows in (slice(_HEAD_ROWS), slice(_HEAD_ROWS, None), slice(None)):
            weights = _part_powers(re, im)(re_at, im_at, rows)
            assert weights.tobytes() == _alternating_powers(points, rows).tobytes()

    @pytest.mark.parametrize("point", [
        0.5 + 1e308j, 1.0 + 3.8e307j, 1e300 + 1j, 1e308, 5e-324 + 5e-324j, 0.5 - 5e-324j,
    ])
    def test_huge_and_subnormal_parts_as_alone(self, point):
        # a panel past one block holding the point raises where the point alone
        # does, and otherwise gives it the value it has alone, without a warning
        panel = np.append(sweep_panel((-2.9, 3.0, 0.25), (0.0, 2.0, 0.5)), point)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = eta_many([point])
            except DomainError:
                with pytest.raises(DomainError):
                    eta_many(panel)
                return
            assert eta_many(panel)[-1:].tobytes() == expected.tobytes()


class TestEtaPrime:
    def test_value_at_zero(self):
        assert abs(eta_prime(0.0) - 0.5 * math.log(math.pi / 2.0)) <= 1e-12

    def test_value_at_minus_one(self):
        # 3 ln A - 1/4 - (ln 2)/3, with ln A = 1/12 - zeta'(-1)
        expected = 3.0 * math.log(GLAISHER_A) - 0.25 - math.log(2.0) / 3.0
        assert abs(eta_prime(-1.0) - expected) <= 1e-12
        fd = central_difference(eta, -1.0)
        assert abs(eta_prime(-1.0) - fd) <= 1e-8

    def test_matches_central_differences(self):
        rng = random.Random(0xD1FF)
        for _ in range(50):
            s = complex(rng.uniform(-2.0, 4.0), rng.uniform(-2.0, 2.0))
            fd = central_difference(eta, s)
            assert abs(eta_prime(s) - fd) <= 1e-8


class TestEtaDivided:
    """[eta(a + w) - eta(a)] / w, the Euler-transform sum that fills the
    removable singularities of zeta_minus_pole and rhs_eq15."""

    @pytest.mark.parametrize("a", [1.0, 0.0, -1.0])
    def test_at_zero_is_eta_prime(self, a):
        expected = eta_prime(a)
        assert abs(special_functions._eta_divided(a, 0.0) - expected) <= 4 * math.ulp(abs(expected))

    @pytest.mark.parametrize("a, bound", [(1.0, 2e-15), (0.0, 2e-14), (-1.0, 2e-13)])
    def test_on_a_disc_against_mpmath(self, a, bound):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(0xD15C)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(100):
                w = 0.05 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                m = mpmath.mpc(w.real, w.imag)
                expected = (mpmath.altzeta(a + m) - mpmath.altzeta(a)) / m
                worst = max(worst, abs(special_functions._eta_divided(a, w) - complex(expected)))
        assert worst <= bound


class TestZeta:
    def test_known_values(self):
        assert abs(zeta(2.0) - math.pi**2 / 6.0) <= 1e-12
        assert abs(zeta(0.0) + 0.5) <= 1e-12
        assert abs(zeta(-1.0) + 1.0 / 12.0) <= 1e-12

    def test_three_against_direct_sum_with_tail(self):
        # Dirichlet sum plus the Euler-Maclaurin tail 1/(2N^2) - 1/(2N^3)
        n = 2000
        partial = sum(k**-3.0 for k in range(1, n + 1))
        oracle = partial + 0.5 / n**2 - 0.5 / n**3
        assert abs(zeta(3.0) - oracle) <= 1e-9
        assert abs(zeta(3.0) - ZETA_3) <= 1e-12

    def test_pole(self):
        with pytest.raises(PoleError, match="pole of zeta"):
            zeta(1.0)

    def test_ill_conditioned_points_rejected(self):
        bad = 1.0 + 2j * math.pi / math.log(2.0)
        with pytest.raises(IllConditionedError):
            zeta(bad + 1e-9)

    def test_refusals_name_their_point(self):
        with pytest.raises(PoleError, match=re.escape("pole of Gamma at s = (-3+0j)")):
            gamma(-3)
        with pytest.raises(PoleError, match=re.escape("pole of zeta at s = (1+0j)")):
            zeta(1)
        bad = 1.0 + 2j * math.pi / math.log(2.0)
        with pytest.raises(IllConditionedError) as raised:
            zeta(bad)
        assert f"s = {bad}" in str(raised.value) and "(k = 1)" in str(raised.value)

    def test_product_relation(self):
        for s in [2.0, 3.0, -0.5, 0.5 + 2j, -2.5 + 1j, 4.0 - 2.5j]:
            factor = 1.0 - 2.0 ** (1.0 - complex(s))
            assert abs(eta(s) - factor * zeta(s)) <= 1e-11


class TestZetaPrime:
    def test_at_minus_one(self):
        assert abs(zeta_prime(-1.0) - ZETA_PRIME_MINUS_1) <= 1e-10
        fd = central_difference(zeta, -1.0)
        assert abs(zeta_prime(-1.0) - fd) <= 1e-8

    def test_at_zero(self):
        assert abs(zeta_prime(0.0) + 0.5 * math.log(2.0 * math.pi)) <= 1e-10

    def test_at_two_against_central_difference(self):
        fd = central_difference(zeta, 2.0)
        assert abs(zeta_prime(2.0) - fd) <= 1e-9


class TestZetaMinusPole:
    def test_away_from_pole(self):
        assert abs(zeta_minus_pole(2.0) - (math.pi**2 / 6.0 - 1.0)) <= 1e-12
        assert abs(zeta_minus_pole(0.0) - 0.5) <= 1e-12

    def test_limit_is_euler_gamma(self):
        assert abs(zeta_minus_pole(1.0) - EULER_GAMMA) <= 1e-15

    def test_near_the_pole_against_mpmath(self):
        # inside |s - 1| < 0.05, where eta's divided difference fills the pole
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(0x2E7A)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(312):
                s = 1.0 + 0.05 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                m = mpmath.mpc(s.real, s.imag)
                worst = max(worst, abs(zeta_minus_pole(s) - complex(mpmath.zeta(m) - 1 / (m - 1))))
        assert worst <= 2e-15

    def test_continuous_across_the_branch_radius(self):
        # the divided difference just inside |s - 1| = 0.05 meets the direct
        # difference just outside, whose zeta(s) ~ 20 carries ~1e-13
        rng = random.Random(0xC0)
        for _ in range(200):
            u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            inside, outside = 1.0 + 0.05 * (1.0 - 1e-12) * u, 1.0 + 0.05 * (1.0 + 1e-12) * u
            assert abs(inside - 1.0) < 0.05 <= abs(outside - 1.0)
            assert abs(zeta_minus_pole(inside) - zeta_minus_pole(outside)) <= 5e-13

    @pytest.mark.parametrize(
        "s", [1.001, 0.999, 1.02, 0.98, 1.0 + 0.03j, 1.0 - 0.02j, 0.96 + 0.02j]
    )
    def test_ring_matches_direct_difference(self, s):
        # at these distances the direct difference still has ~1e-13
        # absolute accuracy, making it an oracle for the divided-difference branch
        s = complex(s)
        direct = zeta(s) - 1.0 / (s - 1.0)
        assert abs(zeta_minus_pole(s) - direct) <= 1e-8


class TestFunctionalEquationBand:
    """eta and zeta below Re(s) = -4 come from zeta(1 - s)."""

    def test_trivial_zeros_are_exact(self):
        for n in range(6, 60, 2):
            assert zeta(-float(n)) == 0.0
            assert eta(-float(n)) == 0.0

    def test_values_next_to_a_trivial_zero(self):
        # zeta(-9) = -1/132; the old sum gave 0.0216 and -0.0961 here
        for d in (1e-9, -1e-9):
            assert abs(zeta(-9.0 + d) + 1.0 / 132.0) <= 1e-10

    def test_band_edge_keeps_the_sum(self):
        assert eta(-4.0) == _euler_transform(_alternating_powers(-4.0 + 0j))

    def test_eta_many_matches_eta(self):
        points = [-8.5 + 0j, 0.5 + 1j, -20.0 + 5j, -4.0 + 0j, -4.0001 + 0.3j]
        values = eta_many(points)
        for s, value in zip(points, values):
            if s.real < -4.0:
                assert value == eta(s)
            else:
                assert abs(value - eta(s)) <= 1e-13

    # Worst |eta_many - eta| / max(1, |eta|) over the panels below, by
    # band of Re(s).  The matrix product rounds otherwise than the scalar
    # sum; the cancelling sum below Re(s) = -1 magnifies that rounding.  Measured worst: 1.1e-15,
    # 5.7e-15 and 8.6e-12; each route's own error against mpmath is about
    # 2e-15, 2e-14 and 9e-11 there.
    STRAY = ((0.0, 2e-15), (-1.0, 1e-14), (-4.0, 2e-11))

    @pytest.mark.parametrize("columns", [1, 2, 7, 8, 30, 60])
    def test_eta_many_strays_from_eta_within_bounds(self, columns):
        for seed in range(10):
            rng = random.Random(1000 * columns + seed)
            points = [complex(rng.uniform(-4.0, 5.0), rng.uniform(-3.0, 3.0))
                      for _ in range(columns)]
            for s, value in zip(points, eta_many(points)):
                expected = eta(s)
                bound = next(b for lo, b in self.STRAY if s.real >= lo)
                assert abs(value - expected) <= bound * max(1.0, abs(expected)), s

    @pytest.mark.parametrize("f", [eta_prime, zeta_prime])
    def test_derivatives_are_refused(self, f):
        with pytest.raises(IllConditionedError, match="Re\\(s\\) = -4"):
            f(-4.5 + 0.5j)
        f(-4.0)  # still on the sum

    @pytest.mark.parametrize("f, s", [(eta, -218.5), (zeta, -260.5), (zeta, -2000.5),
                                      (zeta, -100.0 + 10000j)])
    def test_overflow_raises_domain_error(self, f, s):
        with pytest.raises(DomainError, match="overflows"):
            f(s)


class TestNonFiniteArgument:
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(1.0, math.inf),
                                   complex(0.5, math.nan), complex(-math.inf, 2.0)])
    @pytest.mark.parametrize("f", [gamma, eta, eta_prime, zeta, zeta_prime, zeta_minus_pole,
                                   lambda s: eta_many([2.0, s])],
                             ids=["gamma", "eta", "eta_prime", "zeta", "zeta_prime",
                                  "zeta_minus_pole", "eta_many"])
    def test_raises_domain_error(self, f, s):
        with pytest.raises(DomainError, match="non-finite argument"):
            f(s)


class TestNonFiniteResult:
    # finite points whose value overflows
    @pytest.mark.parametrize("f, s", [
        (zeta, 1.0 + 1e-310j),
        (zeta_prime, 1.0 + 1e-200j),
        (eta, 0.5 + 1e308j),
        (eta_prime, 0.5 + 1e308j),
        (lambda s: eta_many([2.0, s]), 0.5 + 1e308j),
    ], ids=["zeta", "zeta_prime", "eta", "eta_prime", "eta_many"])
    def test_raises_domain_error(self, f, s):
        with pytest.raises(DomainError, match="overflows"):
            f(s)

    def test_huge_real_part_warns_nothing(self):
        # every weight past k = 0 underflows to 0, as it should; the
        # overflowing exponent on the way there is no error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eta(1e308) == eta(1e4)
            assert (eta_many([1e308, 2e307]) == eta(1e4)).all()
            assert eta_prime(1e308) == 0.0


class TestAgainstMpmath:
    """Regression bounds against mpmath at 30 digits.

    Measured worst errors: 9e-14 (eta) and 3e-13 (eta') on the panel,
    4e-16 for zeta at the integers.
    """

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield mpmath

    @pytest.fixture(scope="class")
    def panel(self):
        rng = random.Random(0xE7A)
        return [
            complex(rng.uniform(-1.5, 5.0), rng.uniform(0.0, 2.0)) for _ in range(300)
        ]

    def test_eta_on_panel(self, mp, panel):
        worst = max(abs(eta(s) - complex(mp.altzeta(s))) for s in panel)
        assert worst <= 2e-13

    def test_eta_many_on_panel(self, mp, panel):
        worst = max(
            abs(value - complex(mp.altzeta(s)))
            for s, value in zip(panel, eta_many(panel))
        )
        assert worst <= 2e-13

    def test_eta_prime_on_panel(self, mp, panel):
        worst = max(
            abs(eta_prime(s) - complex(mp.diff(mp.altzeta, s))) for s in panel
        )
        assert worst <= 6e-13

    @pytest.mark.parametrize("f, name, s", [
        (zeta, "zeta", -9.0),
        (eta, "altzeta", -10.0),
        (eta, "altzeta", -8.5),
        (eta, "altzeta", -20.0 + 5j),
    ])
    def test_functional_equation_regressions(self, mp, f, name, s):
        # before the functional equation: zeta(-9) right by chance only,
        # eta(-10) = -6522, eta(-8.5) = 10.2269, eta(-20+5j) off by 1e11
        expected = complex(getattr(mp, name)(s))
        assert abs(f(s) - expected) <= 2e-14 * max(1.0, abs(expected))

    @pytest.mark.parametrize("s", [-5.0 + 455j, -5.0 + 600j, -20.0 + 500j])
    @pytest.mark.parametrize("f, name", [(zeta, "zeta"), (eta, "altzeta")])
    def test_large_imaginary_part_below_minus_four(self, mp, f, name, s):
        # sin(pi s/2) alone overflows here; it raised DomainError before
        expected = complex(getattr(mp, name)(s))
        assert abs(f(s) - expected) <= 1e-10 * abs(expected)

    def test_functional_equation_band(self, mp):
        rng = random.Random(0xF0E)
        panel = [complex(rng.uniform(-50.0, -4.0), rng.uniform(0.0, 2.0)) for _ in range(100)]
        for s in panel:
            for f, name in ((eta, "altzeta"), (zeta, "zeta")):
                expected = complex(getattr(mp, name)(s))
                assert abs(f(s) - expected) <= 2e-13 * abs(expected)

    def test_zeta_at_integers(self, mp):
        worst = max(abs(zeta(float(n)) - float(mp.zeta(n))) for n in range(2, 52))
        assert worst <= 2e-15


def _gamma_or_error(s: complex):
    try:
        return gamma(s)
    except Exception as exc:  # any error gamma raises, to compare by type and text
        return type(exc), str(exc)


class TestGammaMany:
    """_gamma_many returns scalar gamma's value to the bit at every point, or
    raises what gamma raises at the first point where gamma raises."""

    def check(self, points, batched_at_least=0):
        points = [complex(p) for p in points]
        expected = [_gamma_or_error(p) for p in points]
        errors = [e for e in expected if isinstance(e, tuple)]
        if errors:
            with pytest.raises(errors[0][0]) as caught:
                special_functions._gamma_many(points)
            assert str(caught.value) == errors[0][1]
        kept = [p for p, e in zip(points, expected) if not isinstance(e, tuple)]
        fallbacks = []

        def single(s):
            fallbacks.append(s)
            return gamma(s)

        values = special_functions._gamma_many(kept, 0.0, single)
        want = np.array([e for e in expected if not isinstance(e, tuple)], dtype=complex)
        assert values.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert len(kept) - len(fallbacks) >= batched_at_least
        return fallbacks

    def test_sweep_points_and_seeded_panel(self):
        sweep = [p + 2.0 for p in _grid_points((-2.5, 3.0, 0.05), (0.0, 2.0, 0.1))]
        assert len(sweep) == 2331
        self.check(sweep, batched_at_least=2200)
        rng = random.Random(28)
        panel = [complex(rng.uniform(-40, 40), rng.uniform(-30, 30)) for _ in range(60000)]
        assert self.check(panel, batched_at_least=60000) == []

    def test_real_axis_and_half_integers(self):
        # an integer exponent s - 1/2 (or 1/2 - s for the reflection) of at
        # most 100 in size takes CPython's c_powi: those points are gamma's own
        halves = [k / 2.0 for k in range(-200, 344)]
        fallbacks = self.check(halves + list(np.linspace(-40.0, 40.0, 2001)), 1900)
        assert any(p.real % 1.0 == 0.5 for p in fallbacks)

    def test_signed_zero_imaginary_parts(self):
        axis = np.linspace(-30.0, 30.0, 1001)
        self.check([complex(x, y) for x in axis for y in (0.0, -0.0)], 1900)
        self.check([complex(x, y) for x in (0.0, -0.0) for y in np.linspace(-5, 5, 101)], 200)

    def test_next_to_the_poles(self):
        self.check([complex(-k + d, y) for k in range(40) for d in (-1e-9, 1e-9, -1e-12)
                    for y in (0.0, -0.0, 1e-10, -1e-9)], 400)
        self.check([0.0, -1.0, -7.0, complex(-3.0, -0.0), math.inf, complex(1.0, math.nan)])

    def test_both_sides_of_one_half(self):
        self.check([complex(0.5 + d, y) for d in (-1e-15, -1e-9, 0.0, 1e-15, 1e-9, 1e-3, -1e-3)
                    for y in (0.0, -0.0, 1e-300, 0.25, -7.5)], 25)

    def test_real_part_up_to_overflow(self):
        # the Lanczos power overflows from about 142.25 (gamma's log-space path)
        fallbacks = self.check(list(np.linspace(100.0, 172.0, 1441))
                               + [complex(x, 3.0) for x in np.linspace(160.0, 171.6, 117)], 800)
        assert any(p.real > 142.25 for p in fallbacks)

    def test_imaginary_part_up_to_underflow(self):
        rng = random.Random(470)
        # cmath.sin rescales past |pi Im(s)| = 708.4 (|Im(s)| 225.5), cexp past an
        # exponent atan2(Im t, Re t) Im(s) of 709.08 (|Im(s)| from about 456, where
        # Gamma is still above 1e-308 for Re(s) near 12), and Gamma underflows near 470
        bands = [(-6.0, 6.0, 220.0, 232.0), (0.5, 14.0, 455.0, 462.0), (-6.0, 6.0, 440.0, 480.0)]
        points = [complex(rng.uniform(a, b), rng.choice((1, -1)) * rng.uniform(lo, hi))
                  for a, b, lo, hi in bands for _ in range(3000)]
        fallbacks = self.check(points, 3000)
        assert any(abs(p.imag) < 232.0 for p in fallbacks)
        assert any(abs(p.imag) > 470.0 for p in fallbacks)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        parts = st.floats(-200.0, 200.0) | st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, 171.5])

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(st.builds(complex, parts, parts), min_size=1, max_size=8))
        def prop(points):
            self.check(points)

        prop()
