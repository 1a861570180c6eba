import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratesched import (
    GainMatrix,
    NodeSpec,
    NumericalError,
    RadioConfig,
    ValidationError,
    Verdict,
    achieved_sinr,
    check_rate_vector,
    check_targets,
    disc4_table,
    disc8_table,
    min_power_vector,
)

from helpers import (
    TABLE1_RADIO,
    gain_array,
    link_sinrs,
    log_uniform,
    near_singular_systems,
    random_gains,
    random_instance,
)

TABLE = disc4_table(1e8)
NOISE = TABLE1_RADIO.noise_power
EPS = np.finfo(float).eps


def reference_min_power(gains, targets, noise):
    """Independent reference: rho from an eigensolve of F, then a dense LAPACK
    solve of (I - F) p = u. Returns ``(powers, rho)``."""
    g = gain_array(gains)
    diag = np.diag(g)
    f = g.T * (targets / diag)[:, None]
    np.fill_diagonal(f, 0.0)
    if not np.all(np.isfinite(f)):
        return None, math.inf
    rho = float(np.max(np.abs(np.linalg.eigvals(f))))
    if not rho < 1.0:
        return None, rho
    powers = np.linalg.solve(np.eye(gains.n) - f, targets * noise / diag)
    if not (np.all(np.isfinite(powers)) and np.all(powers > 0)):
        raise NumericalError("reference solve broke down")
    return powers, rho


def frozen_min_power_vector(gains, sinr_targets, noise):
    """The elimination of ``min_power_vector`` as first written, kept verbatim
    (on ``gain_array(gains).T.tolist()``, with ``all(...)`` checks) so that the lean
    kernel can be held to the same float operations in the same order."""
    t = sinr_targets.tolist() if isinstance(sinr_targets, np.ndarray) else sinr_targets
    cols = gain_array(gains).T.tolist()
    n = len(cols)
    try:
        valid = len(t) == n and all(x > 0 for x in t)
    except TypeError:  # a scalar, or a nested list
        valid = False
    if not valid:
        raise ValidationError("one SINR target > 0 per link required")
    a, u = [], []
    for i, col in enumerate(cols):
        ti = t[i]
        gii = col[i]
        s = ti / gii
        row = [-(x * s) for x in col]
        row[i] = 1.0
        if not all(map(math.isfinite, row)):
            return None
        a.append(row)
        u.append(ti * noise / gii)
    for c in range(n):
        pivot_row = a[c]
        pivot = pivot_row[c]
        if not pivot > 0:
            return None
        for r in range(c + 1, n):
            row = a[r]
            m = row[c] / pivot
            for j in range(c + 1, n):
                row[j] -= m * pivot_row[j]
            u[r] -= m * u[c]
    p = u
    for i in range(n - 1, -1, -1):
        row = a[i]
        s = p[i]
        for j in range(i + 1, n):
            s -= row[j] * p[j]
        p[i] = s / row[i]
    if not all(math.isfinite(x) and x > 0 for x in p):
        raise NumericalError("non-finite or non-positive minimum power")
    return tuple(p)


def kernel_outcome(kernel, gains, targets, noise=None):
    """``"None"``, ``"NumericalError"`` or the powers as exact hex strings."""
    try:
        powers = kernel(gains, targets, NOISE if noise is None else noise)
    except NumericalError:
        return "NumericalError"
    return "None" if powers is None else [p.hex() for p in powers]


@st.composite
def small_systems(draw):
    """One to five links: receiver gains 1e-9..1e-3, cross gains -40..+10 dB
    against the victim's own gain, SINR targets 1e-2..1e4."""
    n = draw(st.integers(1, 5))
    own = [log_uniform(draw, -9.0, -3.0) for _ in range(n)]
    g = [
        [own[k] if l == k else own[k] * log_uniform(draw, -4.0, 1.0) for k in range(n)]
        for l in range(n)
    ]
    targets = np.array([log_uniform(draw, -2.0, 4.0) for _ in range(n)])
    return GainMatrix(g), targets


def assert_matches_reference(gains, targets):
    ref_powers, ref_rho = reference_min_power(gains, targets, NOISE)
    # within 1e-12 of rho = 1 the verdict of either method rests on rounding
    assume(abs(1.0 - ref_rho) >= 1e-12)
    powers = min_power_vector(gains, targets, NOISE)
    assert (powers is None) == (ref_powers is None)
    if powers is None:
        return
    assert isinstance(powers, tuple) and len(powers) == gains.n
    assert all(type(p) is float for p in powers)
    # both solvers have a forward error of a few eps / (1 - rho)
    assert powers == pytest.approx(ref_powers, rel=1e-12 + 64 * EPS / (1.0 - ref_rho))
    assert achieved_sinr(gains, powers, NOISE) == pytest.approx(targets, rel=1e-9)
    # component-wise minimal: shaving any coordinate breaks that link's SINR
    for i in range(gains.n):
        shaved = list(powers)
        shaved[i] *= 1.0 - 1e-6
        assert achieved_sinr(gains, shaved, NOISE)[i] < targets[i]


class TestMinPowerVector:
    def test_single_link_closed_form(self):
        # F = 0 for one link, so p = u = gamma * N0 / g = 10 * 1e-8 / 1e-7
        powers = min_power_vector(GainMatrix([[1e-7]]), [10.0], 1e-8)
        assert powers[0] == 10.0 * 1e-8 / 1e-7
        assert powers[0] == pytest.approx(1.0, rel=1e-12)

    def test_spectral_infeasible(self):
        # gamma * g_ij/g_ii = 2 gives rho(F) = 2, so the second pivot is 1 - 4
        g = GainMatrix([[1e-6, 2e-7], [2e-7, 1e-6]])
        assert min_power_vector(g, [10.0, 10.0], 1e-8) is None
        # rho = 1 exactly (F[0,1] = F[1,0] = 1, a zero pivot) is infeasible too
        assert min_power_vector(GainMatrix([[1.0, 0.5], [0.5, 1.0]]), [2.0, 2.0], 1e-8) is None

    def test_componentwise_minimality(self):
        # shaving any coordinate of the minimum vector breaks that link's SINR
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 5))
            gains = random_gains(rng, n)
            targets = 10.0 ** (rng.uniform(0.0, 2.5, size=n))
            powers = min_power_vector(gains, targets, TABLE1_RADIO.noise_power)
            if powers is None:
                continue
            for i in range(n):
                shaved = list(powers)
                shaved[i] *= 0.999
                sinr = achieved_sinr(gains, shaved, TABLE1_RADIO.noise_power)
                assert sinr[i] < targets[i]
            checked += 1

    def test_monotone_in_targets(self):
        # raising one target never lowers any minimum power and never turns a
        # spectrally infeasible case feasible
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            gains = random_gains(rng, n)
            targets = 10.0 ** (rng.uniform(0.0, 3.0, size=n))
            before = min_power_vector(gains, targets, TABLE1_RADIO.noise_power)
            bumped = targets.copy()
            i = int(rng.integers(0, n))
            bumped[i] *= rng.uniform(1.1, 3.0)
            after = min_power_vector(gains, bumped, TABLE1_RADIO.noise_power)
            if before is None:
                assert after is None
            elif after is not None:
                assert all(a >= b * (1.0 - 1e-12) for a, b in zip(after, before))

    @settings(max_examples=400)
    @given(system=small_systems())
    def test_small_kernel_matches_eigensolve_reference(self, system):
        # the elimination agrees with eigvals + solve: same verdict, powers
        # to rel 1e-12 when well conditioned, SINR equality and minimality
        assert_matches_reference(*system)

    @settings(max_examples=200)
    @given(system=near_singular_systems())
    def test_small_kernel_matches_reference_near_rho_one(self, system):
        assert_matches_reference(*system)

    @settings(max_examples=200)
    @given(system=near_singular_systems(sides=(-1.0,)))
    def test_targets_met_to_a_relative_1e9_near_rho_one(self, system):
        # the docstring's promise, with each SINR computed afresh from the
        # powers, interference summed over the other links only
        gains, targets = system
        powers = min_power_vector(gains, targets, NOISE)
        assert powers is not None
        sinrs = link_sinrs(gains.cols, powers, NOISE)
        assert all(abs(x - t) <= 1e-9 * t for x, t in zip(sinrs, targets.tolist()))

    @settings(max_examples=200)
    @given(
        system=small_systems(),
        huge=st.lists(
            st.sampled_from([math.inf, 1e300, 1e308, 1.7e308]), min_size=1, max_size=5
        ),
    )
    def test_overflowing_targets_never_give_an_infinite_power(self, system, huge):
        # an expm1 overflow in the capacity targets gives inf or huge targets:
        # the kernel returns None or raises, and never returns inf powers
        gains, targets = system
        k = min(len(huge), gains.n)
        targets[:k] = huge[:k]
        try:
            powers = min_power_vector(gains, targets, NOISE)
        except NumericalError:
            return
        if math.inf in targets:
            # every cross gain is > 0, so F has an infinite entry
            assert gains.n >= 2 and powers is None
        elif powers is not None:
            assert all(math.isfinite(p) and p > 0 for p in powers)

    @settings(max_examples=600)
    @given(system=st.one_of(small_systems(), near_singular_systems()))
    def test_no_power_below_the_interference_free_power(self, system):
        # the elimination adds only non-negative terms to u and divides by
        # pivots in (0, 1], so p_i >= t_i * N / g_ii as floats; the level
        # ceilings of lttf rest on this
        gains, targets = system
        targets = targets.tolist()
        powers = min_power_vector(gains, targets, NOISE)
        if powers is None:
            return
        for p, t, col, i in zip(powers, targets, gains.cols, itertools.count()):
            assert p >= t * NOISE / col[i]

    @settings(max_examples=400)
    @given(
        system=st.one_of(small_systems(), near_singular_systems()),
        huge=st.lists(st.sampled_from([None, math.inf, 1e300, 1.7e308]), max_size=5),
        as_list=st.booleans(),
    )
    def test_bit_identical_to_the_frozen_elimination(self, system, huge, as_list):
        # the same float operations in the same order: equal bits, the same
        # None and the same NumericalError, for array and list targets
        gains, targets = system
        for i, x in enumerate(huge[: gains.n]):
            if x is not None:
                targets[i] = x
        if as_list:
            targets = targets.tolist()
        assert kernel_outcome(min_power_vector, gains, targets) == kernel_outcome(
            frozen_min_power_vector, gains, targets
        )

    @pytest.mark.parametrize(
        "g, targets, outcome",
        [
            # an infinite target makes F[1, 0] infinite
            ([[1e-6, 1e-8], [1e-8, 1e-6]], [math.inf, 10.0], "None"),
            # rho(F) = 2, so the second pivot is 1 - 4
            ([[1e-6, 2e-7], [2e-7, 1e-6]], [10.0, 10.0], "None"),
            # u = 1e308 * 1e-8 / 1e-9 overflows for one link
            ([[1e-9]], [1e308], "NumericalError"),
        ],
        ids=["nonfinite-F", "pivot", "numerical"],
    )
    def test_frozen_elimination_edge_cases(self, g, targets, outcome):
        gains = GainMatrix(g)
        assert kernel_outcome(frozen_min_power_vector, gains, targets, 1e-8) == outcome
        assert kernel_outcome(min_power_vector, gains, targets, 1e-8) == outcome

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            min_power_vector(GainMatrix([[1e-7]]), [10.0, 10.0], 1e-8)
        with pytest.raises(ValidationError):
            min_power_vector(GainMatrix([[1e-7]]), [-1.0], 1e-8)
        with pytest.raises(ValidationError):
            min_power_vector(GainMatrix([[1e-7]]), [[10.0]], 1e-8)
        # achieved_sinr would broadcast one power over both links
        for powers in ([1.0], 1.0, [1.0, 1.0, 1.0], [[1.0, 1.0]]):
            with pytest.raises(ValidationError, match="one power per link"):
                achieved_sinr(GainMatrix([[1e-6, 1e-8], [1e-8, 1e-6]]), powers, 1e-8)


# One case per verdict on two symmetric links: the SINR targets, then the
# time, delay and energy that both links share.
PAIR_GAINS = GainMatrix([[1e-6, 1e-8], [1e-8, 1e-6]])
PAIR_RADIO = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=1e8)
PAIR_CASES = {
    Verdict.FEASIBLE: ([10.0, 10.0], 1e-6, 1e-3, 1.0),
    Verdict.INFEASIBLE_SPECTRAL: ([1e3, 1e3], 1e-6, 1e-3, 1.0),
    # rho(F) = 0.9, p = 90 * 1e-8 / (1e-6 * 0.1) = 9 W
    Verdict.INFEASIBLE_MAX_POWER: ([90.0, 90.0], 1e-6, 1e-3, 1.0),
    Verdict.INFEASIBLE_DELAY: ([10.0, 10.0], 1e-3, 1e-6, 1.0),
    Verdict.INFEASIBLE_ENERGY: ([10.0, 10.0], 1e-6, 1e-3, 1e-12),
}


class TestCheckTargets:
    @settings(max_examples=300)
    @given(
        system=small_systems(),
        data=st.data(),
        p_max=st.sampled_from([1e-3, 0.25, 10.0]),
    )
    def test_list_tuple_and_ndarray_arguments_agree(self, system, data, p_max):
        # one report for a list, a tuple and an ndarray of each of times,
        # delays and energies
        gains, targets = system
        radio = RadioConfig(p_max=p_max, noise_power=NOISE, bandwidth_hz=1e8)
        n = gains.n

        def per_link(lo, hi):
            return data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

        values = (per_link(1e-9, 1e-3), per_link(1e-9, 1e-3), per_link(1e-12, 1e-3))
        forms = [
            values,
            tuple(tuple(v) for v in values),
            tuple(np.array(v) for v in values),
            (values[0], tuple(values[1]), np.array(values[2])),
        ]
        reports = {check_targets(gains, targets, radio, *form) for form in forms}
        assert len(reports) == 1

    def test_sequence_forms_agree_at_every_verdict(self):
        for verdict, (targets, t, d, e) in PAIR_CASES.items():
            for form in (list, tuple, np.array):
                args = (form([t] * 2), form([d] * 2), form([e] * 2))
                assert check_targets(PAIR_GAINS, targets, PAIR_RADIO, *args).verdict is verdict

    def test_every_bound_holds_with_equality(self):
        # the feasible pair's larger power is p_max, and link 0's time and
        # energy are its delay bound and budget: it passes, and one float
        # less of any of the three fails with that bound's verdict
        targets, t, d, e = PAIR_CASES[Verdict.FEASIBLE]
        p = min_power_vector(PAIR_GAINS, targets, PAIR_RADIO.noise_power)
        radio = RadioConfig(max(p), PAIR_RADIO.noise_power, PAIR_RADIO.bandwidth_hz)
        tight = ([t, t], [t, d], [t * p[0], e])
        assert check_targets(PAIR_GAINS, targets, radio, *tight).feasible
        below = RadioConfig(math.nextafter(max(p), 0.0), radio.noise_power, radio.bandwidth_hz)
        verdict = check_targets(PAIR_GAINS, targets, below, *tight).verdict
        assert verdict is Verdict.INFEASIBLE_MAX_POWER
        for k, failing in ((1, Verdict.INFEASIBLE_DELAY), (2, Verdict.INFEASIBLE_ENERGY)):
            bounds = list(tight)
            bounds[k] = [math.nextafter(bounds[k][0], 0.0), bounds[k][1]]
            assert check_targets(PAIR_GAINS, targets, radio, *bounds).verdict is failing

    def test_scalar_or_wrong_length_raises_at_every_verdict(self):
        # lengths are checked before the kernel runs, so the verdict the
        # values would reach makes no difference
        for targets, t, d, e in PAIR_CASES.values():
            good = ([t] * 2, [d] * 2, [e] * 2)
            for pos, value in enumerate((t, d, e)):
                for bad in (value, np.float64(value), np.array(value), [value], [value] * 3):
                    args = list(good)
                    args[pos] = bad
                    with pytest.raises(ValidationError, match="per link"):
                        check_targets(PAIR_GAINS, targets, PAIR_RADIO, *args)


def _single_node(delay=1e-3, energy=math.inf):
    return NodeSpec(
        id=0, controller_id=0, packet_bits=100.0, period=1, delay_bound=delay,
        energy_budget=energy,
    )


class TestCheckRateVector:
    def test_feasible_single_node(self):
        rep = check_rate_vector(
            [_single_node()], GainMatrix([[1e-6]]), [TABLE.rate(0)], TABLE, TABLE1_RADIO
        )
        assert rep.verdict is Verdict.FEASIBLE
        assert rep.min_powers[0] == pytest.approx(0.1, rel=1e-12)
        # t = 100 bits / (1e8 * log2(11)) seconds
        assert 100.0 / TABLE.rate(0) == pytest.approx(2.8906482631788787e-07, rel=1e-12)

    def test_max_power_verdict(self):
        rep = check_rate_vector(
            [_single_node()], GainMatrix([[1e-7]]), [TABLE.rate(0)], TABLE, TABLE1_RADIO
        )
        assert rep.verdict is Verdict.INFEASIBLE_MAX_POWER
        assert rep.min_powers[0] == pytest.approx(1.0, rel=1e-12)

    def test_delay_verdict(self):
        rep = check_rate_vector(
            [_single_node(delay=1e-9)],
            GainMatrix([[1e-6]]),
            [TABLE.rate(0)],
            TABLE,
            TABLE1_RADIO,
        )
        assert rep.verdict is Verdict.INFEASIBLE_DELAY

    def test_energy_verdict(self):
        # power and delay pass; 0.1 W for 2.89e-7 s needs 2.89e-8 J
        rep = check_rate_vector(
            [_single_node(energy=1e-9)],
            GainMatrix([[1e-6]]),
            [TABLE.rate(0)],
            TABLE,
            TABLE1_RADIO,
        )
        assert rep.verdict is Verdict.INFEASIBLE_ENERGY

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValidationError, match="not in table"):
            check_rate_vector(
                [_single_node()], GainMatrix([[1e-6]]), [12345.0], TABLE, TABLE1_RADIO
            )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            check_rate_vector(
                [_single_node()],
                GainMatrix([[1e-6, 1e-8], [1e-8, 1e-6]]),
                [TABLE.rate(0)],
                TABLE,
                TABLE1_RADIO,
            )


class TestRandomInstances:
    def test_binding_energy_budgets_bind(self):
        # at binding_energy_prob=1 the helper's budgets must make the energy
        # check decide some rate vector of most instances, or the energy
        # branch of every randomized test goes untested
        table = disc8_table(1e8)
        rng = np.random.default_rng(20)
        hits = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            nodes, gains = random_instance(rng, n, table, binding_energy_prob=1.0)
            verdicts = {
                check_rate_vector(
                    nodes, gains, [table.rate(q) for q in combo], table, TABLE1_RADIO
                ).verdict
                for combo in itertools.product(range(table.num_levels), repeat=n)
            }
            hits += Verdict.INFEASIBLE_ENERGY in verdicts
        assert hits >= 50


class TestAchievedSinr:
    @pytest.mark.parametrize("snr", [3e7, 3e11, 3e15, 3e17])
    def test_one_link_at_high_snr_is_exact(self, snr, recwarn):
        # p = 0.3, g = 1: SINR = 0.3 / N. Adding the desired power to the
        # noise and taking it off again lost 5e-10, 2e-5, 10% and everything
        # (inf, with a RuntimeWarning) of it at these SNRs.
        noise = 0.3 / snr
        assert achieved_sinr(GainMatrix([[1.0]]), [0.3], noise).tolist() == [0.3 / noise]
        assert not recwarn.list

    def test_interference_is_summed_over_the_other_links(self):
        # g[l][k]: from link l to the controller of link k
        g = GainMatrix([[1.0, 1e-3, 2e-3], [4e-3, 0.5, 1e-9], [8e-3, 1e-2, 0.25]])
        powers = [0.1, 0.2, 0.3]
        want = [
            0.1 * 1.0 / (1e-8 + (0.2 * 4e-3 + 0.3 * 8e-3)),
            0.2 * 0.5 / (1e-8 + (0.1 * 1e-3 + 0.3 * 1e-2)),
            0.3 * 0.25 / (1e-8 + (0.1 * 2e-3 + 0.2 * 1e-9)),
        ]
        assert achieved_sinr(g, powers, 1e-8).tolist() == want
