import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratesched import (
    GainMatrix,
    Instance,
    NodeSpec,
    RadioConfig,
    RateTable,
    ValidationError,
    build_rate_table,
    disc4_table,
    disc8_table,
    validate_instance,
)

from helpers import gain_array


class TestBuildRateTable:
    def test_disc4_levels(self):
        table = build_rate_table((-math.inf, 10.0, 20.0, 30.0), 1e8)
        assert table.num_levels == 3
        assert table.dropped_db == (-math.inf,)
        # 1e8 * log2(1 + 10), hand-checked against the frozen constant
        assert table.rate(0) == pytest.approx(345943161.8637297, rel=1e-12)
        assert table.threshold(0) == pytest.approx(10.0, rel=1e-12)

    def test_zero_db_identity(self):
        # gamma = 1 makes the rate equal the bandwidth
        table = build_rate_table([0.0], 7.5e6)
        assert table.num_levels == 1
        assert table.rate(0) == 7.5e6

    def test_all_levels_dropped(self):
        with pytest.raises(ValidationError, match="no positive rate levels"):
            build_rate_table([-math.inf], 1e8)

    def test_thresholds_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            build_rate_table([10.0, 10.0], 1e8)

    def test_a_repeated_silent_level_is_rejected(self):
        # both -inf entries are dropped from the usable levels, so only the
        # threshold order can reject them
        with pytest.raises(ValidationError, match="thresholds must be strictly increasing"):
            build_rate_table([-math.inf, -math.inf, 10.0], 1e8)

    def test_bad_bandwidth(self):
        with pytest.raises(ValidationError):
            build_rate_table([10.0], 0.0)

    @pytest.mark.parametrize("bandwidth", [True, math.inf, "x"])
    def test_bandwidth_must_be_a_finite_number(self, bandwidth):
        with pytest.raises(ValidationError, match="bandwidth"):
            build_rate_table([10.0], bandwidth)

    @pytest.mark.parametrize(
        "thresholds",
        [["a"], [None], [True, 5.0], [0.0, math.nan], [0.0, math.inf], [math.inf]],
    )
    def test_thresholds_must_be_finite_numbers_or_minus_inf(self, thresholds):
        with pytest.raises(ValidationError, match="finite number of dB or -inf"):
            build_rate_table(thresholds, 1e8)

    @pytest.mark.parametrize("thresholds", [[0.0, 4000.0], [0.0, 1e308], [np.float64(4000.0)]])
    def test_threshold_ratio_must_not_overflow(self, thresholds):
        with pytest.raises(ValidationError, match="overflows"):
            build_rate_table(thresholds, 1e8)

    def test_rate_must_not_overflow(self):
        # 1e308 Hz * log2(11) is above the float max
        with pytest.raises(ValidationError, match="finite numbers > 0"):
            build_rate_table([10.0], 1e308)


class TestRateTableInvariants:
    def test_monotone_in_threshold_and_rate(self):
        table = disc8_table(1e8)
        assert table.num_levels == 7
        for q in range(table.num_levels - 1):
            assert table.threshold(q) < table.threshold(q + 1)
            assert table.rate(q) < table.rate(q + 1)

    def test_disc8_refines_disc4(self):
        # every disc4 level is a disc8 level, so a denser ladder only adds
        # choices: criterion 4's disc8 <= disc4 and criterion 3's disc8 pairs
        # standing in for disc4 ones rest on this
        assert set(disc4_table(1e8).levels) < set(disc8_table(1e8).levels)

    def test_index_round_trip(self):
        table = disc8_table(1e8)
        for q in range(table.num_levels):
            assert table.index_of(table.rate(q)) == q

    def test_unknown_rate_rejected(self):
        table = disc4_table(1e8)
        with pytest.raises(ValidationError, match="not in table"):
            table.index_of(1.0)

    def test_threshold_for_rate(self):
        table = disc8_table(1e8)
        for q in range(table.num_levels):
            assert table.threshold_for_rate(table.rate(q)) == table.threshold(q)
        for rate in (1.0, math.nan, [table.rate(0)]):
            with pytest.raises(ValidationError, match="not in table"):
                table.threshold_for_rate(rate)

    def test_convex_ladder_rejected(self):
        # slope from the origin is 5, next chord slope is 15; not concave
        with pytest.raises(ValidationError, match="concave"):
            RateTable(levels=((1.0, 5.0), (2.0, 20.0)))
        # both chord slopes (1e600 and 2e600) overflow to inf and cannot be
        # compared, so the test fails closed
        with pytest.raises(ValidationError, match="concave"):
            RateTable(levels=((1e-300, 1e300), (2e-300, 3e300)))

    def test_collinear_levels_are_concave(self):
        # rate = 3 * threshold: every chord slope is 3, but as floats the
        # second (3.000000000000001) is above the first (2.9999999999999996),
        # so equal slopes are compared within a relative 1e-12
        table = RateTable(levels=((0.1, 0.3), (0.3, 0.9)))
        assert table.num_levels == 2

    def test_concave_ladder_with_an_overflowing_leading_chord_accepted(self):
        # only the chord from the origin (slope 1e310) overflows; it is above
        # the next chord's finite slope 1e10
        table = RateTable(levels=((1e-300, 1e10), (1.0, 2e10)))
        assert table.num_levels == 2

    @pytest.mark.parametrize(
        "level",
        [(1.0, math.inf), (math.inf, 1.0), (1.0, math.nan), (0.0, 1.0), (True, 1.0), ("1", 1.0)],
    )
    def test_levels_must_be_finite_numbers_above_zero(self, level):
        with pytest.raises(ValidationError, match="finite numbers > 0"):
            RateTable(levels=(level,))

    def test_lowest_level_within(self):
        table = disc4_table(1e8)
        assert table.lowest_level_within(100.0, 1e-3) == 0
        # only the top level moves 100 bits inside 1.2e-7 s
        assert table.lowest_level_within(100.0, 1.2e-7) == 2
        assert table.lowest_level_within(100.0, 1e-9) is None


class TestNodeAndRadioValidation:
    def test_zero_packet_rejected(self):
        with pytest.raises(ValidationError, match="packet_bits"):
            NodeSpec(id=0, controller_id=0, packet_bits=0, period=1, delay_bound=1e-3)

    def test_bad_period_rejected(self):
        with pytest.raises(ValidationError, match="period"):
            NodeSpec(id=0, controller_id=0, packet_bits=50, period=0, delay_bound=1e-3)

    def test_bad_delay_rejected(self):
        with pytest.raises(ValidationError, match="delay"):
            NodeSpec(id=0, controller_id=0, packet_bits=50, period=1, delay_bound=0.0)

    def test_bad_energy_budget_rejected(self):
        with pytest.raises(ValidationError, match="energy_budget"):
            NodeSpec(id=0, controller_id=0, packet_bits=50, period=1, delay_bound=1e-3,
                     energy_budget=0)

    @pytest.mark.parametrize(
        "field, value",
        [("packet_bits", v) for v in (True, math.inf, math.nan, "5")]
        + [pytest.param("packet_bits", 10**400, id="packet_bits-10**400")]
        + [("delay_bound", v) for v in (True, math.inf)]
        + [("period", v) for v in (True, 2.0, 0)]
        + [("energy_budget", v) for v in (True, math.nan, 0)],
    )
    def test_node_rejects_bools_strings_and_numbers_out_of_range(self, field, value):
        args = {"packet_bits": 50, "period": 1, "delay_bound": 1e-3, field: value}
        with pytest.raises(ValidationError, match=f"node 7: {field}"):
            NodeSpec(id=7, controller_id=0, **args)

    @pytest.mark.parametrize("field", ["id", "controller_id"])
    @pytest.mark.parametrize("value", [True, False, 1.5, 1.0, -3, "1", None])
    def test_ids_must_be_integers_at_least_zero(self, field, value):
        # a bool id would price as node 1 or 0: FixedPricer(...).price((True,))
        args = {"id": 0, "controller_id": 0, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an integer >= 0"):
            NodeSpec(packet_bits=50, period=1, delay_bound=1e-3, **args)

    def test_infinite_energy_budget_is_accepted_as_not_binding(self):
        node = NodeSpec(id=0, controller_id=0, packet_bits=50, period=1, delay_bound=1e-3,
                        energy_budget=math.inf)
        assert node.energy_budget == math.inf

    def test_bad_radio_rejected(self):
        with pytest.raises(ValidationError):
            RadioConfig(p_max=0.25, noise_power=-1e-8, bandwidth_hz=1e8)

    @pytest.mark.parametrize("field", ["p_max", "noise_power", "bandwidth_hz"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, True, "x"])
    def test_radio_rejects_values_that_are_not_finite(self, field, value):
        # an infinite noise power or p_max puts a solo SNR cap at 0 or inf,
        # which the continuous baseline cannot price; a bool or a string is
        # not a number
        args = {"p_max": 0.25, "noise_power": 1e-8, "bandwidth_hz": 1e8, field: value}
        with pytest.raises(ValidationError, match="finite"):
            RadioConfig(**args)

    def test_gain_matrix_must_be_positive(self):
        # a bool is not a number, as in every config field and NodeSpec, nor
        # is a string; both reach the kernel as 1.0 otherwise
        for g in ([[1e-6, 0.0], [1e-8, 1e-6]], [[True]], [[1e-6, True], [1e-8, 1e-6]],
                  np.array([[True]]), "ab", [["1e-6"]]):
            with pytest.raises(ValidationError):
                GainMatrix(g)

    def test_gain_matrix_must_be_square(self):
        # ragged rows raise numpy's ValueError unless caught
        for g in ([[1e-6, 1e-8]], [[1.0, 2.0], [1.0]]):
            with pytest.raises(ValidationError):
                GainMatrix(g)

    @pytest.mark.parametrize("g", [np.empty((0, 0)), [[]], []])
    def test_gain_matrix_must_be_nonempty(self, g):
        # a 0x0 matrix describes no link
        with pytest.raises(ValidationError, match="square and nonempty"):
            GainMatrix(g)

    def test_gain_matrix_frozen(self):
        g = GainMatrix([[1e-6]])
        assert type(g.cols) is tuple and all(type(c) is tuple for c in g.cols)
        with pytest.raises(TypeError):
            g.cols[0][0] = 1.0


@st.composite
def gains_and_subset(draw):
    """A gain matrix of one to eight links and distinct positions in any order."""
    n = draw(st.integers(1, 8))
    g = np.array(draw(st.lists(st.floats(1e-12, 1e-3), min_size=n * n, max_size=n * n)))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return GainMatrix(g.reshape(n, n)), idx


class TestGainMatrixColumns:
    def test_cols_are_the_columns_as_python_floats(self):
        gains = GainMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert gains.cols == ((1.0, 3.0), (2.0, 4.0))
        assert all(type(x) is float for col in gains.cols for x in col)

    @settings(max_examples=200)
    @given(case=gains_and_subset())
    def test_sub_equals_a_validated_submatrix(self, case):
        gains, idx = case
        sub = gains.sub(idx)
        ref = GainMatrix(gain_array(gains)[np.ix_(idx, idx)])
        sub_g, ref_g = gain_array(sub), gain_array(ref)
        assert sub.n == ref.n == len(idx)
        assert sub_g.dtype == ref_g.dtype and sub_g.shape == ref_g.shape
        assert sub_g.tobytes() == ref_g.tobytes()
        assert [[x.hex() for x in c] for c in sub.cols] == [[x.hex() for x in c] for c in ref.cols]
        assert type(sub.cols) is tuple and all(type(c) is tuple for c in sub.cols)
        with pytest.raises(TypeError):
            sub.cols[0][0] = 1.0


def _nodes_with_periods(periods):
    return [
        NodeSpec(id=i, controller_id=i % 3, packet_bits=100.0, period=p, delay_bound=1e-3)
        for i, p in enumerate(periods)
    ]


class TestValidateInstance:
    def test_nested_periods_accepted(self):
        inst = validate_instance(_nodes_with_periods([1, 2, 2, 2]))
        assert inst.subframe_count == 2
        assert inst.periods == {0: 1, 1: 2, 2: 2, 3: 2}

    def test_periods_kept_in_subframe_units(self):
        inst = validate_instance(_nodes_with_periods([2, 4]))
        assert inst.subframe_count == 4
        assert inst.periods == {0: 2, 1: 4}

    def test_non_nested_periods_rejected(self):
        with pytest.raises(ValidationError, match="non-nested periods"):
            validate_instance(_nodes_with_periods([1, 3]))

    def test_duplicate_ids_rejected(self):
        nodes = _nodes_with_periods([1, 1])
        nodes[1] = NodeSpec(
            id=0, controller_id=1, packet_bits=100.0, period=1, delay_bound=1e-3
        )
        with pytest.raises(ValidationError, match="duplicate node id"):
            validate_instance(nodes)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValidationError):
            validate_instance([])

    def test_instance_checks_its_own_nodes(self):
        # the constructor takes only the nodes and derives the geometry, so
        # no instance holds periods or a frame length that its nodes contradict
        duplicate = _nodes_with_periods([1, 1])
        duplicate[1] = NodeSpec(
            id=0, controller_id=1, packet_bits=100.0, period=1, delay_bound=1e-3
        )
        for nodes, match in (
            ((), "at least one node"),
            (tuple(duplicate), "duplicate node id"),
            (tuple(_nodes_with_periods([1, 3])), "non-nested periods"),
        ):
            with pytest.raises(ValidationError, match=match):
                Instance(nodes)
        nodes = tuple(_nodes_with_periods([1, 2]))
        assert Instance(nodes) == validate_instance(nodes)
        assert (Instance(nodes).subframe_count, Instance(nodes).periods) == (2, {0: 1, 1: 2})
        with pytest.raises(TypeError):
            Instance(nodes, 1, {0: 1, 1: 1})

    def test_node_takes_only_int_ids(self):
        # True, 1.0 and np.int64(1) hash as node 1, so a position lookup
        # alone would return node 1 for each of them
        inst = validate_instance(_nodes_with_periods([1, 1]))
        assert inst.node(1) is inst.nodes[1]
        for node_id in (True, 1.0, np.int64(1)):
            with pytest.raises(ValidationError, match="must be ints"):
                inst.node(node_id)
        with pytest.raises(ValidationError, match="unknown node id"):
            inst.node(2)
