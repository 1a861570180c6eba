import json
import math

import numpy as np
import pytest

from ratesched import (
    Topology,
    ValidationError,
    generate_topology,
    mean_gain,
    path_loss_db,
    realize_channel,
    topology_from_json,
    topology_to_json,
)

from ratesched.channel import MAX_LINKS, SHADOWING_DB, draw_positions

from helpers import gain_array


class TestGenerateTopology:
    def test_side_from_density(self):
        topo = generate_topology(100, 3, 5.0, seed=1)
        assert topo.side == pytest.approx(math.sqrt(20.0), rel=1e-12)
        assert topo.n_sensors == 100 and topo.n_controllers == 3
        assert np.all(topo.sensors >= 0) and np.all(topo.sensors <= topo.side)

    @pytest.mark.parametrize(
        "counts", [(2.5, 3), (3, 2.0), (0, 3), (3, -1), (True, 3), (3, False), ("3", 3), (None, 3)]
    )
    def test_bad_counts_rejected(self, counts):
        # a typed error, not numpy's bare TypeError from the array shape
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            generate_topology(*counts, 5.0, seed=1)

    @pytest.mark.parametrize(
        "counts",
        [(10**19, 1), (1, 10**19), (MAX_LINKS + 1, 1), (MAX_LINKS // 2 + 1, 2),
         (np.int64(2**62), np.int64(4))],  # an int64 product would wrap to 0
    )
    def test_counts_beyond_the_offset_array_rejected(self, counts):
        # ValidationError before any numpy call, not numpy's ValueError from
        # an array it cannot size
        with pytest.raises(ValidationError, match=r"n_sensors \* n_controllers"):
            generate_topology(*counts, 5.0, seed=1)

    @pytest.mark.parametrize(
        "density", ["5", None, True, False, math.inf, -math.inf, math.nan, 0.0, -1.0, 10**400]
    )
    def test_bad_density_rejected(self, density):
        # not numpy's bare TypeError, nor a square of side 0 (inf) or of
        # density 1 (True)
        with pytest.raises(ValidationError, match="density must be a finite number > 0"):
            generate_topology(3, 2, density, seed=1)

    def test_numpy_density_accepted(self):
        topo = generate_topology(4, 2, np.float64(5.0), seed=1)
        assert topo.side == generate_topology(4, 2, 5.0, seed=1).side

    def test_numpy_integer_counts_accepted(self):
        topo = generate_topology(np.int64(4), np.int32(2), 5.0, seed=1)
        assert topo.n_sensors == 4 and topo.n_controllers == 2

    def test_single_node_topology(self):
        topo = generate_topology(1, 1, 0.25, seed=2)
        assert topo.controller_of == (0,)

    def test_same_seed_same_positions(self):
        a = generate_topology(20, 3, 5.0, seed=42)
        b = generate_topology(20, 3, 5.0, seed=42)
        assert np.array_equal(a.sensors, b.sensors)
        assert np.array_equal(a.controllers, b.controllers)
        assert a.controller_of == b.controller_of

    def test_sensors_then_controllers_in_one_draw(self):
        # one uniform call of shape (n + C, 2) leaves the floats and the
        # generator state of a call for the sensors, then one for the
        # controllers
        for seed in range(50):
            topo = generate_topology(5, 3, 2.0, seed=seed)
            rng, two_calls = np.random.default_rng(seed), np.random.default_rng(seed)
            xy = draw_positions(rng, topo.side, 8)
            assert np.array_equal(topo.sensors, two_calls.uniform(0.0, topo.side, size=(5, 2)))
            assert np.array_equal(topo.controllers, two_calls.uniform(0.0, topo.side, size=(3, 2)))
            assert np.array_equal(xy, np.concatenate([topo.sensors, topo.controllers]))
            assert rng.bit_generator.state == two_calls.bit_generator.state

    def test_nearest_controller_attachment(self):
        topo = generate_topology(50, 4, 5.0, seed=3)
        dist = np.linalg.norm(
            topo.sensors[:, None, :] - topo.controllers[None, :, :], axis=-1
        )
        assert topo.controller_of == tuple(np.argmin(dist, axis=1))

    def test_json_round_trip(self):
        topo = generate_topology(10, 3, 5.0, seed=4)
        back = topology_from_json(topology_to_json(topo))
        assert np.array_equal(back.sensors, topo.sensors)
        assert np.array_equal(back.controllers, topo.controllers)
        assert back.controller_of == topo.controller_of
        assert back.side == topo.side and back.seed == topo.seed


def _document(**changes):
    """A valid topology document with some keys replaced (None: removed)."""
    doc = json.loads(topology_to_json(generate_topology(3, 2, 5.0, seed=4)))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


class TestTopologyFromJson:
    def test_missing_key(self):
        with pytest.raises(ValidationError, match="lacks controller_of"):
            topology_from_json(_document(controller_of=None))

    def test_ragged_sensors(self):
        with pytest.raises(ValidationError, match="sensors must be"):
            topology_from_json(_document(sensors=[[0.0, 1.0], [2.0], [1.0, 1.0]]))

    def test_controller_of_shorter_than_sensors(self):
        with pytest.raises(ValidationError, match="controller_of"):
            topology_from_json(_document(controller_of=[0, 1]))

    def test_controller_of_names_a_missing_controller(self):
        with pytest.raises(ValidationError, match="controller_of"):
            topology_from_json(_document(controller_of=[0, 1, 2]))

    def test_nan_coordinate(self):
        # Python's json reads NaN; it must not reach realize_channel
        text = _document(controllers=[[math.nan, 0.0], [1.0, 1.0]])
        assert "NaN" in text
        with pytest.raises(ValidationError, match="controllers must be"):
            topology_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            _document(density=0),
            _document(side="1"),
            _document(side=10**400),
            _document(seed=1.5),
        ],
        ids=["not-json", "array", "zero-density", "string-side", "huge-side", "float-seed"],
    )
    def test_other_malformed_documents(self, text):
        with pytest.raises(ValidationError):
            topology_from_json(text)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_db(1.0) == pytest.approx(70.0, abs=1e-12)
        assert mean_gain(1.0) == pytest.approx(1e-7, rel=1e-12)

    def test_ten_meters(self):
        # 70 + 35 * log10(10) dB
        assert path_loss_db(10.0) == pytest.approx(105.0, abs=1e-12)
        assert mean_gain(10.0) == pytest.approx(10.0 ** -10.5, rel=1e-12)

    def test_short_links_capped_at_unity_gain(self):
        assert mean_gain(1e-3) == 1.0


def _fixed_distance_topology(n, distance):
    sensors = np.tile([distance, 0.0], (n, 1))
    controllers = np.array([[0.0, 0.0]])
    return Topology(
        side=distance + 1.0,
        sensors=sensors,
        controllers=controllers,
        controller_of=(0,) * n,
        density=1.0,
        seed=None,
    )


class TestRealizeChannel:
    def test_same_seed_same_gains(self):
        topo = generate_topology(10, 3, 5.0, seed=5)
        a = realize_channel(topo, seed=6)
        b = realize_channel(topo, seed=6)
        assert np.array_equal(a.gains, b.gains)

    def test_shadowing_then_fading(self):
        topo = generate_topology(6, 3, 5.0, seed=1)
        chan = realize_channel(topo, seed=2)
        rng = np.random.default_rng(2)
        assert np.array_equal(chan.shadowing_db, rng.normal(0.0, SHADOWING_DB, size=(6, 3)))
        assert np.array_equal(chan.fading, rng.exponential(1.0, size=(6, 3)))

    def test_mean_gain_recovered_without_shadowing(self):
        # unit-mean fading: once the drawn shadowing is divided out, averaging
        # 1e5 draws at a fixed distance recovers the large-scale gain within
        # 2 percent (at 2 m the cap at unity gain never binds)
        topo = _fixed_distance_topology(100_000, 2.0)
        chan = realize_channel(topo, seed=7)
        unshadowed = chan.gains * 10.0 ** (chan.shadowing_db / 10.0)
        ratio = float(np.mean(unshadowed)) / float(mean_gain(2.0))
        assert 0.98 <= ratio <= 1.02

    def test_fading_and_shadowing_statistics(self):
        topo = generate_topology(1000, 100, 5.0, seed=8)
        chan = realize_channel(topo, seed=9)
        assert chan.fading.size == 100_000
        assert 0.98 <= float(np.mean(chan.fading)) <= 1.02
        assert 3.9 <= float(np.std(chan.shadowing_db)) <= 4.1

    def test_link_gain_indexing(self):
        topo = generate_topology(6, 3, 5.0, seed=10)
        chan = realize_channel(topo, seed=11)
        ids = [4, 0, 2]
        sub = chan.link_gains(ids)
        for row, l in enumerate(ids):
            for col, k in enumerate(ids):
                assert gain_array(sub)[row, col] == chan.gains[l, topo.controller_of[k]]

    @pytest.mark.parametrize(
        "ids",
        [[-1], [5], [1.0], [], [True], [np.bool_(True)], [2, 2], [0, np.int64(0)], ["1"], [None]],
        ids=["negative", "past-the-end", "float", "empty", "bool", "numpy-bool", "repeated",
             "repeated-numpy", "string", "none"],
    )
    def test_link_gains_rejects_bad_ids(self, ids):
        # not sensor n-1's gains for -1, nor a bare IndexError or TypeError,
        # nor a 0x0 matrix
        chan = realize_channel(generate_topology(5, 2, 5.0, seed=10), seed=11)
        with pytest.raises(ValidationError, match=r"distinct integers in \[0, 5\)"):
            chan.link_gains(ids)

    def test_link_gains_takes_numpy_integers(self):
        chan = realize_channel(generate_topology(5, 2, 5.0, seed=10), seed=11)
        assert chan.link_gains(np.arange(5)).cols == chan.link_gains(range(5)).cols

    def test_gains_all_positive_and_reproducible_after_subsetting(self):
        topo = generate_topology(8, 3, 5.0, seed=12)
        chan = realize_channel(topo, seed=13)
        assert np.all(chan.gains > 0)
        a = chan.link_gains(range(8))
        b = chan.link_gains(range(8))
        assert np.array_equal(gain_array(a), gain_array(b))
