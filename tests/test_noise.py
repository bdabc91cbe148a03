import numpy as np
import pytest

from falqon.noise import NoiseKind, NoiseModel, trajectory


def test_none_kind_gives_zeros():
    traj = trajectory(NoiseModel(NoiseKind.NONE), 5)
    np.testing.assert_array_equal(traj, np.zeros(5))
    assert len(traj) == 5


def test_model_accepts_plain_strings():
    model = NoiseModel("systematic", 0.3, 1)
    assert model.kind is NoiseKind.SYSTEMATIC


def test_model_validates_epsilon_bar():
    with pytest.raises(ValueError):
        NoiseModel(NoiseKind.SYSTEMATIC, 1.0, 0)
    with pytest.raises(ValueError):
        NoiseModel(NoiseKind.INDEPENDENT, -0.1, 0)
    for kind in NoiseKind:
        for eb in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NoiseModel(kind, eb, 0)
    NoiseModel(NoiseKind.SYSTEMATIC, 0.0, 0)  # zero magnitude stays legal


def test_model_refuses_a_non_integer_seed():
    # refused on construction, not at the first draw
    for kind in NoiseKind:
        with pytest.raises(ValueError, match="seed 1.5 is not an integer"):
            NoiseModel(kind, 0.1, seed=1.5)
    assert len(trajectory(NoiseModel("systematic", 0.1, seed=np.int64(3)), 2)) == 2
    with pytest.raises(ValueError, match="seed True is not an integer"):
        NoiseModel("systematic", 0.1, seed=True)


def test_trajectory_validates_arguments():
    model = NoiseModel(NoiseKind.SYSTEMATIC, 0.2, 0)
    with pytest.raises(ValueError):
        trajectory(model, 0)
    with pytest.raises(ValueError):
        trajectory(model, 5, rebuild_index=0)
    # non-integral values are refused, not truncated
    with pytest.raises(ValueError):
        trajectory(model, 2.5)
    with pytest.raises(ValueError):
        trajectory(NoiseModel(NoiseKind.INDEPENDENT, 0.2, 0), 3, rebuild_index=1.9)
    assert len(trajectory(model, np.int64(3), rebuild_index=np.int64(2))) == 3


def test_systematic_prefix_consistency():
    # the error at layer position tau must not depend on circuit depth or rebuild
    model = NoiseModel(NoiseKind.SYSTEMATIC, 0.5, seed=9)
    full = trajectory(model, 64, rebuild_index=1)
    for depth in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
        for rebuild in (1, 2, 7):
            part = trajectory(model, depth, rebuild_index=rebuild)
            np.testing.assert_array_equal(part, full[:depth])


def test_independent_rebuilds_differ():
    model = NoiseModel(NoiseKind.INDEPENDENT, 0.5, seed=9)
    a = trajectory(model, 32, rebuild_index=1)
    b = trajectory(model, 32, rebuild_index=2)
    assert not np.array_equal(a, b)
    # but each rebuild is reproducible
    np.testing.assert_array_equal(a, trajectory(model, 32, rebuild_index=1))
    np.testing.assert_array_equal(b, trajectory(model, 32, rebuild_index=2))


def test_distinct_seeds_give_distinct_sequences():
    a = trajectory(NoiseModel(NoiseKind.SYSTEMATIC, 0.5, seed=1), 16)
    b = trajectory(NoiseModel(NoiseKind.SYSTEMATIC, 0.5, seed=2), 16)
    assert not np.array_equal(a, b)


def test_values_respect_bound():
    for kind in (NoiseKind.SYSTEMATIC, NoiseKind.INDEPENDENT):
        for eb in (0.1, 0.5, 0.9):
            model = NoiseModel(kind, eb, seed=3)
            vals = trajectory(model, 200, rebuild_index=2)
            assert np.all(np.abs(vals) <= eb)


def test_zero_magnitude_gives_zero_values():
    model = NoiseModel(NoiseKind.INDEPENDENT, 0.0, seed=5)
    np.testing.assert_array_equal(trajectory(model, 10, rebuild_index=3), np.zeros(10))


def test_sample_mean_is_centered():
    # 1e5 uniform draws on [-0.5, 0.5]: the mean estimator has standard
    # deviation ~0.0009, so 0.01 is a ten-sigma tolerance
    model = NoiseModel(NoiseKind.INDEPENDENT, 0.5, seed=0)
    vals = trajectory(model, 100_000, rebuild_index=1)
    assert abs(vals.mean()) < 0.01
    assert np.all(np.abs(vals) <= 0.5)


def test_trajectory_values_are_float64_1d():
    # a fresh array per call, so a caller that writes to one changes no other
    for kind in NoiseKind:
        model = NoiseModel(kind, 0.2, 4)
        a, b = trajectory(model, 6, rebuild_index=2), trajectory(model, 6, rebuild_index=2)
        assert a.dtype == np.float64 and a.shape == (6,)
        assert not np.shares_memory(a, b)
