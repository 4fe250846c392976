import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import piecewise_dataset
from fmtree import fcm
from fmtree.fcm import (
    FcmConfig,
    FuzzyInferenceModel,
    Standardization,
    build_fuzzy_model,
    fcm_cluster,
    membership_matrix,
)


def identity(d):
    """A standardization that leaves d features as they are: (x - 0.0) / 1.0 is x."""
    return Standardization(np.zeros(d), np.ones(d))


def planted_points(seed=42, per_cluster=100, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
    points = np.vstack([c + noise * rng.standard_normal((per_cluster, 2)) for c in centers])
    return centers, points


def test_config_validation():
    with pytest.raises(ValueError, match="k must be at least 1"):
        FcmConfig(k=0)
    with pytest.raises(ValueError, match="fuzzifier_m"):
        FcmConfig(fuzzifier_m=1.0)
    with pytest.raises(ValueError, match="tolerance"):
        FcmConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        FcmConfig(max_iterations=0)


def test_single_cluster_memberships_are_one():
    x = np.array([[0.0], [2.0], [5.0], [9.0]])
    part = fcm_cluster(x, FcmConfig(k=1))
    assert_allclose(part.memberships, 1.0)


def test_two_points_two_clusters_converge_to_points():
    x = np.array([[0.0], [1.0]])
    part = fcm_cluster(x, FcmConfig(k=2, seed=3, tolerance=1e-9))
    order = np.argsort(part.centers[:, 0])
    assert_allclose(part.centers[order, 0], [0.0, 1.0], atol=1e-6)
    expected = np.eye(2) if order[0] == 0 else np.eye(2)[::-1]
    assert_allclose(part.memberships, expected, atol=1e-6)


def test_planted_centers_recovered():
    centers, points = planted_points()
    part = fcm_cluster(points, FcmConfig(k=3, seed=7))
    err = min(
        np.linalg.norm(part.centers[list(perm)] - centers, axis=1).max()
        for perm in itertools.permutations(range(3))
    )
    assert err < 0.1


def test_objective_trace_non_increasing_and_rows_normalized():
    _, points = planted_points()
    for seed in range(5):
        part = fcm_cluster(points, FcmConfig(k=3, seed=seed))
        trace = np.asarray(part.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0]))
        assert np.abs(part.memberships.sum(axis=1) - 1.0).max() < 1e-9


def test_determinism_per_seed():
    _, points = planted_points()
    a = fcm_cluster(points, FcmConfig(k=3, seed=12))
    b = fcm_cluster(points, FcmConfig(k=3, seed=12))
    assert_allclose(a.centers, b.centers, rtol=0, atol=0)
    assert_allclose(a.memberships, b.memberships, rtol=0, atol=0)


def test_zero_distance_guard():
    d2 = np.array([[0.0, 4.0], [4.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    u = fcm._memberships_t(d2.T, 2.0, np.empty_like(d2.T)).T
    assert_allclose(u[0], [1.0, 0.0])
    assert_allclose(u[1], [0.0, 1.0])
    assert_allclose(u[2], [0.5, 0.5])
    # coinciding with several centers: the first one wins outright
    assert_allclose(u[3], [1.0, 0.0])


def test_errors():
    with pytest.raises(ValueError, match="at least k"):
        fcm_cluster(np.zeros((2, 1)), FcmConfig(k=3))
    with pytest.raises(ValueError, match="identical"):
        fcm_cluster(np.ones((5, 2)), FcmConfig(k=2))
    with pytest.raises(ValueError, match="finite"):
        fcm_cluster(np.array([[np.nan], [1.0], [2.0]]), FcmConfig(k=2))
    with pytest.raises(ValueError, match="2-D"):
        fcm_cluster(np.ones(5), FcmConfig(k=2))
    # identical points are fine when there is a single cluster
    part = fcm_cluster(np.ones((5, 2)), FcmConfig(k=1))
    assert_allclose(part.memberships, 1.0)
    assert_allclose(part.centers, 1.0)


def test_fuzzy_model_shapes_and_center_value():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 10, size=(60, 3))
    part = fcm_cluster(x, FcmConfig(k=3, seed=2))
    model = build_fuzzy_model(part, x, identity(x.shape[1]))
    assert model.centers.shape == (3, 3) and model.sigmas.shape == (3, 3)
    # evaluating any function at its own center yields exactly 1
    for c in range(3):
        row = part.centers[c][None, :]
        values = membership_matrix(model, row).reshape(3, 3)
        assert_allclose(values[:, c], 1.0)


def test_membership_at_one_sigma():
    x = np.array([[0.0], [2.0], [4.0], [6.0]])
    part = fcm_cluster(x, FcmConfig(k=2, seed=0))
    model = build_fuzzy_model(part, x, identity(x.shape[1]))
    center, sigma = model.centers[0, 0], model.sigmas[0, 0]
    value = membership_matrix(model, np.array([[center + sigma]]))[0, 0]
    assert value == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_sigma_estimates_population_sd():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10000, 1))
    model = build_fuzzy_model(fcm_cluster(x, FcmConfig(k=1)), x, identity(1))
    assert abs(model.sigmas[0, 0] - 1.0) < 0.05


def test_sigma_floor_for_constant_feature():
    x = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    part = fcm_cluster(x, FcmConfig(k=2, seed=4))
    model = build_fuzzy_model(part, x, identity(x.shape[1]))
    assert np.all(model.sigmas[1, :] == 1e-6)
    # the constant feature still evaluates to 1 at its only value
    values = membership_matrix(model, np.array([[1.5, 5.0]]))
    assert_allclose(values[0, 2:], 1.0)


def test_membership_matrix_shape_and_order():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(59, 3))
    part = fcm_cluster(x, FcmConfig(k=3, seed=5))
    model = build_fuzzy_model(part, x, identity(x.shape[1]))
    matrix = membership_matrix(model, x)
    assert matrix.shape == (59, 9)
    # column j*k + c must equal the Gaussian of feature j, cluster c
    probe = x[:7]
    for j in range(3):
        for c in range(3):
            expected = np.exp(
                -0.5 * ((probe[:, j] - model.centers[j, c]) / model.sigmas[j, c]) ** 2
            )
            assert_allclose(matrix[:7, j * 3 + c], expected, rtol=1e-12)


def test_cluster_permutation_preserves_value_multiset():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 3, size=(40, 2))
    part = fcm_cluster(x, FcmConfig(k=3, seed=8))
    model = build_fuzzy_model(part, x, identity(x.shape[1]))
    permuted = FuzzyInferenceModel(
        model.centers[:, [2, 0, 1]], model.sigmas[:, [2, 0, 1]], model.standardization
    )
    a = np.sort(membership_matrix(model, x).ravel())
    b = np.sort(membership_matrix(permuted, x).ravel())
    assert_allclose(a, b, rtol=0, atol=0)


def test_standardization_applied_by_model():
    rng = np.random.default_rng(9)
    x = rng.uniform(100, 400, size=(50, 3))
    std = Standardization.fit(x)
    z = std.apply(x)
    assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
    part = fcm_cluster(z, FcmConfig(k=2, seed=9))
    with_std = build_fuzzy_model(part, z, standardization=std)
    without = build_fuzzy_model(part, z, identity(3))
    assert_allclose(membership_matrix(with_std, x), membership_matrix(without, z), rtol=1e-12)


def test_standardization_constant_feature_scale_one():
    x = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
    std = Standardization.fit(x)
    assert std.scale[1] == 1.0
    assert_allclose(std.apply(x)[:, 1], 0.0)


def test_standardization_refuses_a_spread_that_underflows():
    """Sizes (i + 1) * 1e-300 differ, but their squared deviations underflow to an sd
    of 0; a constant column, however small its values, still gets scale 1."""
    x = np.column_stack([np.arange(1, 31) * 1e-300, np.arange(30.0), np.full(30, 1e-300)])
    with pytest.raises(ValueError, match=r"^cannot standardize size_ucp: its standard "
                       r"deviation is 0 although its values differ; its values are too small "
                       r"in magnitude$"):
        Standardization.fit(x, ("size_ucp", "productivity", "complexity"))
    with pytest.raises(ValueError, match="^cannot standardize feature 0: "):
        Standardization.fit(x)
    assert Standardization.fit(x[:, 1:]).scale[1] == 1.0


def test_model_json_round_trip():
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 10, size=(30, 3))
    std = Standardization.fit(x)
    part = fcm_cluster(std.apply(x), FcmConfig(k=3, seed=10))
    model = build_fuzzy_model(part, std.apply(x), standardization=std)
    clone = FuzzyInferenceModel.from_json(model.to_json())
    assert_allclose(membership_matrix(clone, x), membership_matrix(model, x), rtol=0, atol=0)


def test_dimension_mismatch_errors():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, size=(20, 2))
    part = fcm_cluster(x, FcmConfig(k=2, seed=11))
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_fuzzy_model(part, x[:, :1], identity(1))
    model = build_fuzzy_model(part, x, identity(x.shape[1]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        membership_matrix(model, np.ones((3, 5)))


def reference_memberships(d2, fuzzifier_m):
    """The (n, k) membership update that preceded the cluster-major loop, kept as the oracle."""
    u = np.empty_like(d2)
    zero_rows = d2.min(axis=1) == 0.0
    if np.any(zero_rows):
        u[zero_rows] = 0.0
        rows = np.nonzero(zero_rows)[0]
        u[rows, np.argmax(d2[rows] == 0.0, axis=1)] = 1.0
    regular = ~zero_rows
    if np.any(regular):
        d2r = d2[regular]
        ratio = d2r / d2r.min(axis=1, keepdims=True)
        w = ratio ** (-1.0 / (fuzzifier_m - 1.0))
        u[regular] = w / w.sum(axis=1, keepdims=True)
    return u


def reference_fcm(x, config):
    """The broadcast FCM loop that preceded the cluster-major one, kept as the oracle."""
    n, d = x.shape
    rng = np.random.default_rng(config.seed)
    u = rng.random((n, config.k))
    u /= u.sum(axis=1, keepdims=True)
    centers = np.zeros((config.k, d))
    trace = []
    for _ in range(config.max_iterations):
        um = u ** config.fuzzifier_m
        weights = um.sum(axis=0)
        fresh = weights > 0
        centers[fresh] = (um.T[fresh] @ x) / weights[fresh, None]
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        u_next = reference_memberships(d2, config.fuzzifier_m)
        trace.append(float((u_next ** config.fuzzifier_m * d2).sum()))
        shift = float(np.abs(u_next - u).max())
        u = u_next
        if shift < config.tolerance:
            break
    return centers, u, trace


def assert_same_partition(x, config):
    centers, memberships, trace = reference_fcm(x, config)
    part = fcm_cluster(x, config)
    assert np.array_equal(part.centers, centers)
    assert np.array_equal(part.memberships, memberships)
    assert part.objective_trace == trace


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fcm_matches_reference_bit_for_bit(data):
    # Cluster counts reach past 8, where numpy starts summing pairwise; widths
    # stay below it (see test_squared_distances_match_broadcast_sum).
    d = data.draw(st.integers(1, 7), label="d")
    on_centers = data.draw(st.booleans(), label="on_centers")
    if on_centers:
        # k separated points: the centers collapse onto them exactly, so a
        # point sits on a center and the zero-distance branch runs.
        k = data.draw(st.integers(2, 5), label="k")
        x = np.arange(k, dtype=float)[:, None] * 10.0 + np.zeros((1, d))
    else:
        n = data.draw(st.integers(2, 60), label="n")
        k = data.draw(st.integers(1, min(n, 10)), label="k")
        elements = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))
        x = data.draw(arrays(np.float64, (n, d), elements=elements), label="x")
        if k >= 2 and np.all(x == x[0]):
            x[0, 0] += 1.0
    config = FcmConfig(
        k=k,
        fuzzifier_m=data.draw(st.sampled_from([1.5, 2.0, 2.5, 3.0]), label="m"),
        tolerance=data.draw(st.sampled_from([1e-12, 1e-6, 1e-3]), label="tolerance"),
        max_iterations=data.draw(st.integers(1, 40), label="max_iterations"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
    )
    assert_same_partition(x, config)


@pytest.mark.parametrize("k, underflowing", [(3, 1), (5, 3), (9, 7)])
def test_cluster_whose_weight_underflows_keeps_its_center(k, underflowing):
    # At m = 700 the memberships raised to m of `underflowing` clusters all
    # underflow to 0 within two iterations, so later iterations update the
    # other centers only.  At k = 9 the clusters of a point are summed pairwise.
    _, points = planted_points()
    _, u, _ = reference_fcm(points, FcmConfig(k=k, fuzzifier_m=700.0, max_iterations=2))
    weights = (u**700.0).sum(axis=0)
    assert int((weights == 0.0).sum()) == underflowing
    assert_same_partition(points, FcmConfig(k=k, fuzzifier_m=700.0))


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 70),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, 2.0**-1030, 1.0]),
            st.floats(allow_nan=False),
        ),
    ),
    st.sampled_from([2.0, -1.0, 1.5, 3.0, -0.5]),
)
def test_power_equals_the_pow_operator_bit_for_bit(a, p):
    with np.errstate(all="ignore"):
        expected = a**p
        got = fcm._power(a, p, out=np.empty_like(a))
    assert got.tobytes() == expected.tobytes()


def test_point_on_a_center_takes_the_zero_distance_branch(monkeypatch):
    calls = []
    original = fcm._memberships_t

    def spy(d2t, fuzzifier_m, out=None):
        calls.append(bool((d2t == 0.0).any()))
        return original(d2t, fuzzifier_m, out)

    monkeypatch.setattr(fcm, "_memberships_t", spy)
    # symmetric integer rows put the single center exactly on the middle row
    x = np.array([[-2.0, 1.0], [0.0, 0.0], [2.0, -1.0], [1.0, 3.0], [-1.0, -3.0]])
    assert_same_partition(x, FcmConfig(k=1))
    x = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
    assert_same_partition(x, FcmConfig(k=3, seed=3, tolerance=1e-12))
    assert sum(calls) == 2


@pytest.mark.parametrize("k", [3, 9])
def test_fcm_matches_reference_bit_for_bit_at_scale(k):
    # The property above stops at 60 rows; here every iteration runs on
    # thousands of columns, and k = 9 takes the pairwise normalization.
    features = piecewise_dataset(3000, seed=2014).features
    x = Standardization.fit(features).apply(features)
    assert_same_partition(x, FcmConfig(k=k, seed=5, max_iterations=30, tolerance=1e-12))


def test_many_points_on_centers_match_reference(monkeypatch):
    calls = []
    original = fcm._memberships_t

    def spy(d2t, fuzzifier_m, out=None):
        calls.append(int((d2t == 0.0).any(axis=0).sum()))
        return original(d2t, fuzzifier_m, out)

    monkeypatch.setattr(fcm, "_memberships_t", spy)
    # 250 copies each of four separated points: the centers land exactly on
    # them, so whole groups of columns take the zero-distance branch.
    x = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]), 250, axis=0)
    assert_same_partition(x, FcmConfig(k=4, seed=1, tolerance=1e-12, max_iterations=60))
    assert max(calls) >= 250


def test_each_call_returns_its_own_row_major_arrays():
    _, points = planted_points()
    config = FcmConfig(k=3, seed=7, max_iterations=20)
    a = fcm_cluster(points, config)
    b = fcm_cluster(points, config)
    for part in (a, b):
        assert part.memberships.shape == (len(points), 3)
        assert part.memberships.flags.c_contiguous and part.memberships.flags.owndata
        assert part.centers.flags.owndata
    assert not np.shares_memory(a.memberships, b.memberships)
    assert not np.shares_memory(a.centers, b.centers)
    expected = a.memberships.copy()
    b.memberships[:] = 0.0
    assert np.array_equal(a.memberships, expected)


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 10)),
        elements=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    ),
    st.sampled_from([1.5, 2.0, 3.0]),
)
def test_cluster_major_memberships_match_reference(d2, fuzzifier_m):
    d2t = np.ascontiguousarray(d2.T)
    got = fcm._memberships_t(d2t, fuzzifier_m, np.empty_like(d2t))
    assert np.array_equal(got.T, reference_memberships(d2, fuzzifier_m))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_squared_distances_match_broadcast_sum(data):
    d = data.draw(st.integers(1, 12), label="d")
    k = data.draw(st.integers(1, 10), label="k")
    n = data.draw(st.integers(1, 30), label="n")
    elements = st.floats(-1e3, 1e3)
    x = data.draw(arrays(np.float64, (n, d), elements=elements), label="x")
    centers = data.draw(arrays(np.float64, (k, d), elements=elements), label="centers")
    got = fcm._squared_distances_t(np.ascontiguousarray(x.T), centers, np.empty((k, n))).T
    expected = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    if d < 8:
        assert np.array_equal(got, expected)
    else:
        # numpy adds 8 or more terms pairwise; the feature loop adds them in order.
        assert_allclose(got, expected, rtol=1e-14, atol=0)


def test_convergence_is_reported():
    _, points = planted_points()
    part = fcm_cluster(points, FcmConfig(k=3, seed=7))
    assert part.converged
    assert len(part.objective_trace) < 300
    assert part.final_shift < 1e-6
    capped = fcm_cluster(points, FcmConfig(k=3, seed=7, max_iterations=3))
    assert not capped.converged
    assert len(capped.objective_trace) == 3
    assert capped.final_shift >= 1e-6
