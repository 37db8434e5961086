import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sproutcast.features import FeatureVector
from sproutcast.regress import (
    Ensemble,
    RegressorSpec,
    T_CRIT_975_DF9,
    Tree,
    TrainedModel,
    _SplitSearch,
    ensemble_predict,
    fit,
    fit_arrays,
    fit_ensemble,
    load_model,
    predict,
    predict_matrix,
    save_model,
)


from conftest import constant_model, make_examples


def test_constant_targets_predicted_exactly(rng):
    x = rng.normal(size=(40, 3))
    examples = make_examples(x, np.full(40, 12.0))
    model = fit(examples, RegressorSpec(n_trees=50, seed=1))
    assert all(v == 0.0 for tree in model.trees for v in tree.value)
    for fv in examples.features[:5]:
        assert predict(model, fv) == 12.0


def test_linear_target_beats_baseline(rng):
    x = rng.uniform(size=(500, 1))
    y = 2.0 * x[:, 0]
    spec = RegressorSpec(n_trees=200, max_depth=3, learning_rate=0.1, seed=5)
    model = fit(make_examples(x, y), spec)
    preds = predict_matrix(model, x)
    mae = np.mean(np.abs(preds - y))
    assert mae < 0.1 * y.std()
    # spot prediction from the fitted surface
    assert abs(predict(model, np.array([0.3])) - 0.6) < 0.15


def exhaustive_best_split(x0, y, msl=1):
    """Brute-force SSE minimizer over midpoints of consecutive distinct values."""
    order = np.argsort(x0)
    xs, ys = x0[order], y[order]
    best = (math.inf, None)
    for p in range(len(xs) - 1):
        if xs[p + 1] <= xs[p] or p + 1 < msl or len(xs) - p - 1 < msl:
            continue
        left, right = ys[: p + 1], ys[p + 1 :]
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        thr = 0.5 * (xs[p] + xs[p + 1])
        if sse < best[0] - 1e-12:
            best = (sse, thr)
    return best[1]


def test_step_function_recovers_threshold(rng):
    x = rng.uniform(size=(300, 1))
    y = (x[:, 0] > 0.5).astype(float)
    spec = RegressorSpec(n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1, subsample=1.0, seed=0)
    model = fit(make_examples(x, y), spec)
    tree = model.trees[0]
    assert tree.feature[0] == 0
    oracle_thr = exhaustive_best_split(x[:, 0], y - y.mean())
    assert tree.threshold[0] == pytest.approx(oracle_thr, abs=1e-12)
    xs = np.sort(x[:, 0])
    grid_resolution = np.diff(xs).max()
    assert abs(tree.threshold[0] - 0.5) <= grid_resolution


def test_predict_is_deterministic_and_checks_layout(rng):
    x = rng.normal(size=(60, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 0.0])
    model = fit(make_examples(x, y), RegressorSpec(n_trees=30, seed=3))
    fv = FeatureVector("t", 1, 0, x[0])
    assert predict(model, fv) == predict(model, fv)
    with pytest.raises(ValueError, match="does not match"):
        predict(model, np.zeros(5))


def test_fit_rejects_degenerate_input(rng):
    with pytest.raises(ValueError, match="at least 2"):
        fit(make_examples(np.ones((1, 2)), [1.0]), RegressorSpec())
    with pytest.raises(ValueError, match="non-finite"):
        fit_arrays(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]), RegressorSpec())


def test_training_loss_monotone_without_subsampling(rng):
    x = rng.normal(size=(200, 5))
    y = x[:, 0] - 3 * x[:, 1] + rng.normal(scale=0.2, size=200)
    spec = RegressorSpec(n_trees=80, max_depth=3, learning_rate=0.3, subsample=1.0, seed=2)
    model = fit(make_examples(x, y), spec)
    losses = np.array(model.train_loss)
    assert np.all(np.diff(losses) <= 1e-12)


def test_model_file_bit_identical(tmp_path, rng):
    x = rng.normal(size=(80, 6))
    y = x[:, 0] * 2 + 1
    examples = make_examples(x, y)
    spec = RegressorSpec(n_trees=25, seed=11)
    p1 = save_model(fit(examples, spec, feature_layout="test-v1"), tmp_path / "a.json")
    p2 = save_model(fit(examples, spec, feature_layout="test-v1"), tmp_path / "b.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_model_round_trip(tmp_path, rng):
    x = rng.normal(size=(100, 3))
    y = np.abs(x).sum(axis=1)
    model = fit(make_examples(x, y), RegressorSpec(n_trees=15, seed=7), feature_layout="rt-v1")
    loaded = load_model(save_model(model, tmp_path / "m.json"))
    assert isinstance(loaded, TrainedModel)
    assert loaded.feature_layout_version == "rt-v1"
    assert np.array_equal(predict_matrix(loaded, x), predict_matrix(model, x))


def test_ensemble_partition_law(rng):
    x = rng.normal(size=(100, 2))
    y = x[:, 0]
    examples = make_examples(x, y)
    spec = RegressorSpec(n_trees=5, min_samples_leaf=1, seed=4)
    ens = fit_ensemble(examples, spec, n_members=10, seed=21)
    sizes = np.bincount(ens.subset_assignment, minlength=10)
    assert sizes.sum() == 100
    assert sizes.max() - sizes.min() <= 1
    assert len(ens.members) == 10
    # same seed reproduces the same assignment
    again = fit_ensemble(examples, spec, n_members=10, seed=21)
    assert np.array_equal(ens.subset_assignment, again.subset_assignment)


def test_ensemble_too_few_examples(rng):
    x = rng.normal(size=(9, 2))
    with pytest.raises(ValueError, match="populate"):
        fit_ensemble(make_examples(x, x[:, 0]), RegressorSpec(min_samples_leaf=1), n_members=10)


def test_ensemble_zero_disagreement():
    members = [constant_model(20.0, n_features=2) for _ in range(10)]
    ens = Ensemble(members, np.zeros(1, dtype=np.int32), RegressorSpec(), "", 2)
    mean, half = ensemble_predict(ens, np.zeros(2))
    assert mean == 20.0
    assert half == 0.0


def test_ensemble_hand_computed_t_interval():
    values = [18, 19, 20, 21, 22, 18, 19, 20, 21, 22]
    members = [constant_model(v, n_features=1) for v in values]
    ens = Ensemble(members, np.zeros(1, dtype=np.int32), RegressorSpec(), "", 1)
    mean, half = ensemble_predict(ens, np.zeros(1))
    assert mean == pytest.approx(20.0)
    s = math.sqrt(20.0 / 9.0)  # sum of squared deviations = 20, ddof = 1
    assert half == pytest.approx(T_CRIT_975_DF9 * s / math.sqrt(10), abs=1e-12)
    assert half == pytest.approx(1.07, abs=0.01)


def test_ensemble_mean_bounded_by_members(rng):
    x = rng.normal(size=(120, 3))
    y = x[:, 0] + rng.normal(scale=0.1, size=120)
    ens = fit_ensemble(make_examples(x, y), RegressorSpec(n_trees=10, min_samples_leaf=2, seed=6), seed=6)
    for row in x[:10]:
        preds = [predict(m, row) for m in ens.members]
        mean, _ = ensemble_predict(ens, row)
        assert min(preds) <= mean <= max(preds)


def test_ensemble_file_round_trip(tmp_path, rng):
    x = rng.normal(size=(60, 2))
    y = x[:, 1]
    ens = fit_ensemble(make_examples(x, y), RegressorSpec(n_trees=5, min_samples_leaf=1, seed=9), seed=9)
    loaded = load_model(save_model(ens, tmp_path / "ens.json"))
    assert isinstance(loaded, Ensemble)
    for row in x[:5]:
        assert ensemble_predict(loaded, row) == ensemble_predict(ens, row)


def test_spec_validation():
    with pytest.raises(ValueError):
        RegressorSpec(n_trees=0)
    with pytest.raises(ValueError):
        RegressorSpec(learning_rate=0.0)
    with pytest.raises(ValueError):
        RegressorSpec(subsample=1.5)
    with pytest.raises(ValueError):
        RegressorSpec(max_depth=0)


# ---------------------------------------------------------------- oracle
#
# The split search before column presorting: every node argsorts its own
# n x F block (stably, so equal values keep row order) and scans the
# cumulative sums.  The presorted search must pick the same split and grow
# the same trees.


def reference_best_split(x, r, msl):
    n = len(r)
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    rs = r[order]
    csum = np.cumsum(rs, axis=0)
    total = csum[-1, :]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    sum_left = csum[:-1, :]
    sum_right = total[None, :] - sum_left
    score = sum_left**2 / n_left + sum_right**2 / (n - n_left)
    valid = (xs[1:] > xs[:-1]) & (n_left >= msl) & (n_left <= n - msl)
    score[~valid] = -np.inf
    flat = score.T.ravel()
    best = int(np.argmax(flat))
    best_score = flat[best]
    if not np.isfinite(best_score):
        return None
    f, pos = divmod(best, n - 1)
    if not best_score > total[f] ** 2 / n:
        return None
    return f, 0.5 * (xs[pos, f] + xs[pos + 1, f])


def reference_grow(x, r, spec, nodes, depth=0):
    node = len(nodes)
    nodes.append(None)
    split = None
    if depth < spec.max_depth and len(r) >= max(2, 2 * spec.min_samples_leaf):
        split = reference_best_split(x, r, spec.min_samples_leaf)
    if split is None:
        nodes[node] = (-1, 0.0, -1, -1, float(r.mean()))
        return node
    f, thr = split
    mask = x[:, f] <= thr
    left = reference_grow(x[mask], r[mask], spec, nodes, depth + 1)
    right = reference_grow(x[~mask], r[~mask], spec, nodes, depth + 1)
    nodes[node] = (f, thr, left, right, 0.0)
    return node


def reference_trees(x, y, spec):
    n = len(y)
    pred = np.full(n, float(y.mean()))
    rng = np.random.default_rng(spec.seed)
    trees = []
    for _ in range(spec.n_trees):
        residual = y - pred
        rows = slice(None)
        if spec.subsample < 1.0:
            m = max(1, int(round(spec.subsample * n)))
            rows = np.sort(rng.permutation(n)[:m])
        nodes = []
        reference_grow(x[rows], residual[rows], spec, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        tree = Tree(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            value=np.asarray(value, dtype=np.float64),
        )
        pred = pred + spec.learning_rate * tree.predict(x)
        trees.append(tree)
    return trees


TIED = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
SPREAD = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 5))
    x = draw(arrays(np.float64, (n, n_features), elements=draw(st.sampled_from([TIED, SPREAD]))))
    for f in draw(st.sets(st.integers(0, n_features - 1))):
        x[:, f] = x[0, f]
    r = draw(arrays(np.float64, n, elements=draw(st.sampled_from([TIED, SPREAD]))))
    # min_samples_leaf from 1 to just past the n // 2 limit
    msl = draw(st.integers(1, n // 2 + 1))
    keep = draw(arrays(bool, n))
    rows = np.flatnonzero(keep) if keep.sum() >= 2 and not keep.all() else None
    return x, r, msl, rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(split_problems())
def test_presorted_split_matches_reference(problem):
    x, r, msl, rows = problem
    search = _SplitSearch(x, RegressorSpec(max_depth=1, min_samples_leaf=msl))
    search.residual[:] = r
    node_rows, block = search.root(rows)
    picked = None if block is None else search.best_split(block, len(node_rows))
    sub = slice(None) if rows is None else rows
    assert picked == reference_best_split(x[sub], r[sub], msl)


@pytest.mark.parametrize("subsample", [0.7, 1.0])
@pytest.mark.parametrize("min_samples_leaf", [1, 4])
def test_fit_trees_match_reference_grow(subsample, min_samples_leaf):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(90, 7))
    x[:, 1] = np.round(x[:, 1])  # heavy ties
    x[:, 4] = 3.0  # constant column
    y = x[:, 0] - 2 * x[:, 1] + rng.normal(scale=0.3, size=90)
    spec = RegressorSpec(
        n_trees=12, max_depth=3, learning_rate=0.3, min_samples_leaf=min_samples_leaf,
        subsample=subsample, seed=8,
    )
    model = fit_arrays(x, y, spec)
    expected = reference_trees(x, y, spec)
    assert len(model.trees) == len(expected)
    for got, want in zip(model.trees, expected):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
