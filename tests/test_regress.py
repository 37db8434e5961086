import json
import math
import tracemalloc

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
    _TREE_ARRAYS,
    _from_dict,
    _t_crit_975,
    _to_dict,
    ensemble_predict,
    ensemble_predict_matrix,
    fit,
    fit_arrays,
    fit_ensemble,
    fit_ensemble_arrays,
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
    with pytest.raises(ValueError, match="feature width 5 does not match model"):
        predict_matrix(model, np.zeros((3, 5)))


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
    # the training loss after each stage, from the model's own trees
    pred = np.full(len(y), model.base_prediction)
    losses = []
    for tree in model.trees:
        pred = pred + spec.learning_rate * tree_predict(tree, x)
        losses.append(np.mean((y - pred) ** 2))
    assert len(losses) == 80 and losses[-1] < 0.1 * losses[0]
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


def test_ensemble_saves_the_seed_it_was_drawn_from(tmp_path, rng):
    x = rng.normal(size=(100, 2))
    examples = make_examples(x, x[:, 0])
    ens = fit_ensemble(examples, RegressorSpec(n_trees=5, min_samples_leaf=1, seed=4), n_members=10, seed=21)
    first = save_model(ens, tmp_path / "first.json")
    loaded = load_model(first)
    assert ens.spec.seed == loaded.spec.seed == 21
    # the saved spec alone refits the same model
    again = save_model(fit_ensemble(examples, loaded.spec, n_members=10), tmp_path / "again.json")
    assert again.read_bytes() == first.read_bytes()


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
    # any other member count takes its critical value from scipy
    from scipy.stats import t

    values = [15.0, 19.0, 20.0, 26.0]
    ens = Ensemble([constant_model(v) for v in values], np.zeros(1, dtype=np.int32), RegressorSpec(), "", 1)
    _, half = ensemble_predict(ens, np.zeros(1))
    assert half == t.ppf(0.975, 3) * np.std(values, ddof=1) / 2


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
    path = save_model(ens, tmp_path / "ens.json")
    loaded = load_model(path)
    assert isinstance(loaded, Ensemble)
    assert loaded.subset_assignment.size == 0  # the file does not keep the training partition
    for row in x[:5]:
        assert ensemble_predict(loaded, row) == ensemble_predict(ens, row)
    # a file whose members are fewer than two, or than it declares, is refused
    payload = json.loads(path.read_text())
    for members, n_members in ((payload["members"][:1], 1), (payload["members"][:4], 10)):
        path.write_text(json.dumps({**payload, "members": members, "n_members": n_members}))
        with pytest.raises(ValueError, match="n_members"):
            load_model(path)


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
# the same trees.  Training predictions come from walking each tree on its
# own, as prediction did before predict_matrix stacked the trees.


def tree_predict(tree, x):
    """One tree's leaf value for each row of ``x``, walked level by level."""
    node = np.zeros(len(x), dtype=np.int32)
    feat = tree.feature[node]
    while True:
        active = np.flatnonzero(feat >= 0)
        if active.size == 0:
            break
        cur = node[active]
        go_left = x[active, feat[active]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        feat = tree.feature[node]
    return tree.value[node]


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
        pred = pred + spec.learning_rate * tree_predict(tree, x)
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
    rows = np.flatnonzero(keep) if keep.sum() >= 2 else np.arange(n)
    return x, r, msl, rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(split_problems())
def test_presorted_split_matches_reference(problem):
    x, r, msl, rows = problem
    search = _SplitSearch(x, RegressorSpec(max_depth=1, min_samples_leaf=msl))
    search.residual[:] = r
    block = search.root(rows)
    picked = None if block is None else search.best_split(block, len(rows))
    assert picked == reference_best_split(x[rows], r[rows], msl)


def assert_trees_match_reference(x, y, subsample, min_samples_leaf):
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
    return model


def tied_problem():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(90, 7))
    x[:, 1] = np.round(x[:, 1])  # heavy ties
    x[:, 4] = 3.0  # constant column
    y = x[:, 0] - 2 * x[:, 1] + rng.normal(scale=0.3, size=90)
    return x, y


@pytest.mark.parametrize("subsample", [0.7, 1.0])
@pytest.mark.parametrize("min_samples_leaf", [1, 4])
def test_fit_trees_match_reference_grow(subsample, min_samples_leaf):
    assert_trees_match_reference(*tied_problem(), subsample, min_samples_leaf)


@pytest.mark.parametrize("subsample", [0.7, 1.0])
@pytest.mark.parametrize("min_samples_leaf", [1, 4])
def test_fit_trees_match_reference_grow_with_constant_columns(subsample, min_samples_leaf):
    x, y = tied_problem()
    x[:, 0] = -1.0  # a constant column before every searched one
    assert_trees_match_reference(x, y, subsample, min_samples_leaf)
    # nothing to search: every tree is one leaf
    model = assert_trees_match_reference(np.full_like(x, 0.5), y, subsample, min_samples_leaf)
    assert all(len(tree.feature) == 1 for tree in model.trees)


def test_held_out_rows_on_a_threshold_go_left():
    # values 0, 0.5 and 1: a node whose sample holds only 0 and 1 splits at 0.5,
    # which a held-out row can equal
    rng = np.random.default_rng(5)
    x = rng.choice([0.0, 0.5, 1.0], size=(60, 2))
    y = 4 * x[:, 0] - x[:, 1] + rng.normal(scale=0.1, size=60)
    assert_trees_match_reference(x, y, 0.5, 1)


# ---------------------------------------------------------------- the walk
#
# predict_matrix walks all of a model's trees at once; the oracle walks one
# tree at a time and adds lr * value tree by tree.


def oracle_predict(model, x):
    pred = np.full(len(x), model.base_prediction)
    for tree in model.trees:
        pred = pred + model.spec.learning_rate * tree_predict(tree, x)
    return pred


@st.composite
def random_trees(draw, n_features, values):
    """A tree in grow's preorder layout, up to 6 levels deep, possibly a single leaf."""
    nodes = []

    def grow(depth):
        node = len(nodes)
        nodes.append(())
        if depth == 6 or draw(st.booleans()):
            nodes[node] = (-1, 0.0, -1, -1, draw(SPREAD))
        else:
            f, thr = draw(st.integers(0, n_features - 1)), draw(values)
            nodes[node] = (f, thr, grow(depth + 1), grow(depth + 1), 0.0)
        return node

    grow(0)
    return Tree(*(np.asarray(col, dtype=dtype) for col, dtype in zip(zip(*nodes), _TREE_ARRAYS.values())))


@st.composite
def walk_problems(draw):
    n_features = draw(st.integers(1, 4))
    values = draw(st.sampled_from([TIED, SPREAD]))
    x = draw(arrays(np.float64, (draw(st.integers(1, 30)), n_features), elements=values))
    models = []
    for _ in range(draw(st.integers(2, 4))):
        trees = draw(st.lists(random_trees(n_features, values), max_size=5))
        # max_depth 1: a tree drawn deeper than its spec allows, as a loaded file may hold
        spec = RegressorSpec(n_trees=max(1, len(trees)), max_depth=1, learning_rate=draw(st.floats(0.01, 1.0)))
        models.append(TrainedModel(spec, trees, draw(SPREAD), "", n_features))
    return x, models


def assert_walk_matches_oracle(x, models):
    for model in models:
        assert predict_matrix(model, x).tobytes() == oracle_predict(model, x).tobytes()
    ens = Ensemble(models, np.zeros(0, dtype=np.int32), models[0].spec, "", x.shape[1])
    preds = np.stack([oracle_predict(m, x) for m in models])
    half = _t_crit_975(len(models) - 1) * preds.std(axis=0, ddof=1) / math.sqrt(len(models))
    mean, got_half = ensemble_predict_matrix(ens, x)
    assert mean.tobytes() == preds.mean(axis=0).tobytes()
    assert got_half.tobytes() == half.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walk_problems())
def test_forest_walk_matches_per_tree_oracle(problem):
    x, models = problem
    assert_walk_matches_oracle(x, models)
    # the same trees as a model file holds them
    loaded = [_from_dict(json.loads(json.dumps(_to_dict(m))), "model", ("single",)) for m in models]
    assert_walk_matches_oracle(x, loaded)


def test_forest_walk_of_models_without_trees(rng):
    assert_walk_matches_oracle(rng.normal(size=(7, 2)), [constant_model(v, n_features=2) for v in (1.0, 3.0)])


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_predict_walks_one_member_at_a_time(rng):
    # stacking all 10 x 60 trees into one walk would need ten times one member's walk slots
    x = rng.normal(size=(300, 4))
    y = x[:, 0] - x[:, 1] + rng.normal(scale=0.1, size=300)
    ens = fit_ensemble_arrays(x, y, RegressorSpec(n_trees=60, max_depth=3, min_samples_leaf=2, seed=3), n_members=10)
    rows = rng.normal(size=(4000, 4))
    member = _peak_bytes(lambda: predict_matrix(ens.members[0], rows))
    whole = _peak_bytes(lambda: ensemble_predict_matrix(ens, rows))
    block = len(ens.members) * len(rows) * 8
    assert whole <= 1.5 * (member + block)
