"""Gradient-boosted regression trees and the 10-member subset ensemble.

The regressor is self-contained: squared-error boosting over depth-limited
CART trees with exact greedy split search (sorted unique values, midpoint
thresholds, ties broken toward the lowest feature index).  Each fit sorts
every feature column that is not constant once, stably, so rows with equal
values are ordered by row index, and drops each column that sorts like an
earlier one without splitting any of its ties.  A node is only its rows in
each column's order: its children gather theirs in that order and never
sort again, and the values are read from the examples where a tie or a
threshold needs them.  A threshold always lies below the next value, so
``x <= threshold`` sends exactly the rows before it left.  Leaf values
reach the training predictions as the leaves are made, and a model
predicts by walking all of its trees at once.  Everything is deterministic
given the RegressorSpec seed, and a trained model serializes to a single
self-describing JSON file that reloads bit-identically.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from sproutcast.config import PipelineConfig, check_bounds
from sproutcast.features import ExampleSet, FeatureVector
from sproutcast.ingest import NUMBER, check_fields, read_json, write_json

# two-sided 95% Student-t critical value, 9 degrees of freedom
T_CRIT_975_DF9 = 2.262

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RegressorSpec:
    """Hyperparameters of one boosted-tree regressor."""

    n_trees: int = PipelineConfig.n_trees
    max_depth: int = PipelineConfig.max_depth
    learning_rate: float = PipelineConfig.learning_rate
    min_samples_leaf: int = PipelineConfig.min_samples_leaf
    subsample: float = PipelineConfig.subsample
    seed: int = PipelineConfig.seed

    def __post_init__(self) -> None:
        check_bounds(self)


def _array(dtype):
    return field(metadata={"dtype": dtype})


@dataclass
class Tree:
    """One regression tree as flat arrays; feature == -1 marks a leaf."""

    feature: np.ndarray = _array(np.int32)
    threshold: np.ndarray = _array(np.float64)
    left: np.ndarray = _array(np.int32)
    right: np.ndarray = _array(np.int32)
    value: np.ndarray = _array(np.float64)


# each tree array's name and dtype, in Tree's field order
_TREE_ARRAYS = {f.name: f.metadata["dtype"] for f in fields(Tree)}
# a tree's JSON form: each array as a list
_TREE_FIELDS = dict.fromkeys(_TREE_ARRAYS, list)


@dataclass
class TrainedModel:
    spec: RegressorSpec
    trees: list[Tree]
    base_prediction: float
    feature_layout_version: str
    n_features: int


@dataclass
class Ensemble:
    """Exactly n_members models trained on a disjoint partition of the data."""

    members: list[TrainedModel]
    subset_assignment: np.ndarray
    spec: RegressorSpec
    feature_layout_version: str
    n_features: int


# a node's rows in each searched column's sorted order, as one flat (F, n_node) array
_Block = np.ndarray
# a child's ascending rows, its block (None when it will not search) and its held-out rows
_Child = tuple[np.ndarray, _Block | None, np.ndarray]


def _undominated(presort: np.ndarray, ties: np.ndarray) -> list[int]:
    """The columns that no earlier column dominates, ascending.

    Column j is dominated by an earlier column i when both sort to the same
    stable order and j ties wherever i does.  At every node j's rows then come
    in i's order, so j has i's cumulative sums and at least i's blocked
    candidates: it can at best tie i, and the argmax already picks i.
    """
    keep: list[int] = []
    kept_by_order: dict[bytes, list[int]] = {}
    for j, order in enumerate(presort):
        kept = kept_by_order.setdefault(order.tobytes(), [])
        # ties[j] >= ties[i]: every tie of i is a tie of j
        if not any((ties[j] >= ties[i]).all() for i in kept):
            kept.append(j)
            keep.append(j)
    return keep


class _SplitSearch:
    """Exact greedy split search over row orders presorted once per fit.

    Columns that are constant over the fit's rows are left out: every
    candidate in one is blocked, so it could never win.  Every other column
    is argsorted once, stably, so a node's rows appear in each column
    ordered by (value, row index); columns dominated by an earlier one (see
    ``_undominated``) are left out too.  A node keeps only that order, as one
    flat (F, n_node) block of rows; its children gather theirs from the
    parent's block at the positions of their rows, which keeps every column
    sorted without another sort.  Values are read from ``x`` only where they
    are needed: to block the candidates between equal values, which only the
    few columns holding a tie have, and only when one of those scores best;
    and to place the chosen threshold.  Each node allocates the arrays it
    reads and writes, and a node's block lives while its subtrees grow, so a
    fit holds the presort and at most one set of blocks per level the tree
    reaches; nothing is sized by ``max_depth``.  Each leaf writes its value
    into ``fitted`` at its in-sample rows and at the held-out rows routed
    down to it, so a grown tree's training predictions need no walk.
    """

    def __init__(self, x: np.ndarray, spec: RegressorSpec):
        n = len(x)
        self.spec = spec
        self.x = x
        min_rows = max(2, 2 * spec.min_samples_leaf)
        # a fit of fewer rows than a split needs searches no column
        varying = np.flatnonzero(x.max(axis=0) > x.min(axis=0)) if n >= min_rows else np.arange(0)
        live = x.T[varying]
        presort = np.argsort(live, axis=1, kind="stable")
        # ties[j, p]: rows p and p + 1 of column j's order share a value; in
        # sorted order <= means ==, and -0.0 ties 0.0
        sorted_values = np.take_along_axis(live, presort, axis=1)
        ties = sorted_values[:, 1:] <= sorted_values[:, :-1]
        keep = _undominated(presort, ties)
        # the original index of each searched column, ascending
        self.columns = varying[keep]
        self.presort = presort[keep]
        n_features = self.n_features = len(self.columns)
        # which searched columns hold a tie, and those columns' values by row
        self.tied_column = ties[keep].any(axis=1)
        self.tied = np.flatnonzero(self.tied_column)
        self.tied_x = x.T[self.columns[self.tied]]
        # with no column to search, every node is a leaf
        self.min_rows = min_rows if n_features else n + 1
        self.residual = np.empty(n)
        self.fitted = np.empty(n)
        self.in_left = np.empty(n, dtype=bool)
        self.n_left = np.arange(1, n, dtype=np.float64)

    def searches(self, depth: int, n_rows: int) -> bool:
        return depth < self.spec.max_depth and n_rows >= self.min_rows

    def root(self, rows: np.ndarray) -> _Block | None:
        """Block of a tree grown on ``rows`` (ascending), or None when the root will not search."""
        if not self.searches(0, len(rows)):
            return None
        in_sample = self.in_left
        in_sample[:] = False
        in_sample[rows] = True
        order = self.presort.ravel()
        return order.compress(in_sample.take(order))

    def _value(self, order: np.ndarray, f: int, pos: int) -> float:
        """The value of searched column f at position pos of the node's order, as a Python float."""
        return float(self.x[order[f, pos], self.columns[f]])

    def leaf_value(self, rows: np.ndarray) -> float:
        r = self.residual.take(rows)
        # the sum and the division of r.mean(), without its call overhead
        return float(np.add.reduce(r) / len(r))

    def best_split(self, block: _Block, n: int) -> tuple[int, float, int] | None:
        """Maximize sum_left^2/n_left + sum_right^2/n_right over the node's rows.

        That is the SSE reduction up to the parent's constant.  Candidates
        sit between consecutive distinct values with both children >=
        min_samples_leaf; ties go to the lowest feature index, then the
        smallest threshold.  Returns the feature as its column of x, the
        threshold, and the number of the node's rows at or below it.
        """
        nf = self.n_features
        msl = self.spec.min_samples_leaf
        order = block.reshape(nf, n)
        # candidate positions: the left child takes pos + 1 rows, msl to n - msl
        lo, hi = msl - 1, n - msl
        k = hi - lo
        # each (F, n) or (F, k) array is fresh, and is then worked on in place
        csum = self.residual.take(order)
        np.cumsum(csum, axis=1, out=csum)
        sum_left = csum[:, lo:hi]
        n_left = self.n_left[lo:hi]
        # n - n_left, as the same counts run the other way
        n_right = n_left[::-1]
        right = np.subtract(csum[:, -1:], sum_left)
        np.square(right, out=right)
        np.divide(right, n_right, out=right)
        score = np.square(sum_left)
        np.divide(score, n_left, out=score)
        np.add(score, right, out=score)
        # the (F, k) block is feature-major, so argmax tie-breaks toward the
        # lowest feature index, then the smallest threshold
        f, pos = divmod(int(score.argmax()), k)
        # blocked candidates, between equal values, sit only in tied columns;
        # a first maximum that is not blocked stays the first once they are
        # set to -inf, so they are masked only when it is blocked
        if self.tied_column[f] and self._value(order, f, lo + pos + 1) <= self._value(order, f, lo + pos):
            tied = self.tied
            xs = np.take_along_axis(self.tied_x, order[tied], axis=1)
            blocked = xs[:, lo + 1 : hi + 1] <= xs[:, lo:hi]
            score[tied] = np.where(blocked, -np.inf, score[tied])
            f, pos = divmod(int(score.argmax()), k)
        best_score = score[f, pos]
        if not np.isfinite(best_score):
            return None
        if not best_score > csum[f, -1] ** 2 / n:
            return None
        pos += lo
        below, above = self._value(order, f, pos), self._value(order, f, pos + 1)
        # the midpoint can round up to the value above between adjacent
        # doubles, or overflow (a Python float does so without a warning)
        thr = 0.5 * (below + above)
        return int(self.columns[f]), thr if thr < above else below, pos + 1

    def partition(
        self, depth: int, rows: np.ndarray, block: _Block, held: np.ndarray, f: int, thr: float, n_left: int
    ) -> tuple[_Child, _Child]:
        """Split a node's rows and its held-out rows at x[:, f] <= thr, which
        holds for the first ``n_left`` rows of f's order: the left child, then the right."""
        n = len(rows)
        j = int(self.columns.searchsorted(f))
        column = block[j * n : (j + 1) * n]
        self.in_left[column[:n_left]] = True
        self.in_left[column[n_left:]] = False
        row_mask = self.in_left.take(rows)
        blocks = [None, None]
        searching = (self.searches(depth + 1, n_left), self.searches(depth + 1, n - n_left))
        if any(searching):
            mask = self.in_left.take(block)
            if searching[0]:
                blocks[0] = block.compress(mask)
            if searching[1]:
                blocks[1] = block.compress(~mask)
        held_left = self.x[held, f] <= thr
        return (
            (rows.compress(row_mask), blocks[0], held[held_left]),
            (rows.compress(~row_mask), blocks[1], held[~held_left]),
        )

    def grow(
        self, nodes: list[tuple], rows: np.ndarray, block: _Block | None, held: np.ndarray, depth: int = 0
    ) -> int:
        """Append the subtree's (feature, threshold, left, right, value) nodes in preorder; return its root's index."""
        node = len(nodes)
        nodes.append(())
        split = None if block is None else self.best_split(block, len(rows))
        if split is None:
            value = self.leaf_value(rows)
            self.fitted[rows] = value
            self.fitted[held] = value
            nodes[node] = (-1, 0.0, -1, -1, value)
            return node
        f, thr, _ = split
        left, right = self.partition(depth, rows, block, held, *split)
        nodes[node] = (f, thr, self.grow(nodes, *left, depth + 1), self.grow(nodes, *right, depth + 1), 0.0)
        return node


def fit_arrays(
    x: np.ndarray,
    y: np.ndarray,
    spec: RegressorSpec,
    feature_layout: str = "",
) -> TrainedModel:
    """Boost depth-limited trees on residuals; deterministic given spec.seed."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 2:
        raise ValueError("need at least 2 examples to fit")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("examples contain non-finite values")
    n = len(y)
    base = float(y.mean())
    pred = np.full(n, base)
    rng = np.random.default_rng(spec.seed)
    search = _SplitSearch(x, spec)
    trees: list[Tree] = []
    for _ in range(spec.n_trees):
        np.subtract(y, pred, out=search.residual)
        m = max(1, int(round(spec.subsample * n)))
        perm = rng.permutation(n)
        rows, held = np.sort(perm[:m]), perm[m:]
        nodes: list[tuple] = []
        search.grow(nodes, rows, search.root(rows), held)
        trees.append(Tree(*(np.asarray(col, dtype=dtype) for col, dtype in zip(zip(*nodes), _TREE_ARRAYS.values()))))
        pred += spec.learning_rate * search.fitted
    return TrainedModel(
        spec=spec,
        trees=trees,
        base_prediction=base,
        feature_layout_version=feature_layout,
        n_features=x.shape[1],
    )


def fit(examples: ExampleSet, spec: RegressorSpec, feature_layout: str = "") -> TrainedModel:
    return fit_arrays(examples.x, examples.y, spec, feature_layout)


def predict_matrix(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """The boosted sum for each row of ``x``.

    The trees are stacked into one set of node arrays, each tree's child
    indices shifted by its offset, and every (tree, row) pair walks down
    together; the leaf values are then added tree by tree, in order.
    """
    if x.shape[1] != model.n_features:
        raise ValueError(f"feature width {x.shape[1]} does not match model ({model.n_features})")
    out = np.full(len(x), model.base_prediction)
    if not model.trees:
        return out
    sizes = [len(t.feature) for t in model.trees]
    starts = np.cumsum([0, *sizes[:-1]])
    feature, threshold, left, right, value = (
        np.concatenate([getattr(t, name) for t in model.trees]) for name in _TREE_ARRAYS
    )
    # a leaf tests column 0 and leads back to itself, so its pairs can keep walking
    leaf = feature < 0
    own = np.arange(len(leaf))
    shift = np.repeat(starts, sizes)
    left, right = np.where(leaf, own, left + shift), np.where(leaf, own, right + shift)
    feature = np.where(leaf, 0, feature)
    n, width = x.shape
    flat = np.ascontiguousarray(x).ravel()
    # pair p is tree p // n at row p % n; at[p] is where that row starts in flat
    node = np.repeat(starts, n)
    at = np.tile(np.arange(0, n * width, width), len(sizes))
    while not leaf[node].all():
        go_left = flat.take(at + feature[node]) <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    with np.errstate(over="ignore"):  # a sum past the float range is inf, which the caller can report
        for row in value[node.reshape(len(sizes), n)]:
            out += model.spec.learning_rate * row
    return out


def _one_row(features: FeatureVector | np.ndarray, n_features: int) -> np.ndarray:
    values = features.values if isinstance(features, FeatureVector) else np.asarray(features)
    if values.shape != (n_features,):
        raise ValueError(f"feature length {values.shape} does not match model layout ({n_features})")
    return values[None, :]


def predict(model: TrainedModel, features: FeatureVector | np.ndarray) -> float:
    """Evaluate the boosted sum for one feature vector."""
    return float(predict_matrix(model, _one_row(features, model.n_features))[0])


def fit_ensemble(
    examples: ExampleSet,
    spec: RegressorSpec,
    n_members: int = PipelineConfig.n_members,
    seed: int | None = None,
    feature_layout: str = "",
) -> Ensemble:
    """``fit_ensemble_arrays``, with ``seed`` in place of spec.seed if given."""
    spec = spec if seed is None else replace(spec, seed=seed)
    return fit_ensemble_arrays(examples.x, examples.y, spec, n_members, feature_layout)


def fit_ensemble_arrays(
    x: np.ndarray,
    y: np.ndarray,
    spec: RegressorSpec,
    n_members: int = PipelineConfig.n_members,
    feature_layout: str = "",
) -> Ensemble:
    """Partition the data into n_members equal subsets and fit one model each.

    The shuffled partition is drawn from spec.seed; subset sizes differ by at
    most one and member u trains with spec.seed + u so members stay
    decorrelated but the whole ensemble is reproducible.
    """
    n = len(y)
    needed = n_members * max(2, spec.min_samples_leaf)
    if n < needed:
        raise ValueError(
            f"{n} examples cannot populate {n_members} ensemble members "
            f"(need at least {needed})"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    assignment = np.empty(n, dtype=np.int32)
    members = []
    for u, subset in enumerate(np.array_split(perm, n_members)):
        assignment[subset] = u
        members.append(
            fit_arrays(x[subset], y[subset], replace(spec, seed=spec.seed + u), feature_layout)
        )
    return Ensemble(
        members=members,
        subset_assignment=assignment,
        spec=spec,
        feature_layout_version=feature_layout,
        n_features=x.shape[1],
    )


def _t_crit_975(df: int) -> float:
    if df == 9:
        return T_CRIT_975_DF9
    from scipy.stats import t

    return float(t.ppf(0.975, df))


def ensemble_predict_matrix(ens: Ensemble, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (mean, 95% CI half-width) over the member predictions."""
    preds = np.stack([predict_matrix(m, x) for m in ens.members])
    n_members = len(ens.members)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf member gives an inf mean, which the caller can report
        mean = preds.mean(axis=0)
        s = preds.std(axis=0, ddof=1)
    half = _t_crit_975(n_members - 1) * s / math.sqrt(n_members)
    return mean, half


def ensemble_predict(ens: Ensemble, features: FeatureVector | np.ndarray) -> tuple[float, float]:
    mean, half = ensemble_predict_matrix(ens, _one_row(features, ens.n_features))
    return float(mean[0]), float(half[0])


def fit_config(x: np.ndarray, y: np.ndarray, cfg: PipelineConfig, feature_layout: str) -> TrainedModel | Ensemble:
    """Fit the model of ``cfg.strategy`` with ``cfg``'s regressor values."""
    spec = RegressorSpec(**{f.name: getattr(cfg, f.name) for f in fields(RegressorSpec)})
    if cfg.strategy == "ensemble":
        return fit_ensemble_arrays(x, y, spec, cfg.n_members, feature_layout)
    return fit_arrays(x, y, spec, feature_layout)


# the keys every model file, and every ensemble member in one, starts with
_HEADER_FIELDS = {"kind": str, "format_version": int, "feature_layout": str, "n_features": int, "spec": dict}
_KIND_FIELDS = {
    "single": {"base_prediction": NUMBER, "trees": list},
    "ensemble": {"n_members": int, "members": list},
}


def _to_dict(model: TrainedModel | Ensemble) -> dict:
    """The JSON form of a model: its header and body values, in table order."""
    kind = "ensemble" if isinstance(model, Ensemble) else "single"
    header = (kind, MODEL_FORMAT_VERSION, model.feature_layout_version, model.n_features, asdict(model.spec))
    if kind == "ensemble":
        body = (len(model.members), [_to_dict(m) for m in model.members])
    else:
        trees = [{name: getattr(t, name).tolist() for name in _TREE_ARRAYS} for t in model.trees]
        body = (model.base_prediction, trees)
    return dict(zip([*_HEADER_FIELDS, *_KIND_FIELDS[kind]], [*header, *body]))


def _first_misread(items: list, dtype) -> int | None:
    """The index of the first item that ``np.asarray(items, dtype)`` would misread or fail on, or None.

    np.asarray would read 1.5 as the integer 1, and null, true or "0.5" as a
    float; a JSON true is never a number, and an integer must lie in the
    dtype's range (Python compares an integer with a float exactly).
    """
    kinds, info = ((int,), np.iinfo(dtype)) if dtype is np.int32 else (NUMBER, np.finfo(dtype))
    lo, hi = float(info.min), float(info.max)
    present = set(map(type, items))
    if present <= set(kinds):
        if int not in present:
            return None
        ints = items if present == {int} else [v for v in items if type(v) is int]
        if lo <= min(ints) and max(ints) <= hi:
            return None
    return next(k for k, v in enumerate(items) if type(v) not in kinds or type(v) is int and not lo <= v <= hi)


def _trees_from_dicts(trees: list, n_features: int, where: str) -> list[Tree]:
    """Rebuild a model's trees, rejecting arrays that predict_matrix could not walk.

    Each field is checked once, over all the trees' items, and a fault names
    the first tree that holds it.  grow writes nodes in preorder, so every
    child index is greater than its parent's; checking that keeps a corrupt
    file from looping forever.
    """
    try:
        columns = {name: [tree[name] for tree in trees] for name in _TREE_ARRAYS}
    except (KeyError, TypeError):  # a tree that is not an object, or lacks a field
        columns = None
    if columns is None or any(set(map(type, column)) - {list} for column in columns.values()):
        for i, tree in enumerate(trees):  # name the first tree at fault
            check_fields(tree, _TREE_FIELDS, f"{where}: tree {i}")
    if not trees:
        return []
    sizes = np.array([list(map(len, column)) for column in columns.values()]).T
    unequal = (sizes[:, 0] == 0) | (sizes != sizes[:, :1]).any(axis=1)
    if unequal.any():
        raise ValueError(f"{where}: tree {unequal.argmax()}: tree arrays must be flat lists of one equal, non-zero length")
    n = sizes[:, 0]
    ends = np.cumsum(n)
    starts = ends - n
    arrays = {}
    for name, dtype in _TREE_ARRAYS.items():
        items = list(itertools.chain.from_iterable(columns[name]))
        bad = _first_misread(items, dtype)
        if bad is not None:
            i = ends.searchsorted(bad, side="right")
            raise ValueError(f"{where}: tree {i}: {name} holds {reprlib.repr(items[bad])}, which is not {np.dtype(dtype)}")
        arrays[name] = np.asarray(items, dtype=dtype)
    feature = arrays["feature"]
    outside = (feature < -1) | (feature >= n_features)
    if outside.any():
        i = ends.searchsorted(outside.argmax(), side="right")
        raise ValueError(f"{where}: tree {i}: feature index outside [-1, {n_features})")
    internal = np.flatnonzero(feature >= 0)
    owner = ends.searchsorted(internal, side="right")  # each internal node's tree
    local, size = internal - starts[owner], n[owner]
    misplaced = np.zeros(len(internal), dtype=bool)
    for child in (arrays["left"][internal], arrays["right"][internal]):
        misplaced |= (child <= local) | (child >= size)
    if misplaced.any():
        raise ValueError(f"{where}: tree {owner[misplaced.argmax()]}: child index out of range or not after its parent")
    return [Tree(*(arrays[name][a:b] for name in _TREE_ARRAYS)) for a, b in zip(starts.tolist(), ends.tolist())]


def _from_dict(d, where: str, ensemble: tuple[str, int] | None = None) -> TrainedModel | Ensemble:
    """Rebuild a model from its JSON form, checking every field; a member must be single, with header ``ensemble``."""
    check_fields(d, _HEADER_FIELDS, where)
    kind, version, layout, n_features, spec = (d[key] for key in _HEADER_FIELDS)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{where}: unsupported model format version {version!r}")
    if kind not in (_KIND_FIELDS if ensemble is None else ("single",)):
        raise ValueError(f"{where}: unexpected model kind {kind!r}")
    if ensemble is not None and (layout, n_features) != ensemble:
        raise ValueError(
            f"{where}: (feature_layout, n_features) {(layout, n_features)} differs from the ensemble's {ensemble}"
        )
    try:
        spec = RegressorSpec(**spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: spec: {exc}") from exc
    check_fields(d, _KIND_FIELDS[kind], where)
    if kind == "ensemble":
        # the t-interval needs two members
        if not 2 <= len(d["members"]) == d["n_members"]:
            raise ValueError(f"{where}: members must hold n_members models, at least 2")
        members = [_from_dict(m, f"{where}: member {u}", (layout, n_features)) for u, m in enumerate(d["members"])]
        return Ensemble(
            members=members,
            subset_assignment=np.array([], dtype=np.int32),
            spec=spec,
            feature_layout_version=layout,
            n_features=n_features,
        )
    return TrainedModel(
        spec=spec,
        trees=_trees_from_dicts(d["trees"], n_features, where),
        base_prediction=float(d["base_prediction"]),
        feature_layout_version=layout,
        n_features=n_features,
    )


def save_model(model: TrainedModel | Ensemble, path: str | Path) -> Path:
    """Serialize a model or ensemble to one deterministic JSON file."""
    return write_json(path, _to_dict(model), indent=None)


def load_model(path: str | Path) -> TrainedModel | Ensemble:
    """Read a model file written by ``save_model``, checking every field.

    A loaded ensemble's ``subset_assignment`` is empty: the file does not
    keep the training partition, which prediction never reads.
    """
    return _from_dict(read_json(path), str(path))


__all__ = [
    "T_CRIT_975_DF9",
    "MODEL_FORMAT_VERSION",
    "RegressorSpec",
    "Tree",
    "TrainedModel",
    "Ensemble",
    "fit",
    "fit_arrays",
    "predict",
    "predict_matrix",
    "fit_ensemble",
    "fit_ensemble_arrays",
    "ensemble_predict",
    "ensemble_predict_matrix",
    "fit_config",
    "save_model",
    "load_model",
]
