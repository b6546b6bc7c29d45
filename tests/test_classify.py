"""Scrambled-cell classification task: generator, empirical source, kernel
ridge pieces, and the end-to-end pipeline at a reduced sample size."""

import warnings

import numpy as np
import pytest

from qib import linalg, model
from qib.exceptions import InvariantError
from qib.experiments import classify
from qib.experiments.classify import (
    empirical_cq_state,
    gen_classifier_dataset,
    hs_gram,
    predict,
    train_classifier,
)
from qib.rng import derive_rng

from helpers import dual_ridge_scores, random_densities


def test_dataset_determinism_and_split():
    a = gen_classifier_dataset(3, n_samples=80)
    b = gen_classifier_dataset(3, n_samples=80)
    c = gen_classifier_dataset(4, n_samples=80)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x1_cont, b.x1_cont)
    assert not np.array_equal(a.x1_cont, c.x1_cont)
    assert len(a.y) == 80
    assert a.train_mask.sum() == 40
    assert np.all(a.train_mask[:40]) and not np.any(a.train_mask[40:])
    wider = gen_classifier_dataset(3, n_samples=80, train_fraction=0.75)
    assert wider.train_mask.sum() == 60


def test_dataset_guards():
    with pytest.raises(InvariantError, match="at least 10"):
        gen_classifier_dataset(0, n_samples=5)
    with pytest.raises(InvariantError, match="train_fraction"):
        gen_classifier_dataset(0, train_fraction=1.0)
    for fraction, split in ((0.96, "10 training and 0 test"), (0.04, "0 training and 10 test")):
        with pytest.raises(InvariantError, match=rf"^train_fraction {fraction} of n_samples 10 leaves {split} samples"):
            gen_classifier_dataset(0, n_samples=10, train_fraction=fraction)


def test_dataset_cells_floor_the_coordinates():
    ds = gen_classifier_dataset(1, n_samples=200)
    assert np.array_equal(ds.x1_cell, np.floor(ds.x1_cont).astype(np.int64))
    assert np.array_equal(ds.x2_cell, np.floor(ds.x2_cont).astype(np.int64))
    off1 = ds.x1_cont - ds.rec_x1
    off2 = ds.x2_cont - ds.rec_x2
    wide = (ds.rec_x1 == classify.SIZE_X1 - 1) | (ds.rec_x2 == classify.SIZE_X2 - 1)
    assert np.all(off1 >= 0) and np.all(off2 >= 0)
    assert np.all(off1[~wide] < 1.0) and np.all(off2[~wide] < 1.0)
    assert np.all(off1[wide] < classify.WIDE_NOISE)
    assert np.all(off2[wide] < classify.WIDE_NOISE)
    # the wide band must actually be exercised
    assert np.any(off1[wide] >= 1.0) or np.any(off2[wide] >= 1.0)


def test_dataset_relabeling_preserves_the_label_link():
    ds = gen_classifier_dataset(2, n_samples=500)
    recorded = ds.rec_x1 * classify.SIZE_X2 + ds.rec_x2
    structured = ds.permutation[recorded]
    assert np.array_equal(structured // classify.SIZE_X2, ds.y)
    # x2 = y is upweighted to 2/11 within each class
    x2 = structured % classify.SIZE_X2
    frac = np.mean(x2 == ds.y)
    assert abs(frac - 2.0 / 11.0) < 0.05


def test_empirical_state_hand_example():
    state, cells = empirical_cq_state(
        np.array([0, 0, 1]), np.array([0, 0, 2]), np.array([0, 1, 0])
    )
    state.validate()
    assert np.array_equal(cells, np.array([[0, 0], [1, 2]]))
    assert np.max(np.abs(state.px - np.array([2.0 / 3.0, 1.0 / 3.0]))) < 1e-15
    assert np.max(np.abs(state.rho_y_given_x[0] - np.diag([0.5, 0.5, 0.0]))) < 1e-15
    assert np.max(np.abs(state.rho_y_given_x[1] - np.diag([1.0, 0.0, 0.0]))) < 1e-15
    diags = np.diagonal(state.rho_y_given_x, axis1=1, axis2=2)
    assert np.array_equal(state.rho_y_given_x, linalg.diag_embed(diags))


def test_empirical_state_guards():
    with pytest.raises(InvariantError, match="at least one"):
        empirical_cq_state(np.array([]), np.array([]), np.array([]))
    with pytest.raises(InvariantError, match="equal length"):
        empirical_cq_state(np.array([0, 1]), np.array([0]), np.array([0]))
    with pytest.raises(InvariantError, match="labels"):
        empirical_cq_state(np.array([0]), np.array([0]), np.array([7]))


def test_hs_gram_hand_values():
    mats = np.stack(
        [np.diag([1.0, 0.0]), np.diag([0.5, 0.5]), np.diag([0.0, 1.0])]
    ).astype(complex)
    g = hs_gram(mats, mats)
    expected = np.array([[1.0, 0.5, 0.0], [0.5, 0.5, 0.5], [0.0, 0.5, 1.0]])
    assert g.shape == (3, 3)
    assert np.max(np.abs(g - expected)) < 1e-15


def test_train_classifier_separable_case():
    # two samples per class on orthogonal pure features
    labels = np.array([0, 0, 1, 1, 2, 2])
    feats = np.stack([np.diag(np.eye(3)[c]).astype(complex) for c in labels])
    weights, bias = train_classifier(feats, labels, 3, ridge=1e-6)
    pred = predict(hs_gram(feats, weights), bias)
    assert np.array_equal(pred, labels)


def _classifier_inputs(kind, n, m, dim_t, gen):
    """(train, queries) features of one classify arm's kind: density stacks,
    table rows or raw points."""
    if kind == "density":
        return random_densities(dim_t, n, gen), random_densities(dim_t, m, gen)
    if kind == "table":
        return gen.dirichlet(np.ones(dim_t), size=n), gen.dirichlet(np.ones(dim_t), size=m)
    return gen.random((n, 2)) * classify.EXTENTS, gen.random((m, 2)) * classify.EXTENTS


@pytest.mark.parametrize("kind", ["density", "table", "points"])
@pytest.mark.parametrize("n, dim_t, ridge", [(200, 2, 1e-3), (60, 3, 1e-3), (5, 4, 0.1), (40, 2, 1.0)])
@pytest.mark.parametrize("seed", range(3))
def test_feature_space_ridge_matches_the_dual_kernel_oracle(kind, n, dim_t, ridge, seed):
    gen = derive_rng(seed, "ridge", kind, n)
    train, queries = _classifier_inputs(kind, n, 50, dim_t, gen)
    labels = gen.integers(0, 3, n)
    weights, bias = train_classifier(train, labels, 3, ridge)
    assert weights.shape == (3,) + train.shape[1:] and weights.dtype == train.dtype
    scores = hs_gram(queries, weights) + bias
    expected = dual_ridge_scores(train, labels, queries, 3, ridge)
    assert np.abs(scores - expected).max() < 1e-9
    assert np.array_equal(predict(hs_gram(queries, weights), bias), expected.argmax(axis=1))


def test_pipeline_predictions_match_the_dual_kernel_oracle():
    seed, n = 7, 160
    with pytest.warns(RuntimeWarning, match="unseen in training"):
        rep = classify.classify_pipeline(seed=seed, n_samples=n, max_iters=200)
    ds = gen_classifier_dataset(seed, n)
    tr, te = ds.train_mask, ~ds.train_mask
    _, cells = empirical_cq_state(ds.x1_cell[tr], ds.x2_cell[tr], ds.y[tr])
    coords = np.column_stack([ds.x1_cont, ds.x2_cont])
    for name, channel in (("quantum", rep.quantum_channel), ("classical", rep.classical_channel)):
        train, _ = classify._features(channel, cells, coords[tr])
        queries, _ = classify._features(channel, cells, coords[te])
        expected = dual_ridge_scores(train, ds.y[tr], queries, 3, 1e-3).argmax(axis=1)
        assert np.array_equal(rep.test_predictions[name], expected)
    expected = dual_ridge_scores(coords[tr], ds.y[tr], coords[te], 3, 1e-3).argmax(axis=1)
    assert np.array_equal(rep.test_predictions["linear"], expected)


def test_train_classifier_guards():
    with pytest.raises(InvariantError, match="one label per feature, got 3 for 2"):
        train_classifier(np.zeros((2, 3)), np.array([0, 1, 2]), 2)
    with pytest.raises(InvariantError, match="ridge"):
        train_classifier(np.eye(2), np.array([0, 1]), 2, ridge=0.0)


def test_features_fall_back_on_unseen_cells():
    mats = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    cells = np.array([[0, 0], [1, 2]])
    points = np.array([[0.0, 0.9], [5.2, 5.0], [1.99, 2.5]])
    # A quantum channel's features are its conditionals, a classical one's its table rows.
    for chan, rows, uniform in (
        (model.CQChannel(mats), mats, np.eye(2) / 2.0),
        (model.CQChannel(mats, classical=True), np.eye(2), np.full(2, 0.5)),
    ):
        feats, n_unseen = classify._features(chan, cells, points)
        assert n_unseen == 1 and feats.shape == (3,) + rows.shape[1:]
        assert np.max(np.abs(feats[0] - rows[0])) < 1e-15
        assert np.max(np.abs(feats[2] - rows[1])) < 1e-15
        assert np.max(np.abs(feats[1] - uniform)) < 1e-15


def test_pipeline_small_instance():
    with pytest.warns(RuntimeWarning, match="unseen in training"):
        rep = classify.classify_pipeline(seed=0, n_samples=120, max_iters=200)
    m = rep.metrics
    for key in (
        "f_quantum",
        "f_classical",
        "acc_quantum",
        "acc_classical",
        "acc_linear_ref",
        "unseen_test_cells",
    ):
        assert key in m
    for key in ("acc_quantum", "acc_classical", "acc_linear_ref"):
        assert 0.0 <= m[key] <= 1.0
    assert not rep.quantum_trace.violations
    assert not rep.classical_trace.violations
    assert rep.classical_channel.classical and not rep.quantum_channel.classical
    n_test = 120 - 60
    assert rep.test_predictions["y"].shape == (n_test,)
    assert rep.test_predictions["quantum"].shape == (n_test,)
    assert rep.region_rows is None


def test_pipeline_without_unseen_test_cells_does_not_warn():
    # At seed 14 every test sample's cell was seen in training.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = classify.classify_pipeline(seed=14, n_samples=400, max_iters=50)
    assert rep.metrics["unseen_test_cells"] == 0
    assert not [w for w in caught if "unseen" in str(w.message)]


def test_pipeline_deterministic():
    with pytest.warns(RuntimeWarning, match="unseen in training"):
        a = classify.classify_pipeline(seed=5, n_samples=100, max_iters=150)
        b = classify.classify_pipeline(seed=5, n_samples=100, max_iters=150)
    assert a.metrics == b.metrics


def test_pipeline_region_grid():
    with pytest.warns(RuntimeWarning, match="unseen in training"):
        rep = classify.classify_pipeline(seed=1, n_samples=100, max_iters=150, grid_step=1.0)
    rows = rep.region_rows
    n1 = np.arange(0.0, classify.SIZE_X1 + classify.WIDE_NOISE, 1.0).size
    n2 = np.arange(0.0, classify.SIZE_X2 + classify.WIDE_NOISE, 1.0).size
    assert rows is not None and len(rows) == n1 * n2
    for row in rows:
        assert list(row) == ["x1", "x2", "pred_quantum", "pred_classical", "pred_linear"]
        assert 0.0 <= row["x1"] <= classify.SIZE_X1 + classify.WIDE_NOISE
        assert 0.0 <= row["x2"] <= classify.SIZE_X2 + classify.WIDE_NOISE
        assert all(row[f"pred_{arm}"] in (0, 1, 2) for arm in ("quantum", "classical", "linear"))
    with pytest.raises(InvariantError, match="grid_step"):
        classify.classify_pipeline(seed=1, n_samples=100, grid_step=-1.0)
