"""Kernel classification on a scrambled discrete source.

The generator hides a three-class structure inside 30 relabeled (x1, x2)
cells and blurs the integer coordinates with additive noise, so flooring
the observed reals yields up to 4 x 11 = 44 distinct cells.  A bottleneck
channel trained on the empirical cell/label source turns each cell into a
density operator feature; classification is one-vs-rest regularized least
squares with the Hilbert-Schmidt kernel Tr[sigma sigma'], a dot product of
2 dimT^2 real coordinates: the ridge is solved over those, not the samples,
and by the push-through identity its scores are the kernel form's.  A
classical (diagonal) bottleneck and a plain linear kernel on the raw
coordinates are the comparison arms.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .. import engine, rng
from ..exceptions import InvariantError
from ..linalg import diag_embed, rows
from ..model import CQChannel, CQState, ObjectiveConfig
from ..serialization import MAX_SIZE

NUM_LABELS = 3
SIZE_X1 = 3
SIZE_X2 = 10
WIDE_NOISE = 1.2
EXTENTS = (SIZE_X1 + WIDE_NOISE, SIZE_X2 + WIDE_NOISE)
# Most cells the floored coordinates fall in: the largest sizeX of the source.
MAX_CELLS = (SIZE_X1 + 1) * (SIZE_X2 + 1)


@dataclass(frozen=True)
class LabeledDataset:
    """Samples of the classification task.

    ``rec_x1``/``rec_x2`` are the noiseless relabeled integer cells;
    ``x1_cont``/``x2_cont`` add the blurring noise; ``x1_cell``/``x2_cell``
    floor the continuous coordinates (the observable features).
    ``permutation`` maps structured cell index x1 * 10 + x2 to its
    relabeled index.
    """

    y: np.ndarray
    rec_x1: np.ndarray
    rec_x2: np.ndarray
    x1_cont: np.ndarray
    x2_cont: np.ndarray
    x1_cell: np.ndarray
    x2_cell: np.ndarray
    train_mask: np.ndarray
    permutation: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]


def gen_classifier_dataset(
    seed: int, n_samples: int = 400, train_fraction: float = 0.5
) -> LabeledDataset:
    """Draw one dataset: labels, scrambled cells, blurred coordinates.

    Per sample: y uniform on {0,1,2}; x1 = y; x2 | x1 has weight 2/11 on
    x2 = x1 and 1/11 elsewhere on {0..9}; the (x1, x2) cell is pushed
    through the inverse relabeling; both continuous coordinates add noise
    uniform on [0, 1.2) if the relabeled cell has x1 = 2 or x2 = 9 and
    [0, 1.0) otherwise.  Draw order (all vectorized): labels, the x2
    inversion uniforms, coordinate noise 1, coordinate noise 2.  The first
    round(train_fraction * n) samples are the training split (samples are
    iid, so a leading slice of seeded draws is already a random split).
    """
    if n_samples < 10:
        raise InvariantError(f"need at least 10 samples, got {n_samples}")
    if not 0.0 < train_fraction < 1.0:
        raise InvariantError(f"train_fraction must be in (0, 1), got {train_fraction}")
    gen = rng.derive_rng(seed, "classify-data")
    perm = gen.permutation(SIZE_X1 * SIZE_X2)
    inv = np.argsort(perm)

    y = gen.integers(0, NUM_LABELS, n_samples)
    weights = (1.0 + (np.arange(SIZE_X2)[None, :] == np.arange(SIZE_X1)[:, None])) / 11.0
    cdfs = np.cumsum(weights, axis=1)
    u = gen.random(n_samples)
    x2 = (u[:, None] > cdfs[y]).sum(axis=1)

    structured = y * SIZE_X2 + x2
    recorded = inv[structured]
    rec_x1, rec_x2 = np.divmod(recorded, SIZE_X2)

    width = np.where((rec_x1 == SIZE_X1 - 1) | (rec_x2 == SIZE_X2 - 1), WIDE_NOISE, 1.0)
    x1_cont = rec_x1 + gen.random(n_samples) * width
    x2_cont = rec_x2 + gen.random(n_samples) * width

    n_train = int(round(train_fraction * n_samples))
    train_mask = np.zeros(n_samples, dtype=bool)
    train_mask[:n_train] = True
    return LabeledDataset(
        y=y,
        rec_x1=rec_x1,
        rec_x2=rec_x2,
        x1_cont=x1_cont,
        x2_cont=x2_cont,
        x1_cell=np.floor(x1_cont).astype(np.int64),
        x2_cell=np.floor(x2_cont).astype(np.int64),
        train_mask=train_mask,
        permutation=perm,
    )


def _cell_keys(x1_cells: np.ndarray, x2_cells: np.ndarray) -> np.ndarray:
    return x1_cells.astype(np.int64) * 1000 + x2_cells.astype(np.int64)


def empirical_cq_state(
    x1_cells: np.ndarray,
    x2_cells: np.ndarray,
    labels: np.ndarray,
) -> tuple[CQState, np.ndarray]:
    """Empirical cell/label source from observed samples.

    Cells are the lexicographically sorted distinct (x1, x2) pairs; P_X
    carries their empirical frequencies and rho_{Y|cell} is the diagonal
    empirical label distribution within the cell.  Returns the state and
    the (m, 2) cell array defining the x index order.
    """
    x1_cells = np.asarray(x1_cells)
    x2_cells = np.asarray(x2_cells)
    labels = np.asarray(labels)
    if not (x1_cells.shape == x2_cells.shape == labels.shape) or labels.ndim != 1:
        raise InvariantError("cell and label arrays must be 1-d and equal length")
    if labels.size == 0:
        raise InvariantError("empirical state needs at least one sample")
    if labels.min() < 0 or labels.max() >= NUM_LABELS:
        raise InvariantError(
            f"labels must lie in [0, {NUM_LABELS}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    keys = _cell_keys(x1_cells, x2_cells)
    unique_keys, idx = np.unique(keys, return_inverse=True)
    counts = np.zeros((unique_keys.size, NUM_LABELS))
    np.add.at(counts, (idx, labels), 1.0)
    totals = counts.sum(axis=1)
    px = totals / labels.size
    cond = counts / totals[:, None]
    rho = diag_embed(cond)
    cells = np.column_stack([unique_keys // 1000, unique_keys % 1000])
    return CQState(px, rho), cells


def hs_gram(feats_a: np.ndarray, feats_b: np.ndarray) -> np.ndarray:
    """Pairwise Re Tr[A_i B_j] of stacked features, one side Hermitian; rows,
    such as a classical channel's table rows, pair by their dot products."""
    return rows(feats_a) @ rows(feats_b).T


def train_classifier(
    feats: np.ndarray, labels: np.ndarray, num_classes: int, ridge: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest ridge least squares with the kernel ``hs_gram``, solved in
    feature space: with Phi the ``linalg.rows`` and z_c = +/-1 per class, the
    k x k solve w_c = (Phi^T Phi + ridge I)^-1 Phi^T z_c equals Phi^T a_c of
    the n x n kernel form (Phi Phi^T + ridge I) a_c = z_c (push-through
    identity).  Offsets b_c are the mean residuals.  Returns the class weights
    in feature form (C, ...), which ``hs_gram`` scores, and b (C,)."""
    phi = rows(feats)
    if len(labels) != len(phi):
        raise InvariantError(f"need one label per feature, got {len(labels)} for {len(phi)}")
    if ridge <= 0:
        raise InvariantError(f"ridge must be positive, got {ridge}")
    z = np.where(np.arange(num_classes)[None, :] == np.asarray(labels)[:, None], 1.0, -1.0)
    weights = np.linalg.solve(phi.T @ phi + ridge * np.eye(phi.shape[1]), phi.T @ z)
    bias = np.mean(z - phi @ weights, axis=0)
    return weights.T.copy().view(feats.dtype).reshape(num_classes, *feats.shape[1:]), bias


def predict(scores: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Argmax class of each row of (m, C) scores ``hs_gram(feats, weights)`` + b."""
    return np.argmax(scores + bias[None, :], axis=1)


@dataclass(frozen=True)
class ClassifyReport:
    metrics: dict[str, float]
    quantum_channel: CQChannel
    classical_channel: CQChannel
    quantum_trace: engine.IterationTrace
    classical_trace: engine.IterationTrace
    test_predictions: dict[str, np.ndarray]
    region_rows: list[tuple[float, float, int, int, int]] | None


def _features(
    channel: CQChannel, cells: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, int]:
    """Features of the floored (x1, x2) cells of ``points`` (m, 2): density
    operators, or a classical channel's table rows.  Also how many points fall
    in cells unseen in training: those get I/dimT, or the uniform row."""
    cell_keys = _cell_keys(cells[:, 0], cells[:, 1])
    floored = np.floor(points).astype(np.int64)
    keys = _cell_keys(floored[:, 0], floored[:, 1])
    pos = np.minimum(np.searchsorted(cell_keys, keys), cell_keys.size - 1)
    seen = cell_keys[pos] == keys
    dt = channel.dim_t
    if channel.classical:
        feats, uniform = channel.table()[pos], np.full(dt, 1.0 / dt)
    else:
        feats, uniform = channel.sigma_t_given_x[pos], np.eye(dt) / dt
    feats[~seen] = uniform
    return feats, int(np.sum(~seen))


def check_grid_step(grid_step: float) -> int:
    """Number of grid points of a step; reject a step that is not finite and
    > 0 or gives over MAX_SIZE points."""
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise InvariantError(f"grid_step must be a finite number > 0, got {grid_step}")
    # np.arange's length per axis; an axis past MAX_SIZE alone decides.
    if (points := math.prod(math.ceil(min(e / grid_step, MAX_SIZE + 1)) for e in EXTENTS)) > MAX_SIZE:
        raise InvariantError(f"grid_step {grid_step} gives more than {MAX_SIZE} grid points")
    return points


def _grid_points(grid_step: float) -> np.ndarray:
    """(m, 2) decision-region grid over the coordinate box, x2 running fastest."""
    check_grid_step(grid_step)
    axes = np.meshgrid(*(np.arange(0.0, e, grid_step) for e in EXTENTS), indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


def classify_pipeline(
    seed: int,
    alpha: float = 1.0,
    beta: float = 15.0,
    gamma: float | None = None,
    dim_t: int = 2,
    ridge: float = 1e-3,
    n_samples: int = 400,
    train_fraction: float = 0.5,
    tol: float = 1e-8,
    max_iters: int = 500,
    grid_step: float | None = None,
) -> ClassifyReport:
    """Full pipeline: dataset, empirical source, two bottleneck runs, three
    classifiers, test accuracies.

    The quantum and classical (diagonal-restricted) runs share every
    hyperparameter and the same run seed; the linear reference uses the raw
    continuous coordinates with the same ridge solver.  With ``grid_step``
    set, decision-region rows over the coordinate box are included.  Test
    samples in cells unseen in training raise one RuntimeWarning.
    """
    grid = None if grid_step is None else _grid_points(grid_step)
    ds = gen_classifier_dataset(seed, n_samples, train_fraction)
    tr, te = ds.train_mask, ~ds.train_mask
    state, cells = empirical_cq_state(ds.x1_cell[tr], ds.x2_cell[tr], ds.y[tr])

    run_seed = rng.derive_seed(seed, "classify-run")
    results = {}
    for name, classical in (("quantum", False), ("classical", True)):
        config = ObjectiveConfig(
            alpha=alpha, beta=beta, dim_t=dim_t, gamma=gamma,
            classical=classical, tol=tol, max_iters=max_iters, seed=run_seed,
        )
        results[name] = engine.run_qib(state, config)

    # Each arm maps (x1, x2) points to (features, unseen-cell count); all
    # pair their features through ``hs_gram``.
    arms = {name: functools.partial(_features, channel, cells) for name, (channel, _) in results.items()}
    arms["linear"] = lambda points: (points, 0)
    coords = np.column_stack([ds.x1_cont, ds.x2_cont])
    queries = {"test": coords[te]} if grid is None else {"test": coords[te], "grid": grid}
    preds, unseen = {}, {}
    for name, featurize in arms.items():
        f_tr, _ = featurize(coords[tr])
        weights, bias = train_classifier(f_tr, ds.y[tr], NUM_LABELS, ridge)
        for key, points in queries.items():
            feats, unseen[key, name] = featurize(points)
            preds[key, name] = predict(hs_gram(feats, weights), bias)

    if n_unseen := unseen["test", "quantum"]:
        warnings.warn(f"{n_unseen} test sample(s) hit cells unseen in training; "
                      "using the maximally mixed feature", RuntimeWarning, stacklevel=2)
    acc = {name: float(np.mean(preds["test", name] == ds.y[te])) for name in arms}
    region_rows = None if grid is None else [
        (x1, x2, int(q), int(c), int(lin))
        for (x1, x2), q, c, lin in zip(grid.tolist(), *(preds["grid", name] for name in arms))
    ]
    metrics = {
        "f_quantum": results["quantum"][1].final_f,
        "f_classical": results["classical"][1].final_f,
        "acc_quantum": acc["quantum"],
        "acc_classical": acc["classical"],
        "acc_linear_ref": acc["linear"],
        "unseen_test_cells": float(n_unseen),
    }
    return ClassifyReport(
        metrics=metrics,
        quantum_channel=results["quantum"][0],
        classical_channel=results["classical"][0],
        quantum_trace=results["quantum"][1],
        classical_trace=results["classical"][1],
        test_predictions={"y": ds.y[te], **{name: preds["test", name] for name in arms}},
        region_rows=region_rows,
    )
