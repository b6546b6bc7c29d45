"""The slow reference evaluator of the bottleneck objective, and a
brute-force oracle over deterministic classical maps.

Each quantity is computed on its own, straight from its definition, so that
the solver's fused per-iteration analysis (``engine._Analysis``) can be
checked against an independent path.  ``brute_force_classical_opt`` finds
the exact classical optimum that the closed-form bound and the solvers are
checked against, scoring its maps in batches with ``assignment_terms``.
The functions duplicate the engine's arithmetic on purpose: they read only
the types and ``linalg`` of the package, never the solvers or the
experiments they check.
"""

from __future__ import annotations

import numpy as np

from qib import linalg, model
from qib.exceptions import InvariantError
from qib.model import CQChannel, CQState

BRUTE_FORCE_LIMIT = 10**7
# Complex matrix entries of the (T, Y) blocks that one batched call of
# brute_force_classical_opt holds: dim_t * dimY^2 per map scored.
BRUTE_FORCE_BLOCK = 1 << 19


def _check_pair(state: CQState, channel: CQChannel) -> None:
    if state.size_x != channel.size_x:
        raise InvariantError(
            f"state has sizeX {state.size_x} but channel has {channel.size_x}"
        )


def sigma_t(channel: CQChannel, state: CQState) -> np.ndarray:
    """Bottleneck marginal sigma_T = sum_x P(x) sigma_{T|x}."""
    _check_pair(state, channel)
    return np.einsum("x,xij->ij", state.px, channel.sigma_t_given_x)


def rho_y(state: CQState) -> np.ndarray:
    """Source marginal rho_Y = sum_x P(x) rho_{Y|x}."""
    return np.einsum("x,xij->ij", state.px, state.rho_y_given_x)


def sigma_yt(channel: CQChannel, state: CQState) -> np.ndarray:
    """Joint state sum_x P(x) sigma_{T|x} (x) rho_{Y|x}, T factor first.

    The name keeps the conventional YT label for this joint; the tensor
    order is (T, Y) with T leading, matching every joint-operator
    convention in the package.
    """
    _check_pair(state, channel)
    dt, dy = channel.dim_t, state.dim_y
    four = np.einsum(
        "x,xik,xjl->ijkl", state.px, channel.sigma_t_given_x, state.rho_y_given_x,
        optimize=True,
    )
    return four.reshape(dt * dy, dt * dy)


def von_neumann_entropy(rho_mat: np.ndarray) -> float:
    """Entropy -Tr[rho log rho] in nats; eigenvalues clipped at zero."""
    w, _ = linalg.eig_hermitian(np.asarray(rho_mat))
    return float(linalg.entropy(w))


def cond_entropy_t_given_x(state: CQState, channel: CQChannel) -> float:
    """H(T|X) = sum_x P(x) H(sigma_{T|x})."""
    _check_pair(state, channel)
    ent = linalg.entropy(linalg.eig_hermitian(channel.sigma_t_given_x, vectors=False))
    return float(np.dot(state.px, ent))


def mutual_info_tx(state: CQState, channel: CQChannel) -> float:
    """I(T:X) = H(sigma_T) - H(T|X)."""
    return von_neumann_entropy(sigma_t(channel, state)) - cond_entropy_t_given_x(
        state, channel
    )


def mutual_info_ty(state: CQState, channel: CQChannel) -> float:
    """I(T:Y) = H(sigma_T) + H(rho_Y) - H(sigma_joint)."""
    return (
        von_neumann_entropy(sigma_t(channel, state))
        + von_neumann_entropy(rho_y(state))
        - von_neumann_entropy(sigma_yt(channel, state))
    )


def objective_f_alpha(
    state: CQState, channel: CQChannel, alpha: float, beta: float
) -> float:
    """Bottleneck objective f = H(T) - alpha H(T|X) - beta I(T:Y)."""
    h_t = von_neumann_entropy(sigma_t(channel, state))
    h_tx = cond_entropy_t_given_x(state, channel)
    i_ty = mutual_info_ty(state, channel)
    return h_t - alpha * h_tx - beta * i_ty


def channel_divergence(channel: CQChannel, other: CQChannel, state: CQState) -> float:
    """Average relative entropy sum_x P(x) D(sigma_{T|x} || sigma'_{T|x})."""
    _check_pair(state, channel)
    _check_pair(state, other)
    if channel.dim_t != other.dim_t:
        raise InvariantError(
            f"channels act on different T dimensions: {channel.dim_t} vs {other.dim_t}"
        )
    total = 0.0
    for x in range(state.size_x):
        p = state.px[x]
        if p == 0.0:
            continue
        total += p * model.relative_entropy(
            channel.sigma_t_given_x[x], other.sigma_t_given_x[x]
        )
    return float(total)


def assignment_terms(
    state: CQState, maps: np.ndarray, dim_t: int
) -> tuple[np.ndarray, np.ndarray]:
    """H(T) and I(T:Y) of hard assignments x -> maps[n, x], one per row of
    an (N, sizeX) integer array.

    A point-mass channel makes the (T, Y) joint block-diagonal with blocks
    J_t = sum_{x -> t} P(x) rho_{Y|x}, so H(T,Y) is the entropy of the
    blocks' pooled spectra and I(T:Y) = H(Y) - (H(T,Y) - H(T)).
    """
    maps = np.asarray(maps)
    w = state.px[:, None] * (maps[..., None] == np.arange(dim_t))
    h_t = linalg.entropy(w.sum(axis=1))
    blocks = np.einsum("nxt,xij->ntij", w, state.rho_y_given_x)
    h_ty = linalg.entropy(linalg.eig_hermitian(blocks, vectors=False).reshape(len(maps), -1))
    h_y = linalg.entropy(linalg.eig_hermitian(state.rho_y, vectors=False))
    return h_t, h_y - (h_ty - h_t)


def brute_force_classical_opt(
    state: CQState, dim_t: int, alpha: float, beta: float
) -> tuple[float, tuple[int, ...]]:
    """Exact minimum of the objective over deterministic maps X -> T.

    Enumerates all dim_t^{sizeX} assignments in lexicographic blocks that
    fit ``BRUTE_FORCE_BLOCK`` (point-mass channels have H(T|X) = 0, so alpha
    only matters through the reported value, not the argmin).  Ties break
    toward the lexicographically first map.  Raises when the enumeration
    exceeds 10^7 assignments; sample random maps or use the iterative
    solver beyond that.
    """
    nx = state.size_x
    if dim_t < 1:
        raise InvariantError(f"dim_t must be >= 1, got {dim_t}")
    total = dim_t**nx
    if total > BRUTE_FORCE_LIMIT:
        raise InvariantError(
            f"brute force over {dim_t}^{nx} = {total} maps exceeds {BRUTE_FORCE_LIMIT}; "
            "fall back to sampled maps or the iterative solver"
        )
    # Row i of a block is the base-dim_t digits of map index start + i.
    place = dim_t ** np.arange(nx - 1, -1, -1)
    block = max(1, BRUTE_FORCE_BLOCK // (dim_t * state.dim_y**2))
    best_f = np.inf
    best_map: tuple[int, ...] = ()
    for start in range(0, total, block):
        index = np.arange(start, min(start + block, total))
        maps = index[:, None] // place % dim_t
        h_t, i_ty = assignment_terms(state, maps, dim_t)
        f = h_t - beta * i_ty
        k = int(np.argmin(f))
        if f[k] < best_f:
            best_f, best_map = f[k], tuple(maps[k].tolist())
    return float(best_f), best_map
