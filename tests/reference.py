"""The slow reference evaluator of the bottleneck objective.

Each quantity is computed on its own, straight from its definition, so that
the solver's fused per-iteration analysis (``engine._Analysis``) can be
checked against an independent path.  The functions duplicate the engine's
arithmetic on purpose: they read only the types and ``linalg`` of the
package, never the solvers or the experiments they check.
"""

from __future__ import annotations

import numpy as np

from qib import linalg, model
from qib.exceptions import InvariantError
from qib.model import CQChannel, CQState


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
