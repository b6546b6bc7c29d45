"""Analytic benchmarks: closed-form optima separating quantum from classical
compression, the Fourier construction achieving the quantum value, and a
brute-force oracle over deterministic classical maps, which
``assignment_terms`` scores in batches.

Setting: X is uniform over d symbols, Y is a perfect classical copy of X,
and the bottleneck system T has dimension n < d.  With beta >= 1 the optimal
quantum value is (1 - beta) ln n, achieved by pure Fourier-phase states,
while every classical channel is bounded away from it by a bucket-counting
argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, linalg
from .exceptions import InvariantError
from .model import CQChannel, CQState

BRUTE_FORCE_LIMIT = 10**7
# Complex matrix entries of the (T, Y) blocks that one batched call of
# brute_force_classical_opt holds: dim_t * dimY^2 per map scored.
BRUTE_FORCE_BLOCK = 1 << 19


def quantum_bound(n: int, beta: float) -> float:
    """Optimal objective (1 - beta) ln n over all quantum channels.

    Valid for beta >= 1 (and beta >= alpha, which the caller guarantees);
    n is the bottleneck dimension.
    """
    if n < 2:
        raise InvariantError(f"bottleneck dimension must be >= 2, got {n}")
    if not beta >= 1:
        raise InvariantError(f"closed form requires beta >= 1, got {beta}")
    return (1.0 - beta) * float(np.log(n))


def classical_bound(d: int, n: int, beta: float) -> float:
    """Optimal objective over classical channels with |T| = n on d symbols.

    Writing d = m n + l with 0 <= l < n, the optimum groups symbols into
    buckets as evenly as possible:

        (1 - beta) [ (l (m+1)/d) ln(d/(m+1)) + ((n-l) m/d) ln(d/m) ].
    """
    if n < 2:
        raise InvariantError(f"bottleneck size must be >= 2, got {n}")
    if n >= d:
        raise InvariantError(
            f"classical bound needs n < d for a nontrivial bottleneck, got n={n}, d={d}"
        )
    if not beta >= 1:
        raise InvariantError(f"closed form requires beta >= 1, got {beta}")
    m, l = divmod(d, n)
    big = l * (m + 1) / d * np.log(d / (m + 1))
    small = (n - l) * m / d * np.log(d / m)
    return (1.0 - beta) * float(big + small)


def copy_state(d: int, k: int = 1) -> CQState:
    """Source with X = (X1, X2) uniform on d*k symbols and Y = |x1><x1|.

    Index order is x = x1 * k + x2; Y lives in dimension d.  X2 is pure
    redundancy, so any channel ignoring it loses nothing.
    """
    if d < 2 or k < 1:
        raise InvariantError(f"copy state needs d >= 2, k >= 1, got d={d}, k={k}")
    size = d * k
    rho = np.zeros((size, d, d), dtype=np.complex128)
    x1 = np.arange(size) // k
    rho[np.arange(size), x1, x1] = 1.0
    return CQState(np.full(size, 1.0 / size), rho)


def fourier_feature_channel(d: int, n: int, size_x2: int = 1) -> CQChannel:
    """Pure-state channel x -> |psi_{x1}><psi_{x1}| achieving the quantum bound.

    |psi_{x1}> = n^{-1/2} sum_t exp(2 pi i x1 t / d) |t>, with the phase
    running over the summation index t; the uniform mixture of these states
    is exactly I/n whenever n <= d.
    """
    if d < 2 or n < 2 or n > d:
        raise InvariantError(
            f"Fourier construction needs 2 <= n <= d, got d={d}, n={n}"
        )
    if size_x2 < 1:
        raise InvariantError(f"size_x2 must be >= 1, got {size_x2}")
    psi = np.exp(2j * np.pi * np.arange(d)[:, None] * np.arange(n) / d) / np.sqrt(n)
    proj = psi[:, :, None] * np.conj(psi[:, None, :])
    return CQChannel(np.repeat(proj, size_x2, axis=0), classical=False)


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


@dataclass(frozen=True)
class AdvantageReport:
    """Closed-form separation at one (d, n, alpha, beta) instance."""

    d: int
    n: int
    alpha: float
    beta: float
    quantum: float
    classical: float
    gap: float
    achieved_quantum: float


def advantage_gap(d: int, n: int, alpha: float, beta: float) -> AdvantageReport:
    """Classical-minus-quantum optimum, with the achieving construction.

    ``achieved_quantum`` is the solver's analysis of the Fourier channel on
    the copy source, certifying the quantum bound is attained (they agree
    to round-off for every valid instance).
    """
    if not (alpha <= beta and alpha <= 1):
        raise InvariantError(
            f"closed forms require alpha <= min(1, beta), got alpha={alpha}, beta={beta}"
        )
    q = quantum_bound(n, beta)
    c = classical_bound(d, n, beta)
    _, (analysis,) = engine._analyses(copy_state(d, 1), alpha, beta, fourier_feature_channel(d, n))
    return AdvantageReport(
        d=d, n=n, alpha=alpha, beta=beta,
        quantum=q, classical=c, gap=c - q, achieved_quantum=float(analysis.f_alpha),
    )
