"""Analytic benchmarks: closed-form optima separating quantum from classical
compression, and the Fourier construction achieving the quantum value.

Setting: X is uniform over d symbols, Y is a perfect classical copy of X,
and the bottleneck system T has dimension n < d.  With beta >= 1 the optimal
quantum value is (1 - beta) ln n, achieved by pure Fourier-phase states,
while every classical channel is bounded away from it by a bucket-counting
argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .exceptions import InvariantError
from .model import CQChannel, CQState


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


def fourier_feature_channel(d: int, n: int) -> CQChannel:
    """Pure-state channel x -> |psi_{x1}><psi_{x1}| achieving the quantum bound.

    |psi_{x1}> = n^{-1/2} sum_t exp(2 pi i x1 t / d) |t>, with the phase
    running over the summation index t; the uniform mixture of these states
    is exactly I/n whenever n <= d.
    """
    if d < 2 or n < 2 or n > d:
        raise InvariantError(
            f"Fourier construction needs 2 <= n <= d, got d={d}, n={n}"
        )
    psi = np.exp(2j * np.pi * np.arange(d)[:, None] * np.arange(n) / d) / np.sqrt(n)
    proj = psi[:, :, None] * np.conj(psi[:, None, :])
    return CQChannel(proj, classical=False)


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
    if not (0 <= alpha <= 1 and alpha <= beta):  # NaN fails every comparison
        raise InvariantError(
            f"closed forms require 0 <= alpha <= min(1, beta), got alpha={alpha}, beta={beta}"
        )
    q = quantum_bound(n, beta)
    c = classical_bound(d, n, beta)
    (analysis,) = engine._analyses(copy_state(d, 1), alpha, beta, fourier_feature_channel(d, n))
    return AdvantageReport(
        d=d, n=n, alpha=alpha, beta=beta,
        quantum=q, classical=c, gap=c - q, achieved_quantum=float(analysis.f_alpha),
    )
