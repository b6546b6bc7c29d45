"""Qubit source ensembles.

Every conditional density is a rotated classical bit

    rho(theta, lam) = e^{i theta X} diag(1 - lam, lam) e^{-i theta X},

so an ensemble is pinned by its angle/bias arrays.  Two generators: fully
random ensembles (uniform angles and biases) and the structured two-factor
ensemble whose first factor X1 determines the parameters up to bounded
multiplicative noise, used for the sufficient-statistics task.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .. import linalg, rng
from ..exceptions import InvariantError
from ..model import CQState

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def _stack_qubits(thetas: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The qubit e^{i theta X} diag(1-lam, lam) e^{-i theta X} of each
    (theta, lam) pair, built in one batched product."""
    bad = lams[~((0.0 <= lams) & (lams <= 1.0))]
    if bad.size:
        raise InvariantError(f"bias must lie in [0, 1], got {bad[0]}")
    # math's cos and sin keep generated states bit-identical to those of
    # earlier versions: numpy's may differ in the last bit.
    cos = np.array(list(map(math.cos, thetas.tolist())))[:, None, None]
    sin = np.array(list(map(math.sin, thetas.tolist())))[:, None, None]
    u = cos * np.eye(2, dtype=np.complex128) + 1j * sin * _PAULI_X
    spectra = linalg.diag_embed(np.stack([1.0 - lams, lams], axis=1))
    return u @ spectra @ np.conj(np.swapaxes(u, -1, -2))


def qubit_ensemble(thetas: np.ndarray, lams: np.ndarray) -> CQState:
    """Uniform prior over the qubits rho(thetas[x], lams[x])."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    if thetas.shape != lams.shape:
        raise InvariantError(
            f"theta and bias arrays differ in shape: {thetas.shape} vs {lams.shape}"
        )
    n = thetas.shape[0]
    return CQState(np.full(n, 1.0 / n), _stack_qubits(thetas, lams))


def gen_random_qubit_ensemble(size_x: int, seed: int) -> CQState:
    """Uniform prior over size_x qubits with theta ~ U[0, pi), lam ~ U[0, 1/2).

    All angles are drawn before all biases, so the stream layout is part of
    the reproducibility contract.
    """
    if size_x < 1:
        raise InvariantError(f"size_x must be >= 1, got {size_x}")
    gen = rng.derive_rng(seed, "qubit-ensemble")
    thetas = gen.uniform(0.0, np.pi, size_x)
    lams = gen.uniform(0.0, 0.5, size_x)
    return qubit_ensemble(thetas, lams)


@dataclass(frozen=True)
class SuffStatsSpec:
    """Two-factor ensemble X = (X1, X2) where X1 is sufficient for Y.

    Ideal parameters depend on x1 alone (theta = pi x1/|X1|, bias =
    x1/(4 |X1|)); each (x1, x2) cell multiplies both by (1 + r) with r
    uniform on [-1/sqrt(nu), 1/sqrt(nu)] (nu = inf means no noise).  A
    random relabeling of the flat index hides the factorization.  Extreme
    noise (nu < 1/9 or so) can push a bias outside [0, 1]; such values are
    clamped with a warning so the densities stay valid.
    """

    size_x1: int = 5
    size_x2: int = 20
    nu: float = 20.0
    permutation_seed: int = 0
    noise_seed: int = 0

    def validate(self) -> None:
        if self.size_x1 < 2 or self.size_x2 < 1:
            raise InvariantError(
                f"need size_x1 >= 2 and size_x2 >= 1, got {self.size_x1}, {self.size_x2}"
            )
        if not (self.nu > 0):
            raise InvariantError(f"nu must be positive (inf allowed), got {self.nu}")


@dataclass(frozen=True)
class SuffStatsInstance:
    """Generated source plus the relabeling needed to judge baselines.

    ``permutation[x]`` is the recorded index of structured cell
    x = x1 * size_x2 + x2; ``thetas``/``lams`` are in structured order.
    """

    state: CQState
    permutation: np.ndarray
    thetas: np.ndarray
    lams: np.ndarray


def gen_suffstats_ensemble(spec: SuffStatsSpec) -> SuffStatsInstance:
    spec.validate()
    n1, n2 = spec.size_x1, spec.size_x2
    size = n1 * n2
    half_width = 0.0 if math.isinf(spec.nu) else 1.0 / math.sqrt(spec.nu)

    x1 = np.repeat(np.arange(n1), n2)
    base_theta = np.pi * x1 / n1
    base_lam = x1 / (4.0 * n1)
    noise = rng.derive_rng(spec.noise_seed, "suffstats-noise")
    r_theta = noise.uniform(-half_width, half_width, size)
    r_lam = noise.uniform(-half_width, half_width, size)
    thetas = base_theta * (1.0 + r_theta)
    lams = base_lam * (1.0 + r_lam)
    out_of_range = int(np.sum((lams < 0.0) | (lams > 1.0)))
    if out_of_range:
        warnings.warn(
            f"{out_of_range} bias value(s) left [0, 1] after noise; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        lams = np.clip(lams, 0.0, 1.0)

    perm = rng.derive_rng(spec.permutation_seed, "suffstats-perm").permutation(size)
    rho_structured = _stack_qubits(thetas, lams)
    rho_recorded = np.empty_like(rho_structured)
    rho_recorded[perm] = rho_structured
    state = CQState(np.full(size, 1.0 / size), rho_recorded)
    return SuffStatsInstance(state=state, permutation=perm, thetas=thetas, lams=lams)
