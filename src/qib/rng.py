"""Deterministic seed derivation.

Every random draw in the package flows through a derived PCG64 generator so
that (seed, purpose-label, index) pins the stream: the same config reproduces
byte-identical output, and distinct subcommands or run indices never share a
stream.  Mixing is a splitmix64 chain over the parts.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(*parts: int | str) -> int:
    """Fold integers and strings into a 64-bit seed, order sensitive."""
    acc = 0
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        else:
            # 16 bytes, or as many as a larger integer needs.
            n = int(part)
            size = max(16, ((n if n >= 0 else ~n).bit_length() + 8) // 8)
            data = n.to_bytes(size, "little", signed=True)
        for i in range(0, len(data), 8):
            chunk = int.from_bytes(data[i : i + 8], "little")
            acc = _mix(acc ^ chunk)
        acc = _mix(acc ^ len(data))
    return acc


def derive_rng(*parts: int | str) -> np.random.Generator:
    """PCG64 generator seeded by ``derive_seed(*parts)``."""
    return np.random.default_rng(derive_seed(*parts))
