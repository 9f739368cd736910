"""Seven-level dipole quantizer.

Maps a smooth controller command onto the level grid
{-u_max, -2u_max/3, -u_max/3, 0, u_max/3, 2u_max/3, u_max}, per axis.

A nonzero command returns the smallest level strictly above it, or u_max
when there is none; an exact zero returns zero (the bracket rule alone would
never emit zero for a controller resting at its reference). Commands below
-u_max therefore saturate to -u_max. The quantizer is stateless.

Level values are always computed as fractions of u_max at the point of use
(never stored as rounded decimals), so the codomain is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .dynamics import DipoleCommand


def quantize(u_mpc: float, u_max: float) -> float:
    """Quantize one dipole component onto the seven-level grid.

    Inputs outside [-u_max, u_max] are legal and saturate; the controller
    guarantees the bound but the quantizer does not rely on it.
    """
    if not (math.isfinite(u_max) and u_max > 0.0):
        raise ValueError(f"u_max must be positive, got {u_max}")
    if not math.isfinite(u_mpc):
        raise ValueError(f"command must be finite, got {u_mpc}")
    if u_mpc == 0.0:
        return 0.0
    one_third, two_thirds = u_max / 3.0, 2.0 * u_max / 3.0
    levels = (-u_max, -two_thirds, -one_third, 0.0, one_third, two_thirds, u_max)
    return levels[min(bisect_right(levels, u_mpc), 6)]


def quantize_vector(m: DipoleCommand, u_max: float) -> DipoleCommand:
    """Componentwise quantization of a dipole command."""
    return DipoleCommand(np.array([quantize(float(v), u_max) for v in m.m]))
