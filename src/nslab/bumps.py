"""Smooth compactly supported profiles built from the exp(-1/t) glue."""

from __future__ import annotations

import numpy as np

__all__ = ["glue", "smoothstep", "lp_profile", "radial_bump"]


def glue(t):
    """exp(-1/t) for t > 0, zero otherwise; C^inf on the line."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    # below 1e-300 the value is exp(-1e300) = 0, as exp(-1/t) is, but 1/t
    # would overflow for t under about 1e-308
    out[pos] = np.exp(-1.0 / np.maximum(t[pos], 1e-300))
    return out


def smoothstep(t):
    """C^inf monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    # outside (0, 1) the quotient below is exactly 0 (t <= 0 and NaN give
    # a = 0) or exactly 1 (t >= 1 gives b = 0, and a + tiny == a there), so
    # only the transition band pays for the exponentials
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    a = glue(tb)
    b = glue(1.0 - tb)
    out[band] = a / (a + b + np.finfo(float).tiny)
    # a numpy scalar for scalar input, as the elementwise quotient gives
    return out[()]


def lp_profile(r):
    """Radial Littlewood-Paley bump: 1 on [0,1], 0 on [2,inf), monotone."""
    return smoothstep(2.0 - np.asarray(r, dtype=float))


def radial_bump(r, flat=0.5):
    """Radial bump: 1 on [0, flat], 0 on [1, inf)."""
    r = np.asarray(r, dtype=float)
    return smoothstep((1.0 - r) / (1.0 - flat))
