"""Z-normalized distance kernel: normalization, window distances, distance profiles.

All distances are Euclidean distances between mean-0 / population-std-1
rescalings of equal-length windows, so they are invariant to positive affine
transforms of either input and bounded by 2*sqrt(m).

A distance to a constant window is undefined.  Such windows come out of
znormalized_windows marked invalid, and every array of distances holds NaN
at them.  NaN fails every comparison, so a threshold test skips them.

Precision policy: two kernels compute this distance.  The consensus
search (mining._max_dots) ranks and prunes windows by the dot-product
form sqrt(2(m - qz.wz)), from float32 matrix products of one series' windows
against another's.  float32_dot_bound bounds the rounding of such a product
in any summation order, so sqrt(2(m - (dot +- bound))) brackets the direct
norm whatever the BLAS, its thread count or the rows a product held, and
the search measures every window the brackets cannot rule out.  Every
reported distance, consensus radii included, comes from the direct
||qz - wz|| of direct_distances, the one direct-norm kernel, so an affine
copy comes out within 1e-9 of 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVariance

# Absolute floor on the population std below which a window counts as constant.
EPS_VAR = 1e-12


@dataclass(frozen=True)
class MetricSeries:
    """One univariate metric series of a repository.

    timestamps are POSIX seconds (UTC), non-decreasing, one per data point.
    values are finite, and small enough that n squared deviations of up to
    twice the largest magnitude add up within the float range, so that
    every window z-normalizes without overflow.
    """

    repo_id: str
    metric_name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if len(vals) != len(ts) or len(vals) < 1:
            raise ValueError("timestamps and values must have equal length >= 1")
        if np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        big, limit = np.abs(vals).max(), 0.25 * math.sqrt(sys.float_info.max / len(vals))
        if big > limit:
            raise ValueError(f"values must not exceed {limit:.3g} in magnitude, for their "
                             f"squared deviations to stay finite, got {big:.3g}")
        ts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)


def znormalize(x) -> np.ndarray:
    """Rescale x to mean 0 and population std 1: the one row of
    znormalized_windows(x, len(x)), or ZeroVariance when it is constant."""
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to z-normalize")
    z, valid = znormalized_windows(x, len(x))
    if not valid[0]:
        raise ZeroVariance(f"window std below {EPS_VAR:.0e}")
    return z[0]


def znorm_distance(q, w) -> float:
    """Euclidean distance between the z-normalized forms of q and w.

    Equals sqrt(2*m*(1 - pearson(q, w))).  Raises ZeroVariance if either
    window is constant.
    """
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    if q.shape != w.shape:
        raise ValueError("windows must have equal length")
    diff = znormalize(q) - znormalize(w)
    return float(np.sqrt(np.dot(diff, diff)))


def znormalized_windows(t, m: int):
    """Z-normalize every length-m window of t.

    Returns (Z, valid): Z has constant windows zeroed out, valid marks the
    non-constant ones.  Each window is centred twice and its population std
    taken from the centred values, over a strided window view: O(n*m) but
    numerically identical to normalizing each window directly, which the
    cumsum trick is not for near-constant windows.
    """
    t = np.asarray(t, dtype=float)
    if not 1 <= m <= len(t):
        raise ValueError("window length out of range")
    w = np.lib.stride_tricks.sliding_window_view(t, m)
    d = w - w.mean(axis=1)[:, None]
    d -= d.mean(axis=1)[:, None]
    std = np.sqrt(np.mean(d * d, axis=1))
    valid = std >= EPS_VAR
    safe = np.where(valid, std, 1.0)
    z = d / safe[:, None]
    z[~valid] = 0.0
    return z, valid


def float32_dot_bound(m: int) -> float:
    """Bound on |fl32(qz.wz) - qz.wz| for two length-m z-windows of
    znormalized_windows, widened so that, as computed in float64,
    sqrt(2 max(m - (dot + bound), 0)) <= ||qz - wz|| of direct_distances
    <= sqrt(2 max(m - (dot - bound), 0)).

    Summed in float32 in any order, a dot product is within gamma_m times
    the sum of |products| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 3.1), gamma_m = m u / (1 - m u) with
    u = 2**-24, and casting both operands to float32 adds (1 + u)**2 - 1.
    The sum of |products| is at most ||qz|| ||wz|| = m (1 + eps), where eps,
    gamma_{m+8} at the float64 unit 2**-53, bounds the rounding in z that
    keeps ||z||**2 from being exactly m.  The last term, 16 m eps, is the
    allowance for the float64 rounding of the direct norm and of the two
    square roots, about four times what they need, and absorbs float32
    underflow too.
    """
    u, u64 = 2.0**-24, 2.0**-53
    gamma = m * u / (1 - m * u)
    eps = (m + 8) * u64 / (1 - (m + 8) * u64)
    return m * (1 + eps) * ((1 + u) ** 2 * (1 + gamma) - 1) + 16 * m * eps


def direct_distances(qz, windows) -> np.ndarray:
    """Direct norm ||qz - wz|| from the z-normalized query qz to every row
    of a (Z, valid) pair, NaN where the window is not valid.

    The direct difference keeps full precision near zero, unlike the
    2*(m - dot) shortcut.
    """
    z, valid = windows
    return np.where(valid, np.linalg.norm(z - qz, axis=1), np.nan)


def distance_profile(q, t) -> np.ndarray:
    """Distance from query q to every length-m window of t, NaN at the
    constant windows of t.  O(n*m) total."""
    q = np.asarray(q, dtype=float)
    t = t.values if isinstance(t, MetricSeries) else np.asarray(t, dtype=float)
    if not 2 <= len(q) <= len(t):
        raise ValueError("need 2 <= len(q) <= len(t)")
    return direct_distances(znormalize(q), znormalized_windows(t, len(q)))
