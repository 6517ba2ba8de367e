"""Z-normalized distance kernel: normalization, window distances, distance profiles.

All distances are Euclidean distances between mean-0 / population-std-1
rescalings of equal-length windows, so they are invariant to positive affine
transforms of either input and bounded by 2*sqrt(m).

A distance to a constant window is undefined.  Such windows come out of
znormalized_windows marked invalid, and every array of distances holds NaN
at them.  NaN fails every comparison, so a threshold test skips them.

Precision policy: two kernels compute this distance.  The dot-product form
sqrt(2(m - qz.wz)), a matrix product of one series' windows against
another's, only ranks windows in the consensus search
(mining._nearest_distance).  Near 0 it loses precision (about 2e-7 on
affine copies), and its last bits depend on which rows a product holds.
Every reported distance, consensus radii included, comes from the direct
||qz - wz|| of direct_distances, the one direct-norm kernel, so an affine
copy comes out within 1e-9 of 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroVariance

# Absolute floor on the population std below which a window counts as constant.
EPS_VAR = 1e-12


@dataclass(frozen=True)
class MetricSeries:
    """One univariate metric series of a repository.

    timestamps are POSIX seconds (UTC), non-decreasing, one per data point.
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
