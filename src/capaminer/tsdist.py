"""Z-normalized distance kernel: normalization, window distances, distance profiles.

All distances are Euclidean distances between mean-0 / population-std-1
rescalings of equal-length windows, so they are invariant to positive affine
transforms of either input and bounded by 2*sqrt(m).

Precision policy: two kernels compute this distance.  The dot-product form
sqrt(2(m - qz.wz)), a matrix product of one series' windows against
another's, only ranks windows in the consensus search
(mining._nearest_distance).  Near 0 it loses precision (about 2e-7 on
affine copies), and its last bits depend on which rows a product holds.
Every reported distance, consensus radii included, comes from the direct
||qz - wz||, as distance_profile takes it, so an affine copy comes out
within 1e-9 of 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class DistanceProfile:
    """Distances from a fixed query to every window of one series.

    Entries where the target window is constant are undefined: valid[i] is
    False and distances[i] is NaN.  Callers must consult valid before using
    a distance.
    """

    query_length: int
    distances: np.ndarray
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        v = self.valid
        if v is None:
            v = np.isfinite(d)
        v = np.asarray(v, dtype=bool)
        d.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "valid", v)

    def __len__(self):
        return len(self.distances)


def znormalize(x) -> np.ndarray:
    """Rescale x to mean 0 and population standard deviation 1.

    Raises ZeroVariance when the population std is below EPS_VAR.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to z-normalize")
    std = x.std()  # population (1/n) std
    if std < EPS_VAR:
        raise ZeroVariance(f"window std {std:.3e} below {EPS_VAR:.0e}")
    return (x - x.mean()) / std


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


def sliding_mean_std(t, m: int):
    """Mean and population std of every length-m window of t.

    Two-pass over a strided window view: O(n*m) but numerically identical
    to recomputing each window directly, which the cumsum trick is not for
    near-constant windows.
    """
    t = np.asarray(t, dtype=float)
    n = len(t)
    if not 1 <= m <= n:
        raise ValueError("window length out of range")
    w = np.lib.stride_tricks.sliding_window_view(t, m)
    return w.mean(axis=1), w.std(axis=1)


def znormalized_windows(t, m: int):
    """Z-normalize every length-m window of t.

    Returns (Z, valid): Z has constant windows zeroed out, valid marks the
    non-constant ones.
    """
    mean, std = sliding_mean_std(t, m)
    w = np.lib.stride_tricks.sliding_window_view(np.asarray(t, dtype=float), m)
    valid = std >= EPS_VAR
    safe = np.where(valid, std, 1.0)
    z = (w - mean[:, None]) / safe[:, None]
    z[~valid] = 0.0
    return z, valid


def distance_profile(q, t) -> DistanceProfile:
    """Distance from query q to every length-m window of t.

    Takes the direct norm ||qz - wz|| between the z-normalized query and
    every z-normalized window, O(n*m) total.  Constant target windows come
    back flagged invalid.
    """
    q = np.asarray(q, dtype=float)
    t = t.values if isinstance(t, MetricSeries) else np.asarray(t, dtype=float)
    m = len(q)
    n = len(t)
    if not 2 <= m <= n:
        raise ValueError("need 2 <= len(q) <= len(t)")
    qz = znormalize(q)
    z, valid = znormalized_windows(t, m)
    # direct ||qz - wz|| keeps full precision near zero, unlike the
    # 2*(m - dot/sigma) shortcut
    dist = np.linalg.norm(z - qz[None, :], axis=1)
    dist[~valid] = np.nan
    return DistanceProfile(query_length=m, distances=dist, valid=valid)
