"""Z-normalized distance kernel: normalization, window distances, distance profiles.

All distances are Euclidean distances between mean-0 / population-std-1
rescalings of equal-length windows, so they are invariant to positive affine
transforms of either input and bounded by 2*sqrt(m).

Precision policy: two kernels compute this distance.  distance_profile, which
every match and occurrence distance comes from, takes the direct
||qz - wz||, so an affine copy comes out within 1e-9 of 0.  The consensus
search in mining ranks windows with the dot-product form sqrt(2(m - qz.wz)),
one matrix product per pair of series; near 0 it loses precision (about
2e-7 on affine copies), which the radii it reports carry.
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


def znormalize(x, eps_var: float = EPS_VAR) -> np.ndarray:
    """Rescale x to mean 0 and population standard deviation 1.

    Raises ZeroVariance when the population std is below eps_var.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to z-normalize")
    std = x.std()  # population (1/n) std
    if std < eps_var:
        raise ZeroVariance(f"window std {std:.3e} below {eps_var:.0e}")
    return (x - x.mean()) / std


def znorm_distance(q, w, eps_var: float = EPS_VAR) -> float:
    """Euclidean distance between the z-normalized forms of q and w.

    Equals sqrt(2*m*(1 - pearson(q, w))).  Raises ZeroVariance if either
    window is constant.
    """
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    if q.shape != w.shape:
        raise ValueError("windows must have equal length")
    diff = znormalize(q, eps_var) - znormalize(w, eps_var)
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


def windows_matrix(t, m: int) -> np.ndarray:
    """Read-only (n-m+1, m) view of all length-m windows of t."""
    t = np.ascontiguousarray(t, dtype=float)
    view = np.lib.stride_tricks.sliding_window_view(t, m)
    view.setflags(write=False)
    return view


def znormalized_windows(t, m: int, eps_var: float = EPS_VAR):
    """Z-normalize every length-m window of t.

    Returns (Z, valid): Z has constant windows zeroed out, valid marks the
    non-constant ones.
    """
    w = windows_matrix(t, m)
    mean, std = sliding_mean_std(t, m)
    valid = std >= eps_var
    safe = np.where(valid, std, 1.0)
    z = (w - mean[:, None]) / safe[:, None]
    z[~valid] = 0.0
    return z, valid


def distance_profile(q, t, eps_var: float = EPS_VAR) -> DistanceProfile:
    """Distance from query q to every length-m window of t.

    Uses precomputed sliding mean/std and a sliding dot product, O(n*m)
    total.  Constant target windows come back flagged invalid.
    """
    q = np.asarray(q, dtype=float)
    t = t.values if isinstance(t, MetricSeries) else np.asarray(t, dtype=float)
    m = len(q)
    n = len(t)
    if not 2 <= m <= n:
        raise ValueError("need 2 <= len(q) <= len(t)")
    qz = znormalize(q, eps_var)
    z, valid = znormalized_windows(t, m, eps_var)
    # direct ||qz - wz|| keeps full precision near zero, unlike the
    # 2*(m - dot/sigma) shortcut
    dist = np.linalg.norm(z - qz[None, :], axis=1)
    dist[~valid] = np.nan
    return DistanceProfile(query_length=m, distances=dist, valid=valid)
