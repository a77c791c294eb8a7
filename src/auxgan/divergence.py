"""Exact discrete-distribution analytics for the classifier-divergence theory.

Three facts about an N-output classifier reading samples from N class
distributions are verified here with exact finite sums (no quadrature):

* the categorical cross-entropy of a classifier table is minimized, point
  by point, by C*[x][c] = p_c(x) / sum_i p_i(x);
* at that optimum the cross-entropy never exceeds N*log(N), with equality
  exactly when all class distributions coincide;
* the optimum satisfies the identity  L* = N*log(N) - N*JSD  with the
  generalized Jensen-Shannon divergence at uniform weights, so driving the
  cross-entropy down drives the divergence between the classes up.

All entropies are in nats.  A table that gives a class zero where that
class has mass has cross-entropy +inf, as KL(p||q) does where q = 0 < p.
"""

import warnings
from typing import NamedTuple

import numpy as np

SUM_TOL = 1e-12  # probability vectors must sum to 1 within this


class AbsoluteContinuityWarning(RuntimeWarning):
    """Raised as a warning when KL(p||q) or a cross-entropy is +inf because q=0 where p>0."""


class DiscreteDistribution:
    """Probability vector over a finite support."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError(f"distribution must be a non-empty vector, got shape {probs.shape}")
        # the comparisons are False on NaN, so a NaN entry fails the checks too
        if not probs.min() >= 0.0:
            raise ValueError("distribution entries must be non-negative")
        if not abs(probs.sum() - 1.0) <= SUM_TOL:
            raise ValueError(f"distribution must sum to 1 within {SUM_TOL}, got {probs.sum()!r}")
        self.probs = probs


def _probs(p):
    if isinstance(p, DiscreteDistribution):
        return p.probs
    return DiscreteDistribution(p).probs


class DistributionFamily:
    """N distributions on one support plus mixture weights pi."""

    def __init__(self, members, weights=None):
        rows = [_probs(m) for m in members]
        if len(rows) < 2:
            raise ValueError("a family needs at least two members")
        sizes = {r.size for r in rows}
        if len(sizes) != 1:
            raise ValueError(f"members must share one support, got sizes {sorted(sizes)}")
        self.members = np.stack(rows)  # (N, S)
        n = self.members.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        weights = np.asarray(weights, dtype=np.float64)
        if (weights.shape != (n,) or not weights.min() >= 0.0
                or not abs(weights.sum() - 1.0) <= SUM_TOL):  # a NaN weight fails too
            raise ValueError("weights must be a non-negative vector summing to 1")
        self.weights = weights

    @property
    def n_members(self):
        return self.members.shape[0]

    @property
    def support_size(self):
        return self.members.shape[1]

    def has_uniform_weights(self):
        return bool(np.all(np.abs(self.weights - 1.0 / self.n_members) <= SUM_TOL))


class ClassifierTable:
    """Per-support-point classifier outputs, one column per class.

    `support` holds the indices of the family support the rows refer to;
    `excluded` lists points dropped because no member puts mass there.
    """

    def __init__(self, outputs, support=None, excluded=()):
        outputs = np.asarray(outputs, dtype=np.float64)
        if outputs.ndim != 2:
            raise ValueError(f"classifier table must be a matrix, got shape {outputs.shape}")
        if not outputs.min() >= 0.0:  # a NaN output fails too
            raise ValueError("classifier outputs must be non-negative")
        if not np.all(np.abs(outputs.sum(axis=1) - 1.0) <= SUM_TOL):
            raise ValueError(f"classifier rows must sum to 1 within {SUM_TOL}")
        if support is None:
            support = np.arange(outputs.shape[0])
        self.outputs = outputs
        self.support = np.asarray(support, dtype=np.intp)
        self.excluded = np.asarray(excluded, dtype=np.intp)
        if self.support.shape != (outputs.shape[0],):
            raise ValueError("support indices must match the number of rows")

    @property
    def n_classes(self):
        return self.outputs.shape[1]


class IdentityReport(NamedTuple):
    cce: float
    jsd: float
    residual: float


# ---------------------------------------------------------------------------
# elementary quantities

def _entropy(probs):
    positive = probs[probs > 0.0]
    return float(-(positive * np.log(positive)).sum())


def shannon_entropy(p):
    """-sum p*log(p) in nats, with 0*log(0) = 0.  Lies in [0, log S]."""
    return _entropy(_probs(p))


def kl_divergence(p, q):
    """sum p*log(p/q); +inf (with AbsoluteContinuityWarning) if q=0 where p>0."""
    pp, qq = _probs(p), _probs(q)
    if pp.shape != qq.shape:
        raise ValueError(f"support mismatch: {pp.shape} vs {qq.shape}")
    mask = pp > 0.0
    if np.any(qq[mask] == 0.0):
        warnings.warn("KL divergence is +inf: q has zero mass where p does not",
                      AbsoluteContinuityWarning, stacklevel=2)
        return float("inf")
    return float((pp[mask] * np.log(pp[mask] / qq[mask])).sum())


def tv_distance(p, q):
    """Total-variation distance 0.5 * sum |p - q|."""
    pp, qq = _probs(p), _probs(q)
    if pp.shape != qq.shape:
        raise ValueError(f"support mismatch: {pp.shape} vs {qq.shape}")
    return float(0.5 * np.abs(pp - qq).sum())


def generalized_jsd(family):
    """H(sum_i pi_i p_i) - sum_i pi_i H(p_i); in [0, H(pi)], 0 iff members equal."""
    mixture = family.weights @ family.members
    mixture_entropy = _entropy(mixture / mixture.sum())
    member_entropy = sum(w * _entropy(m) for w, m in zip(family.weights, family.members))
    # Exact value is non-negative; rounding may leave a tiny negative residue.
    return max(0.0, float(mixture_entropy - member_entropy))


# ---------------------------------------------------------------------------
# classifier tables and the cross-entropy identity

def optimal_classifier(family):
    """Pointwise-optimal table C*[x][c] = p_c(x) / sum_i p_i(x).

    Support points where every member has zero mass are excluded from the
    table (they carry no probability) and reported in `excluded`.
    """
    totals = family.members.sum(axis=0)
    kept = np.flatnonzero(totals > 0.0)
    excluded = np.flatnonzero(totals == 0.0)
    outputs = (family.members[:, kept] / totals[kept]).T
    return ClassifierTable(outputs, support=kept, excluded=excluded)


def cce_of_classifier(family, table):
    """Categorical cross-entropy -sum_i sum_x p_i(x) log(table[x][i]).

    Zero-mass terms contribute exactly zero; a zero output where the mass is
    positive gives +inf with AbsoluteContinuityWarning.
    """
    if table.n_classes != family.n_members:
        raise ValueError(f"table has {table.n_classes} classes, family has {family.n_members}")
    if table.support.size and table.support.max() >= family.support_size:
        raise ValueError("table support indices exceed the family support")
    mass = family.members[:, table.support]  # (N, S_kept)
    # (S_kept, N), 1.0 where a member has no mass: its term is 0 * log 1
    outputs = np.where(mass.T > 0.0, table.outputs, 1.0)
    if not outputs.min() > 0.0:
        warnings.warn("cross-entropy is +inf: the table gives zero where a member has mass",
                      AbsoluteContinuityWarning, stacklevel=2)
        return float("inf")
    return float(-(mass * np.log(outputs).T).sum())


def verify_identity(family):
    """Check  cce(optimal) = N*log(N) - N*jsd  at uniform weights.

    Returns an IdentityReport with the residual; never raises on a large
    residual, only on non-uniform weights (the identity is proven only for
    weights 1/N).
    """
    if not family.has_uniform_weights():
        raise ValueError("identity requires uniform mixture weights 1/N")
    n = family.n_members
    cce = cce_of_classifier(family, optimal_classifier(family))
    jsd = generalized_jsd(family)
    residual = abs(cce - (n * np.log(n) - n * jsd))
    return IdentityReport(cce=cce, jsd=jsd, residual=float(residual))


def random_family(n_members, support_size, rng):
    """Random family with every probability bounded away from zero.

    Each raw entry is offset by 1e-3, which keeps normalized entries
    >= 1e-3 / (S * 1.001): for support <= 64 above 1e-6, so identity
    residuals stay at float64 rounding level.
    """
    raw = rng.random((n_members, support_size)) + 1e-3
    members = raw / raw.sum(axis=1, keepdims=True)
    return DistributionFamily(members)
