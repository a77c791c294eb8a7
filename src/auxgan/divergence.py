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

A family is its (N, S) member matrix, one member a row, and each family
quantity is computed over the whole matrix: the family is checked with one
minimum and one pass of row sums, and `generalized_jsd` takes every
member's entropy from one log pass over one scratch matrix.  The member
entropies are then summed, weighted, left to right.  Where no member has a
zero entry the JSD has the bits of the per-member sum over each member's
positive entries; where some do, the row sums group their terms otherwise
and the value may move in its last bits (the tests bound the move at 1e-14
for supports up to 64).

The cross-entropy reads one support-major (K, N) copy of the members at the
K points with mass; C* is that copy over the point totals, and the terms are
summed in its memory order.  `verify_identity` takes one of two paths to it,
with the same bits.  A family whose smallest entry is positive keeps every
point and has mass in every term, so its copy is all of members.T, with no
point mask, gather or `where`; a family with a zero entry keeps the mask.
Either way a C* entry that underflows to 0 gives +inf with
AbsoluteContinuityWarning.  `verify_identity` builds no `ClassifierTable`, and
`optimal_classifier`'s table, made from a checked family, is not re-checked.
`verify_identity` and its helpers call ufuncs and their `reduce` directly,
not numpy's Python-level wrappers (`ndarray.sum`, `np.all`,
`np.flatnonzero`, ...).
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
        _check_rows(probs[None], "distribution")
        self.probs = probs


def _check_rows(rows, name):
    """Refuse a float64 matrix unless every row is a probability vector.

    The check is one pass for the minimum and one for the row sums; only a
    refusal goes row by row, to name the first bad row (`name` formatted
    with its index) and what is wrong with it.
    """
    sums = rows.sum(axis=1)
    # the comparisons are False on NaN, so a NaN entry fails the checks too
    if rows.min() >= 0.0 and np.all(np.abs(sums - 1.0) <= SUM_TOL):
        return
    for i, (row, total) in enumerate(zip(rows, sums)):
        if np.isnan(row).any():
            raise ValueError(f"{name.format(i)} has a NaN entry")
        if not row.min() >= 0.0:
            raise ValueError(f"{name.format(i)} has a negative entry")
        if not abs(total - 1.0) <= SUM_TOL:
            raise ValueError(f"{name.format(i)} must sum to 1 within {SUM_TOL}, "
                             f"got {float(total)!r}")


def _refuse_shapes(members):
    """Raise ValueError naming the first member that is not 1-D, is empty or differs in size."""
    first = np.shape(members[0])
    for i, member in enumerate(members):
        shape = np.shape(member)
        if len(shape) != 1:
            raise ValueError(f"member {i} is not 1-D: shape {shape}")
        if shape[0] == 0:
            raise ValueError(f"member {i} is empty")
        if shape != first:
            raise ValueError(f"member {i} has size {shape[0]}, member 0 has size {first[0]}")
    raise ValueError("members must be vectors of numbers")


def _probs(p):
    if isinstance(p, DiscreteDistribution):
        return p.probs
    return DiscreteDistribution(p).probs


class DistributionFamily:
    """N distributions on one support plus mixture weights pi.

    `members` is the family's own (N, S) float64 matrix, one member a row.
    """

    def __init__(self, members, weights=None):
        if not isinstance(members, np.ndarray):
            members = [m.probs if isinstance(m, DiscreteDistribution) else m for m in members]
        if len(members) < 2:
            raise ValueError(f"a family needs at least two members, got {len(members)}")
        try:
            matrix = np.array(members, dtype=np.float64, order="C")  # a copy, never a view
        except ValueError:  # members of two shapes, or an entry that is not a number
            matrix = None
        if matrix is None or matrix.ndim != 2 or matrix.shape[1] == 0:
            _refuse_shapes(members)
        _check_rows(matrix, "member {}")
        self.members = matrix  # (N, S)
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
        spread = np.absolute(self.weights - 1.0 / self.members.shape[0])
        return bool(np.maximum.reduce(spread) <= SUM_TOL)  # False on a NaN weight too


class ClassifierTable:
    """Per-support-point classifier outputs, one column per class.

    `support` holds the distinct indices of the family support the rows
    refer to; `excluded` lists points dropped because no member puts mass
    there.
    """

    def __init__(self, outputs, support=None, excluded=()):
        outputs = np.asarray(outputs, dtype=np.float64)
        if outputs.ndim != 2:
            raise ValueError(f"classifier table must be a matrix, got shape {outputs.shape}")
        if outputs.shape[0] == 0:
            raise ValueError("classifier table has no rows")
        if not outputs.min() >= 0.0:  # a NaN output fails too
            raise ValueError("classifier outputs must be non-negative")
        if not np.all(np.abs(outputs.sum(axis=1) - 1.0) <= SUM_TOL):
            raise ValueError(f"classifier rows must sum to 1 within {SUM_TOL}")
        if support is None:
            support = np.arange(outputs.shape[0])
        self.outputs = outputs
        self.support = _support_indices(support, outputs.shape[0])
        self.excluded = np.asarray(excluded, dtype=np.intp)

    @property
    def n_classes(self):
        return self.outputs.shape[1]


def _support_indices(support, rows):
    """`support` as distinct non-negative intp indices, one per row.

    A refusal names the first bad row or the point it repeats.
    """
    support = np.asarray(support)
    if support.shape != (rows,):
        raise ValueError("support indices must match the number of rows")
    if support.dtype.kind not in "iu":
        raise ValueError(f"support indices must be integers; row 0 holds {support[0]}")
    indices = support.astype(np.intp)
    if indices.min() < 0:
        row = int(np.argmax(indices < 0))
        raise ValueError(f"support index {indices[row]} on row {row} is negative")
    order = np.argsort(indices, kind="stable")
    repeats = np.flatnonzero(np.diff(indices[order]) == 0)
    if repeats.size:
        first, second = order[repeats[0]], order[repeats[0] + 1]
        raise ValueError(f"support point {indices[first]} is on rows {first} and {second}")
    return indices


class IdentityReport(NamedTuple):
    cce: float
    jsd: float
    residual: float


# ---------------------------------------------------------------------------
# elementary quantities

def _entropy(probs):
    positive = probs[probs > 0.0]
    return float(-np.add.reduce(positive * np.log(positive)))


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
    members, weights = family.members, family.weights
    mixture = weights @ members
    mixture_entropy = _entropy(mixture / np.add.reduce(mixture))
    # every member's p*log(p) in one scratch matrix, with 0*log(0) = 0
    terms = np.log(members, out=np.zeros(members.shape), where=members > 0.0)
    terms *= members
    # the weighted member entropies summed left to right, as a loop over the members would
    member_entropy = np.add.accumulate(weights * -np.add.reduce(terms, axis=1))[-1]
    # Exact value is non-negative; rounding may leave a tiny negative residue.
    return max(0.0, float(mixture_entropy - member_entropy))


# ---------------------------------------------------------------------------
# classifier tables and the cross-entropy identity

def _optimal(members):
    """(kept, mass, C*) of a checked (N, S) member matrix at the K points with mass.

    `mass` is members.T[kept], (K, N), in the memory order of members[:, kept].
    """
    totals = np.add.reduce(members, axis=0)
    kept = (totals > 0.0).nonzero()[0]
    mass = members.T[kept]
    return kept, mass, mass / totals[kept, None]


def _cross_entropy(mass, outputs):
    """cce_of_classifier's sum over (K, N) support-major mass and outputs, in memory order."""
    outputs = np.where(mass > 0.0, outputs, 1.0)  # a term without mass is 0 * log 1
    return _mass_log_sum(mass, outputs)


def _positive_cross_entropy(members):
    """_cross_entropy of C* for an (N, S) member matrix with no zero entry.

    Every point is kept and every term has mass, so there is no point mask,
    no gather and no `where`: the mass is one C-order copy of members.T,
    (S, N) in the memory order of the general path's members.T[kept], and
    its sum pairs the same terms.
    """
    mass = members.T.copy()
    outputs = np.divide(mass, np.add.reduce(members, axis=0)[:, None])
    return _mass_log_sum(mass, outputs)


def _mass_log_sum(mass, outputs):
    """-sum mass * log(outputs) in memory order; +inf with AbsoluteContinuityWarning on a 0 output.

    `outputs` must read 1 wherever the mass is 0, and is overwritten as
    scratch.  The warning names the caller of the public function two calls up.
    """
    if not np.minimum.reduce(outputs, axis=None) > 0.0:  # also where a C* entry underflowed
        warnings.warn("cross-entropy is +inf: the table gives zero where a member has mass",
                      AbsoluteContinuityWarning, stacklevel=4)
        return float("inf")
    terms = np.log(outputs, out=outputs)
    terms *= mass
    return float(-np.add.reduce(terms, axis=None))


def optimal_classifier(family):
    """Pointwise-optimal table C*[x][c] = p_c(x) / sum_i p_i(x).

    Support points where every member has zero mass are excluded from the
    table (they carry no probability) and reported in `excluded`.
    """
    kept, _, outputs = _optimal(family.members)
    table = ClassifierTable.__new__(ClassifierTable)  # rows of a checked family: no re-check
    table.outputs, table.support = outputs, kept
    table.excluded = np.flatnonzero(~family.members.any(axis=0))
    return table


def cce_of_classifier(family, table):
    """Categorical cross-entropy -sum_i sum_x p_i(x) log(table[x][i]).

    The table must cover every support point where a member has mass.
    Zero-mass terms contribute exactly zero; a zero output where the mass is
    positive gives +inf with AbsoluteContinuityWarning.
    """
    if table.n_classes != family.n_members:
        raise ValueError(f"table has {table.n_classes} classes, family has {family.n_members}")
    support, size = table.support, family.support_size
    if support.max() >= size:
        row = int(np.argmax(support >= size))
        raise ValueError(f"table row {row} is for support point {support[row]}, "
                         f"outside the family's {size} points")
    covered = np.zeros(size, dtype=bool)
    covered[support] = True
    missing = np.flatnonzero(family.members.any(axis=0) & ~covered)
    if missing.size:
        raise ValueError(f"the table leaves out support point {missing[0]}, "
                         "where a member has mass")
    return _cross_entropy(family.members.T[support], table.outputs)


def verify_identity(family):
    """Check  cce(optimal) = N*log(N) - N*jsd  at uniform weights.

    Returns an IdentityReport with the residual; never raises on a large
    residual, only on non-uniform weights (the identity is proven only for
    weights 1/N).
    """
    if not family.has_uniform_weights():
        raise ValueError("identity requires uniform mixture weights 1/N")
    members = family.members
    n = members.shape[0]
    if np.minimum.reduce(members, axis=None) > 0.0:
        cce = _positive_cross_entropy(members)
    else:
        _, mass, outputs = _optimal(members)
        cce = _cross_entropy(mass, outputs)
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
