import gc
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import auxgan
from auxgan import divergence
from auxgan.divergence import (AbsoluteContinuityWarning, ClassifierTable,
                               DiscreteDistribution, DistributionFamily,
                               cce_of_classifier, generalized_jsd,
                               kl_divergence, optimal_classifier,
                               random_family, shannon_entropy, tv_distance,
                               verify_identity)


def _family(*rows, weights=None):
    return DistributionFamily(np.array(rows, dtype=float), weights=weights)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution([0.5, 0.6])
    with pytest.raises(ValueError):
        DiscreteDistribution([-0.1, 1.1])
    with pytest.raises(ValueError):
        DiscreteDistribution([])
    with pytest.raises(ValueError):
        DiscreteDistribution([[0.5, 0.5]])


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: DiscreteDistribution([NAN, 1.0]),
    lambda: DiscreteDistribution([NAN, NAN]),
    lambda: _family([0.5, 0.5], [0.5, 0.5], weights=[NAN, 1.0]),
    lambda: _family([0.5, 0.5], [0.5, 0.5], weights=[NAN, 0.5]),
    lambda: ClassifierTable([[NAN, 1.0]]),
    lambda: verify_identity(_family([NAN, 1.0], [0.5, 0.5])),
], ids=["distribution", "all-nan-distribution", "family-weights",
        "family-weight-pair", "classifier-table", "identity-member"])
def test_a_nan_is_rejected_at_every_constructor(build):
    with pytest.raises(ValueError):
        build()


def test_entropy_values():
    assert shannon_entropy(DiscreteDistribution([0.25] * 4)) == pytest.approx(np.log(4.0))
    assert shannon_entropy(DiscreteDistribution([1.0, 0.0, 0.0])) == 0.0
    got = shannon_entropy(DiscreteDistribution([0.5, 0.25, 0.25]))
    assert got == pytest.approx(1.5 * np.log(2.0), abs=1e-12)


def test_entropy_bounds_on_random_distributions():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = int(rng.integers(2, 20))
        w = rng.uniform(0.0, 1.0, size=s) + 1e-9
        p = DiscreteDistribution(w / w.sum())
        h = shannon_entropy(p)
        assert 0.0 <= h <= np.log(s) + 1e-12


def test_kl_self_is_zero():
    p = DiscreteDistribution([0.3, 0.7])
    assert kl_divergence(p, p) == 0.0


def test_kl_point_mass_against_uniform():
    got = kl_divergence(DiscreteDistribution([1.0, 0.0]), DiscreteDistribution([0.5, 0.5]))
    assert got == pytest.approx(np.log(2.0), abs=1e-15)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        s = int(rng.integers(2, 16))
        p, q = (DiscreteDistribution(w / w.sum()) for w in rng.uniform(0.01, 1.0, size=(2, s)))
        d = kl_divergence(p, q)
        assert np.isfinite(d) and d >= 0.0


def test_kl_absolute_continuity_violation():
    p = DiscreteDistribution([0.5, 0.5])
    q = DiscreteDistribution([1.0, 0.0])
    with pytest.warns(AbsoluteContinuityWarning):
        assert kl_divergence(p, q) == float("inf")


def test_kl_support_mismatch():
    with pytest.raises(ValueError):
        kl_divergence(DiscreteDistribution([1.0]), DiscreteDistribution([0.5, 0.5]))


def test_tv_distance():
    p = DiscreteDistribution([0.5, 0.5])
    q = DiscreteDistribution([0.51, 0.49])
    assert tv_distance(p, q) == pytest.approx(0.01, abs=1e-15)
    assert tv_distance(p, p) == 0.0


def test_family_validation():
    with pytest.raises(ValueError):
        DistributionFamily(np.array([[1.0, 0.0]]))  # one member
    with pytest.raises(ValueError):
        _family([0.5, 0.5], [0.5, 0.5], weights=[0.9, 0.2])


@pytest.mark.parametrize("members, message", [
    ([[1.0, 0.0]], r"at least two members, got 1"),
    ([[0.5, 0.5], [[0.5, 0.5]]], r"member 1 is not 1-D"),
    ([[0.5, 0.5], 0.5], r"member 1 is not 1-D"),
    ([[0.5, 0.5], [0.5, 0.5], []], r"member 2 is empty"),
    ([[0.5, 0.5], [0.5, 0.5], [1.0]], r"member 2 has size 1, member 0 has size 2"),
    (np.array([[0.5, 0.5], [0.5, 0.5], [NAN, 1.0]]), r"member 2 has a NaN entry"),
    (np.array([[0.5, 0.5], [1.5, -0.5]]), r"member 1 has a negative entry"),
    (np.array([[0.5, 0.5], [0.5, 0.6]]), r"member 1 must sum to 1 within 1e-12, got 1.1"),
    ([[0.5, 0.6], [1.5, -0.5]], r"member 0 must sum to 1"),  # the first bad member is named
    ([DiscreteDistribution([0.5, 0.5]), [0.2, 0.7]], r"member 1 must sum to 1"),
], ids=["one-member", "2d-member", "scalar-member", "empty", "size", "nan", "negative",
        "sum", "first-bad-member", "distribution-and-row"])
def test_a_bad_family_names_its_first_bad_member_and_the_failed_check(members, message):
    with pytest.raises(ValueError, match=message):
        DistributionFamily(members)


def _reference_entropy(probs):
    positive = probs[probs > 0.0]
    return -(positive * np.log(positive)).sum()


def _reference_jsd(family):
    """generalized_jsd one member at a time, as the library once computed it."""
    mixture = family.weights @ family.members
    member = sum(w * _reference_entropy(m) for w, m in zip(family.weights, family.members))
    return max(0.0, float(_reference_entropy(mixture / mixture.sum()) - member))


@st.composite
def _families(draw, zeros):
    n, s = draw(st.integers(2, 10)), draw(st.integers(1, 64))
    raw = draw(hnp.arrays(np.float64, (n, s), elements=st.floats(1e-3, 1.0)))
    if zeros:  # zero entries anywhere but one kept entry per row
        raw *= draw(hnp.arrays(np.bool_, (n, s)))
        raw[np.arange(n), draw(hnp.arrays(np.intp, n, elements=st.integers(0, s - 1)))] = 0.5
    weights = None
    if draw(st.booleans()):
        raw_weights = draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1.0)))
        weights = raw_weights / raw_weights.sum()
    return DistributionFamily(raw / raw.sum(axis=1, keepdims=True), weights=weights)


@settings(max_examples=300, deadline=None)
@given(family=_families(zeros=False))
def test_jsd_without_zero_entries_equals_the_per_member_sum_bit_for_bit(family):
    assert generalized_jsd(family) == _reference_jsd(family)


@settings(max_examples=300, deadline=None)
@given(family=_families(zeros=True))
def test_jsd_with_zero_entries_equals_the_per_member_sum_within_1e_14(family):
    assert abs(generalized_jsd(family) - _reference_jsd(family)) <= 1e-14


def test_a_family_keeps_its_own_copy_of_the_members():
    rows = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    listed = [rows[0].copy(), DiscreteDistribution(rows[1].copy()), list(rows[2])]
    families = [DistributionFamily(rows), DistributionFamily(listed)]
    jsd = generalized_jsd(families[0])
    rows[:] = [[1.0, 0.0]] * 3
    listed[0][:] = 0.5
    listed[1].probs[:] = 0.5
    for family in families:
        assert family.members.tolist() == [[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]]
        assert generalized_jsd(family) == jsd


def test_verify_identity_calls_the_module_generalized_jsd_exactly_once(monkeypatch):
    # the benchmark times the identity workload's eval_ms by rebinding this name
    real, seen = divergence.generalized_jsd, []

    def counted(family):
        seen.append(family)
        return real(family)

    monkeypatch.setattr(divergence, "generalized_jsd", counted)
    rng = np.random.default_rng(11)
    for calls in range(1, 6):
        family = random_family(int(rng.integers(2, 8)), int(rng.integers(2, 32)), rng)
        report = verify_identity(family)
        assert len(seen) == calls and seen[-1] is family
        assert report.jsd == real(family)


def test_jsd_identical_members_is_zero():
    fam = _family([0.2, 0.8], [0.2, 0.8], [0.2, 0.8])
    assert generalized_jsd(fam) == 0.0


def test_jsd_disjoint_supports_is_log_n():
    fam = _family([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert generalized_jsd(fam) == pytest.approx(np.log(3.0), abs=1e-12)


def test_jsd_equals_mean_kl_to_mixture():
    rng = np.random.default_rng(2)
    for _ in range(50):
        members = np.array([rng.uniform(0.01, 1.0, size=8) for _ in range(3)])
        members /= members.sum(axis=1, keepdims=True)
        fam = DistributionFamily(members)
        mean = DiscreteDistribution(members.mean(axis=0))
        via_kl = np.mean([kl_divergence(DiscreteDistribution(m), mean) for m in members])
        assert generalized_jsd(fam) == pytest.approx(via_kl, abs=1e-12)


def test_jsd_positive_iff_members_differ():
    differing = _family([0.6, 0.4], [0.4, 0.6])
    assert generalized_jsd(differing) > 0.0
    same = _family([0.6, 0.4], [0.6, 0.4])
    assert generalized_jsd(same) == 0.0


def test_jsd_bounded_by_log_n():
    rng = np.random.default_rng(3)
    for _ in range(100):
        fam = random_family(int(rng.integers(2, 6)), int(rng.integers(2, 20)), rng)
        j = generalized_jsd(fam)
        assert 0.0 <= j <= np.log(fam.n_members) + 1e-12


def test_optimal_classifier_identical_members():
    fam = _family([0.2, 0.8], [0.2, 0.8], [0.2, 0.8], [0.2, 0.8])
    table = optimal_classifier(fam)
    assert np.allclose(table.outputs, 0.25, atol=1e-15)


def test_optimal_classifier_disjoint_supports():
    fam = _family([1.0, 0.0], [0.0, 1.0])
    table = optimal_classifier(fam)
    assert np.array_equal(table.outputs, np.eye(2))


def test_optimal_classifier_formula():
    rng = np.random.default_rng(4)
    fam = random_family(4, 12, rng)
    table = optimal_classifier(fam)
    totals = fam.members.sum(axis=0)
    expected = (fam.members / totals).T
    assert np.allclose(table.outputs, expected, atol=1e-15)
    assert np.abs(table.outputs.sum(axis=1) - 1.0).max() <= 1e-12


def test_optimal_classifier_gives_a_point_without_mass_the_uniform_row():
    fam = _family([0.5, 0.5, 0.0], [0.3, 0.7, 0.0])
    table = optimal_classifier(fam)
    assert table.outputs.shape == (3, 2)
    assert table.outputs.tolist() == [[0.5 / 0.8, 0.3 / 0.8], [0.5 / 1.2, 0.7 / 1.2], [0.5, 0.5]]


def test_per_point_maximizer_matches_grid_search():
    # cross-entropy contribution at one point: f -> m*log f + n*log(1-f)
    rng = np.random.default_rng(5)
    grid = np.arange(1, 10000) / 10000.0
    fam = random_family(4, 6, rng)
    totals = fam.members.sum(axis=0)
    for c in range(4):
        for x in range(6):
            m = fam.members[c, x]
            n = totals[x] - m
            values = m * np.log(grid) + n * np.log(1.0 - grid)
            best = grid[np.argmax(values)]
            assert abs(best - m / (m + n)) <= 1e-4


def test_cce_identical_members_optimal_is_n_log_n():
    members = np.tile(np.full(16, 1.0 / 16.0), (10, 1))
    fam = DistributionFamily(members)
    cce = cce_of_classifier(fam, optimal_classifier(fam))
    assert cce == pytest.approx(10.0 * np.log(10.0), abs=1e-9)
    assert cce == pytest.approx(23.025851, abs=1e-6)


def test_cce_one_hot_on_disjoint_supports_is_zero():
    fam = _family([1.0, 0.0], [0.0, 1.0])
    cce = cce_of_classifier(fam, optimal_classifier(fam))
    assert abs(cce) <= 1e-9


def test_cce_of_a_zero_output_where_a_member_has_mass_is_inf():
    fam = _family([0.5, 0.5], [0.0, 1.0])
    with pytest.warns(AbsoluteContinuityWarning):
        assert cce_of_classifier(fam, ClassifierTable([[1.0, 0.0], [0.0, 1.0]])) == np.inf


def test_cce_reads_zero_outputs_without_mass_and_tiny_outputs_unclamped():
    # member 1 has no mass at point 0, so the table's zero there costs nothing;
    # an output of 1e-300 costs its own log, not a clamp's
    fam = _family([0.5, 0.5], [0.0, 1.0])
    table = ClassifierTable([[1.0, 0.0], [1e-300, 1.0]])
    assert cce_of_classifier(fam, table) == -0.5 * np.log(1e-300)


def test_cce_shape_mismatch():
    fam = _family([0.5, 0.5], [0.4, 0.6])
    bad = ClassifierTable(np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match=r"shape \(2, 3\), the family needs \(2, 2\)"):
        cce_of_classifier(fam, bad)
    # a table must have a row for every support point, with mass or not
    with pytest.raises(ValueError, match=r"shape \(2, 2\), the family needs \(3, 2\)"):
        cce_of_classifier(_family([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]),
                          ClassifierTable(np.full((2, 2), 0.5)))


_OVERLAP = ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])


@pytest.mark.parametrize("outputs, message", [
    (np.zeros((0, 2)), r"non-empty matrix, got shape \(0, 2\)"),
    (np.zeros((2, 0)), r"non-empty matrix, got shape \(2, 0\)"),
    ([0.5, 0.5], r"non-empty matrix, got shape \(2,\)"),
    ([[0.5, 0.5], [NAN, 1.0]], r"classifier row 1 has a NaN entry"),
    ([[0.5, 0.5], [1.5, -0.5]], r"classifier row 1 has a negative entry"),
    ([[0.5, 0.5], [0.5, 0.6]], r"classifier row 1 must sum to 1 within 1e-12, got 1.1"),
], ids=["empty", "no-columns", "1d", "nan", "negative", "sum"])
def test_a_bad_table_is_refused_naming_what_is_wrong(outputs, message):
    with pytest.raises(ValueError, match=message):
        ClassifierTable(outputs)


def test_cce_matches_direct_summation():
    rng = np.random.default_rng(6)
    fam = random_family(3, 5, rng)
    table = optimal_classifier(fam)
    manual = 0.0
    for i in range(3):
        for x in range(5):
            manual -= fam.members[i, x] * np.log(table.outputs[x, i])
    assert cce_of_classifier(fam, table) == pytest.approx(manual, abs=1e-12)


def test_identity_for_identical_members():
    members = np.tile([0.1, 0.2, 0.3, 0.4], (5, 1))
    report = verify_identity(DistributionFamily(members))
    assert report.cce == pytest.approx(5.0 * np.log(5.0), abs=1e-9)
    assert report.jsd == 0.0
    assert report.residual <= 1e-9


def test_identity_for_disjoint_supports():
    fam = _family([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    report = verify_identity(fam)
    assert abs(report.cce) <= 1e-6
    assert report.jsd == pytest.approx(np.log(3.0), abs=1e-12)
    assert report.residual <= 1e-6


def test_identity_requires_uniform_weights():
    fam = _family([0.5, 0.5], [0.2, 0.8], weights=[0.7, 0.3])
    with pytest.raises(ValueError):
        verify_identity(fam)


def test_identity_on_random_families():
    rng = np.random.default_rng(7)
    for _ in range(100):
        fam = random_family(int(rng.integers(2, 8)), int(rng.integers(2, 32)), rng)
        assert verify_identity(fam).residual <= 1e-9


def _reference_identity(family):
    """verify_identity in two steps: C*'s table, then its cross-entropy over a second copy."""
    members, n = family.members, family.n_members
    totals = members.sum(axis=0)
    outputs = np.ascontiguousarray((members / np.where(totals > 0.0, totals, 1.0)).T)
    mass = np.ascontiguousarray(members.T)  # (S, N): the terms are summed point by point
    outputs = np.where(mass > 0.0, outputs, 1.0)
    cce = float(-(mass * np.log(outputs)).sum()) if outputs.min() > 0.0 else float("inf")
    jsd = generalized_jsd(family)
    return divergence.IdentityReport(cce, jsd, float(abs(cce - (n * np.log(n) - n * jsd))))


@st.composite
def _uniform_families(draw):
    """Families of N 2-10 on supports 1-300, some with zero entries and all-zero points."""
    n, s = draw(st.integers(2, 10)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((n, s)) + 1e-3
    if draw(st.booleans()):
        raw *= rng.random((n, s)) < draw(st.floats(0.1, 0.9))
    alive = np.ones(s, dtype=bool)
    if draw(st.booleans()):
        alive = rng.random(s) < draw(st.floats(0.1, 0.9))
        alive[rng.integers(s)] = True
    raw[:, ~alive] = 0.0
    kept = rng.choice(np.flatnonzero(alive), size=n)  # one entry with mass per row
    raw[np.arange(n), kept] = np.maximum(raw[np.arange(n), kept], 0.5)
    return DistributionFamily(raw / raw.sum(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(family=_uniform_families())
def test_verify_identity_equals_the_two_step_reference_bit_for_bit(family):
    assert verify_identity(family) == _reference_identity(family)


@settings(max_examples=300, deadline=None)
@given(family=_uniform_families())
def test_cce_of_the_optimal_table_is_verify_identity_cce_bit_for_bit(family):
    assert cce_of_classifier(family, optimal_classifier(family)) == verify_identity(family).cce


def test_verify_identity_builds_no_checked_table(monkeypatch):
    def refuse(*_, **__):
        raise AssertionError("verify_identity checked a table it built itself")

    monkeypatch.setattr(ClassifierTable, "__init__", refuse)
    rng = np.random.default_rng(12)
    for _ in range(5):
        family = random_family(int(rng.integers(2, 11)), int(rng.integers(1, 300)), rng)
        assert verify_identity(family) == _reference_identity(family)
    fam = _family(*_OVERLAP)
    assert cce_of_classifier(fam, optimal_classifier(fam)) == verify_identity(fam).cce


def _count_where(monkeypatch):
    """The list that gets one entry per np.where call from here on."""
    real, calls = np.where, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(np, "where", counted)
    return calls


def test_a_family_without_zero_entries_takes_the_direct_path(monkeypatch):
    rng = np.random.default_rng(13)
    families = [random_family(int(rng.integers(2, 11)), int(rng.integers(1, 300)), rng)
                for _ in range(20)]
    references = [_reference_identity(family) for family in families]
    calls = _count_where(monkeypatch)
    assert [verify_identity(family) for family in families] == references
    assert calls == []
    verify_identity(_family(*_OVERLAP))
    assert len(calls) == 1


def test_a_family_with_a_zero_entry_takes_the_general_path(monkeypatch):
    fam = _family([0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8])
    reference = _reference_identity(fam)
    calls = _count_where(monkeypatch)
    assert verify_identity(fam) == reference
    assert len(calls) == 1


@pytest.mark.parametrize("family, table", [
    # every entry is positive, but C*[0][0] = 5e-324 / 2.7 rounds to 0
    (_family([5e-324, 1.0], [0.9, 0.1], [0.9, 0.1], [0.9, 0.1]), None),
    # member 3 has a zero entry, and C*[0][0] = 5e-324 / 2.8 rounds to 0
    (_family([5e-324, 1.0], [0.9, 0.1], [0.9, 0.1], [1.0, 0.0]), None),
    (_family([0.5, 0.5], [0.0, 1.0]), ClassifierTable([[1.0, 0.0], [0.0, 1.0]])),
], ids=["positive-family", "zero-entry-family", "hand-made-table"])
def test_a_zero_output_with_mass_warns_once_naming_the_caller(family, table):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if table is None:
            report = verify_identity(family)
            cce = report.cce
        else:
            cce = cce_of_classifier(family, table)
    assert cce == float("inf")
    assert [w.category for w in caught] == [AbsoluteContinuityWarning]  # no numpy RuntimeWarning
    assert caught[0].filename == __file__
    if table is None:
        assert report == _reference_identity(family)


def test_verify_identity_stays_within_its_interpreter_call_budget():
    """Guards `verify_identity` against numpy's Python-level wrappers.

    On a family of 10 members, counted as here, it made 42 Python-level
    calls, 22 of them inside numpy (`ndarray.sum`/`min`, `np.all`,
    `np.flatnonzero`, `np.where`, `np.zeros_like`) and 11 in the generator
    that summed the member entropies.  Calling ufuncs and their `reduce`
    directly, with the direct path for a family without zero entries, it
    makes 7: the module's own functions and IdentityReport's constructor.
    """
    family = random_family(10, 300, np.random.default_rng(14))
    verify_identity(family)  # warm up
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    gc.collect()
    gc.disable()  # a collection could run finalizers inside the call
    sys.setprofile(profile)
    try:
        verify_identity(family)
    finally:
        sys.setprofile(None)
        gc.enable()
    report_new = divergence.IdentityReport.__new__.__code__
    assert [code.co_name for code in calls
            if code.co_filename != divergence.__file__ and code is not report_new] == []
    assert len(calls) <= 7


def test_optimal_beats_random_tables():
    rng = np.random.default_rng(8)
    for _ in range(20):
        fam = random_family(3, 8, rng)
        best = cce_of_classifier(fam, optimal_classifier(fam))
        for _ in range(20):
            outputs = rng.uniform(0.01, 1.0, size=(8, 3))
            outputs /= outputs.sum(axis=1, keepdims=True)
            assert best <= cce_of_classifier(fam, ClassifierTable(outputs)) + 1e-12


def test_monotone_link_between_jsd_and_optimal_cce():
    # cce at optimum is N log N - N*jsd, so ordering by jsd reverses cce
    rng = np.random.default_rng(9)
    fams = [random_family(4, 10, rng) for _ in range(20)]
    scored = [(generalized_jsd(f), cce_of_classifier(f, optimal_classifier(f)))
              for f in fams]
    for (ja, ca) in scored:
        for (jb, cb) in scored:
            if ja < jb:
                assert ca > cb


def test_random_family_respects_probability_floor():
    rng = np.random.default_rng(10)
    for _ in range(50):
        fam = random_family(int(rng.integers(2, 11)), int(rng.integers(2, 65)), rng)
        assert fam.members.min() >= 1e-6
        assert fam.has_uniform_weights()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_afresh(statement="import auxgan.divergence", **preset):
    """(auxgan modules loaded, BLAS thread variables) after `statement` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(auxgan.__file__))
    code = "\n".join([
        "import os, sys",
        f"sys.path.insert(0, {src!r})",
        statement,
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'auxgan'))",
        f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))",
    ])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, **preset}, timeout=60, check=True)
    modules, threads = done.stdout.splitlines()
    return modules.split(), threads.split()


def test_the_exact_library_loads_no_training_code_and_still_pins_blas():
    assert _load_afresh() == (["auxgan", "auxgan.divergence"], ["1", "1", "1"])
    # a variable the environment sets is left as it is
    assert _load_afresh(OPENBLAS_NUM_THREADS="3")[1] == ["3", "1", "1"]


def test_verify_identities_loads_only_the_cli_and_the_exact_library():
    statement = "\n".join([
        "import contextlib, io",
        "from auxgan import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    cli.main(['verify-identities', '--n', '3', '--support', '4', '--trials', '2'])",
    ])
    assert _load_afresh(statement)[0] == ["auxgan", "auxgan.cli", "auxgan.divergence"]
