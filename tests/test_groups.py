"""Tests for the base graphs and their exact transition kernels."""

import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwlab import cli, groups, intersections
from brwlab.groups import GroupSpec, InvalidElementError

from brwlab.gw import MarkedTree, OffspringDistribution, sample_gw, sample_marked_fuzz_tree
from brwlab.walks import run_walk, trace

from oracles import (
    TransitionTable,
    bfs_distances,
    box_lattice_series,
    distance_reference,
    enumerate_walk_endpoint_law,
    full_tree_scaled_series,
    inv_reference,
    length_reference,
    mul_reference,
    neighbors_reference,
    tree_distance_law,
    tree_return_counts,
    tree_return_series_correlate,
    tree_return_tail_decimal,
    validate_elem_reference,
    visits_series_reference,
    z3_even_return_exact,
)

T3 = GroupSpec("regular_tree", 3)
T4 = GroupSpec("regular_tree", 4)
F2 = GroupSpec("free_group", 2)
Z1 = GroupSpec("integer_lattice", 1)
Z2 = GroupSpec("integer_lattice", 2)
Z3 = GroupSpec("integer_lattice", 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("regular_tree", 2)
    with pytest.raises(ValueError):
        GroupSpec("free_group", 1)
    with pytest.raises(ValueError):
        GroupSpec("integer_lattice", 4)
    with pytest.raises(ValueError):
        GroupSpec("dihedral", 5)
    assert T4.degree == 4
    assert F2.degree == 4
    assert Z2.degree == 4
    assert T4.is_tree_like and not Z1.is_tree_like


def test_degree_cap():
    """neighbors() builds every neighbour word at each walk step, so the
    degree is capped when the spec is made."""
    assert GroupSpec("regular_tree", groups.MAX_DEGREE).degree == 64
    assert GroupSpec("free_group", groups.MAX_DEGREE // 2).degree == 64
    for kind, param in [("regular_tree", 65), ("free_group", 33), ("free_group", 10**8)]:
        with pytest.raises(ValueError, match="exceeds"):
            GroupSpec(kind, param)


def test_spec_value_semantics():
    """A spec is equal and hashed by (kind, param) alone, and a pickle
    round trip gives an equal spec with the same neighbours, before and
    after its family has been used.  A parsed config's spec that has
    stepped does the same, as a --workers 2 pool sends it."""
    for kind, param, x in [("regular_tree", 4, (0, 1, 2)), ("free_group", 2, (1, -2)),
                           ("integer_lattice", 3, (1, 0, -2))]:
        fresh, used = GroupSpec(kind, param), GroupSpec(kind, param)
        want = groups.neighbors(used, x)
        assert fresh == used and hash(fresh) == hash(used) == hash((kind, param))
        for g in (fresh, used):
            back = pickle.loads(pickle.dumps(g))
            assert back == g and hash(back) == hash(g) and repr(back) == repr(g)
            assert groups.neighbors(back, x) == want
    assert GroupSpec("regular_tree", 4) != GroupSpec("free_group", 2)  # same degree
    assert len({GroupSpec("regular_tree", 4), T4, F2, GroupSpec("free_group", 2)}) == 2
    g = cli.parse_config({"experiment": "spectra", "seed": 1, "n_max": 5,
                          "group": {"kind": "free_group", "param": 3}})["group"]
    want = groups.neighbors(g, (3, -1))
    back = pickle.loads(pickle.dumps(g))
    assert back == g and groups.neighbors(back, (3, -1)) == want


def test_neighbors_degree_and_examples():
    assert len(groups.neighbors(T4, ())) == 4
    assert set(groups.neighbors(Z1, (0,))) == {(1,), (-1,)}
    # rank-2 free group at the word "a": products with a, a^-1, b, b^-1
    nbrs = groups.neighbors(F2, (1,))
    assert len(nbrs) == 4
    assert set(nbrs) == {(1, 1), (), (1, 2), (1, -2)}


def test_neighbors_are_at_distance_one():
    for g, x in [(T3, (0, 1)), (F2, (1, -2)), (Z2, (3, -1))]:
        for y in groups.neighbors(g, x):
            assert groups.distance(g, x, y) == 1


def test_invalid_elements_rejected():
    with pytest.raises(InvalidElementError):
        groups.neighbors(T3, (0, 0))  # not reduced (involutive letters)
    with pytest.raises(InvalidElementError):
        groups.neighbors(F2, (1, -1))  # cancellation not applied
    with pytest.raises(InvalidElementError):
        groups.neighbors(F2, (3,))  # letter outside the rank
    with pytest.raises(InvalidElementError):
        groups.neighbors(Z2, (1,))  # wrong dimension
    with pytest.raises(InvalidElementError):
        groups.p_series(T3, (5,), (), 2)


T64 = GroupSpec("regular_tree", 64)
F32 = GroupSpec("free_group", 32)
_INTS = st.lists(st.integers(-3, 4), max_size=7).map(tuple)
_SMALL = st.lists(st.integers(0, 2) | st.integers(-2, 2), max_size=4).map(tuple)
_ODD = st.one_of(st.booleans(), st.integers(-3, 4).map(np.int64), st.floats(allow_nan=True),
                 st.none(), st.sampled_from([2**70, -(2**70), 2**63]), st.just([1]))
_MIXED = st.tuples(_INTS, _ODD, _INTS).map(lambda t: t[0] + (t[1],) + t[2])
# adjacent equal and adjacent inverse letters: the two non-reduced forms
_STUTTER = st.tuples(_SMALL, st.integers(-3, 3), st.booleans(), _SMALL).map(
    lambda t: t[0] + (t[1], t[1] if t[2] else -t[1]) + t[3])
_NOT_A_TUPLE = st.one_of(st.lists(st.integers(0, 3), max_size=3), st.integers(),
                         st.text(max_size=3), st.none(), st.just(np.array([0, 1])))
_SPECS = [T3, T4, F2, GroupSpec("free_group", 3), T64, F32, Z1, Z2, Z3]


def _walk_word(g, picks):
    """The value a walk from the identity reaches by taking neighbour
    picks[i] % deg at step i: a vertex at distance <= len(picks)."""
    x = g.identity()
    for k in picks:
        x = neighbors_reference(g, x)[k % g.degree]
    return x


@st.composite
def _walk_words(draw, g):
    """Walk values of up to 30 steps, as walks produce, and the same with
    one entry inserted: a letter in or just outside the range, a repeat
    or inverse of its neighbour, or an odd value."""
    x = _walk_word(g, draw(st.lists(st.integers(0, 63), max_size=30)))
    edit = draw(st.none() | st.tuples(st.integers(0, 30), st.integers(-65, 65) | _ODD))
    if edit is None:
        return x
    i, s = edit
    i %= len(x) + 1
    if i and isinstance(s, bool):  # repeat or invert the letter before
        s = x[i - 1] if s or g.kind != "free_group" else -x[i - 1]
    return x[:i] + (s,) + x[i:]


def _outcome(fn, g, x):
    try:
        fn(g, x)
    except InvalidElementError as exc:
        return str(exc)
    return None


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_validate_elem_matches_reference(data):
    """Same accept/reject set and the same messages as the per-letter
    generator expressions, on ints, bools, numpy ints, floats, None, huge
    ints, unhashable entries, empty and non-reduced words, walk values of
    up to 30 letters on degrees up to 64, and non-tuples; accepted words
    get the same neighbour list, and refused ones the same refusal from
    neighbors()."""
    g = data.draw(st.sampled_from(_SPECS))
    x = data.draw(st.one_of(_INTS, _SMALL, _MIXED, _STUTTER, _NOT_A_TUPLE, _walk_words(g)))
    got = _outcome(groups.validate_elem, g, x)
    assert got == _outcome(validate_elem_reference, g, x)
    if got is None:  # twice, as a walk asks for each sibling
        assert groups.neighbors(g, x) == groups.neighbors(g, x) == neighbors_reference(g, x)
    else:
        assert _outcome(groups.neighbors, g, x) == got


@pytest.mark.parametrize("g, x, other", [(T4, (1, 2), F2), (F2, (1, 2), T4),
                                         (Z3, (1, 0, 2), T3)], ids=str)
def test_neighbors_memo_is_keyed_by_identity(g, x, other):
    """neighbors() remembers the last word it was given by identity: words
    equal to it but with a float, bool or numpy letter are refused with
    the reference's message, each call returns a new list, a caller that
    changes its list changes neither another caller's list nor the memo,
    and the same word on another spec gets that spec's neighbours."""
    want = neighbors_reference(g, x)
    for letter in (1.0, True, np.int64(1)):
        equal = (letter,) + x[1:]
        assert equal == x and equal is not x
        groups.neighbors(g, x)
        verdict = _outcome(validate_elem_reference, g, equal)
        assert verdict is not None and _outcome(groups.neighbors, g, equal) == verdict
    first, second = groups.neighbors(g, x), groups.neighbors(g, x)
    assert first == second == want and first is not second
    first[0] = first.pop()
    assert second == want and groups.neighbors(g, x) == want
    assert groups.neighbors(other, x) == neighbors_reference(other, x) != want


@pytest.mark.parametrize("g", [T3, T64, F2, F32], ids=str)
def test_neighbors_match_reference_on_balls(g):
    """Every vertex of the radius-3 ball: the empty word, which has no back
    step, and words ending in every letter, which put it at every slot."""
    ball = groups.bfs(lambda v: neighbors_reference(g, v), g.identity(), 3)
    for x in ball:
        assert groups.neighbors(g, x) == neighbors_reference(g, x)


def test_word_arithmetic():
    x = (1, 2, -1)
    assert groups.mul(F2, x, groups.inv(F2, x)) == ()
    assert groups.mul(T3, (0, 1), (1, 0)) == ()
    assert groups.distance(T3, (0, 1, 2), (0, 2)) == 3
    assert groups.distance(Z2, (0, 0), (2, -3)) == 5


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_word_arithmetic_matches_letter_by_letter_reference(data):
    """mul, inv and distance equal the letter-by-letter references on
    walk values, with y independent of x, sharing a prefix with it, or
    starting with x's inverse (so the product cancels), and satisfy
    d(x, y) = d(y, x) = |x^-1 y| (L1 on the lattices) and x x^-1 = e.  A
    word that fails validate_elem_reference is refused by all three."""
    g = data.draw(st.sampled_from([T3, T4, F2, F32, Z1, Z2, Z3]))
    x = data.draw(_walk_words(g))
    y = data.draw(_walk_words(g))
    valid = [_outcome(validate_elem_reference, g, w) is None for w in (x, y)]
    if valid[0] and valid[1]:
        y = data.draw(st.sampled_from(
            [y, mul_reference(g, x, y), mul_reference(g, inv_reference(g, x), y)]))
        assert groups.mul(g, x, y) == mul_reference(g, x, y)
        assert groups.inv(g, x) == inv_reference(g, x)
        d = groups.distance(g, x, y)
        assert d == distance_reference(g, x, y) == groups.distance(g, y, x)
        assert d == length_reference(g, groups.mul(g, groups.inv(g, x), y))
        assert groups.mul(g, x, groups.inv(g, x)) == g.identity()
    for w, other, ok in ((x, y, valid[0]), (y, x, valid[1])):
        if ok:
            continue
        for call in (lambda: groups.mul(g, w, other), lambda: groups.mul(g, other, w),
                     lambda: groups.inv(g, w), lambda: groups.distance(g, w, other),
                     lambda: groups.distance(g, other, w)):
            with pytest.raises(InvalidElementError):
                call()


def test_return_probability_examples():
    e = ()
    assert groups.p_series(T4, e, e, 2)[2] == pytest.approx(0.25, abs=1e-15)
    assert groups.p_series(T4, e, e, 1)[1] == 0.0
    assert groups.p_series(Z1, (0,), (0,), 4)[4] == pytest.approx(6 / 16, abs=1e-14)
    assert groups.p_series(T4, e, e, 0)[0] == 1.0
    assert groups.p_series(Z1, (0,), (1,), 0)[0] == 0.0


@pytest.mark.parametrize("g,n_max", [(T3, 5), (T4, 4), (F2, 4), (Z1, 6), (Z2, 4)])
def test_kernel_against_path_enumeration(g, n_max):
    """Full fanout enumeration is the independent oracle for small n: at
    every reached endpoint on lattices, at the start on tree-like graphs."""
    x = g.identity()
    for n in range(1, n_max + 1):
        law = enumerate_walk_endpoint_law(g, x, n)
        if g.is_tree_like:
            law = {x: law.get(x, 0.0)}
        for y, expected in law.items():
            assert groups.p_series(g, x, y, n)[n] == pytest.approx(expected, abs=1e-12)


def test_row_stochasticity_radial():
    table = TransitionTable(T4, 20)
    for n in range(21):
        assert table.distance_law(n).sum() == pytest.approx(1.0, abs=1e-12)


def test_row_stochasticity_element_level():
    for g in (Z1, Z2, Z3):
        e = g.identity()
        for n in range(5):
            total = sum(groups.p_series(g, e, z, n)[n] for z in groups.elements_within(g, e, n))
            assert total == pytest.approx(1.0, abs=1e-10)


def test_symmetry_and_radial_consistency():
    """Symmetric on Z^2 at random pairs; p_n(x, x) does not depend on x on
    T4, nor p_n(x, y) on the pair at a fixed displacement on Z^2."""
    rng = np.random.default_rng(2)

    def hop(g, x, steps):
        for _ in range(steps):
            x = groups.neighbors(g, x)[int(rng.integers(0, 4))]
        return x

    for _ in range(20):
        x = hop(Z2, (0, 0), int(rng.integers(0, 4)))
        y = hop(Z2, x, int(rng.integers(0, 4)))
        t = hop(T4, (), int(rng.integers(0, 7)))
        for n in (2, 5, 8):
            assert groups.p_series(Z2, x, y, n)[n] == pytest.approx(
                groups.p_series(Z2, y, x, n)[n], abs=1e-15
            )
            assert groups.p_series(T4, t, t, n)[n] == groups.p_series(T4, (), (), n)[n]
    pairs_at_1_1 = [((0, 0), (1, 1)), ((-2, 3), (-1, 4)), ((5, 0), (6, 1))]
    vals = {groups.p_series(Z2, a, b, 6)[6] for a, b in pairs_at_1_1}
    assert len(vals) == 1


def test_submultiplicativity():
    series = groups.p_series(T4, (), (), 800)
    for n in range(1, 201, 7):
        for m in range(1, 201, 11):
            assert series[2 * (n + m)] >= series[2 * n] * series[2 * m] * (1 - 1e-12)


def test_scaled_series_matches_plain_law():
    law = tree_distance_law(5, 600)
    scaled, rho = groups.scaled_p_series(GroupSpec("regular_tree", 5), (), (), 600)
    rec = scaled * rho ** np.arange(601)
    mask = law[:, 0] > 0
    assert np.max(np.abs(rec[mask] / law[mask, 0] - 1)) < 1e-10


def test_monte_carlo_agreement():
    """Empirical endpoint frequencies from simulated walks match the kernel
    within four binomial standard deviations.  A tree-indexed walk on a
    path is a simple random walk."""
    rng = np.random.default_rng(7)
    g = T3
    n, runs = 4, 100_000
    path = MarkedTree([-1, *range(n)])
    e = ()
    hits_e = 0
    target = (0, 1)
    hits_t = 0
    for _ in range(runs):
        end = run_walk(path, g, e, rng).values[n]
        hits_e += end == e
        hits_t += end == target
    table = TransitionTable(g, n)
    for hits, y in ((hits_e, e), (hits_t, target)):
        p = table.p(n, e, y)
        sd = math.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) < 4 * sd


@pytest.mark.parametrize("d", [3, 4, 6])
def test_spectral_radius_closed_form_verified_by_dp(d):
    """The closed form 2 sqrt(d-1)/d is trusted only because the DP
    estimate climbs to within 0.01 of it from below."""
    g = GroupSpec("regular_tree", d)
    closed_form = g.spectral_radius_closed_form()
    est = groups.spectral_radius_trajectory(g, 2000, stride=2000)[-1]
    assert est <= closed_form + 1e-12
    assert abs(est - closed_form) < 0.01
    coarse = groups.spectral_radius_trajectory(g, 50, stride=50)[-1]
    assert coarse < est  # approach from below


def test_spectral_estimate_monotone():
    traj = groups.spectral_radius_trajectory(T4, 400)
    assert np.all(np.diff(traj) >= -1e-12)


def test_spectral_radius_is_the_trajectory_end():
    """One estimate path: the spectral-radius estimate at n, the
    trajectory's last entry at stride n, is p_2n(e, e)^(1/2n), here
    against exact values at n = 1 and 50."""
    counts = tree_return_counts(4, 100)
    for g, p_2n in [(T4, lambda n: counts[2 * n] / 4 ** (2 * n)),
                    (Z1, lambda n: math.comb(2 * n, n) / 4**n)]:
        for n in (1, 50):
            est = groups.spectral_radius_trajectory(g, n, stride=n)[-1]
            assert est == groups.spectral_radius_trajectory(g, n)[-1]
            assert est == pytest.approx(p_2n(n) ** (1 / (2 * n)), rel=1e-14), (g, n)


def test_spectral_radius_lattice():
    assert Z1.spectral_radius_closed_form() == 1.0
    assert 0.99 < groups.spectral_radius_trajectory(Z1, 2000, stride=2000)[-1] < 1.0


def test_free_group_matches_regular_tree_kernel():
    """The rank-2 free group walks on the 4-regular tree."""
    s_free = groups.p_series(F2, (), (), 40)
    s_tree = groups.p_series(T4, (), (), 40)
    assert np.allclose(s_free, s_tree, atol=1e-15)


def test_visits_series_examples():
    vs = groups.visits_series(T4, 0.0, 10)
    assert np.allclose(vs.partial_sums, 1.0)
    vs = groups.visits_series(T4, 1.0, 2)
    assert vs.partial_sums[2] == pytest.approx(1.25, abs=1e-14)
    assert not vs.diverged


def test_visits_series_monotone_and_critical_tail():
    crit = 1.0 / T4.spectral_radius_closed_form()
    vs = groups.visits_series(T4, crit, 4000)
    sums = vs.partial_sums
    assert np.all(np.diff(sums) >= 0)
    inc = np.diff(sums, prepend=0.0)
    # critical increments decay like n^(-3/2): strictly below 1e-4 by 1500
    assert inc[1500] < 1e-4
    assert inc[3000] < inc[1000]


def test_visits_series_divergence_guard():
    vs = groups.visits_series(T4, 2.0, 4000)
    assert vs.diverged
    assert vs.guard_index is not None
    # partial sums frozen at the cut, which is the first term above the guard
    n = vs.guard_index
    assert n == 60
    assert vs.partial_sums[-1] == vs.partial_sums[n]
    assert np.all(np.diff(vs.partial_sums, prepend=0.0)[:n] <= groups.VISITS_GUARD)
    assert 2.0**n * groups.p_series(T4, (), (), n)[n] > groups.VISITS_GUARD


@pytest.mark.parametrize("g", [T3, T4, F2, T64, Z1, Z2, Z3],
                         ids=["T3", "T4", "F2", "T64", "Z1", "Z2", "Z3"])
def test_visits_series_matches_the_indexed_loop(g):
    """visits_series gives, bit for bit, the partial sums and guard index
    of the loop that indexed numpy scalars (oracles.visits_series_reference),
    at means that reach the zero-mean exit, convergence, the critical
    mean and guard cuts, at each n_max the lattice box cap admits."""
    inv_rho = 1.0 / g.spectral_radius_closed_form()
    cuts = 0
    for mean in (0.0, 0.3, 1.0, inv_rho, 1.02 * inv_rho, 2.0, 10.0):
        for n_max in (0, 1, 2, 50, 127, 4000):
            if not g.is_tree_like and (2 * n_max + 1) ** g.param > groups.MAX_LATTICE_CELLS:
                continue
            got = groups.visits_series(g, mean, n_max)
            want = visits_series_reference(g, mean, n_max)
            assert got.partial_sums.tobytes() == want.partial_sums.tobytes(), (mean, n_max)
            assert got.guard_index == want.guard_index, (mean, n_max)
            cuts += got.diverged
    assert cuts > 0


@pytest.mark.parametrize("g", [Z1, Z3, T4], ids=["Z1", "Z3", "T4"])
def test_visits_series_guard_cut_freezes_the_exact_sum(g):
    """At a guard cut the frozen partial sum is within 1 ulp of the exact
    (Fraction) sum of the float terms before the cut, each term built as
    visits_series builds it: exp(n log(mean rho) + log s_n)."""
    e = g.identity()
    inv_rho = 1.0 / g.spectral_radius_closed_form()
    n_max = 127 if g.param == 3 else 4000  # the Z^3 box cap
    s, rho = groups.scaled_p_series(g, e, e, n_max)
    for mean in (1.5 * inv_rho, 2.0 * inv_rho, 10.0):
        vs = groups.visits_series(g, mean, n_max)
        cut = vs.guard_index
        assert cut is not None, mean
        log_scale = math.log(mean) + math.log(rho)
        exact = sum(Fraction(math.exp(n * log_scale + math.log(sn)))
                    for n, sn in enumerate(s[:cut].tolist()) if sn > 0.0)
        frozen = float(vs.partial_sums[-1])
        assert vs.partial_sums[cut] == frozen
        assert abs(Fraction(frozen) - exact) <= Fraction(math.ulp(frozen)), mean


def test_transition_table_matches_pointwise():
    table = TransitionTable(T3, 12)
    for n in (0, 3, 7, 12):
        assert table.p(n, (), ()) == pytest.approx(groups.p_series(T3, (), (), n)[n], abs=1e-14)
    with pytest.raises(ValueError):
        table.p(13, (), ())
    lat = TransitionTable(Z2, 8)
    assert lat.p(2, (0, 0), (1, 1)) == pytest.approx(2 / 16, abs=1e-14)


@pytest.mark.parametrize("g", [T4, F2], ids=lambda g: g.kind)
def test_tree_like_kernels_refuse_distinct_points(g):
    """Tree-like graphs have one kernel, the return series: every kernel
    entry point refuses x != y, at every vertex at distance 1 or 2."""
    e = g.identity()
    for y in groups.elements_within(g, e, 2)[1:]:
        for call in (lambda: groups.scaled_p_series(g, e, y, 4),
                     lambda: groups.p_series(g, y, e, 4),
                     lambda: intersections.expected_pairs_truncated(1.1, 1.1, g, e, y, 3)):
            with pytest.raises(ValueError, match="x must equal y"):
                call()


def test_lattice_kernels_keep_their_displacement():
    """The same calls at a nonzero Z^2 displacement, from two starts, give
    the lattice values bit for bit: the exact dyadic p_n, and the pair
    count pinned to its value before tree-like x != y was refused."""
    want = np.zeros(10)
    want[3::2] = [3 / 64, 25 / 512, 735 / 16384, 2646 / 65536]
    for x, y in [((0, 0), (1, -2)), ((2, 1), (3, -1))]:
        s, rho = groups.scaled_p_series(Z2, x, y, 9)
        assert rho == 1.0 and np.array_equal(s, want)
        assert np.array_equal(groups.p_series(Z2, x, y, 9), want)
    pairs = intersections.expected_pairs_truncated(0.9, 1.2, Z2, (0, 0), (1, -1), 6)
    assert pairs == 2.5065686328344996


def test_series_for_unreachable_targets_is_zero():
    far = (3, -3)
    s = groups.p_series(Z2, (0, 0), far, 3)
    assert np.all(s == 0.0)
    assert groups.p_series(Z2, (0, 0), far, 5)[5] == 0.0


# ---------------------------------------------------------------------------
# the exact kernels: against the kernels they replaced, and against exact
# values at the CLI caps


_TREE_LIKE = [GroupSpec("regular_tree", 3), T4, GroupSpec("regular_tree", 64), F2]


@pytest.mark.parametrize("g", _TREE_LIKE, ids=lambda g: f"{g.kind}-{g.param}")
def test_tree_return_series_against_decimal_tail_sum(g):
    """The closed-form return series at every 499th n up to 120000 steps
    (the spectra cap) against the same tail sum carried to 40 digits,
    within 3e-15 relative.  The worst error seen is 1.0e-15; without the
    rounding residuals the coefficient product drifts to 7.6e-15 (one of
    the two residuals) and 1.1e-14 (neither).  At n = 0 the reference is
    1 to 38 digits: the generating function's numerator vanishes at w = 1."""
    e = g.identity()
    s, _ = groups.scaled_p_series(g, e, e, 120_000)
    ns = [0, 1, 2, 3, 10, 63, 64] + list(range(500, 60_000, 499)) + [60_000]
    want = tree_return_tail_decimal(g.degree, ns)
    assert abs(want[0] - 1) < Decimal("1e-38")
    for n in ns:
        assert abs(s[2 * n] - float(want[n])) <= 3e-15 * float(want[n]), n


@pytest.mark.parametrize("g", _TREE_LIKE, ids=lambda g: f"{g.kind}-{g.param}")
def test_tree_return_series_matches_recursion(g):
    """scaled_p_series takes the closed form; the radial recursion at
    distance 0 (oracles.full_tree_scaled_series) is its reference, within
    1e-13 relative, with odd entries exactly 0.0 and s[0] exactly 1.0."""
    e = g.identity()
    for n_max in (0, 1, 2, 63, 64, 1000, 4001, 120_000):
        s, _ = groups.scaled_p_series(g, e, e, n_max)
        tree = groups.scaled_p_series(GroupSpec("regular_tree", g.degree), (), (), n_max)[0]
        assert np.array_equal(s, tree), n_max
        want = full_tree_scaled_series(g.degree, 0, n_max)
        assert s.shape == (n_max + 1,) and s[0] == 1.0, n_max
        assert np.all(s[1::2] == 0.0), n_max
        assert np.all(np.abs(s - want) <= 1e-13 * want), n_max


@pytest.mark.parametrize("d", [3, 4, 8, 64])
def test_tree_return_series_equals_the_correlate_tail_sum(d):
    """The strided-window kernel over every window gives, bit for bit,
    the series of one np.correlate over all of them, at odd and even
    n_max up to the spectra cap of 120000 steps."""
    for n_max in (0, 1, 2, 3, 64, 999, 1000, 119_999, 120_000):
        s = groups.scaled_p_series(GroupSpec("regular_tree", d), (), (), n_max)[0]
        assert np.array_equal(s, tree_return_series_correlate(d, n_max)), n_max


# each graph at the largest n_max a spectra config accepts: the CLI cap,
# or below it the largest whose 2 n_max steps fit the lattice box
_SPECTRA_CAPS = [(T3, 60_000), (T4, 60_000), (F2, 60_000), (Z1, 60_000), (Z2, 1023), (Z3, 63)]


@pytest.mark.parametrize("g, n_max", _SPECTRA_CAPS, ids=["T3", "T4", "F2", "Z1", "Z2", "Z3"])
def test_strided_trajectory_equals_every_step_at_the_picks(g, n_max):
    """At its caps, the trajectory at stride s holds, bit for bit, the
    stride-1 trajectory's estimates at n = s, 2s, ... and n_max."""
    if n_max < 60_000:
        with pytest.raises(ValueError):
            groups.check_lattice_box(g, 2 * (n_max + 1))
    full = groups.spectral_radius_trajectory(g, n_max)
    assert full.shape == (n_max,)
    for stride in (1, 2, 7, 30, n_max // 3, n_max - 1, n_max, n_max + 5):
        ns = np.array([*range(stride, n_max, stride), n_max])
        assert np.array_equal(groups.spectral_radius_trajectory(g, n_max, stride),
                              full[ns - 1]), stride
    for bad in ((0, 1), (n_max, 0)):
        with pytest.raises(ValueError):
            groups.spectral_radius_trajectory(g, *bad)


def test_tree_return_series_first_terms_at_every_degree():
    """s[0] = 1 exactly and s[2] = p_2 / rho^2 = d / (4(d-1)) at every
    degree the specs admit; the truncated sum alone misses 1 by an ulp or
    two at d = 5, 8, 62 and others."""
    for d in range(3, groups.MAX_DEGREE + 1):
        s = groups.scaled_p_series(GroupSpec("regular_tree", d), (), (), 3)[0]
        assert s[0] == 1.0 and s[1] == s[3] == 0.0, d
        assert s[2] == pytest.approx(d / (4 * (d - 1)), rel=1e-15), d


_LATTICE_DELTAS = {
    1: [(0,), (1,), (-3,), (8,), (-41,)],
    2: [(0, 0), (1, 0), (-2, 1), (3, -3), (0, -7), (25, -20)],
    3: [(0, 0, 0), (1, 0, 0), (0, -1, 1), (-2, 3, -1), (4, 0, -5), (-20, 15, 10)],
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_kernel_matches_box_oracle(dim):
    """The closed-form laws against the box convolution for n <= 40: within
    1e-12 relative, and zero at exactly the same n.  The displacements take
    in the origin, odd parity, negative coordinates and |delta|_1 > 40."""
    g = GroupSpec("integer_lattice", dim)
    for delta in _LATTICE_DELTAS[dim]:
        for n_max in (0, 1, 40):
            want = box_lattice_series(dim, delta, n_max)
            got = groups.scaled_p_series(g, g.identity(), delta, n_max)[0]
            assert np.array_equal(got == 0.0, want == 0.0), (delta, n_max)
            hit = want != 0.0
            assert np.all(np.abs(got[hit] - want[hit]) <= 1e-12 * want[hit]), (delta, n_max)


def test_walk_law_against_exact_binomials():
    """q_m(c) = C(m, (m+c)/2) / 2^m, on both sides of |c| = 1000, where
    2^-|c| leaves the normal doubles and the law is summed in logs."""
    for c in (0, 7, -999, 1000, 1001, -1500):
        q = groups._walk_law(c, 4000)
        assert np.all(q[: abs(c)] == 0.0) and np.all(q[abs(c) + 1 :: 2] == 0.0)
        for m in range(abs(c), 4001, 50):
            want = math.comb(m, (m + c) // 2) / 2**m
            assert q[m] == pytest.approx(want, rel=1e-12, abs=1e-300), (c, m)


def test_z3_return_series_exact_to_the_visits_cap():
    """p_n(e, e) on Z^3 for n <= 127, the largest visits n_max, against
    exact rationals."""
    s = groups.p_series(Z3, (0, 0, 0), (0, 0, 0), 127)
    assert np.all(s[1::2] == 0.0)
    for k in range(64):
        want = z3_even_return_exact(k)
        assert abs(Fraction(s[2 * k]) - want) <= Fraction(1, 10**12) * want, k


def test_z1_return_series_exact_at_the_spectra_cap():
    """Spectra at n_max 60000 take 120000 steps: p_2n(e, e) on Z^1 against
    C(2n, n) / 4^n at sampled n."""
    s = groups.p_series(Z1, (0,), (0,), 120_000)
    assert np.all(s[1::2] == 0.0)
    for n in [0, 1, 2, 3, 10, 1000] + list(range(5000, 60_001, 11_000)) + [60_000]:
        assert s[2 * n] == pytest.approx(math.comb(2 * n, n) / 4**n, rel=1e-12), n


def test_z2_series_is_the_product_of_two_1d_laws():
    """x+y and x-y are independent +-1 walks on Z^2:
    p_n(delta) = C(n, (n+a+b)/2) C(n, (n+a-b)/2) / 4^n, up to the box cap."""
    for a, b in [(0, 0), (3, -2), (-40, 17)]:
        s = groups.p_series(Z2, (0, 0), (a, b), 2047)
        for n in list(range(0, 2048, 89)) + [2046, 2047]:
            if (n - a - b) % 2 or abs(a) + abs(b) > n:
                assert s[n] == 0.0
                continue
            want = math.comb(n, (n + a + b) // 2) * math.comb(n, (n + a - b) // 2) / 4**n
            assert s[n] == pytest.approx(want, rel=1e-12), (a, b, n)


def test_ball_and_lattice_box_caps():
    """Balls and lattice kernel boxes over their caps are refused from the
    closed-form size, before anything is built."""
    groups.check_ball(T3, 18)  # 1 + 3 (2^18 - 1) = 786430 vertices
    with pytest.raises(ValueError):
        groups.check_ball(T3, 19)
    with pytest.raises(ValueError):
        groups.elements_within(T4, (), 10**9)
    z3 = GroupSpec("integer_lattice", 3)
    groups.check_lattice_box(z3, 127)  # 255^3 cells
    with pytest.raises(ValueError):
        groups.p_series(z3, (0, 0, 0), (0, 0, 0), 128)
    assert len(groups.elements_within(Z2, (0, 0), 3)) == 25


# ---------------------------------------------------------------------------
# the graph helpers: one BFS, one adjacency builder


def _sample_graphs():
    """Adjacency dicts of random marked trees and of walk traces, with a
    start vertex in each."""
    rng = np.random.default_rng(31)
    out = []
    for _ in range(30):
        t = sample_marked_fuzz_tree(rng, 60)
        out.append((t.adjacency(), t.root))
    mu = OffspringDistribution([0.2, 0.3, 0.5])
    for g in (T4, Z2):
        for _ in range(10):
            adj = trace(run_walk(sample_gw(mu, 400, rng, max_depth=6), g, g.identity(), rng))
            out.append((adj, g.identity()))
    return out


def test_bfs_matches_oracle_distances():
    for adj, root in _sample_graphs():
        found = groups.bfs(adj.__getitem__, root)
        assert found == bfs_distances(adj, root)
        assert list(found)[0] == root and found[root] == 0
        dists = list(found.values())
        assert dists == sorted(dists)  # BFS order
        for radius in (0, 1, 2, 5):
            cut = groups.bfs(adj.__getitem__, root, radius)
            assert list(cut.items()) == [(v, d) for v, d in found.items() if d <= radius]


def test_bfs_parents_on_a_rooted_tree():
    """From the root, BFS distances are the depths, so every parent is
    one step closer than its child."""
    rng = np.random.default_rng(32)
    for _ in range(20):
        t = sample_marked_fuzz_tree(rng, 80)
        found = groups.bfs(t.adjacency().__getitem__, t.root)
        assert sorted(found) == list(range(t.n_vertices))
        assert [found[v] for v in range(t.n_vertices)] == t.depth
        assert all(found[p] == found[v] - 1 for v, p in enumerate(t.parent[1:], 1))


def test_elements_within_order():
    assert groups.elements_within(T3, (), 0) == [()]
    assert groups.elements_within(T3, (), 2) == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
    ]
    assert groups.elements_within(Z1, (3,), 2) == [(3,), (4,), (2,), (5,), (1,)]
    ball = groups.elements_within(F2, (1,), 3)
    assert len(ball) == 1 + 4 + 12 + 36
    dists = [groups.distance(F2, (1,), x) for x in ball]
    assert dists == sorted(dists) and len(set(ball)) == len(ball)
    # walk values as centres: the ball is the reference BFS, order included
    rng = np.random.default_rng(0)
    for g in (T4, F2, Z2, Z3):
        for _ in range(5):
            x = _walk_word(g, rng.integers(0, 64, size=rng.integers(0, 9)).tolist())
            for radius in range(4):
                want = groups.bfs(lambda v: neighbors_reference(g, v), x, radius)
                assert groups.elements_within(g, x, radius) == list(want)


def test_adjacency_builder():
    adj = groups.adjacency([0, 1, 2, 3], [(0, 1), (1, 2), (3, 1)])
    assert adj == {0: [1], 1: [0, 2, 3], 2: [1], 3: [1]}
    assert groups.adjacency(["a"], []) == {"a": []}
    t = MarkedTree([-1, 0, 0, 1])
    assert t.adjacency() == {0: [1, 2], 1: [0, 3], 2: [0], 3: [1]}
    assert MarkedTree([-1, 0]).adjacency() == {0: [1], 1: [0]}
    for adj, _ in _sample_graphs():
        for v, ns in adj.items():
            assert len(set(ns)) == len(ns)
            assert all(v in adj[w] for w in ns)
