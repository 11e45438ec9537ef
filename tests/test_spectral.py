import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.cli import _standard_small_graphs
from walklab.errors import ParameterError, SizeCapError, UnsupportedInputError
from walklab.graph import Graph, complete, cycle, family, lollipop, path
from walklab.spectral import (
    COVER_CAP,
    TransitionKernel,
    _connected_masks,
    _cover_remaining,
    build_kernel,
    detailed_balance_check,
    exact_cover_time,
    exact_cover_times,
    exact_hitting,
    kernel_eigenvalues,
)

from helpers import (
    all_sets_cover_times,
    forward_dp_hitting,
    per_set_cover_times,
    pinned_solve_hitting,
    random_connected_graph,
    transition_matrix,
)


def harmonic_number(k: int) -> float:
    return sum(1.0 / i for i in range(1, k + 1))


# --- kernel construction ---


def test_kernel_rows_and_stationary():
    g = random_connected_graph(np.random.default_rng(3), 9, extra=6, weighted=True, loops=True, parallel=True)
    k = build_kernel(g)
    assert np.abs(k.matrix.sum(axis=1) - 1).max() <= 1e-12
    np.testing.assert_allclose(k.stationary, g.weighted_degrees / g.volume, rtol=0, atol=1e-15)
    assert np.abs(k.stationary @ k.matrix - k.stationary).max() <= 1e-10


def test_loop_probability_doubles_weight():
    g = Graph(2, [(0, 1, 1.0), (1, 1, 1.0)])
    k = build_kernel(g)
    assert k.matrix[1, 1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert k.matrix[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_parallel_edges_pool():
    g = Graph(2, [(0, 1, 1.0), (0, 1, 2.0)])
    k = build_kernel(g)
    assert k.matrix[0, 1] == 1.0


def test_lazy_kernel_and_nonnegative_spectrum():
    k = build_kernel(cycle(6), lazy=True)
    assert k.lazy
    assert k.matrix[0, 0] == 0.5
    eig = kernel_eigenvalues(k)
    assert eig[0] == pytest.approx(1.0, abs=1e-12)
    assert eig[-1] >= -1e-12  # laziness clears the negative tail


def test_kernel_rejects_bad_rows():
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ParameterError):
        TransitionKernel(matrix=bad, stationary=np.array([0.5, 0.5]))


def test_kernel_rejects_wrong_stationary():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ParameterError):
        TransitionKernel(matrix=p, stationary=np.array([0.9, 0.1]))


@pytest.mark.parametrize(
    "matrix, stationary",
    [
        ([[np.nan, 1.0], [1.0, 0.0]], [0.5, 0.5]),
        ([[0.0, 1.0], [1.0, 0.0]], [np.nan, 0.5]),
        ([[np.nan]], [np.nan]),  # what an edgeless vertex's kernel would hold
    ],
)
def test_kernel_rejects_nan(matrix, stationary):
    # every other check is a comparison, and a comparison with NaN is False
    with pytest.raises(ParameterError, match="non-finite"):
        TransitionKernel(matrix=np.array(matrix), stationary=np.array(stationary))


@pytest.mark.parametrize("g", [complete(1), Graph(1, [])])
@pytest.mark.parametrize("lazy", [False, True])
def test_build_kernel_refuses_an_edgeless_graph(g, lazy):
    # refused before c(v) = 0 divides anything, so no RuntimeWarning either
    with pytest.raises(UnsupportedInputError, match="no edges"):
        build_kernel(g, lazy=lazy)


def test_kernel_matrix_is_readonly():
    k = build_kernel(path(3))
    with pytest.raises(ValueError):
        k.matrix[0, 0] = 1.0


# --- hitting times ---


def test_complete_graph_hitting_is_n_minus_1():
    for n in range(2, 8):
        h = exact_hitting(build_kernel(complete(n)))
        off = h[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, n - 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.diag(h), 0.0, atol=1e-12)


def test_path_hitting_square_law():
    # rightward hits on a path: j^2 - i^2
    for n in (2, 5, 9):
        h = exact_hitting(build_kernel(path(n)))
        for i in range(n):
            for j in range(i, n):
                assert h[i, j] == pytest.approx(j * j - i * i, rel=1e-10, abs=1e-9)


def test_cycle_hitting_r_times_n_minus_r():
    for n in (3, 6, 9):
        h = exact_hitting(build_kernel(cycle(n)))
        for i in range(n):
            for j in range(n):
                r = min(abs(i - j), n - abs(i - j))
                assert h[i, j] == pytest.approx(r * (n - r), rel=1e-10, abs=1e-9)


def test_path_hitting_closed_form_at_n_1000():
    n = 1000
    h = exact_hitting(build_kernel(path(n)))
    i, j = np.triu_indices(n, k=1)
    span = n - 1
    np.testing.assert_allclose(h[i, j], (j * j - i * i).astype(float), rtol=1e-9, atol=0)
    mirrored = ((span - i) ** 2 - (span - j) ** 2).astype(float)
    np.testing.assert_allclose(h[j, i], mirrored, rtol=1e-9, atol=0)


def test_cycle_hitting_closed_form_at_n_1000():
    n = 1000
    h = exact_hitting(build_kernel(cycle(n)))
    r = np.subtract.outer(np.arange(n), np.arange(n)) % n
    off = r != 0
    np.testing.assert_allclose(h[off], (r * (n - r))[off].astype(float), rtol=1e-9, atol=0)


def test_hitting_column_matches_pinned_oracle():
    g = random_connected_graph(np.random.default_rng(11), 8, extra=5, weighted=True)
    h = exact_hitting(build_kernel(g))
    np.testing.assert_allclose(h[:, 3], pinned_solve_hitting(g)[:, 3], atol=1e-12)


def test_hitting_against_pinned_solve_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 12)), extra=4, weighted=True, loops=True)
        k = build_kernel(g)
        np.testing.assert_allclose(exact_hitting(k), pinned_solve_hitting(g), rtol=1e-8, atol=1e-8)


def test_hitting_against_forward_dp_oracle():
    rng = np.random.default_rng(19)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(3, 8)), extra=3)
        k = build_kernel(g)
        s, t = 0, g.n - 1
        assert exact_hitting(k)[s, t] == pytest.approx(
            forward_dp_hitting(g, s, t), rel=1e-4
        )


def test_hitting_size_cap():
    with pytest.raises(SizeCapError):
        exact_hitting(_fake_big_kernel(5001))


def _fake_big_kernel(n: int) -> TransitionKernel:
    # identity-free lazy chain on a big path without paying n^2 memory twice
    k = TransitionKernel.__new__(TransitionKernel)
    object.__setattr__(k, "matrix", np.zeros((2, 2)))
    object.__setattr__(k, "stationary", np.array([0.5, 0.5]))
    object.__setattr__(k, "lazy", False)
    object.__setattr__(k, "scheme", "uniform")
    object.__setattr__(k, "name", "fake")
    object.__setattr__(k, "graph", None)

    class Shim:
        matrix = k.matrix
        stationary = k.stationary

        @property
        def n(self) -> int:
            return n

    return Shim()  # type: ignore[return-value]


# --- first return ---


def test_first_return_closed_forms():
    # the expected first return to v is 1 / pi_v
    ret = 1.0 / build_kernel(complete(6)).stationary
    np.testing.assert_allclose(ret, 6.0, rtol=1e-12)
    ret = 1.0 / build_kernel(path(7)).stationary
    assert ret[0] == pytest.approx(2 * 6, rel=1e-12)  # endpoint: 2(n-1)
    assert ret[3] == pytest.approx(12 / 2, rel=1e-12)


def test_first_return_one_step_identity():
    # RET[v] = 1 + sum_w P[v, w] H[w, v]
    rng = np.random.default_rng(23)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 10)), extra=4, weighted=True, loops=True, parallel=True)
        k = build_kernel(g)
        h = exact_hitting(k)
        ret = 1.0 / k.stationary
        recon = 1.0 + np.einsum("vw,wv->v", k.matrix, h)
        np.testing.assert_allclose(ret, recon, rtol=1e-8, atol=1e-8)


# --- spectrum ---


def test_complete_graph_spectrum():
    for n in (4, 7):
        eig = kernel_eigenvalues(build_kernel(complete(n)))
        assert eig[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(eig[1:], -1.0 / (n - 1), atol=1e-12)


def test_spectral_gap_positive_for_lazy_chain():
    assert 1.0 - kernel_eigenvalues(build_kernel(cycle(8), lazy=True))[1] > 0


def test_eigenvalues_reject_nonreversible():
    p = np.array([[0.0, 0.9, 0.1], [0.1, 0.0, 0.9], [0.9, 0.1, 0.0]])
    k = TransitionKernel(matrix=p, stationary=np.full(3, 1 / 3))
    with pytest.raises(UnsupportedInputError):
        kernel_eigenvalues(k)


# --- exact cover time ---


def test_cover_time_complete_graph_coupon_collector():
    for n in (2, 3, 4, 5, 6, 7, 11, 12, 13):
        covers = exact_cover_times(build_kernel(complete(n)))
        np.testing.assert_allclose(covers, (n - 1) * harmonic_number(n - 1), rtol=1e-10, atol=0)


def test_cover_time_cycle_quadratic():
    for n in (3, 5, 8, 11, 12, 13):
        covers = exact_cover_times(build_kernel(cycle(n)))
        np.testing.assert_allclose(covers, n * (n - 1) / 2.0, rtol=1e-10, atol=0)


def test_cover_time_path_endpoint_and_middle():
    # from position k: k(L-k) + L^2, checked from every start; the worst
    # start sits in the middle
    for n in (4, 7, 11, 12, 13):
        covers = exact_cover_times(build_kernel(path(n)))
        length = n - 1
        expect = [k * (length - k) + length**2 for k in range(n)]
        np.testing.assert_allclose(covers, expect, rtol=1e-10, atol=0)
        band = (5 * length**2) / 4 if length % 2 == 0 else (5 * length**2 - 1) / 4
        assert covers.max() == pytest.approx(band, rel=1e-10)


@pytest.mark.parametrize("spec", ["lollipop:13", "star:13", "complete:12", "cycle:13", "grid2d:3,4", "path:11"])
@pytest.mark.parametrize("lazy", [False, True])
def test_single_start_cover_time_equals_the_all_starts_route(spec, lazy):
    k = build_kernel(family(spec), lazy=lazy)
    covers = exact_cover_times(k)
    assert [exact_cover_time(k, s) for s in range(k.n)] == covers.tolist()


def test_cover_time_single_vertex_is_zero():
    k = build_kernel(Graph(1, [(0, 0, 1.0)]))
    assert exact_cover_time(k, 0) == 0.0
    assert exact_cover_times(k).tolist() == [0.0]


def test_cover_time_cap():
    with pytest.raises(SizeCapError):
        exact_cover_time(build_kernel(cycle(14)))


def test_cover_dominates_worst_hitting():
    g = lollipop(9)
    k = build_kernel(g)
    cov = exact_cover_time(k, 0)
    h = exact_hitting(k)
    assert cov >= h[0].max() - 1e-9


@pytest.mark.parametrize("n", [14, 16])
def test_cover_recursion_meets_the_closed_forms_past_the_cap(n):
    # the cap stays at COVER_CAP; the recursion itself is checked beyond it
    assert n > COVER_CAP
    starts = np.arange(n)
    length = n - 1
    remaining, row = _cover_remaining(build_kernel(path(n)))
    on_path = remaining[row[1 << starts], starts]
    expect = [k * (length - k) + length**2 for k in range(n)]
    np.testing.assert_allclose(on_path, expect, rtol=1e-10, atol=0)
    remaining, row = _cover_remaining(build_kernel(cycle(n)))
    on_cycle = remaining[row[1 << starts], starts]
    np.testing.assert_allclose(on_cycle, n * (n - 1) / 2.0, rtol=1e-10, atol=0)


@pytest.mark.parametrize("spec, count", [("path:13", 13 * 14 // 2), ("cycle:13", 13 * 12 + 1)])
def test_cover_table_holds_a_row_per_connected_set_and_one_zero_row(spec, count):
    remaining, row = _cover_remaining(build_kernel(family(spec)))
    assert remaining.shape == (count + 1, 13)
    assert row.shape == (2**13,)
    assert not remaining[0].any()
    # the connected sets take rows 1..count in mask order; every other mask reads row 0
    assert row[row > 0].tolist() == list(range(1, count + 1))


SHAPE_COUNTS = [
    ("path:13", 13 * 14 // 2),  # the intervals
    ("cycle:13", 13 * 12 + 1),  # the arcs, and the whole cycle
    ("star:13", 2**12 + 12),  # sets holding the centre, and the leaves alone
    ("complete:9", 2**9 - 1),
]


@pytest.mark.parametrize("spec, count", SHAPE_COUNTS)
def test_connected_sets_are_counted_by_their_shapes(spec, count):
    support = build_kernel(family(spec)).matrix != 0
    sets, size = _connected_masks(support | support.T)
    assert len(sets) == count
    assert (np.diff(sets) > 0).all() and sets[0] >= 1
    assert size.tolist() == [bin(int(s)).count("1") for s in sets]


def _tiny_negative_kernel() -> TransitionKernel:
    # P[0, 2] = -1e-15 is the most negative entry a kernel admits; the set
    # {0, 2} is connected only through it, and its term moves the last bits
    p = np.array([[0.0, 1.0 + 1e-15, -1e-15], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    return TransitionKernel(matrix=p, stationary=np.array([0.25, 0.5, 0.25]))


def test_cover_counts_a_tiny_negative_entry_as_a_link():
    k = _tiny_negative_kernel()
    assert exact_cover_times(k).tolist() == all_sets_cover_times(k.matrix).tolist()


def test_reducible_kernel_still_fails_its_solve():
    # two disjoint 2-cycles: each cycle is a closed class, so its set's
    # system is singular whether or not the other sets are solved
    p = np.zeros((4, 4))
    p[0, 1] = p[1, 0] = p[2, 3] = p[3, 2] = 1.0
    k = TransitionKernel(matrix=p, stationary=np.full(4, 0.25))
    with pytest.raises(np.linalg.LinAlgError):
        exact_cover_times(k)
    with pytest.raises(np.linalg.LinAlgError):
        all_sets_cover_times(p)
    # so is I - P + 1 pi^T: the hitting solve raises rather than return inf
    with pytest.raises(np.linalg.LinAlgError):
        exact_hitting(k)


def test_cover_memory_stays_near_the_table():
    # cycle:13's table holds 158 rows of 13 doubles (16 KB) beside the
    # 2^13-entry row index and set arrays; the recursion peaked at 0.17 MiB.
    # Solving every set, with a (2^n, n) membership table beside it, peaked
    # at 3.3 MiB on this graph
    k = build_kernel(cycle(13))
    gc.disable()
    tracemalloc.start()
    try:
        exact_cover_times(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= 2 * 2**20


# --- the compiled cover recursion: walklab_connected, walklab_cover_layer
# and walklab_cover_store against numpy's enumeration and recursion ---


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_compiled_cover_recursion_is_the_numpy_recursion():
    # cover times from every start, against helpers.all_sets_cover_times,
    # which solves all 2^n sets in numpy, summing each right side in the
    # same order; past COVER_CAP read off the table itself
    kernels = [
        build_kernel(g, scheme, lazy)
        for g in _standard_small_graphs()
        for scheme in ("uniform", "mindeg")
        for lazy in (False, True)
    ]
    assert len(kernels) == 276
    skewed = build_kernel(lollipop(9), "mindeg")
    kernels += [
        build_kernel(Graph(1, [(0, 0, 1.0)])),
        _tiny_negative_kernel(),
        # a kernel over a Fortran-ordered matrix reaches C as a row-major copy
        TransitionKernel(matrix=np.asfortranarray(skewed.matrix), stationary=skewed.stationary),
        *(build_kernel(shape(n)) for shape in (path, cycle) for n in (14, 16)),
    ]
    for k in kernels:
        starts = np.arange(k.n)
        remaining, row = _cover_remaining(k)
        assert _same_bits(remaining[row[1 << starts], starts], all_sets_cover_times(k.matrix))


def _numpy_connected(support: np.ndarray) -> np.ndarray:
    """The connected masks in ascending order: S is connected when
    (I + A_S)^(|S| - 1), A_S its support's block, links S's lowest vertex
    to every vertex of S; one stacked matrix power per set size."""
    n = support.shape[0]
    link = (support | np.eye(n, dtype=bool)).astype(np.int64)
    sets = np.arange(1, 1 << n)
    member = ((sets[:, None] >> np.arange(n)) & 1).astype(bool)
    size = member.sum(axis=1)
    found = []
    for k in range(1, n + 1):
        s = sets[size == k]
        idx = np.nonzero(member[size == k])[1].reshape(len(s), k)
        power = np.linalg.matrix_power(link[idx[:, :, None], idx[:, None, :]], k - 1)
        found.append(s[(power[:, 0, :] > 0).all(axis=1)])
    return np.sort(np.concatenate(found))


@pytest.mark.parametrize("spec, count", SHAPE_COUNTS)
def test_compiled_enumeration_is_the_numpy_enumeration(spec, count):
    support = build_kernel(family(spec)).matrix != 0
    sets, size = _connected_masks(support | support.T)
    assert len(sets) == count
    assert _same_bits(sets, _numpy_connected(support | support.T))
    assert size.dtype == np.int8 and size.tolist() == [bin(int(s)).count("1") for s in sets]


# --- reversibility round trip ---


def test_detailed_balance_for_graph_kernels():
    rng = np.random.default_rng(31)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(2, 11)), extra=5, weighted=True, loops=True, parallel=True)
        assert detailed_balance_check(build_kernel(g)) <= 1e-12


# --- properties ---


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_property_hitting_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 9)), extra=int(rng.integers(0, 6)), weighted=True, loops=True, parallel=True)
    k = build_kernel(g)
    np.testing.assert_allclose(exact_hitting(k), pinned_solve_hitting(g), rtol=1e-8, atol=1e-8)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_property_kernel_matches_direct_normalization(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 9)), extra=4, weighted=True, loops=True, parallel=True)
    lazy = bool(rng.integers(0, 2))
    k = build_kernel(g, lazy=lazy)
    np.testing.assert_allclose(k.matrix, transition_matrix(g, lazy=lazy), atol=1e-14)


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_property_cover_times_match_per_set_oracle(seed, lazy):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 10)), extra=int(rng.integers(0, 8)), weighted=True, loops=True, parallel=True)
    k = build_kernel(g, lazy=lazy)
    expect = per_set_cover_times(g, lazy=lazy)
    np.testing.assert_allclose(exact_cover_times(k), expect, rtol=1e-12, atol=0)
    start = int(rng.integers(0, g.n))
    assert exact_cover_time(k, start) == pytest.approx(expect[start], rel=1e-12, abs=0)


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_property_connected_sets_match_the_all_sets_recursion(seed, lazy):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 11)), extra=int(rng.integers(0, 8)), weighted=True, loops=True, parallel=True)
    k = build_kernel(g, lazy=lazy)
    assert exact_cover_times(k).tolist() == all_sets_cover_times(k.matrix).tolist()
