import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import rng
from walklab.configmodel import (
    MAX_DEFAULT_TRIES,
    DegreeSequence,
    _kernel_flags,
    _simple_flags,
    check_nice,
    default_max_tries,
    effective_min_degree,
    nu,
    predicted_cover,
    predicted_p_simple,
    random_band_sequence,
    read_degree_file,
    regular_sequence,
    sample_configuration,
    sample_simple,
)
from walklab.errors import ParameterError, RejectionFailure, SizeCapError
from walklab.graph import Graph, complete, cycle

from helpers import edge_list, first_simple_attempt, shuffled_stubs


def test_degree_sequence_derived_quantities():
    seq = DegreeSequence((3, 3, 4, 4, 5, 5))
    assert seq.n == 6
    assert seq.m == 12
    assert seq.theta == 4.0
    assert seq.minimum == 3 and seq.maximum == 5
    assert seq.counts == {3: 2, 4: 2, 5: 2}


def test_degree_sequence_validation():
    with pytest.raises(ParameterError):
        DegreeSequence((3, 3, 3))  # odd sum
    with pytest.raises(ParameterError):
        DegreeSequence((0, 2))
    with pytest.raises(ParameterError):
        DegreeSequence(())


def test_single_edge_sequence_is_deterministic():
    seq = DegreeSequence((1, 1))
    for index in range(5):
        g = sample_configuration(seq, seed=0, index=index)
        assert [(u, v) for u, v, _ in edge_list(g)] == [(0, 1)]


def test_two_degree_two_vertices_matching_frequencies():
    # 3 perfect matchings on 4 stubs: 2 give the double edge, 1 gives two loops
    seq = DegreeSequence((2, 2))
    double = loops = 0
    for index in range(3000):
        g = sample_configuration(seq, seed=42, index=index)
        kinds = sorted((u, v) for u, v, _ in edge_list(g))
        if kinds == [(0, 1), (0, 1)]:
            double += 1
        elif kinds == [(0, 0), (1, 1)]:
            loops += 1
        else:
            raise AssertionError(f"impossible outcome {kinds}")
    assert abs(double / 3000 - 2 / 3) < 0.04
    assert abs(loops / 3000 - 1 / 3) < 0.04


def test_degrees_are_preserved_exactly():
    seq = DegreeSequence((1, 2, 3, 4, 4, 2))
    for index in range(20):
        g = sample_configuration(seq, seed=7, index=index)
        assert tuple(g.degrees.tolist()) == seq.degrees


@pytest.mark.parametrize(
    "seq",
    [
        DegreeSequence((2, 2)),
        DegreeSequence((1, 3)),
        DegreeSequence((2, 2, 2)),
        DegreeSequence((4, 4, 4, 4)),
        random_band_sequence(20, 3, 6, seed=5),
        regular_sequence(50, 3),
    ],
    ids=["2,2", "1,3", "2,2,2", "4,4,4,4", "band:20,3..6", "regular:3,50"],
)
def test_stub_array_simplicity_agrees_with_the_graph(seq):
    # the flags of 2000 attempts against the graphs of numpy's shuffles
    seen = set()
    [(start, flags)] = _simple_flags(seq, 17, 2000, stop=False)
    assert start == 0 and len(flags) == 2000
    for i, simple in enumerate(flags.tolist()):
        g = Graph(seq.n, shuffled_stubs(seq.degrees, 17, i).reshape(-1, 2).tolist())
        assert simple == g.is_simple
        loop = any(u == v for u, v, _ in edge_list(g))
        seen.add((loop, len({(u, v) for u, v, _ in edge_list(g)}) < g.m))
        if i % 97 == 0:
            assert edge_list(sample_configuration(seq, 17, i)) == edge_list(g)
    # each sequence meets a loop or a parallel edge; the last two also
    # meet simple pairings and pairings with a parallel edge but no loop
    assert seen - {(False, False)}
    if seq.n >= 20:
        assert {(False, False), (False, True)} <= seen


def test_claw_plus_pendant_is_never_simple():
    seq = DegreeSequence((1, 3))
    for index in range(50):
        assert not sample_configuration(seq, seed=3, index=index).is_simple
    # a degree of n or more is refused up front, whatever the budget
    with pytest.raises(ParameterError, match="or more"):
        sample_simple(seq, seed=3, max_tries=200)
    # degrees below n that no simple graph has (Erdos-Gallai fails at k = 2)
    # still spend the whole explicit budget
    never = DegreeSequence((3, 3, 1, 1))
    for index in range(50):
        assert not sample_configuration(never, seed=3, index=index).is_simple
    with pytest.raises(RejectionFailure, match="acceptance 0/200"):
        sample_simple(never, seed=3, max_tries=200)


@pytest.mark.parametrize(
    "degrees", [(3, 3), (10**12, 10**12), (10**400, 10**400)], ids=["3,3", "1e12", "1e400"]
)
@pytest.mark.parametrize("max_tries", [1, 3, 10**6])
def test_explicit_budget_refuses_a_degree_of_n_or_more_before_any_draw(monkeypatch, degrees, max_tries):
    def no_pairing(*args, **kwargs):
        raise AssertionError("a pairing was drawn before the degrees were checked")

    monkeypatch.setattr("walklab.configmodel._pairing", no_pairing)
    monkeypatch.setattr("walklab.configmodel._simple_flags", no_pairing)  # the kernel draws without _pairing
    with pytest.raises(ParameterError, match="or more"):
        sample_simple(DegreeSequence(degrees), seed=1, max_tries=max_tries)


def test_default_budget_is_refused_up_front_above_its_cap(monkeypatch):
    def no_pairing(*args, **kwargs):
        raise AssertionError("a pairing was drawn before the budget was checked")

    six = regular_sequence(100, 6)  # p = exp(-8.75): about 126 000 attempts, under the cap
    assert default_max_tries(six) == math.ceil(20 / predicted_p_simple(six)) <= MAX_DEFAULT_TRIES
    monkeypatch.setattr("walklab.configmodel._pairing", no_pairing)
    monkeypatch.setattr("walklab.configmodel._simple_flags", no_pairing)  # the kernel draws without _pairing
    with pytest.raises(SizeCapError, match="capped at"):
        sample_simple(regular_sequence(16, 15), seed=1)  # p about 5e-25
    sixty = regular_sequence(62, 60)
    assert predicted_p_simple(sixty) == 0.0
    with pytest.raises(SizeCapError, match="capped at"):
        sample_simple(sixty, seed=1)
    # no simple graph has a degree of n or more, however large
    for degrees in [(10**12, 10**12), (10**400, 10**400), (5, 5, 5, 5)]:
        with pytest.raises(ParameterError, match="or more"):
            sample_simple(DegreeSequence(degrees), seed=1)
    monkeypatch.undo()
    with pytest.raises(RejectionFailure, match="0/50"):  # an explicit budget is used as given
        sample_simple(regular_sequence(16, 15), seed=1, max_tries=50)


@pytest.mark.parametrize(
    "seq",
    [random_band_sequence(20, 3, 6, seed=5), regular_sequence(50, 4), DegreeSequence((2, 2, 2))],
    ids=["band:20,3..6", "regular:4,50", "2,2,2"],
)
@pytest.mark.parametrize("seed", range(6))
def test_a_budget_ending_mid_block_keeps_attempts_and_graph(seq, seed):
    # budgets just before, at and past the first simple attempt (14-539 on
    # the band, 19-114 on regular:4,50) end inside the kernel's first block
    # of up to 2^16 attempts; the reference tests one attempt at a time
    k = next(i for i in range(2000) if sample_configuration(seq, seed, i).is_simple)
    if k > 0:
        with pytest.raises(RejectionFailure) as failure:
            sample_simple(seq, seed, max_tries=k)
        assert str(failure.value) == (
            f"no simple graph in {k} attempts "
            f"(empirical acceptance 0/{k}, predicted {predicted_p_simple(seq):.4g})"
        )
    accepted = sample_configuration(seq, seed, k)
    for budget in (k + 1, k + 3, None):
        out = sample_simple(seq, seed, max_tries=budget)
        assert out.attempts == k + 1
        assert (out.graph, out.graph.name) == (accepted, accepted.name)


def test_unique_simple_outcomes():
    out = sample_simple(regular_sequence(4, 3), seed=1)
    assert out.graph == complete(4)
    assert out.attempts >= 1
    out = sample_simple(DegreeSequence((2, 2, 2)), seed=1)
    assert out.graph == cycle(3)


def test_simple_sampling_is_uniform_on_four_cycles():
    # the 3 simple realizations of (2,2,2,2) are the 3 labelled 4-cycles
    seq = DegreeSequence((2, 2, 2, 2))
    counts = {}
    samples = 3000
    for seed in range(samples):
        g = sample_simple(seq, seed=seed).graph
        key = tuple((u, v) for u, v, _ in sorted(edge_list(g)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    expected = samples / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 15.0  # df=2; 0.999 quantile is 13.8


def test_nu_closed_forms():
    assert nu(regular_sequence(10, 3)) == pytest.approx(2.0)
    assert nu(regular_sequence(8, 5)) == pytest.approx(4.0)
    assert nu(DegreeSequence((1, 1, 1, 1))) == 0.0
    assert predicted_p_simple(DegreeSequence((1, 1))) == 1.0
    assert predicted_p_simple(regular_sequence(20, 3)) == pytest.approx(math.exp(-2))


def test_empirical_acceptance_matches_prediction():
    seq = regular_sequence(100, 3)
    simple = sum(
        1 for index in range(3000) if sample_configuration(seq, seed=11, index=index).is_simple
    )
    assert abs(simple / 3000 - math.exp(-2)) < 0.03


def test_sampled_cubic_graphs_are_usually_connected():
    seq = regular_sequence(200, 3)
    connected = sum(
        1 for seed in range(100) if sample_simple(seq, seed=seed).graph.is_connected
    )
    assert connected >= 99


def test_effective_min_degree_threshold():
    seq = DegreeSequence((3,) + (5,) * 199)
    assert effective_min_degree(seq) == 5  # one vertex of degree 3 is below 1%
    assert effective_min_degree(DegreeSequence((3, 3) + (5,) * 198)) == 3  # two reach it
    assert effective_min_degree(regular_sequence(10, 3)) == 3


def test_effective_min_degree_fallback_when_nothing_qualifies():
    # on 200 vertices no degree is held by two, so the most frequent
    # degrees tie and the smallest of them wins
    seq = DegreeSequence(tuple(range(1, 201)))
    assert effective_min_degree(seq) == 1


def test_regular_sequences_are_nice():
    for n in (100, 1000):
        report = check_nice(regular_sequence(n, 3))
        assert report.nice
        assert report.effective_minimum == 3
        assert all(c["passed"] for c in report.conditions.values())


def test_min_degree_two_fails_condition_ii():
    report = check_nice(DegreeSequence((2,) * 50))
    assert not report.conditions["ii_minimum_degree"]["passed"]
    assert not report.nice


def test_sparse_high_degree_minority_is_nice():
    # a handful of degree-4 vertices below the effective minimum 5
    n = 10**6
    seq = DegreeSequence((4, 4) + (5,) * (n - 2))
    report = check_nice(seq)
    assert report.effective_minimum == 5
    assert report.nice


def test_heavy_average_degree_fails_condition_i():
    n = 64
    seq = DegreeSequence((20,) * n)
    report = check_nice(seq)
    assert not report.conditions["i_average_degree"]["passed"]


def test_niceness_report_serializes():
    report = check_nice(regular_sequence(100, 3))
    loaded = json.loads(json.dumps(dataclasses.asdict(report), allow_nan=False))
    assert loaded["nice"] is True
    assert loaded["parameters"]["kappa"] == pytest.approx(1 / 12)
    assert set(loaded["conditions"]) == {
        "i_average_degree",
        "ii_minimum_degree",
        "iii_low_degree_counts",
        "iv_effective_degree_mass",
        "v_maximum_degree",
        "vi_upper_tail",
    }


def test_predicted_cover_values():
    seq = regular_sequence(1000, 3)
    assert predicted_cover(seq) == pytest.approx(2 * 1000 * math.log(1000))
    seq4 = regular_sequence(100, 4)
    assert predicted_cover(seq4) == pytest.approx(1.5 * 100 * math.log(100))
    with pytest.raises(ParameterError):
        predicted_cover(DegreeSequence((2, 2, 2, 2)))


def test_random_band_sequence_properties():
    seq = random_band_sequence(20, 3, 6, seed=5)
    assert seq.n == 20
    assert all(3 <= d <= 6 for d in seq.degrees)
    assert sum(seq.degrees) % 2 == 0
    again = random_band_sequence(20, 3, 6, seed=5)
    assert seq == again
    other = random_band_sequence(20, 3, 6, seed=6)
    assert seq != other


def test_degree_file_round_trip(tmp_path):
    seq = DegreeSequence((3, 4, 5, 4))
    path = tmp_path / "degrees.txt"
    path.write_text("3\n4\n5\n4\n")
    assert read_degree_file(path) == seq
    path.write_text("# comment\n3\n\n3\n")
    assert read_degree_file(path) == DegreeSequence((3, 3))
    path.write_text("3 3 4\n4\n")
    assert read_degree_file(path) == DegreeSequence((3, 3, 4, 4))
    path.write_text("3 x 4\n")
    with pytest.raises(ParameterError, match="expected an integer"):
        read_degree_file(path)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=12),
    st.integers(min_value=0, max_value=100),
)
def test_configuration_always_realizes_the_degrees(raw, seed):
    if sum(raw) % 2 != 0:
        raw[0] += 1
    seq = DegreeSequence(tuple(raw))
    g = sample_configuration(seq, seed=seed)
    assert tuple(g.degrees.tolist()) == seq.degrees
    assert g.m == seq.m


# --- the compiled pairing check, against numpy's shuffle and Graph.is_simple ---

TOP = 2**64 - 1


@pytest.mark.parametrize(
    "seq",
    [regular_sequence(50, 3), DegreeSequence((1, 3)), DegreeSequence((2,)), random_band_sequence(20, 3, 6, seed=5)],
    ids=["regular:3,50", "1,3", "2", "band:20,3..6"],
)
@pytest.mark.parametrize("seed, start", [(0, 0), (9, 2**40), (TOP, 0), (TOP, TOP - 1)])
def test_kernel_shuffles_as_numpy(seq, seed, start):
    # the stub array of attempt start, shuffled on stream (seed, 1 + start)
    # by the kernel's Fisher-Yates, is the array numpy's Generator.shuffle makes
    stubs = np.repeat(np.arange(seq.n, dtype=np.int64), seq.degrees)
    rng._KERNEL.walklab_shuffle(stubs.ctypes.data, stubs.size, seed, 1 + start)
    assert stubs.tolist() == shuffled_stubs(seq.degrees, seed, start).tolist()


@st.composite
def pairing_sequences(draw):
    """Degree sequences that pair into loops, parallel edges, or neither."""
    kind = draw(st.sampled_from(["any", "dense", "matching", "regular"]))
    if kind == "matching":  # every pairing is simple
        return DegreeSequence((1,) * (2 * draw(st.integers(1, 40))))
    if kind == "regular":
        n = draw(st.integers(4, 60))
        r = draw(st.integers(1, 4).filter(lambda r: n * r % 2 == 0))
        return regular_sequence(n, r)
    n = draw(st.integers(1, 8 if kind == "dense" else 30))
    top = 9 if kind == "dense" else 5  # degrees at or past n: loops and parallel edges often
    degrees = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    if sum(degrees) % 2:
        degrees[0] += 1
    return DegreeSequence(tuple(degrees))


@settings(max_examples=120, deadline=None)
@given(
    seq=pairing_sequences(),
    seed=st.one_of(st.integers(0, TOP), st.integers(TOP - 3, TOP)),
    start=st.one_of(st.just(0), st.integers(1, 2**40), st.integers(TOP - 2**20, TOP - 2**12)),
    count=st.integers(1, 300),
)
def test_kernel_flags_are_the_numpy_flags(seq, seed, start, count):
    flags = _kernel_flags(seq, seed, start, count, False).tolist()
    pairs = [shuffled_stubs(seq.degrees, seed, start + i).reshape(-1, 2) for i in range(count)]
    assert flags == [Graph(seq.n, p).is_simple for p in pairs]
    # with stop, the same flags up to and including the first simple attempt
    first = flags.index(True) + 1 if True in flags else count
    assert _kernel_flags(seq, seed, start, count, True).tolist() == flags[:first]
    if start == 0:  # and as _simple_flags yields them
        assert [(s, f.tolist()) for s, f in _simple_flags(seq, seed, count, False)] == [(0, flags)]


@pytest.mark.parametrize(
    "seq",
    [
        regular_sequence(50, 3),
        regular_sequence(100, 4),
        regular_sequence(22_000, 3),
        random_band_sequence(20, 3, 6, seed=5),
        DegreeSequence((2, 2, 2)),
        DegreeSequence((4, 4, 4, 4, 4)),
    ],
    ids=["regular:3,50", "regular:4,100", "regular:3,22000", "band:20,3..6", "2,2,2", "complete:5"],
)
@pytest.mark.parametrize("seed", [0, 1, 7, TOP])
def test_sample_simple_is_the_same_with_the_kernel_on_and_off(seq, seed):
    # off: the attempts tried one at a time by numpy's shuffle and Graph.is_simple
    on = sample_simple(seq, seed)
    k = first_simple_attempt(seq.degrees, seed, on.attempts)
    off = Graph(seq.n, shuffled_stubs(seq.degrees, seed, k).reshape(-1, 2), name=f"cm-{seq.n}v-s{seed}i{k}")
    assert (on.graph, on.graph.name, on.attempts) == (off, off.name, k + 1)
    assert edge_list(on.graph) == edge_list(off)


def test_a_failed_search_reads_the_same_with_the_kernel_on_and_off():
    # off: no attempt of the 200 is simple, one at a time, and the text is
    # that of a search that tried each
    never = DegreeSequence((3, 3, 1, 1))
    with pytest.raises(RejectionFailure) as compiled:
        sample_simple(never, seed=3, max_tries=200)
    assert first_simple_attempt(never.degrees, 3, 200) is None
    assert str(compiled.value) == (
        f"no simple graph in 200 attempts (empirical acceptance 0/200, predicted {predicted_p_simple(never):.4g})"
    )


def test_kernel_returns_between_attempts_after_2_to_the_26_draws(monkeypatch):
    # so that a long count still lets the interpreter take a Ctrl-C: on a
    # perfect matching of 4096 stubs every attempt is simple and draws at
    # least 4095 values, so 20 000 attempts pass 2^26 draws in the first
    # call, which returns at the end of an attempt; the second checks the rest
    calls = []
    kernel = rng._KERNEL

    class Counted:
        def walklab_simple(self, *args):
            checked = kernel.walklab_simple(*args)
            calls.append((args[5], checked))  # the attempts asked for, and checked
            return checked

    monkeypatch.setattr(rng, "_KERNEL", Counted())
    matching = DegreeSequence((1,) * 4096)
    [(start, flags)] = _simple_flags(matching, 0, 20_000, stop=False)
    assert start == 0 and flags.tolist() == [True] * 20_000
    [(asked, first), rest] = calls
    assert asked == 20_000 and 2**26 // (2 * 4096) < first < 2**26 // 4095 + 1
    assert rest == (20_000 - first, 20_000 - first)
