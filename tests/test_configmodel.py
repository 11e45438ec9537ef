import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.configmodel import (
    BLOCK_STUBS,
    MAX_DEFAULT_TRIES,
    DegreeSequence,
    _pairing_blocks,
    _simple_rows,
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
        assert [(u, v) for u, v, _ in g.edges] == [(0, 1)]


def test_two_degree_two_vertices_matching_frequencies():
    # 3 perfect matchings on 4 stubs: 2 give the double edge, 1 gives two loops
    seq = DegreeSequence((2, 2))
    double = loops = 0
    for index in range(3000):
        g = sample_configuration(seq, seed=42, index=index)
        kinds = sorted((u, v) for u, v, _ in g.edges)
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
    # blocks of 1, 2, 4, ... rows up to the stub cap: 2000 attempts cross
    # at least ten block boundaries on every sequence
    seen = set()
    blocks = list(_pairing_blocks(seq, 17, 2000, 1))
    assert len(blocks) >= 10 and sum(len(block) for _, block in blocks) == 2000
    for start, block in blocks:
        for i, (row, simple) in enumerate(zip(block, _simple_rows(block, seq.n))):
            g = Graph(seq.n, row.reshape(-1, 2).tolist())
            assert simple == g.is_simple
            loop = any(u == v for u, v, _ in g.edges)
            seen.add((loop, len({(u, v) for u, v, _ in g.edges}) < g.m))
            if (start + i) % 97 == 0:
                assert sample_configuration(seq, 17, start + i).edges == g.edges
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

    monkeypatch.setattr("walklab.configmodel._pairing_block", no_pairing)
    with pytest.raises(ParameterError, match="or more"):
        sample_simple(DegreeSequence(degrees), seed=1, max_tries=max_tries)


def test_default_budget_is_refused_up_front_above_its_cap(monkeypatch):
    def no_pairing(*args, **kwargs):
        raise AssertionError("a pairing was drawn before the budget was checked")

    six = regular_sequence(100, 6)  # p = exp(-8.75): about 126 000 attempts, under the cap
    assert default_max_tries(six) == math.ceil(20 / predicted_p_simple(six)) <= MAX_DEFAULT_TRIES
    monkeypatch.setattr("walklab.configmodel._pairing_block", no_pairing)
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
    # sample_simple's first block has about a quarter of 1/p rows (28 on
    # the band sequence, 10 on regular:4,50, 1 on 2,2,2) and each next one
    # twice as many, so most budgets just before, at and past the first
    # simple attempt (14-539 on the band, 19-114 on regular:4,50) end
    # inside a block; the reference tests one attempt at a time
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


def test_blocks_are_capped_at_the_stub_limit():
    small = regular_sequence(50, 3)  # 150 stubs: 436 rows a block
    sizes = [len(block) for _, block in _pairing_blocks(small, 4, 2000, 300)]
    assert sizes == [300, 436, 436, 436, 392]
    assert all(block.size <= BLOCK_STUBS for _, block in _pairing_blocks(small, 4, 2000, 300))
    # more than BLOCK_STUBS stubs: one row a block, whatever the first size
    big = regular_sequence(22_000, 3)
    assert 2 * big.m > BLOCK_STUBS
    blocks = list(_pairing_blocks(big, 4, 3, 8))
    assert [(start, block.shape) for start, block in blocks] == [
        (0, (1, 66_000)), (1, (1, 66_000)), (2, (1, 66_000))
    ]
    for start, block in blocks:
        pairs = block[0].reshape(-1, 2).tolist()
        assert Graph(big.n, pairs).edges == sample_configuration(big, 4, start).edges


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
        key = tuple((u, v) for u, v, _ in sorted(g.edges))
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
    assert effective_min_degree(seq, fraction=0.004) == 3
    assert effective_min_degree(regular_sequence(10, 3)) == 3


def test_effective_min_degree_fallback_when_nothing_qualifies():
    seq = DegreeSequence((3, 3, 4, 4, 5, 5))
    assert effective_min_degree(seq, fraction=0.9) == 3


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
