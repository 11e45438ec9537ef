import math
from fractions import Fraction

import numpy as np
import pytest

from walklab import walks
from walklab.errors import DisconnectedError, ParameterError
from walklab.graph import Graph, complete, cycle, family, lollipop, path, star
from walklab.spectral import build_kernel, exact_cover_time, exact_hitting
from walklab.walks import (
    EstimateRecord,
    WalkConfig,
    blanket_cover_reference,
    empirical_visit_frequencies,
    estimates_csv,
    simulate,
    st_connectivity,
    trial_value,
)


def test_simulate_is_reproducible():
    g = complete(5)
    cfg = WalkConfig(stop="cover")
    a = simulate(g, cfg, trials=300, seed=11)
    b = simulate(g, cfg, trials=300, seed=11)
    assert a == b
    c = simulate(g, cfg, trials=300, seed=12)
    assert c.mean != a.mean


def test_worker_count_does_not_change_estimates():
    g = complete(5)
    cfg = WalkConfig(stop="cover")
    serial = simulate(g, cfg, trials=600, seed=3, workers=1)
    parallel = simulate(g, cfg, trials=600, seed=3, workers=3)
    assert serial == parallel


def test_single_trial_matches_trial_value():
    g = path(6)
    cfg = WalkConfig(stop="hit", target=5)
    value, censored = trial_value(g, cfg, seed=7, trial_index=0)
    rec = simulate(g, cfg, trials=1, seed=7)
    assert not censored
    assert rec.mean == value
    assert rec.trials == 1


def test_trials_use_disjoint_streams():
    g = path(6)
    cfg = WalkConfig(stop="hit", target=5)
    values = [trial_value(g, cfg, seed=7, trial_index=i)[0] for i in range(5)]
    assert len(set(values)) > 1


def test_blanket_delta_zero_equals_cover_trialwise():
    g = cycle(7)
    for i in range(10):
        cover_value, _ = trial_value(g, WalkConfig(stop="cover"), seed=21, trial_index=i)
        blanket_value, _ = trial_value(
            g, WalkConfig(stop="blanket", delta=0.0), seed=21, trial_index=i
        )
        assert blanket_value == cover_value


def test_blanket_dominates_cover_trialwise():
    g = complete(4)
    for i in range(10):
        cover_value, _ = trial_value(g, WalkConfig(stop="cover"), seed=5, trial_index=i)
        blanket_value, _ = trial_value(
            g, WalkConfig(stop="blanket", delta=0.4), seed=5, trial_index=i
        )
        assert blanket_value >= cover_value


def test_blanket_cover_dominates_cover_trialwise():
    g = complete(5)
    ref = blanket_cover_reference(g)
    assert ref == pytest.approx(4 * (1 + 1 / 2 + 1 / 3 + 1 / 4))
    for i in range(10):
        cover_value, _ = trial_value(g, WalkConfig(stop="cover"), seed=9, trial_index=i)
        bcover_value, _ = trial_value(g, WalkConfig(stop="blanket-cover"), seed=9, trial_index=i)
        assert bcover_value >= cover_value


def test_blanket_cover_reference_large_graph_uses_hitting_bound():
    g = cycle(20)
    kernel = build_kernel(g)
    max_hit = float(exact_hitting(kernel).max())
    expected = max_hit * sum(1 / i for i in range(1, 21))
    assert blanket_cover_reference(g) == pytest.approx(expected)


def test_hitting_estimate_matches_exact_value():
    g = path(5)
    kernel = build_kernel(g)
    exact = exact_hitting(kernel)[0, 4]
    assert exact == 16.0
    rec = simulate(g, WalkConfig(stop="hit", start=0, target=4), trials=4000, seed=2)
    assert rec.censored == 0
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_cover_estimate_matches_exact_value():
    g = complete(5)
    exact = exact_cover_time(build_kernel(g), start=0)
    rec = simulate(g, WalkConfig(stop="cover"), trials=4000, seed=4)
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_alias_sampled_walk_matches_exact_cover():
    # center degree 11 exercises the alias path; leaves stay on the scan path
    g = star(12)
    exact = exact_cover_time(build_kernel(g), start=0)
    rec = simulate(g, WalkConfig(stop="cover"), trials=4000, seed=6)
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_lazy_walk_doubles_hitting_time():
    g = complete(3)
    exact = exact_hitting(build_kernel(g, lazy=True))[0, 1]
    assert exact == pytest.approx(4.0)
    rec = simulate(g, WalkConfig(stop="hit", target=1, lazy=True), trials=4000, seed=8)
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_scheme_walk_matches_scheme_kernel():
    g = lollipop(8)
    exact = exact_hitting(build_kernel(g, scheme="mindeg"))[0, 7]
    rec = simulate(
        g, WalkConfig(stop="hit", start=0, target=7, scheme="mindeg"), trials=3000, seed=10
    )
    assert rec.scheme == "mindeg"
    assert abs(rec.mean - exact) <= 5 * rec.stderr


def test_budget_censors_trials():
    g = path(10)
    rec = simulate(g, WalkConfig(stop="cover", budget=3), trials=50, seed=1)
    assert rec.censored == 50
    assert math.isnan(rec.mean)


def test_partial_censoring_excludes_censored_trials():
    g = path(6)
    budget = 40
    cfg = WalkConfig(stop="cover", budget=budget)
    values = []
    for i in range(200):
        value, censored = trial_value(g, cfg, seed=13, trial_index=i)
        if not censored:
            values.append(value)
    rec = simulate(g, cfg, trials=200, seed=13)
    assert 0 < rec.censored < 200
    assert rec.mean == pytest.approx(np.mean(values))
    assert rec.var == pytest.approx(np.var(values, ddof=1))


def test_st_connectivity_budget_and_one_sided_error():
    g = path(6)
    budget = 8 * g.n * g.m
    hits = 0
    for seed in range(20):
        out = st_connectivity(g, 0, 5, seed=seed)
        assert out["budget"] == budget
        if out["connected"]:
            assert out["steps"] <= budget
            hits += 1
    assert hits >= 10  # error is one-sided with probability at most 1/2


def test_st_connectivity_never_claims_separated_pair():
    g = Graph(4, [(0, 1), (2, 3)], name="two-parts")
    for seed in range(5):
        out = st_connectivity(g, 0, 3, seed=seed)
        assert out["connected"] is False
        assert out["steps"] is None
    same = st_connectivity(g, 2, 2, seed=0)
    assert same["connected"] is True and same["steps"] == 0
    # vertex 2 is isolated: as a target it is never reached, as a start it
    # is answered without a walk
    g = Graph(3, [(0, 1)], name="one-edge")
    assert st_connectivity(g, 0, 1, seed=0)["connected"] is True
    for s, t in ((0, 2), (2, 0)):
        out = st_connectivity(g, s, t, seed=0)
        assert out["connected"] is False and out["steps"] is None
    same = st_connectivity(g, 2, 2, seed=0)
    assert same["connected"] is True and same["steps"] == 0


def test_st_connectivity_keeps_its_recorded_walks():
    # step counts of the probe before it became a hit-mode trial; star:12
    # walks through the alias table at its centre
    for spec, s, t, expected in (
        ("star:12", 3, 5, [42, 6, 2, 62, 4, 2]),
        ("lollipop:20", 0, 19, [3667, 3712, 960, 854, 122, 1324]),
    ):
        g = family(spec)
        got = [st_connectivity(g, s, t, seed=4, index=i)["steps"] for i in range(6)]
        assert got == expected, spec


PINNED_TRIALS = {
    # trial_value(g, config, seed=3, trial_index=i) for i in 0..5; path:10
    # samples with the cumulative scan only, star:12 uses the alias table
    # at its centre
    "path:10": {
        "cover": [163, 59, 65, 147, 67, 13],
        "hit": [19, 37, 13, 27, 13, 9],
        "blanket": [400, 65, 73, 194, 103, 13],
        "blanket-cover": [338, 205, 291, 206, 125, 220],
        "lazy-hit": [27, 45, 28, 72, 101, 27],
        "mindeg-cover": [165, 61, 69, 143, 67, 13],
    },
    "star:12": {
        "cover": [37, 51, 67, 85, 77, 97],
        "hit": [13, 3, 33, 19, 5, 21],
        "blanket": [37, 51, 163, 101, 191, 185],
        "blanket-cover": [103, 129, 163, 113, 185, 165],
        "lazy-hit": [5, 25, 74, 36, 4, 120],
        "mindeg-cover": [37, 51, 67, 85, 77, 97],
    },
}

PINNED_CONFIGS = {
    "cover": WalkConfig(stop="cover"),
    "hit": WalkConfig(stop="hit", target=5),
    "blanket": WalkConfig(stop="blanket", delta=0.4),
    "blanket-cover": WalkConfig(stop="blanket-cover"),
    "lazy-hit": WalkConfig(stop="hit", target=5, lazy=True),
    "mindeg-cover": WalkConfig(stop="cover", scheme="mindeg"),
}


@pytest.mark.parametrize("spec", sorted(PINNED_TRIALS))
@pytest.mark.parametrize("mode", sorted(PINNED_CONFIGS))
def test_trial_values_keep_their_recorded_walks(spec, mode):
    g = family(spec)
    got = [trial_value(g, PINNED_CONFIGS[mode], seed=3, trial_index=i) for i in range(6)]
    assert got == [(float(v), False) for v in PINNED_TRIALS[spec][mode]]


@pytest.mark.parametrize(
    "spec, counts",
    [
        ("cycle:8", [105, 117, 139, 119, 118, 129, 147, 127]),
        ("star:5", [509, 93, 124, 157, 118]),
    ],
)
def test_visit_counts_keep_their_recorded_walk(spec, counts):
    steps = 1000
    freq = empirical_visit_frequencies(family(spec), steps=steps, seed=0, lazy=True)
    assert (freq * (steps + 1)).tolist() == [float(c) for c in counts]


@pytest.mark.parametrize(
    "spec, config, trials, seed",
    [
        # Welford moments merged per chunk gave mean 9.396999999999998 here
        ("complete:10", WalkConfig(stop="hit", target=9), 1000, 3),
        ("path:6", WalkConfig(stop="cover", budget=40), 300, 13),  # partly censored
        ("star:12", WalkConfig(stop="cover", lazy=True), 2 * walks.CHUNK + 7, 1),
    ],
)
def test_simulate_moments_are_exact_once_rounded(spec, config, trials, seed):
    g = family(spec)
    runs = [trial_value(g, config, seed, i) for i in range(trials)]
    values = [Fraction(int(v)) for v, censored in runs if not censored]
    k = len(values)
    mean = sum(values) / k
    var = sum((v - mean) ** 2 for v in values) / (k - 1)
    rec = simulate(g, config, trials=trials, seed=seed)
    assert rec.censored == trials - k
    assert rec.mean == float(mean)
    assert rec.var == float(var)
    assert rec.stderr == math.sqrt(float(var) / k)


def test_negative_trial_index_is_refused():
    # index -1 would draw from stream (seed, 0), which is reserved for
    # setup-level choices
    g = path(6)
    with pytest.raises(ParameterError):
        trial_value(g, WalkConfig(stop="hit", target=5), seed=7, trial_index=-1)
    with pytest.raises(ParameterError):
        st_connectivity(g, 0, 5, seed=7, index=-1)
    with pytest.raises(ParameterError):
        st_connectivity(g, 2, 2, seed=7, index=-1)


@pytest.mark.parametrize("kwargs", [{"steps": -1}, {"steps": 10, "start": 9}, {"steps": 10, "start": -1}])
def test_visit_frequencies_refuse_bad_walk_inputs(kwargs):
    with pytest.raises(ParameterError):
        empirical_visit_frequencies(path(6), seed=0, **kwargs)


def test_visit_frequencies_with_no_steps_sit_at_the_start():
    assert empirical_visit_frequencies(path(6), steps=0, seed=0, start=2).tolist() == [
        0.0, 0.0, 1.0, 0.0, 0.0, 0.0
    ]


def test_simulate_refuses_disconnected_graph_before_walking():
    g = Graph(4, [(0, 1), (2, 3)], name="two-parts")
    with pytest.raises(DisconnectedError):
        simulate(g, WalkConfig(stop="cover"), trials=3, seed=0)
    # a single trial is refused too wherever every vertex carries a quota,
    # instead of walking to its budget
    for config in (
        WalkConfig(stop="cover", budget=1000),
        WalkConfig(stop="blanket", delta=0.4, budget=1000),
        WalkConfig(stop="blanket-cover", reference=10.0, budget=1000),
    ):
        with pytest.raises(DisconnectedError):
            trial_value(g, config, seed=0, trial_index=0)
    # hit mode still runs to its budget when the target is out of reach
    hit = WalkConfig(stop="hit", start=0, target=3, budget=1000)
    assert trial_value(g, hit, seed=0, trial_index=0) == (None, True)


def test_worker_count_is_clamped_to_chunks_and_cpus(monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(walks, "ProcessPoolExecutor", RecordingPool)
    g = path(4)
    cfg = WalkConfig(stop="cover")
    trials = 3 * walks.CHUNK + 1  # four chunks
    serial = simulate(g, cfg, trials=trials, seed=2, workers=1)
    monkeypatch.setattr(walks.os, "cpu_count", lambda: 64)
    assert simulate(g, cfg, trials=trials, seed=2, workers=100_000) == serial
    monkeypatch.setattr(walks.os, "cpu_count", lambda: 2)
    assert simulate(g, cfg, trials=trials, seed=2, workers=100_000) == serial
    monkeypatch.setattr(walks.os, "cpu_count", lambda: None)
    assert simulate(g, cfg, trials=trials, seed=2, workers=100_000) == serial
    assert pools == [4, 2]  # one usable CPU runs in-process


def test_visit_frequencies_sum_to_one_and_track_stationary():
    g = cycle(8)
    freq = empirical_visit_frequencies(g, steps=10**6, seed=0, lazy=True)
    assert freq.sum() == pytest.approx(1.0)
    pi = np.full(8, 1 / 8)
    tv = 0.5 * np.abs(freq - pi).sum()
    assert tv <= 0.01


def test_visit_frequencies_weighted_stationary():
    g = star(5)
    kernel = build_kernel(g, lazy=True)
    freq = empirical_visit_frequencies(g, steps=2 * 10**5, seed=1, lazy=True)
    tv = 0.5 * np.abs(freq - kernel.stationary).sum()
    assert tv <= 0.02


def test_config_validation():
    g = path(4)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(stop="wander"), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(stop="hit"), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(stop="hit", target=9), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(stop="blanket", delta=1.0), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(budget=0), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(start=4), trials=1, seed=0)
    with pytest.raises(ParameterError):
        simulate(g, WalkConfig(), trials=0, seed=0)


def test_hit_own_start_is_zero():
    g = path(4)
    rec = simulate(g, WalkConfig(stop="hit", start=2, target=2), trials=5, seed=0)
    assert rec.mean == 0.0 and rec.var == 0.0


def test_quantity_labels():
    assert WalkConfig(stop="hit", target=3).quantity() == "hit:3"
    assert WalkConfig(stop="blanket", delta=0.25).quantity() == "blanket:0.25"
    assert WalkConfig(stop="cover").quantity() == "cover"
    assert WalkConfig(stop="blanket-cover").quantity() == "blanket-cover"


def test_estimates_csv_round_trip():
    g = complete(4)
    rec = simulate(g, WalkConfig(stop="cover"), trials=64, seed=5)
    text = estimates_csv([rec])
    lines = text.strip().split("\n")
    assert lines[0] == "quantity,graph_id,scheme,start,trials,seed,mean,stderr,censored"
    cells = lines[1].split(",")
    assert cells[0] == "cover"
    assert cells[1] == g.name
    assert float(cells[6]) == rec.mean
    assert float(cells[7]) == rec.stderr
    assert text == estimates_csv([simulate(g, WalkConfig(stop="cover"), trials=64, seed=5)])
