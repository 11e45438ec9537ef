"""Recorded exact cover times and Matthews lower bounds.

The values were recorded from the per-set cover recursion and the
per-combination subset search, and are compared with `==`: a rewrite of
either loop must reproduce every bit, not just agree to a tolerance.
"""

import pytest

from walklab.electrical import matthews_lower
from walklab.graph import Graph, family
from walklab.spectral import build_kernel, exact_cover_time, exact_cover_times, exact_hitting

# a weighted multigraph with loops at vertex 1 and parallel edges
WEIGHTED_LOOPS_9 = Graph(
    9,
    [
        (0, 1, 1.83), (0, 2, 1.18), (2, 3, 3.51), (0, 4, 0.93), (1, 5, 1.17),
        (1, 6, 3.25), (2, 7, 1.15), (7, 8, 1.15), (0, 7, 0.38), (1, 1, 1.92),
        (3, 8, 1.13), (4, 5, 3.57), (0, 8, 1.22), (0, 6, 3.12), (0, 8, 2.0),
        (4, 5, 1.93), (1, 1, 3.86),
    ],
    name="weighted-loops:9",
)

# case -> (exact_cover_times, exact_cover_time from 0, matthews_lower)
PINNED = {
    "lollipop:13": (
        [314.09044096259834, 314.09044096259834, 314.09044096259834, 314.0904409625984,
         314.0904409625983, 314.09044096259834, 314.09044096259834, 314.09044096259834,
         307.2709615106292, 243.71512589487685, 178.15929027912412, 110.60345466337141,
         41.04761904761904],
        314.09044096259834,
        25.777777777777775,
    ),
    "complete:13": (
        [37.238528138528125] * 7 + [37.23852813852812] * 6,
        37.238528138528125,
        36.23852813852811,
    ),
    "star:13": (
        [73.47705627705625] + [72.47705627705625] * 8 + [72.47705627705623] * 2
        + [72.47705627705622] * 2,
        73.47705627705625,
        72.47705627705623,
    ),
    "binary-tree:13": (
        [130.25177031515128, 129.99667377311292, 128.50686685718972, 128.36912550209377,
         128.36912550209374, 125.33672340473596, 126.93210685168194, 126.0553513665842,
         126.0553513665842, 126.05535136658416, 126.05535136658416, 122.25165167850909,
         122.25165167850909],
        130.25177031515128,
        71.99999999999997,
    ),
    "grid2d:3,4": (
        [52.39268860153463, 54.755252853100984, 54.75525285310098, 52.39268860153463,
         53.956517383326954, 55.609967476933434, 55.609967476933434, 53.956517383326954,
         52.392688601534644, 54.755252853100984, 54.755252853100984, 52.39268860153464],
        52.39268860153463,
        38.587301587301575,
    ),
    "weighted-loops:9": (
        [60.226223357990875, 63.09223571298014, 54.86538025185796, 53.678012493927014,
         56.816260987069626, 57.29538687853142, 62.02730259051194, 51.34264186549151,
         57.5394690170739],
        60.226223357990875,
        35.53868795691126,
    ),
    "weighted-loops:9/lazy": (
        [120.45244671598175, 126.18447142596028, 109.73076050371591, 107.35602498785403,
         113.63252197413925, 114.59077375706283, 124.05460518102387, 102.68528373098302,
         115.0789380341478],
        120.45244671598175,
        71.07737591382252,
    ),
}


def _case(name):
    spec, _, mode = name.partition("/")
    g = WEIGHTED_LOOPS_9 if spec == WEIGHTED_LOOPS_9.name else family(spec)
    return g, build_kernel(g, lazy=mode == "lazy")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cover_times_keep_their_recorded_values(name):
    _, kernel = _case(name)
    assert exact_cover_times(kernel).tolist() == PINNED[name][0]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_single_start_cover_time_keeps_its_recorded_value(name):
    _, kernel = _case(name)
    assert exact_cover_time(kernel, 0) == PINNED[name][1]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_matthews_lower_keeps_its_recorded_value(name):
    g, kernel = _case(name)
    assert matthews_lower(g, hitting=exact_hitting(kernel)) == PINNED[name][2]
