import json

import pytest
from stats import percentile, tail_percentile, valid_metric_name, verdict
from workloads import ROOT


@pytest.mark.parametrize(
    ("count", "expected"),
    [(5000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0


def test_metric_names_use_the_allowed_alphabet():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for key in ("end_to_end", "per_layer") for entry in spec[key]]
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))
    for bad in ("p50 ms", "a/b", "", "x" * 65, "latency%"):
        assert not valid_metric_name(bad)


def test_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, "lower", 0.1) == ("improved", 1.0)
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "worse"
    assert verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [50.0, 150, 60, 140, 100, 70, 130, 80, 120, 100]
    assert verdict(noisy, list(noisy), "higher", 0.1)[0] == "unresolved"
