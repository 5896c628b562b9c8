import json

import run
from workloads import ROOT, WORKLOADS


def test_short_run_prints_every_declared_metric_with_its_unit(tmp_path, capsys):
    """A short traced run of every workload passes its checks and prints
    each end-to-end metric (untraced pass) and each per-layer metric
    (traced pass) by name with its unit."""
    document, lines = run.run_workloads(
        list(WORKLOADS), run.DEFAULT_SEED, 1.5, tmp_path, trace=True
    )
    printed = capsys.readouterr().out.splitlines()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert len(lines) == len(WORKLOADS)
    for workload, line in zip(WORKLOADS, lines, strict=True):
        assert line["correct"], document
        assert document["workloads"][workload]["failed"] == 0
        shown = {
            (parts[1], parts[-1])
            for parts in (text.split() for text in printed)
            if parts and parts[0] == workload
        }
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert (entry["name"], entry["unit"]) in shown, (workload, entry["name"])
        assert set(line["metrics"]) == {entry["name"] for entry in spec["per_layer"]}
    layers_doc = json.loads((tmp_path / "layers.json").read_text())
    assert layers_doc["sweep-vector"]["layers"]["memory3d.vector_share"] == 1.0
    assert layers_doc["sweep-exact"]["layers"]["memory3d.vector_share"] == 0.0
    assert layers_doc["serve-warm"]["layers"]["attempt.calls"] == 0
    assert layers_doc["serve-cold"]["layers"]["cache.hit_share"] == 0.0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert any(event["ph"] == "X" for event in trace["traceEvents"])
