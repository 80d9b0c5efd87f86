"""Checks on the benchmark itself: spans fire where predicted, an output
mismatch fails the command, and the printed metrics match BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json

import pytest

import run
from loadgen import WORKLOADS, LoadGenerator, launch
from spans import BINDINGS, SpanView, Tracer, expected_firing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_phases(tmp_path_factory):
    """Spans from a traced launch and one traced pass of every workload."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.segment, tracer.enabled = "setup", True
        topology, _ = launch(tmp_path_factory.mktemp("state"), 1)
        tracer.enabled = False
        tracer.install_local_nf_hops(topology)
        gen = LoadGenerator(topology, seed=7)
        try:
            failures = gen.reference_pass().failures
            for workload in WORKLOADS:
                failures += gen.run_pass(workload, warm_up=True).failures
                tracer.segment, tracer.enabled = workload, True
                failures += gen.run_pass(workload).failures
                tracer.enabled = False
        finally:
            gen.close()
            topology.shutdown()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert failures == []
    return tracer.spans


def test_install_restores_every_binding():
    before = [vars(b.owner)[b.attr] for b in BINDINGS]
    tracer = Tracer()
    tracer.install()
    assert all(vars(b.owner)[b.attr] is not orig for b, orig in zip(BINDINGS, before))
    tracer.uninstall()
    assert all(vars(b.owner)[b.attr] is orig for b, orig in zip(BINDINGS, before))


@pytest.mark.parametrize("phase", ("setup",) + WORKLOADS)
def test_each_span_fires_where_predicted_and_nowhere_else(traced_phases, phase):
    view = SpanView(traced_phases, phase)
    fired = set(view.by_name)
    fire, zero = expected_firing(phase)
    assert fire - fired == set(), f"predicted to fire on {phase} but silent"
    assert fired & zero == set(), f"predicted zero on {phase} but fired"


def test_injected_mismatch_fails_the_command(monkeypatch, tmp_path, capsys):
    real = LoadGenerator.reference_pass

    def corrupted(self):
        result = real(self)
        self.reference[5] = b"{}"
        return result

    monkeypatch.setattr(LoadGenerator, "reference_pass", corrupted)
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "tunnel_steady", "--seed", "3", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # the warm-up pass and every measured pass each miss on the same step
    assert result["failed"] >= 2


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_carries_exactly_the_declared_metrics(monkeypatch, tmp_path, capsys,
                                                     trace, section):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "plain_direct", "--seed", "1", "--seconds", "0.3",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
