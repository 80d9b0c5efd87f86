import copy
import json
import socket
import sys
import threading
import time

import pytest

from sbacl.errors import ConfigError, SbaclError
from sbacl.httputil import HttpClient
from sbacl.vdr_http import RegistryHttpClient
from sbacl.harness import (
    ScenarioError,
    Topology,
    _bench_mode,
    benchmark,
    bundled,
    compare_transcripts,
    distinct_ordered_pairs,
    format_report,
    launch_topology,
    run_scenario,
    validate_script,
    validate_topology,
)

from conftest import MINI_SCRIPT, MINI_TOPOLOGY, leaked_files


@pytest.fixture(scope="module")
def mini():
    topology = launch_topology(MINI_TOPOLOGY)
    yield topology
    topology.shutdown()


# --- validation ----------------------------------------------------------------


def test_validate_topology_accepts_the_fixtures():
    validate_topology(MINI_TOPOLOGY)
    validate_topology(bundled("topology_single_domain.json"))
    validate_topology(bundled("topology_two_domain.json"))


def test_validate_topology_reports_each_problem():
    config = copy.deepcopy(MINI_TOPOLOGY)
    config["domains"][0]["trusted_foreign_roots"] = ["atlantis"]
    config["nfs"][0]["domain"] = "nowhere"
    config["nfs"][0]["ipmf"] = "ghost-ipmf"
    config["nfs"][0]["routes"] = [{"host": "X", "target": "X"}]
    config["nfs"][1]["grants"] = [{"producer": "A", "service": "s", "ops": "GET",
                                   "ipmf": "ghost-ipmf"}]
    with pytest.raises(ConfigError) as err:
        validate_topology(config)
    text = str(err.value)
    for needle in ("atlantis", "nowhere", "ghost-ipmf", "unknown NF 'X'"):
        assert needle in text


def test_validate_script_checks_nf_names():
    bad = {"steps": [{"caller": "AMF", "callee": "NOPE", "method": "GET",
                      "path": "/x", "expected_status": 200}]}
    with pytest.raises(ConfigError) as err:
        validate_script(bad, MINI_TOPOLOGY)
    assert "NOPE" in str(err.value)
    with pytest.raises(ConfigError):
        validate_script({"steps": []}, MINI_TOPOLOGY)


def test_bundled_script_matches_bundled_topology():
    script = bundled("ue_registration.json")
    topo = bundled("topology_single_domain.json")
    validate_script(script, topo)
    assert len(script["steps"]) == 58
    pairs = distinct_ordered_pairs(script)
    assert len(pairs) == 11
    assert all(caller != callee for caller, callee in pairs)


def test_distinct_ordered_pairs_is_directional():
    script = {"steps": [
        {"caller": "A", "callee": "B"},
        {"caller": "B", "callee": "A"},
        {"caller": "A", "callee": "B"},
    ]}
    assert distinct_ordered_pairs(script) == {("A", "B"), ("B", "A")}


# --- running scenarios -----------------------------------------------------------


def test_scenario_runs_identically_in_both_modes(mini):
    plain = run_scenario(mini, MINI_SCRIPT, "plain")
    tunneled = run_scenario(mini, MINI_SCRIPT, "tunneled")
    assert plain.passed and tunneled.passed
    assert compare_transcripts(plain, tunneled) == []
    assert tunneled.handshakes <= len(distinct_ordered_pairs(MINI_SCRIPT))

    again = run_scenario(mini, MINI_SCRIPT, "tunneled")
    assert again.handshakes == 0


def test_scenario_mode_must_be_known(mini):
    with pytest.raises(ValueError):
        run_scenario(mini, MINI_SCRIPT, "carrier-pigeon")


def test_scenario_error_is_specific(mini):
    script = {"name": "broken", "steps": [
        {"caller": "AMF", "callee": "UDM", "method": "GET",
         "path": "/nudm-sdm/v2/am-data", "expected_status": 418},
    ]}
    with pytest.raises(ScenarioError) as err:
        run_scenario(mini, script, "plain")
    assert err.value.step.status == 200
    assert "expected 418" in str(err.value)

    survived = run_scenario(mini, script, "plain", halt_on_failure=False)
    assert not survived.passed
    assert survived.results[0].ok is False


def test_compare_transcripts_reports_differences(mini):
    plain = run_scenario(mini, MINI_SCRIPT, "plain")
    other = copy.deepcopy(plain)
    other.results[1].status = 500
    other.results[2].body = b"different"
    mismatches = compare_transcripts(plain, other)
    assert len(mismatches) == 2
    assert "step 1" in mismatches[0] and "step 2" in mismatches[1]

    short = copy.deepcopy(plain)
    short.results.pop()
    assert compare_transcripts(plain, short) == ["step counts differ: 3 vs 2"]


# --- benchmark -------------------------------------------------------------------


def test_benchmark_report_shape(mini):
    report = benchmark(mini, MINI_SCRIPT, iterations=2)
    assert report["script"] == "mini"
    assert report["steps"] == 3
    assert report["iterations_requested"] == 2
    assert report["warmup"]["mode_equivalent"] is True
    for mode in ("plain", "tunneled"):
        r = report[mode]
        assert r["iterations"] == 2
        assert len(r["per_iteration_s"]) == 2
        assert r["voided"] == 0
        assert r["mean_s"] > 0
    expected = (report["tunneled"]["mean_s"] / report["plain"]["mean_s"] - 1.0) * 100.0
    assert report["relative_overhead_pct"] == pytest.approx(expected)

    text = format_report(report)
    assert "script: mini (3 steps)" in text
    assert "plain" in text and "tunneled" in text
    assert "relative overhead:" in text


def test_bench_mode_voids_failing_iterations(mini):
    hopeless = {"name": "hopeless", "steps": [
        {"caller": "AMF", "callee": "UDM", "method": "GET",
         "path": "/nudm-sdm/v2/am-data", "expected_status": 500},
    ]}
    result = _bench_mode(mini, hopeless, "plain", iterations=3)
    assert result.voided == 3
    assert result.iterations == 0
    assert result.mean_s == 0.0

    report_like = {
        "script": "hopeless", "steps": 1, "iterations_requested": 3,
        "plain": result.to_dict(), "tunneled": result.to_dict(),
        "relative_overhead_pct": None,
    }
    assert "not computable" in format_report(report_like)


# --- lifecycle -------------------------------------------------------------------


def test_failed_launch_leaves_no_servers_behind():
    config = copy.deepcopy(MINI_TOPOLOGY)
    # a second domain that does not trust the first: the cross-domain grant
    # must fail during provisioning, after several servers already started
    config["domains"].append({
        "name": "edge",
        "root": {"name": "edge-root"},
        "ipmfs": [{"name": "edge-ipmf",
                   "rights": ["issue_authn", "issue_authz", "delegate"]}],
        "trusted_foreign_roots": [],
    })
    config["nfs"][0]["grants"].append(
        {"producer": "UPF", "service": "nupf-x", "ops": "GET", "ipmf": "edge-ipmf"})

    threads_before = threading.active_count()
    with pytest.raises(SbaclError):
        launch_topology(config)
    assert threads_settle_to(threads_before)


def test_under_licensed_ipmf_fails_its_config_check_and_leaves_no_servers():
    config = copy.deepcopy(MINI_TOPOLOGY)
    config["domains"][0]["ipmfs"][0]["rights"] = ["issue_authn", "delegate"]
    threads_before = threading.active_count()
    with pytest.raises(ConfigError, match=r"policy\[1\]: grants AuthZ"):
        launch_topology(config)
    assert threads_settle_to(threads_before)


def threads_settle_to(count, timeout=5):
    deadline = time.time() + timeout
    while threading.active_count() > count and time.time() < deadline:
        time.sleep(0.05)
    return threading.active_count() <= count


def test_state_dir_launch_leaves_no_file_open(tmp_path):
    def launch_and_stop():
        launch_topology(MINI_TOPOLOGY, state_dir=tmp_path).shutdown()

    assert leaked_files(launch_and_stop, tmp_path) == []
    assert (tmp_path / "registry.jsonl").read_text()


def test_tunneled_run_leaves_no_file_or_socket_open(tmp_path):
    def run_and_stop():
        topology = launch_topology(MINI_TOPOLOGY, state_dir=tmp_path)
        try:
            assert run_scenario(topology, MINI_SCRIPT, "tunneled").passed
        finally:
            topology.shutdown()

    assert leaked_files(run_and_stop, tmp_path) == []


def test_concurrent_first_calls_handshake_once_per_pair():
    topology = launch_topology(bundled("topology_single_domain.json"))
    first_ok: dict[tuple[str, str], dict] = {}
    for step in bundled("ue_registration.json")["steps"]:
        if step["expected_status"] == 200:
            first_ok.setdefault((step["caller"], step["callee"]), step)
    pairs = sorted(first_ok)
    workers = 16  # more threads than pairs: some pairs start twice at once
    client = HttpClient(timeout=30)
    barrier = threading.Barrier(workers)
    statuses: dict[int, int] = {}

    def first_call(i: int) -> None:
        step = first_ok[pairs[i % len(pairs)]]
        caller = topology.nfs[step["caller"]].sidecar
        body = json.dumps(step["body"]).encode() if "body" in step else None
        barrier.wait(timeout=10)
        statuses[i] = client.request(step["method"], caller.intercept_url + step["path"],
                                     body, {"Host": step["callee"]})[0]

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so races get a chance to show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == {i: 200 for i in range(workers)}
        assert topology.handshake_total() == len(pairs)
        for callee, handle in topology.nfs.items():
            inbound = sorted(peer for peer, way in handle.sidecar.associations
                             if way == "inbound")
            assert inbound == sorted(topology.nfs[caller].sidecar.did
                                     for caller, target in pairs if target == callee)
    finally:
        sys.setswitchinterval(interval)
        client.close()
        topology.shutdown()


def test_registry_outage_runs_on_cached_documents():
    topology = launch_topology(MINI_TOPOLOGY)
    try:
        assert run_scenario(topology, MINI_SCRIPT, "tunneled").passed
        udm = topology.nfs["UDM"].mock
        seen = udm.request_count()
        topology.registry_server.stop()
        for handle in topology.nfs.values():
            handle.sidecar.resolver.cache.max_age = 0.0  # every document is due for refresh
        transcript = run_scenario(topology, MINI_SCRIPT, "tunneled", halt_on_failure=False)
        assert [r.status for r in transcript.results] == \
            [step["expected_status"] for step in MINI_SCRIPT["steps"]]
        assert udm.request_count() - seen == len(MINI_SCRIPT["steps"])
    finally:
        topology.shutdown()


def test_registry_that_never_answers_costs_each_resolver_one_wait():
    timeout = 1.0
    topology = launch_topology(MINI_TOPOLOGY)
    # accepts connections (the kernel does) but never answers a request
    with socket.create_server(("127.0.0.1", 0)) as hung:
        try:
            assert run_scenario(topology, MINI_SCRIPT, "tunneled").passed
            url = "http://127.0.0.1:%d" % hung.getsockname()[1]
            for handle in topology.nfs.values():
                handle.sidecar.resolver.registry_client = RegistryHttpClient(url, timeout)
                handle.sidecar.resolver.cache.max_age = 0.0  # every document is due
            started = time.monotonic()
            transcript = run_scenario(topology, MINI_SCRIPT, "tunneled", halt_on_failure=False)
            elapsed = time.monotonic() - started
            assert [r.status for r in transcript.results] == \
                [step["expected_status"] for step in MINI_SCRIPT["steps"]]
            # one wait per sidecar's peer lookup, not one per lookup of every step
            assert elapsed < 2.5 * timeout, elapsed
        finally:
            topology.shutdown()


def test_topology_exposes_components(mini):
    assert isinstance(mini, Topology)
    assert set(mini.nfs) == {"AMF", "UDM"}
    assert set(mini.ipmfs) == {"core-ipmf"}
    assert set(mini.roots) == {"core-root"}
    assert mini.ipmfs["core-ipmf"].trust_root == mini.roots["core-root"].did
    assert mini.nfs["AMF"].sidecar.nf_type == "AMF"
    assert mini.nfs["UDM"].mock.base_url.startswith("http://127.0.0.1:")
