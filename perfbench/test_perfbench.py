"""Self-tests of the benchmark (run: ``PYTHONPATH=src python -m pytest perfbench``).

Short smoke runs of every workload must print every catalogued metric
with its unit, the catalogue must match ``BENCHMARK.json``, a wrong
oracle input must come out as a failure, and the benchmark must refuse
to run where the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import fluid, live, packet, service  # noqa: E402
from perfbench.common import (END_TO_END, PER_LAYER, SELF_TIME_LAYERS,  # noqa: E402
                              Outcome)
from perfbench.run import WORKLOADS, document  # noqa: E402

#: Each workload at a size that takes a few seconds at most.
SMOKE = {
    "packet-barbell": lambda trace: packet.run(3, 0.1, trace, n_flows=4),
    "fluid-fabric": lambda trace: fluid.run(3, 0.1, trace),
    "live-gateway": lambda trace: live.run(3, 4.0, trace, flows=40),
    "service-jobs": lambda trace: service.run(3, 1.0, trace),
}


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert set(SMOKE) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    outcome = SMOKE[workload](trace)
    result = document(outcome, trace)
    assert result["correct"], outcome.failures
    assert result["attempted"] >= 1 and result["failed"] == 0
    catalogue = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == catalogue
    json.dumps(result, allow_nan=False)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload in ("packet-barbell", "fluid-fabric"):
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(metrics[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
        assert layers == pytest.approx(metrics["trace.self_total_s"],
                                       rel=1e-9)
        assert metrics["trace.overhead"] > 1.0


def test_wrong_packet_oracle_is_a_failure():
    scenario = next(packet.scenarios(5, n_flows=4))
    sim = packet.PelsSimulation(scenario).run()
    out = Outcome()
    packet.check(sim, out)
    assert out.correct
    # Claim a far larger alpha than the flows ran with: Lemma 6 then
    # predicts a rate the measured tail cannot match.
    sim.scenario = dataclasses.replace(scenario,
                                       alpha_bps=4 * scenario.alpha_bps)
    packet.check(sim, out)
    assert (out.attempted, out.failed) == (2, 1)
    result = document(dataclasses.replace(out, metrics={
        name: 1.0 for name in END_TO_END if name != "ok_rate"}), False)
    assert not result["correct"]
    assert result["metrics"]["ok_rate"]["value"] == 0.5


def test_wrong_fluid_oracle_is_a_failure():
    scenario = next(fluid.fabrics(5))[1]
    result = fluid.FluidEngine(scenario, backend="list").run()
    out = Outcome()
    fluid.check(scenario, result, out)
    assert out.correct
    # Double every router's capacity: the oracle's equilibrium moves
    # away from what the engine solved for.
    doubled = dataclasses.replace(scenario, capacities_bps=tuple(
        2 * c for c in scenario.capacities_bps))
    fluid.check(doubled, result, out)
    assert (out.attempted, out.failed) == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "packet-barbell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
