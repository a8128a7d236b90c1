"""One compile path: ``compile_circuit`` validates once, then starts, routes and checks."""
from __future__ import annotations

import json

import pytest

import codar_router.commutation as commutation_module
import codar_router.router as router_module
import codar_router.verify as verify_module
from codar_router import (
    Circuit, initial_mapping, parse_file, resolve_architecture, route, validate,
    verify_equivalence,
)
from codar_router.cli import bench_corpus, main
from codar_router.pipeline import compile_circuit

TIMED_LAYERS = ["qasm.validate", "router.init_map", "router.route", "verify.dependency"]


@pytest.fixture()
def counts(monkeypatch):
    """Count ``validate`` calls made by the router and ``LaneFrontier`` builds."""
    seen = {"validate": 0, "frontier": 0}
    init = commutation_module.LaneFrontier.__init__

    def counting_validate(*args):
        seen["validate"] += 1
        return validate(*args)

    def counting_init(self, *args, **kwargs):
        seen["frontier"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(router_module, "validate", counting_validate)
    monkeypatch.setattr(commutation_module.LaneFrontier, "__init__", counting_init)
    return seen


@pytest.mark.parametrize("policy, frontiers", [("identity", 2), ("reverse_pass", 3)])
def test_one_compile_validates_once(corpus_dir, counts, policy, frontiers):
    circuit = parse_file(corpus_dir / "qft_8.qasm")
    arch = resolve_architecture("q20-tokyo")
    compiled = compile_circuit(circuit, arch, policy)
    # A route, a reverse pass if asked for, and the dependency check.
    assert counts == {"validate": 1, "frontier": frontiers}
    # The same schedule and verdict as the public functions, called one by one.
    result = route(circuit, arch, initial_mapping(circuit, arch, policy))
    assert compiled.result.schedule.to_dict() == result.schedule.to_dict()
    assert compiled.result.routed.structurally_equal(result.routed)
    assert compiled.equivalence.dependency_ok
    assert compiled.equivalence.oracle_ok is None
    assert list(compiled.timings) == TIMED_LAYERS
    assert all(seconds >= 0 for seconds in compiled.timings.values())


@pytest.mark.parametrize("start, frontiers", [("identity", 48), ("reverse_pass", 60)])
def test_bench_validates_once_per_program_and_device(corpus_dir, counts, start, frontiers):
    table = bench_corpus(corpus_dir, [resolve_architecture("q20-tokyo")], start)
    assert (len(table["rows"]), table["errors"]) == (12, [])
    # Per program: both routes and both dependency checks, and the reverse pass.
    assert counts == {"validate": 12, "frontier": frontiers}


def test_compile_refuses_what_route_refuses(square4):
    bad = Circuit(3).h(0).cx(0, 1).add(router_module.GateKind.CX, 2)
    for policy in ("identity", "reverse_pass"):
        with pytest.raises(router_module.InvalidCircuitError) as info:
            compile_circuit(bad, square4, policy)
        assert info.value.diagnostics == validate(bad, 4)
        with pytest.raises(router_module.TooManyQubitsError) as info:
            compile_circuit(Circuit(6).cx(0, 5), square4, policy)
        assert info.value.diagnostics == validate(Circuit(6), 4)
    with pytest.raises(router_module.RouterError, match="unknown initial mapping policy"):
        compile_circuit(Circuit(2).cx(0, 1), square4, "bogus")


def test_cli_compiles_only_through_the_pipeline():
    from codar_router import cli
    for name in ("validate", "initial_mapping", "route", "verify_equivalence"):
        assert not hasattr(cli, name), name


@pytest.mark.parametrize("side", ["full", "ablated"])
def test_bench_refuses_a_route_that_fails_the_dependency_check(corpus_dir, tmp_path, square4,
                                                               monkeypatch, side):
    for name in ("ghz_4", "qft_4"):
        (tmp_path / f"{name}.qasm").write_bytes((corpus_dir / f"{name}.qasm").read_bytes())
    check = verify_module.dependency_equivalence
    calls = []
    # Per program the full route is checked first, then the ablated one.
    broken_call = {"full": 1, "ablated": 2}[side]

    def broken_on_one_side(original, schedule):
        report = check(original, schedule)
        calls.append(original)
        if len(calls) == broken_call:
            report.dependency_ok = False
            report.details.append("injected failure")
        return report

    monkeypatch.setattr(verify_module, "dependency_equivalence", broken_on_one_side)
    table = bench_corpus(tmp_path, [square4])
    assert table["errors"] == [{"circuit": "ghz_4", "arch": "square4",
                                "error": f"{side} route: injected failure"}]
    assert [row["circuit"] for row in table["rows"]] == ["qft_4"]
    calls.clear()
    with pytest.raises(SystemExit) as info:
        main(["bench", "--corpus", str(tmp_path), "--arch", "square4",
              "--out-csv", str(tmp_path / "t.csv")])
    assert info.value.code == f"error: ghz_4: {side} route: injected failure"


@pytest.mark.parametrize("init", ["identity", "reverse"])
def test_route_report_times_each_layer(corpus_dir, tmp_path, init):
    path, report_path = corpus_dir / "qft_4.qasm", tmp_path / "report.json"
    assert main(["route", "--arch", "q20-tokyo", "--input", str(path),
                 "--init", init, "--output", str(tmp_path / "o.qasm"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    timings = report["timings"]
    assert list(timings) == sorted(TIMED_LAYERS + ["verify.oracle"])
    assert all(ms >= 0 for ms in timings.values())
    # Each value is rounded to the microsecond on its own.
    assert report["wall_time_ms"] == pytest.approx(
        timings["router.init_map"] + timings["router.route"], abs=0.0015)
    circuit, arch = parse_file(path), resolve_architecture("q20-tokyo")
    policy = {"identity": "identity", "reverse": "reverse_pass"}[init]
    schedule = route(circuit, arch, initial_mapping(circuit, arch, policy)).schedule
    assert report["equivalence"] == verify_equivalence(circuit, schedule).to_dict()
