import json

import pytest

from codar_router import parse_program
from codar_router.cli import bench_corpus, comparison_csv, main
from codar_router.router import ScheduledGate
from codar_router.circuit import Gate, GateKind

GOLDEN = "OPENQASM 2.0;\nqreg q[4];\nt q[1];\ncx q[0],q[2];\ncx q[0],q[3];\n"


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.qasm"
    path.write_text(GOLDEN, encoding="utf-8")
    return path


def test_route_writes_artifacts_and_exits_zero(golden_file, tmp_path):
    out = tmp_path / "routed.qasm"
    report_path = tmp_path / "report.json"
    code = main(["route", "--arch", "square4", "--input", str(golden_file),
                 "--output", str(out), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["weighted_depth"] == 9
    assert report["swap_count"] == 1
    assert report["equivalence"]["dependency_ok"] is True
    assert report["equivalence"]["oracle_ok"] is True
    routed = parse_program(out.read_text(encoding="utf-8"))
    assert routed.num_qubits == 4
    assert [g.kind for g in routed.gates] == [GateKind.T, GateKind.CX, GateKind.SWAP, GateKind.CX]


def test_report_depth_matches_serialized_schedule(golden_file, tmp_path):
    report_path = tmp_path / "report.json"
    main(["route", "--arch", "square4", "--input", str(golden_file),
          "--output", str(tmp_path / "o.qasm"), "--report", str(report_path)])
    report = json.loads(report_path.read_text(encoding="utf-8"))
    items = [ScheduledGate(Gate(GateKind(i["gate"]), tuple(i["qubits"])),
                           i["start"], i["duration"], i["true_duration"], i["inserted"])
             for i in report["schedule"]["items"]]
    assert max(it.end for it in items) == report["weighted_depth"]
    assert report["schedule"]["weighted_depth"] == report["weighted_depth"]


def test_route_ablated_reports_true_duration_depth(golden_file, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["route", "--arch", "square4", "--input", str(golden_file),
                 "--no-duration-aware", "--no-commutativity",
                 "--output", str(tmp_path / "o.qasm"), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["true_duration_depth"] >= 9  # never beats the aware policy here
    assert report["weighted_depth"] < report["true_duration_depth"]


def test_route_missing_input_exits_one(tmp_path):
    missing = tmp_path / "nope.qasm"
    with pytest.raises(SystemExit) as info:
        main(["route", "--arch", "square4", "--input", str(missing)])
    assert info.value.code == f"error: input file {missing} does not exist"


def test_route_input_directory_exits_one(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["route", "--arch", "square4", "--input", str(tmp_path)])
    assert info.value.code == f"error: cannot read {tmp_path}: Is a directory"


def test_route_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0; qreg q[2]; frobnicate q[0];", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["route", "--arch", "square4", "--input", str(bad)])
    assert info.value.code == f"error: {bad}: line 1: unknown gate 'frobnicate'"


def test_route_too_many_qubits_exits_one(tmp_path):
    big = tmp_path / "big.qasm"
    big.write_text("OPENQASM 2.0; qreg q[36]; cx q[0],q[35];", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["route", "--arch", "q20-tokyo", "--input", str(big)])
    assert info.value.code == \
        f"error: {big}: TooManyQubits: circuit uses 36 qubits but architecture has 20"


def test_route_unknown_arch_exits_one(golden_file):
    with pytest.raises(SystemExit) as info:
        main(["route", "--arch", "no-such-device", "--input", str(golden_file)])
    assert info.value.code == "error: [Errno 2] No such file or directory: 'no-such-device'"


SQUARE2 = {"num_qubits": 2, "edges": [[0, 1]], "durations": {"cx": 2, "swap": 6}}


def run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    import subprocess
    import sys
    from pathlib import Path

    import codar_router

    src = Path(codar_router.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-m", "codar_router.cli", *args],
                          capture_output=True, text=True, env={"PYTHONPATH": str(src)},
                          timeout=60)


# A valid device for GOLDEN: 4 qubits, durations for every kind it routes to.
SQUARE4 = {"num_qubits": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
           "durations": {"t": 1, "cx": 2, "swap": 6}}


def test_route_valid_arch_config_exits_zero(golden_file, tmp_path):
    # Control for the malformed cases below, which change one field of it.
    path = tmp_path / "square4.json"
    path.write_text(json.dumps(SQUARE4), encoding="utf-8")
    proc = run_cli("route", "--arch", str(path), "--input", str(golden_file))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", [
    dict(SQUARE4, num_qubits="four"),
    dict(SQUARE4, edges=[[0]]),
    [SQUARE4],
    dict(SQUARE4, edges=[["a", 1]]),
    dict(SQUARE4, durations=[6]),
    {k: v for k, v in SQUARE4.items() if k != "num_qubits"},
    {k: v for k, v in SQUARE4.items() if k != "edges"},
    dict(SQUARE4, num_qubits=0),
    dict(SQUARE4, edges="0-1 0-2 1-3 2-3"),
    dict(SQUARE4, durations={"cx": 2, "swap": 6, "ccx": 4}),
], ids=["num-qubits-text", "one-ended-edge", "top-level-list", "text-qubit",
        "durations-list", "no-num-qubits", "no-edges", "zero-qubits", "edges-text",
        "unknown-duration-kind"])
def test_route_malformed_arch_config_exits_one_without_traceback(config, golden_file, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = run_cli("route", "--arch", str(path), "--input", str(golden_file))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    # Refused while loading the device, before the program is read.
    assert "TooManyQubits" not in proc.stderr
    assert str(golden_file) not in proc.stderr


@pytest.mark.parametrize("command", ["route", "bench"])
def test_missing_duration_for_a_used_gate_exits_one_without_traceback(command, tmp_path):
    # The device loads, since only SWAP must have a duration; the program's
    # CX is found to have none while routing.
    arch = tmp_path / "nocx.json"
    arch.write_text(json.dumps(dict(SQUARE2, durations={"swap": 6})), encoding="utf-8")
    (tmp_path / "cx.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n",
                                      encoding="utf-8")
    where = (["--input", str(tmp_path / "cx.qasm")] if command == "route"
             else ["--corpus", str(tmp_path)])
    proc = run_cli(command, "--arch", str(arch), *where)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "no duration configured for cx" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_route_stdout_and_flags(golden_file, capsys):
    code = main(["route", "--arch", "square4", "--input", str(golden_file),
                 "--decompose-swap", "--no-duration-aware", "--init", "reverse"])
    assert code == 0
    out = capsys.readouterr().out
    routed = parse_program(out)
    assert all(g.kind is not GateKind.SWAP for g in routed.gates)


def test_route_emitted_file_reparses_and_reverifies(golden_file, tmp_path):
    out = tmp_path / "routed.qasm"
    assert main(["route", "--arch", "square4", "--input", str(golden_file),
                 "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("// routed-by: codar-router ")
    reparsed = parse_program(text)
    # routing the already-compliant output again is a fixed point: no new swaps
    code = main(["route", "--arch", "square4", "--input", str(out),
                 "--output", str(tmp_path / "again.qasm")])
    assert code == 0
    again = parse_program((tmp_path / "again.qasm").read_text(encoding="utf-8"))
    assert sum(g.kind is GateKind.SWAP for g in again.gates) == \
        sum(g.kind is GateKind.SWAP for g in reparsed.gates)


def test_bench_rows_skips_and_ratios(corpus_dir, square4):
    from codar_router import grid_architecture
    table = bench_corpus(corpus_dir, [square4, grid_architecture(6, 6)])
    assert table["errors"] == []
    grid_rows = [r for r in table["rows"] if r["arch"] == "grid-6x6"]
    assert len(grid_rows) == 12
    square_skips = [s for s in table["skipped"] if s["arch"] == "square4"]
    assert {s["circuit"] for s in square_skips} >= {"qft_8", "random_cx_16", "ghz_10"}
    assert all(r["speedup_ratio"] > 0 for r in table["rows"])
    assert table["mean_ratio_by_arch"]["grid-6x6"] >= 1.0


@pytest.mark.parametrize("start, means, digest", [
    ("identity", {"q16-melbourne": 1.094964, "q20-tokyo": 1.230045, "q54-sycamore": 1.203176},
     "d4648151e465ebeb296b58dd6480447548856c3efea4724bd02aa44051dcacae"),
    ("reverse_pass", {"q16-melbourne": 1.139118, "q20-tokyo": 1.266165, "q54-sycamore": 1.136575},
     "42b0b87835bc6f29849f88357171ed059757e35f53979654415d5ea9424eaf6a"),
])
def test_bench_pins_the_paper_comparison(corpus_dir, start, means, digest):
    # The paper's ablation on its own devices: ablated over full depth for
    # every bundled program.  A behaviour change re-records these values and
    # lists old and new per device and start.
    import hashlib

    from codar_router import resolve_architecture
    archs = [resolve_architecture(name) for name in means]
    table = bench_corpus(corpus_dir, archs, start)
    assert table["mean_ratio_by_arch"] == means
    assert (len(table["rows"]), len(table["skipped"]), table["errors"]) == (35, 1, [])
    assert hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest() == digest


def test_bench_empty_corpus(tmp_path, square4):
    table = bench_corpus(tmp_path, [square4])
    assert table == {"rows": [], "skipped": [], "errors": [], "mean_ratio_by_arch": {}}


def test_bench_csv_shape(corpus_dir, square4):
    table = bench_corpus(corpus_dir, [square4])
    text = comparison_csv(table)
    lines = text.strip().splitlines()
    assert lines[0] == "circuit,arch,policy,depth,swaps,stalls,ratio"
    assert len(lines) == 1 + 2 * len(table["rows"])
    assert all(line.count(",") == 6 for line in lines)


def test_bench_byte_stable(corpus_dir, tmp_path, square4):
    outs = []
    for run in range(2):
        csv_path = tmp_path / f"r{run}.csv"
        json_path = tmp_path / f"r{run}.json"
        code = main(["bench", "--corpus", str(corpus_dir), "--arch", "square4",
                     "--arch", "grid:3x3", "--out-csv", str(csv_path),
                     "--out-json", str(json_path)])
        assert code == 0
        outs.append(csv_path.read_bytes() + json_path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, flag", [
    ("route", "--output"), ("route", "--report"), ("bench", "--out-csv"), ("bench", "--out-json"),
])
def test_unwritable_output_path_exits_one_without_traceback(command, flag, golden_file, tmp_path):
    target = tmp_path / "missing-dir" / "out"
    source = (["--input", str(golden_file)] if command == "route"
              else ["--corpus", str(golden_file.parent)])
    with pytest.raises(SystemExit) as info:
        main([command, "--arch", "square4", *source, flag, str(target)])
    # A string code is printed to stderr and exits with status 1.
    assert info.value.code == f"error: cannot write {target}: No such file or directory"


def test_bench_missing_corpus_exits_one(tmp_path):
    void = tmp_path / "void"
    with pytest.raises(SystemExit) as info:
        main(["bench", "--corpus", str(void), "--arch", "square4"])
    assert info.value.code == f"error: corpus directory {void} does not exist"


def test_commutation_extra_config_key_is_ignored(golden_file, tmp_path):
    # The commutation table is fixed; a config that still carries the old
    # ``commutation_extra`` key loads, and the key has no effect on the route.
    reports = []
    for name, config in (("plain", SQUARE4),
                         ("extra", dict(SQUARE4, commutation_extra=[
                             ["sdg", "single", "cx", "cx_control"]]))):
        arch_path = tmp_path / f"{name}.json"
        arch_path.write_text(json.dumps(config), encoding="utf-8")
        report_path = tmp_path / f"{name}-report.json"
        assert main(["route", "--arch", str(arch_path), "--input", str(golden_file),
                     "--output", str(tmp_path / f"{name}.qasm"),
                     "--report", str(report_path)]) == 0
        reports.append(json.loads(report_path.read_text(encoding="utf-8")))
    assert reports[0]["schedule"] == reports[1]["schedule"]


@pytest.mark.parametrize("param", ["1e999", "1e999-1e999"], ids=["inf", "nan"])
def test_route_non_finite_parameter_exits_one_without_traceback(param, tmp_path):
    path = tmp_path / "overflow.qasm"
    path.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrz({param}) q[0];\n", encoding="utf-8")
    proc = run_cli("route", "--arch", "square4", "--input", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "line 3" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["route", "bench"])
def test_non_utf8_input_exits_one_without_traceback(command, tmp_path):
    path = tmp_path / "latin1.qasm"
    path.write_bytes(b"OPENQASM 2.0;\nqreg q[1];\nh q[0]; // caf\xe9 \xff\n")
    where = ["--input", str(path)] if command == "route" else ["--corpus", str(tmp_path)]
    proc = run_cli(command, "--arch", "square4", *where)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "can't decode byte 0xe9" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_records_an_unreadable_program_as_an_error(tmp_path, square4):
    (tmp_path / "dir.qasm").mkdir()
    table = bench_corpus(tmp_path, [square4])
    assert [e["circuit"] for e in table["errors"]] == ["dir"]


def test_bench_parses_each_program_once(corpus_dir, tmp_path, square4, monkeypatch):
    from codar_router import cli, grid_architecture, parse_file

    for path in sorted(corpus_dir.glob("*.qasm"))[:3]:
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "bad.qasm").write_text("qreg q[1];\nzz q[0];\n", encoding="utf-8")
    parsed: list[str] = []

    def counting(path):
        parsed.append(path.name)
        return parse_file(path)

    monkeypatch.setattr(cli, "parse_file", counting)
    archs = [square4, grid_architecture(3, 3), grid_architecture(6, 6)]
    table = bench_corpus(tmp_path, archs)
    assert sorted(parsed) == sorted(p.name for p in tmp_path.glob("*.qasm"))
    # A program that fails to parse is still an error on every device.
    assert [(e["circuit"], e["arch"]) for e in table["errors"]] == \
        [("bad", a.name) for a in archs]
    assert {(r["circuit"], r["arch"]) for r in table["rows"]} | \
        {(s["circuit"], s["arch"]) for s in table["skipped"]} == \
        {(p.stem, a.name) for p in tmp_path.glob("*.qasm") if p.stem != "bad" for a in archs}


def test_route_verification_failure_exits_two(golden_file, monkeypatch, capsys):
    from codar_router import cli
    from codar_router.verify import EquivalenceReport

    def always_broken(*args, **kwargs):
        return EquivalenceReport(dependency_ok=False, details=["injected failure"])

    monkeypatch.setattr(cli, "verify_equivalence", always_broken)
    code = main(["route", "--arch", "square4", "--input", str(golden_file),
                 "--output", str(golden_file.with_suffix(".out"))])
    assert code == 2
    assert "injected failure" in capsys.readouterr().err


def test_bundled_corpus_matches_its_generator(corpus_dir):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "generate_benchmarks.py"
    spec = importlib.util.spec_from_file_location("generate_benchmarks", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    bundled = {p.name: p.read_bytes() for p in corpus_dir.iterdir() if p.is_file()}
    assert bundled == {name: text.encode("utf-8")
                       for name, text in generator.corpus_files().items()}
