"""numpy loads with the statevector oracle, not with the package.

Each test runs its steps in a fresh interpreter, since this one has numpy
loaded already, and reads back what that interpreter reports as JSON.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import codar_router

SRC = Path(codar_router.__file__).resolve().parent.parent


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter and return the JSON of its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_routing_past_the_oracle_limit_leaves_numpy_unloaded():
    out = run_fresh("""
import json, sys
from pathlib import Path
import codar_router as cr
arch = cr.resolve_architecture("q54-sycamore")
circuit = cr.parse_file(Path(cr.__file__).parent / "benchmarks" / "random_cx_12.qasm")
init = cr.initial_mapping(circuit, arch, "reverse_pass")
result = cr.route(circuit, arch, init)
report = cr.verify_equivalence(circuit, result.schedule)
cr.emit_program(result.routed)
big = {"numpy": "numpy" in sys.modules, "dependency_ok": report.dependency_ok,
       "oracle_ok": report.oracle_ok, "details": report.details}
small = cr.Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2).cx(0, 2)
report = cr.verify_equivalence(small, cr.route(small, cr.resolve_architecture("q20-tokyo")).schedule)
print(json.dumps({"big": big, "small_oracle_ok": report.oracle_ok,
                  "small_error": report.max_amplitude_error,
                  "numpy_after_oracle": "numpy" in sys.modules}))
""")
    assert out["big"] == {"numpy": False, "dependency_ok": True, "oracle_ok": None,
                          "details": ["oracle skipped: 12 qubits exceeds the 10-qubit oracle limit"]}
    assert out["small_oracle_ok"] is True
    assert out["small_error"] < 1e-9
    assert out["numpy_after_oracle"] is True


def test_oracle_refuses_eleven_qubits_before_loading_numpy():
    out = run_fresh("""
import json, sys
import codar_router as cr
circuit = cr.Circuit(11)
for q in range(10):
    circuit.cx(q, q + 1)
schedule = cr.route(circuit, cr.resolve_architecture("q20-tokyo")).schedule
try:
    cr.statevector_oracle(circuit, schedule)
    raised = None
except cr.OracleLimitError as exc:
    raised = str(exc)
print(json.dumps({"raised": raised, "numpy": "numpy" in sys.modules}))
""")
    assert out == {"raised": "11 qubits exceeds the 10-qubit oracle limit", "numpy": False}


def test_bench_leaves_numpy_unloaded(tmp_path):
    out = run_fresh(f"""
import contextlib, io, json, sys
from codar_router.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["bench", "--arch", "q20-tokyo", "--out-json", {str(tmp_path / "bench.json")!r}])
print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules}}))
""")
    assert out == {"code": 0, "numpy": False}
    assert json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
