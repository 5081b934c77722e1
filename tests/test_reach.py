"""Every function the package defines is entered by some run.

A subprocess profiles every call from before ``import cavity_grover`` on,
runs each experiment through the CLI under three offset models, makes one
usage error and one numerical failure (a search on NaN gates: no accepted
config fails numerically, so the CLI cannot) and serializes a config, then
lists the package functions (module level and class members written in the
package's source) that were never entered. Code that no run reaches
belongs in the test reference (``tests/reference.py``), not in the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

# Never entered by any run, and kept because the benchmark names them:
# bench/spans.py traces marked_gate, pauli_x and grover_step by name;
# bench/test_bench.py asserts that imperfections.evolve is patched, an import
# timing_oracle_dense alone uses. They leave when the benchmark stops pinning
# them. grover_step applies its gates as plain arrays, so no method of a
# package type is left here only for it.
BENCH_PINNED = {
    "gates.marked_gate",
    "gates.pauli_x",
    "grover.grover_step",
    "imperfections.timing_oracle_dense",
}

_PROBE = r"""
import json
import sys
import types
from pathlib import Path

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import cavity_grover
from cavity_grover import ExperimentConfig, cli, serialize_config

out_dir, result, *configs = sys.argv[1:]
for config in [None, *configs]:
    for experiment in ("gate", "search", "timing", "offset", "geometry"):
        argv = [experiment, "--summary", "--out", str(Path(out_dir, experiment + ".csv"))]
        assert cli.main(argv + ([] if config is None else ["--config", config])) == 0
assert cli.main(["no-such-experiment"]) == 1
try:
    cavity_grover.run_search(1, [[float("nan")] * 4] * 2)
except cavity_grover.NumericalError as exc:
    assert exc.row == 0
else:
    raise AssertionError("a search on NaN gates passed its check")
serialize_config(ExperimentConfig())
sys.setprofile(None)

source = str(Path(cavity_grover.__file__).parent)


def members(module):
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            for member in vars(value).values():
                if isinstance(member, (staticmethod, classmethod)):
                    yield member.__func__
                elif isinstance(member, property):
                    yield from (f for f in (member.fget, member.fset, member.fdel) if f)
                elif isinstance(member, types.FunctionType):
                    yield member
        elif isinstance(value, types.FunctionType):
            yield value


never = set()
for name, module in list(sys.modules.items()):
    if name.startswith("cavity_grover."):
        for function in members(module):
            code = function.__code__
            if code.co_filename.startswith(source) and code not in entered:
                never.add(name.removeprefix("cavity_grover.") + "." + function.__qualname__)
Path(result).write_text(json.dumps(sorted(never)))
"""


def test_every_package_function_is_entered_by_a_run(tmp_path):
    configs = []
    for name, text in (
        ("uniform", "offset_model = uniform\n"),
        ("per_atom", "offset_model = per_atom\noffset_eta_per_atom = 0.02,-0.03,0.01\n"),
    ):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        configs.append(str(path))
    result = tmp_path / "never.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path), str(result), *configs],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(json.loads(result.read_text())) == BENCH_PINNED
