"""Import-path guards: what a fresh ``import walkindex`` loads and exports."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkindex

# Imports every walkindex module in a fresh interpreter, then reports the
# modules loaded and any ``__all__`` entry that does not resolve.
_PROBE = """
import importlib, json, pkgutil, sys
import walkindex
modules = [walkindex] + [
    importlib.import_module(f"walkindex.{info.name}")
    for info in pkgutil.iter_modules(walkindex.__path__)
]
stale = [f"{m.__name__}.{name}" for m in modules
         for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
print(json.dumps({"scipy": "scipy" in sys.modules, "stale": stale}))
"""


# Runs each CLI command once on tiny builtin specs in a fresh interpreter, then
# reports every exit code and whether any scipy module was loaded.
_CLI_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from walkindex.cli import main
work = Path(sys.argv[1])
def spec(name, data):
    (work / name).write_text(json.dumps(data))
    return str(work / name)
# the test-suite pair (9 pi/32, 7 pi/32) | (-5 pi/16, pi/8), which a line join resolves
split_a = {"type": "ti", "builtin": "split_step",
           "coin_params": {"theta1": 0.8835729338221293, "theta2": 0.6872233929727672}}
split_b = {**split_a, "coin_params": {"theta1": -0.9817477042468103, "theta2": 0.39269908169872414}}
a, b = spec("a.json", split_a), spec("b.json", split_b)
circle = spec("circle.json", {**split_a, "geometry": {"n_cells": 16, "topology": "circle"}})
join = spec("join.json", {"type": "join", "left": split_a, "right": split_b,
                          "geometry": {"n_left": 24, "n_right": 24, "topology": "circle"}})
diii = spec("diii.json", {"type": "ti", "builtin": "doubled", "coin_params": {"variant": "DIII"}})
commands = {
    "index": ["index", circle],
    "validate": ["validate", circle],
    "decouple": ["decouple", circle, "--out-dir", str(work / "dec")],
    "join": ["join", a, b, "--n-left", "16", "--n-right", "16", "--topology", "line",
             "--out", str(work / "line.json")],
    "sweep": ["sweep", a, b, "--size", "8,8"],
    "temple-kato": ["temple-kato", join, "--theta", "1+0j", "--k", "1", "--window", "20:28"],
    "winding": ["winding", a],
    "berry": ["berry", diii],
}
codes = {}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = main(argv)
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _probe(script: str = _PROBE, *args: str) -> dict:
    src = str(Path(walkindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fresh_import_loads_no_scipy_and_exports_resolve():
    # importing scipy.linalg would dominate the package's start-up time
    result = _probe()
    assert result["scipy"] is False
    assert result["stale"] == []


def test_every_cli_command_runs_without_scipy(tmp_path):
    # a lazy import on a command path would not show in a fresh import, yet it
    # doubles the start-up time and the memory of the process that reaches it
    result = _probe(_CLI_PROBE, str(tmp_path))
    assert result["codes"] == {
        name: 0
        for name in ("index", "validate", "decouple", "join", "sweep", "temple-kato", "winding", "berry")
    }
    assert result["scipy"] == []


def _traced_names() -> dict:
    """``LAYERS`` and ``COUNTED`` of the benchmark tracer, read without importing it."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    if not spans.is_file():
        pytest.skip("no benchmark tracer in this checkout")
    names: dict[str, list[str]] = {}
    for node in ast.parse(spans.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("LAYERS", "COUNTED") for t in node.targets
        ):
            for layer, qualnames in ast.literal_eval(node.value).items():
                names.setdefault(layer, []).extend(qualnames)
    return names


def test_benchmark_traced_names_resolve():
    # the tracer patches these by name; a renamed or deleted one would only
    # fail when a traced benchmark run is made
    missing = []
    for layer, qualnames in _traced_names().items():
        module = importlib.import_module(f"walkindex.{layer}")
        for qualname in qualnames:
            owner_name, _, method = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                found = owner is not None and method in vars(owner)
            else:
                found = callable(getattr(module, qualname, None))
            if not found:
                missing.append(f"{layer}.{qualname}")
    assert missing == []


def test_layer_microbench_runs(monkeypatch):
    # the microbench reads a ring's matrix and calls measured_band on it; at
    # 12+12 cells its line join refuses (WindowAmbiguous), so 32 and 40
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (bench / "microbench.py").is_file():
        pytest.skip("no layer microbench in this checkout")
    monkeypatch.syspath_prepend(str(bench))
    microbench = importlib.import_module("microbench")
    monkeypatch.setattr(microbench, "SIZES", (32, 40))
    monkeypatch.setattr(microbench, "DECOUPLING_SIZES", (32, 40))
    values = microbench.run()
    expected = {f"layer.{op}.{key}" for op in microbench.OPS for key in ("s_n32", "s_n40", "exp")}
    assert set(values) == expected
    assert all(math.isfinite(v) for v in values.values())


@pytest.mark.parametrize("workload", ["index_scan", "decouple_join", "sweep_certify"])
def test_benchmark_workload_passes_its_checks(workload, tmp_path, capsys, monkeypatch):
    # one pass of a workload at seed 1 as the benchmark runs it: every pre-built
    # join exits 0, every job's output matches its reference answer, and the
    # momentum refinements of winding and berry jobs read from their output
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (bench / "jobs.py").is_file():
        pytest.skip("no benchmark job lists in this checkout")
    monkeypatch.syspath_prepend(str(bench))
    jobs = importlib.import_module("jobs")
    from walkindex.cli import main

    def run(argv: list) -> tuple[int, str]:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        return code, capsys.readouterr().out

    job_list, prebuild = jobs.build(workload, 1, tmp_path)
    for argv, path in prebuild:
        assert run(argv)[0] == 0, argv
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["type"] = "explicit"  # as the benchmark's setup reads a pre-built join back
        path.write_text(json.dumps(payload), encoding="utf-8")
    for job in job_list:
        code, out = run(job.argv)
        assert jobs.check(job, code, out) is None, job.argv
        jobs.refinements(job, out)


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds that no code loads and ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda kv: kv[1])
        if name not in loaded and name not in exported
    ]


def test_no_unused_imports():
    # no linter runs on this tree; an import left behind by a deletion would
    # otherwise go unnoticed
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "walkindex").glob("*.py")) + sorted(
        (root / "tests").glob("*.py")
    )
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


def _duplicate_test_names(path: Path) -> list[str]:
    """Module-level ``test_*`` functions defined more than once; the last one hides the others."""
    seen: dict[str, int] = {}
    duplicates = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test_"):
            if node.name in seen:
                duplicates.append(f"{path.name}:{node.lineno}: {node.name} (first at line {seen[node.name]})")
            else:
                seen[node.name] = node.lineno
    return duplicates


def test_no_duplicate_test_names():
    # a second definition silently replaces the first, whose assertions
    # then never run
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "tests").glob("*.py"))
    duplicates = [entry for path in files for entry in _duplicate_test_names(path)]
    assert duplicates == []


def _unread_tol_parameters(path: Path) -> list[str]:
    """Functions that take a ``tol`` parameter and never read it in their body."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if "tol" not in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
            continue
        read = any(
            isinstance(n, ast.Name) and n.id == "tol" and isinstance(n.ctx, ast.Load)
            for stmt in node.body
            for n in ast.walk(stmt)
        )
        if not read:
            unread.append(f"{path.name}:{node.lineno}: {node.name}")
    return unread


def test_every_tol_parameter_is_read():
    # a caller who passes tolerances to a function that ignores them gets
    # the function's literals, and nothing says so
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "walkindex").glob("*.py"))
    assert [entry for path in files for entry in _unread_tol_parameters(path)] == []


def _tol_positions(trees) -> dict[str, set]:
    """Where each package function takes ``tol``: its positional index (after
    ``self``), ``"kw"`` if keyword-only, ``None`` if it takes none; by name."""
    found: dict[str, set] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = [a.arg for a in node.args.posonlyargs + node.args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            if "tol" in positional:
                where = positional.index("tol")
            else:
                where = "kw" if "tol" in {a.arg for a in node.args.kwonlyargs} else None
            found.setdefault(node.name, set()).add(where)
    return found


def _calls_without_threshold(paths: list[Path]) -> list[str]:
    """Calls of a package function that takes ``tol`` which pass none, so the
    callee's default threshold wins over the caller's tolerances.  A name that
    some package function also uses without a ``tol`` is ambiguous and skipped."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    positions = _tol_positions(trees.values())
    missing = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            where = positions.get(name, {None})
            if None in where:
                continue
            if any(k.arg in ("tol", None) for k in node.keywords):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(isinstance(w, int) and len(node.args) > w for w in where):
                continue
            missing.append(f"{path.name}:{node.lineno}: {name}")
    return missing


def test_every_call_passes_a_threshold():
    # a call that leaves out tol gets the callee's default, and a --tol-* flag
    # set by the caller never reaches that gate
    root = Path(__file__).resolve().parents[1]
    assert _calls_without_threshold(sorted((root / "src" / "walkindex").glob("*.py"))) == []


def test_a_call_without_a_threshold_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "def polar(x, tol):\n    return x\n\n"
        "def gate(x, tol=1e-8):\n    return x\n\n"
        "def caller(x, tol):\n    return polar(x, tol) + polar(x, tol=tol) + gate(x)\n",
        encoding="utf-8",
    )
    assert _calls_without_threshold([source]) == ["module.py:8: gate"]


def _operator_type_checks(path: Path) -> list[str]:
    """``isinstance`` calls whose class, or one of a tuple of classes, is ``LatticeOperator``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(getattr(c, "id", getattr(c, "attr", None)) == "LatticeOperator" for c in classes):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_reader_asks_whether_an_input_is_an_operator():
    # index and gate functions take operators, and a plain matrix enters as
    # LatticeOperator.one_cell; a type fork would bring back a second input
    # type. The spec reader alone tells an operator from a translation-invariant walk
    root = Path(__file__).resolve().parents[1]
    files = [path for path in sorted((root / "src" / "walkindex").glob("*.py")) if path.name != "serialize.py"]
    assert [entry for path in files for entry in _operator_type_checks(path)] == []


def test_an_operator_type_check_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "def gate(w):\n"
        "    if isinstance(w, dict):\n        return w\n"
        "    if isinstance(w, LatticeOperator):\n        return w\n"
        "    return isinstance(w, (np.ndarray, lattice.LatticeOperator))\n",
        encoding="utf-8",
    )
    assert _operator_type_checks(source) == ["module.py:4", "module.py:6"]


def _finfo_in_function_bodies(path: Path) -> list[str]:
    """``np.finfo`` calls inside a function or lambda, which build the object on every call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "attr", getattr(call.func, "id", None)) == "finfo":
                    found.append(f"{path.name}:{call.lineno}: {getattr(node, 'name', 'lambda')}")
    return found


def test_no_function_body_calls_finfo():
    # machine constants are module constants of symmetry.py, read once: np.finfo
    # constructs its object each time, thousands of times per decoupling
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "walkindex").glob("*.py"))
    assert [entry for path in files for entry in _finfo_in_function_bodies(path)] == []
    calling = {
        path.name
        for path in files
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call, ast.Call) and getattr(call.func, "attr", getattr(call.func, "id", None)) == "finfo"
    }
    assert calling == {"symmetry.py"}


def test_a_finfo_call_in_a_function_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import numpy as np\nTINY = np.finfo(float).tiny\n\n"
        "def pad(x):\n    return x + np.finfo(float).eps\n",
        encoding="utf-8",
    )
    assert _finfo_in_function_bodies(source) == ["module.py:5: pad"]


def _unread_constants(paths: list[Path]) -> list[str]:
    """Module-level UPPER_CASE names assigned in ``paths`` that no code among
    them reads, by name or as an attribute, and no ``__all__`` exports."""
    assigned: dict[str, str] = {}
    read: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    assigned.setdefault(target.id, f"{path.name}:{node.lineno}: {target.id}")
                elif isinstance(target, ast.Name) and target.id == "__all__":
                    read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(entry for name, entry in assigned.items() if name not in read)


def test_every_module_constant_is_read():
    # a named threshold or floor that no code reads any more is a retired gate
    # left behind: delete it with the code that read it
    root = Path(__file__).resolve().parents[1]
    assert _unread_constants(sorted((root / "src" / "walkindex").glob("*.py"))) == []


def test_an_unread_constant_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import numpy as np\n__all__ = ['PUBLIC']\nPUBLIC = 1\nFLOOR = 48\nRETIRED_FLOOR = 128\nSlack = 2\n\n"
        "def gate(x, np=np):\n    return x >= FLOOR and np.SLACK\n",
        encoding="utf-8",
    )
    assert _unread_constants([source]) == ["module.py:5: RETIRED_FLOOR"]


def test_decoupling_reads_no_dense_matrix():
    # the decoupling works from the stacks and the window rows it gathers from
    # them; reading .matrix would place the whole walk
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "src" / "walkindex" / "decoupling.py").read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert reads == []
