"""Seeded job lists for the walkindex CLI workloads, with reference answers.

A workload is a fixed list of (command, geometry, size) slots.  The seed only
draws the walk parameters and the order of the slots, so every seed
gives a pass of the same composition and the timing medians of different
seeds measure the same kind of work.

Every job carries an answer that does not come from walkindex output:

* split-step right half-space index ``sign(sin t1)`` when
  ``|tan t2| < |tan t1|`` and 0 otherwise (the phase diagram of the walk);
  the left index is its negative, on circles and on segments alike
* builtins: generating +1 (either coin sign), trivial 0, doubled CII 2 in
  2Z, doubled DIII 2 in 2Z2 (left and right both 2)
* ``si_minus + si_plus = tr(gamma) = 0`` on exactly unitary operators,
  because every cell rep used here has a traceless gamma
* ``decouple``: ``ok`` and ``si_preserved``; the pure shift is obstructed
* ``sweep`` on a circle: near-anchor modes = 2 interfaces x |nu_B - nu_A|
* ``temple-kato`` with one vector: ``valid``
* refusals: the exact exit code and error name
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("index_scan", "decouple_join", "sweep_certify")

# Skeleton-sharing pair with right indices +1 and -1 used by the test suite.
PAIR_A = (9 * math.pi / 32, 7 * math.pi / 32)
PAIR_B = (-5 * math.pi / 16, math.pi / 8)

PHASES = (1, 0, -1)  # split-step slots cycle through these right indices

BUILTIN_INDEX = {  # builtin spec -> (group, right index, left index)
    "generating": ("Z", 1, -1),
    "trivial": ("Z", 0, 0),
    "doubled_CII": ("2Z", 2, -2),
    "doubled_DIII": ("2Z2", 2, 2),
}


@dataclass
class Job:
    """One CLI invocation and what its output must say."""

    command: str
    argv: list
    expect: dict
    cells: int


def right_index(t1: float, t2: float) -> int:
    """Right half-space index of the split-step walk (its phase diagram)."""
    if abs(math.tan(t2)) < abs(math.tan(t1)):
        return 1 if math.sin(t1) > 0 else -1
    return 0


def split_step(t1: float, t2: float, geometry: dict | None = None) -> dict:
    spec = {"type": "ti", "builtin": "split_step", "coin_params": {"theta1": t1, "theta2": t2}}
    if geometry:
        spec["geometry"] = geometry
    return spec


def builtin(name: str, inverse: bool, geometry: dict | None = None) -> dict:
    if name.startswith("doubled_"):
        params = {"variant": name.split("_")[1], "inverse": inverse}
        spec = {"type": "ti", "builtin": "doubled", "coin_params": params}
    elif name == "generating":
        spec = {"type": "ti", "builtin": "generating", "coin_params": {"inverse": inverse}}
    else:
        spec = {"type": "ti", "builtin": name}
    if geometry:
        spec["geometry"] = geometry
    return spec


def geometry(n: int, topology: str, boundary: str = "compress") -> dict:
    geo = {"n_cells": n, "topology": topology}
    if topology == "line":
        geo["boundary"] = boundary
    return geo


class Generator:
    """Draws walk parameters and writes spec files into a work directory."""

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.count = 0
        # setup-time CLI calls: (argv, output path) of joins to pre-build
        self.prebuild: list[tuple[list, Path]] = []

    def spec(self, data: dict) -> str:
        self.count += 1
        path = self.work / f"spec{self.count:04d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def angles(self, phase: int) -> tuple[float, float]:
        """Split-step angles well inside a gapped phase.

        ``phase`` is +1 or -1 (topological, that right index) or 0
        (trivial); one angle sits in [0.9, 1.3], the other in [0.15, 0.5].
        """
        big = self.rng.uniform(0.9, 1.3)
        small = self.rng.uniform(0.15, 0.5)
        other = self.rng.choice((-1, 1))
        if phase == 0:
            return self.rng.choice((-1, 1)) * small, other * big
        return phase * big, other * small

    def prebuilt_join(self, a: dict, b: dict, n_left: int, n_right: int) -> str:
        """Path of a circle join that setup writes with ``join --out``."""
        self.count += 1
        out = self.work / f"join{self.count:04d}.json"
        argv = ["join", self.spec(a), self.spec(b), "--n-left", str(n_left),
                "--n-right", str(n_right), "--topology", "circle", "--out", str(out)]
        self.prebuild.append((argv, out))
        return str(out)


def _index_job(spec_path: str, cells: int, group: str, right: int, left: int,
               unitary: bool) -> Job:
    argv = ["index", spec_path]
    expect = {"kind": "index", "code": 0, "group": group, "right": right, "left": left,
              "unitary": unitary}
    return Job("index", argv, expect, cells)


def _refusal(command: str, argv: list, code: int, error: str, cells: int) -> Job:
    return Job(command, argv, {"kind": "refusal", "code": code, "error": error}, cells)


# Slot counts place job_s_p50 and job_s_p90 inside a block of same-size jobs
# (32-cell circles / 64-cell circles, 24-cell decouples / 16+16 line joins,
# windings / 24+24 sweeps), so the quantiles do not jump between blocks.


def index_scan(g: Generator) -> list[Job]:
    """Dense assembly, rep validation, eig_unitary and window scans; no decoupling."""
    jobs = []
    ti_specs = []
    sizes = {"line": [32] * 22 + [48] * 6 + [64] * 4 + [96, 128, 192],
             "circle": [32] * 22 + [48] * 3 + [64] * 10 + [96, 128, 192]}
    for topology, ns in sizes.items():
        for i, n in enumerate(ns):
            nu = PHASES[i % 3]
            spec = g.spec(split_step(*g.angles(nu), geometry(n, topology)))
            jobs.append(_index_job(spec, n, "Z", nu, -nu, topology == "circle"))
            ti_specs.append((spec, n, "split_step"))
    for name, (group, right, left) in BUILTIN_INDEX.items():
        inverse = g.rng.random() < 0.5
        for topology in ("circle", "line"):
            spec = g.spec(builtin(name, inverse, geometry(32, topology)))
            jobs.append(_index_job(spec, 32, group, right, left, topology == "circle"))
            ti_specs.append((spec, 32, name))
    # validate reads a ti spec as the translation-invariant walk (geometry is
    # ignored), so the dense validate path gets explicit pre-built circles
    for spec, n, name in g.rng.sample(ti_specs, 16):
        jobs.append(Job("validate", ["validate", spec], _validate_ti_expect(name), n))
    for n in (32, 64):
        a = split_step(*g.angles(g.rng.choice((-1, 0, 1))))
        path = g.prebuilt_join(a, a, n // 2, n // 2)
        expect = {"kind": "validate_op", "code": 0, "n_cells": n, "band": 1}
        jobs.append(Job("validate", ["validate", path], expect, n))
    # about 5% expected refusals
    for n in (32, 48, 64):
        spec = g.spec(split_step(*g.angles(1), geometry(n, "line")))
        jobs.append(_refusal("index", ["index", spec, "--cut", str(n)], 1, "CutOutOfRange", n))
    spec = g.spec(builtin("generating", False, geometry(3, "line")))
    jobs.append(_refusal("index", ["index", spec], 1, "TooShort", 3))
    spec = g.spec(split_step(*g.angles(-1), geometry(32, "line")))
    jobs.append(_refusal("index", ["index", spec, "--cut", "1"], 1, "TooShort", 32))
    return jobs


def _validate_ti_expect(name: str) -> dict:
    cell_dim, cls = {"doubled_CII": (4, "CII"), "doubled_DIII": (4, "DIII")}.get(name, (2, "BDI"))
    band = 0 if name == "trivial" else 1
    return {"kind": "validate_ti", "code": 0, "cell_dim": cell_dim, "class": cls, "band": band}


def decouple_join(g: Generator) -> list[Job]:
    """Gentle decoupling in every job: circles, line joins, decoupled segments."""
    jobs = []
    for i, n in enumerate([24] * 24 + [32] * 11 + [48] * 2 + [64, 96]):
        spec = g.spec(split_step(*g.angles(PHASES[i % 3]), geometry(n, "circle")))
        out_dir = str(g.work / f"decouple{len(jobs):03d}")
        jobs.append(Job("decouple", ["decouple", spec, "--out-dir", out_dir],
                        {"kind": "decouple", "code": 0}, n))
    # the test-suite pair, then seeded pairs of one topological phase: pairs
    # whose interface holds protected modes are mostly refused (NOTES.md)
    for i, n in enumerate([16] * 10 + [24, 32]):
        nu = g.rng.choice((-1, 1))
        a, b = (PAIR_A, PAIR_B) if i == 0 else (g.angles(nu), g.angles(nu))
        out = str(g.work / f"line_join{len(jobs):03d}.json")
        argv = ["join", g.spec(split_step(*a)), g.spec(split_step(*b)), "--n-left", str(n),
                "--n-right", str(n), "--topology", "line", "--out", out]
        jobs.append(Job("join", argv, {"kind": "join", "code": 0, "n_cells": 2 * n}, 2 * n))
    for i, n in enumerate([16] * 26 + [24] * 4 + [32] * 10 + [48]):
        nu = PHASES[i % 3]
        spec = g.spec(split_step(*g.angles(nu), geometry(n, "line", "decoupled_unitary")))
        job = _index_job(spec, n, "Z", nu, -nu, True)
        # end-mode pairs split from +1 by exp(-n/xi); the default 1e-7 window
        # meets that splitting at some length of every walk (see NOTES.md)
        job.argv += ["--window", "1e-3"]
        jobs.append(job)
    for n in (12, 16, 20, 24) * 2:
        spec = g.spec(builtin("shift", False, geometry(n, "circle")))
        argv = ["decouple", spec, "--out-dir", str(g.work / "shift")]
        jobs.append(_refusal("decouple", argv, 5, "Obstructed", n))
    return jobs


def sweep_certify(g: Generator) -> list[Job]:
    """Coin-level circle joins, crossover spectra, momentum-space invariants."""
    jobs = []
    for i, n in enumerate([16] * 10 + [24] * 10 + [48, 64]):
        nu_a = g.rng.choice((-1, 1))
        nu_b = (nu_a, 0, -nu_a)[i % 3]
        argv = ["sweep", g.spec(split_step(*g.angles(nu_a))), g.spec(split_step(*g.angles(nu_b))),
                "--size", f"{n},{n}", "--topology", "circle"]
        expect = {"kind": "sweep", "code": 0, "near": 2 * abs(nu_b - nu_a)}
        jobs.append(Job("sweep", argv, expect, 2 * n))
    # nu jumps by 2, so each interface holds one protected mode at each anchor;
    # on a finite circle the two interfaces split it from the anchor by
    # exp(-n/xi), so select within 0.05, far below the bulk gap (>= 0.39).
    # A join spec, not a join --out file: the 12-digit canonical JSON breaks
    # eig_unitary's residual check on these near-degenerate spectra (NOTES.md)
    for n, radii in ((24, (4, 8)), (32, (6,)), (48, (6,))):
        nu = g.rng.choice((-1, 1))
        path = g.spec({"type": "join", "left": split_step(*g.angles(nu)),
                       "right": split_step(*g.angles(-nu)),
                       "geometry": {"n_left": n, "n_right": n, "topology": "circle"}})
        for theta in ("1+0j", "-1+0j"):
            for r in radii:
                argv = ["temple-kato", path, f"--theta={theta}", "--k", "1",
                        "--window", f"{n - r}:{n + r}", "--select-radius", "0.05"]
                jobs.append(Job("temple_kato", argv, {"kind": "temple_kato", "code": 0}, 2 * n))
    for i in range(40):
        nu = PHASES[i % 3]
        jobs.append(_invariant_job("winding", g.spec(split_step(*g.angles(nu))), "Z", nu))
    # near the gap edge |tan t2| ~ |tan t1| a coarse grid must refine
    for i in range(10):
        t1 = g.rng.choice((-1, 1)) * g.rng.uniform(0.4, 1.1)
        t2 = g.rng.choice((-1, 1)) * (abs(t1) + (-1, 1)[i % 2] * g.rng.uniform(5e-4, 1.5e-3))
        job = _invariant_job("winding", g.spec(split_step(t1, t2)), "Z", right_index(t1, t2))
        job.argv += ["--n-k", "32"]
        job.expect["n_k0"] = 32
        jobs.append(job)
    for name in ("generating", "doubled_CII"):
        group, right, _ = BUILTIN_INDEX[name]
        for _ in range(3):
            spec = g.spec(builtin(name, g.rng.random() < 0.5))
            jobs.append(_invariant_job("winding", spec, group, right))
    for _ in range(10):
        spec = g.spec(builtin("doubled_DIII", g.rng.random() < 0.5))
        jobs.append(_invariant_job("berry", spec, "2Z2", 2))
    # gap-closing angles |t2| = |t1|
    for _ in range(4):
        t1 = g.rng.choice((-1, 1)) * g.rng.uniform(0.3, 1.2)
        spec = g.spec(split_step(t1, g.rng.choice((-1, 1)) * t1))
        jobs.append(_refusal("winding", ["winding", spec], 3, "SingularBlock", 1))
    return jobs


def _invariant_job(command: str, spec_path: str, group: str, value: int) -> Job:
    expect = {"kind": "invariant", "code": 0, "group": group, "value": value, "n_k0": 256}
    return Job(command, [command, spec_path], expect, 1)


BUILDERS = {"index_scan": index_scan, "decouple_join": decouple_join,
            "sweep_certify": sweep_certify}


def build(workload: str, seed: int, work: Path) -> tuple[list[Job], list]:
    """Write the specs of a workload and return (jobs in seeded order, prebuilds)."""
    g = Generator(seed, work)
    jobs = BUILDERS[workload](g)
    g.rng.shuffle(jobs)
    return jobs, g.prebuild


def check(job: Job, code: int, out: str) -> str | None:
    """None when the job's output matches its reference, else the mismatch."""
    e = job.expect
    if code != e["code"]:
        return f"exit {code}, expected {e['code']}: {out[:200]!r}"
    try:
        return _check_output(e, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({exc!r}): {out[:200]!r}"


def _check_output(e: dict, out: str) -> str | None:
    if e["kind"] == "sweep":
        rows = out.strip().splitlines()
        cols = dict(zip(rows[0].split(","), rows[1].split(",")))
        near = int(cols["count_near_plus"]) + int(cols["count_near_minus"])
        return None if near == e["near"] else f"near-anchor modes {near}, expected {e['near']}"
    data = json.loads(out)
    kind = e["kind"]
    if kind == "refusal":
        ok = data.get("error") == e["error"]
    elif kind == "index":
        r, l = data["si_right"], data["si_left"]
        ok = (r == {"group": e["group"], "value": e["right"]}
              and l == {"group": e["group"], "value": e["left"]})
        if e["unitary"] and e["group"] == "Z":
            ok = ok and data["si_minus"]["value"] + data["si_plus"]["value"] == 0
    elif kind == "validate_ti":
        ok = data["ok"] is True and all(data[k] == e[k] for k in ("cell_dim", "class", "band"))
    elif kind == "validate_op":
        ok = (data["ok"] is True and data["topology"] == "circle"
              and data["n_cells"] == e["n_cells"] and data["band"] == e["band"])
    elif kind == "decouple":
        ok = data["ok"] is True and data["si_preserved"] is True
    elif kind == "join":
        ok = data["n_cells"] == e["n_cells"] and data["meta"]["interfaces"] == [e["n_cells"] // 2]
    elif kind == "temple_kato":
        ok = data["valid"] is True and data["k"] == 1
    elif kind == "invariant":
        ok = data["value"] == {"group": e["group"], "value": e["value"]}
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return None if ok else f"{kind} mismatch: {out[:200]!r}"


def refinements(job: Job, out: str) -> float:
    """log2(final n_k / initial n_k) of a winding or berry job, else 0."""
    if job.expect["kind"] != "invariant":
        return 0.0
    return math.log2(json.loads(out)["n_k"] / job.expect["n_k0"])
