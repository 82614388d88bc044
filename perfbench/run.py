"""walkindex benchmark: seeded CLI job mixes timed in one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload index_scan --seed 1 --seconds 25 --trace 0

One process issues ``walkindex.cli.main(argv)`` calls in-process, one after
another, on spec files generated from the seed (see ``jobs.py``); BLAS is
pinned to one thread.  A pass runs every job of the workload once; passes
repeat while another one fits in the requested seconds, and always until
at least ``MIN_SAMPLES`` jobs ran.  Every job output is checked against its
reference answer.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced pass, the layer microbench,
and prints the per-layer metrics.  The last stdout line is the JSON result;
the lines before it list every metric with its unit and the machine record.
Results and traced spans are kept under ``.perfbench/`` in the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RESULTS = OUT / "results"
BLAS_THREADS = "1"
MIN_SAMPLES = 100  # at least ten jobs beyond job_s_p90
SETUP_REPEATS = 3  # one in the load process, the rest in fresh interpreters
CLI_COMMANDS = ("index", "validate", "decouple", "join", "sweep", "temple_kato", "winding",
                "berry")
# per workload, layers whose call count must stay zero ("no change predicted")
BYPASS = {
    "index_scan": ("decoupling.gentle_decoupling", "lattice.measured_band"),
    "decouple_join": ("walks.winding_number",),
    "sweep_certify": ("decoupling.gentle_decoupling",),
}

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS
sys.path[:0] = [str(SRC), str(HERE)]

import jobs  # noqa: E402  (stdlib only; walkindex and numpy load inside the timed setup)


def run_cli(main, argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def setup(workload: str, seed: int, work: Path):
    """Import walkindex, write the specs, pre-build joins, warm up each command."""
    t0 = time.perf_counter()
    from walkindex.cli import main

    job_list, prebuild = jobs.build(workload, seed, work)
    for argv, path in prebuild:
        code, text = run_cli(main, argv)
        if code != 0:
            raise RuntimeError(f"pre-build {argv[:1]} exited {code}: {text[:200]}")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["type"] = "explicit"  # join --out omits the spec type
        path.write_text(json.dumps(payload), encoding="utf-8")
    errors = []
    warmed = set()
    for job in sorted(job_list, key=lambda j: j.cells):
        if job.command in warmed or job.expect["kind"] == "refusal":
            continue
        warmed.add(job.command)
        error = jobs.check(job, *run_cli(main, job.argv))
        if error:
            errors.append(f"warm-up {job.command}: {error}")
    return time.perf_counter() - t0, main, job_list, errors


def fresh_setup(workload: str, seed: int) -> float:
    """Setup seconds measured in a new interpreter (cold imports and LAPACK)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup subprocess failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Measurement:
    def __init__(self):
        self.samples: list[tuple[str, float]] = []
        self.errors: list[str] = []
        self.wall = 0.0
        self.passes = 0
        self.refinements = 0.0

    @property
    def jobs_per_s(self) -> float:
        return len(self.samples) / self.wall

    def percentile(self, q: float, command: str | None = None) -> float:
        times = sorted(t for c, t in self.samples if command in (None, c))
        if not times:
            return 0.0
        pos = q * (len(times) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(times) - 1)
        return times[lo] + (times[hi] - times[lo]) * (pos - lo)


def measure(main, job_list, seconds: float, passes: int | None = None, tracer=None) -> Measurement:
    """Closed loop over whole passes of the job list; statistics over every pass."""
    m = Measurement()
    while True:
        t_pass = time.perf_counter()
        for i, job in enumerate(job_list):
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.job = m.passes * len(job_list) + i
                span = tracer.span(f"cli.{job.command}")
            t = time.perf_counter()
            with span:
                code, out = run_cli(main, job.argv)
            m.samples.append((job.command, time.perf_counter() - t))
            error = jobs.check(job, code, out)
            if error:
                m.errors.append(f"{' '.join(job.argv[:1])} ({job.cells} cells): {error}")
            else:
                m.refinements += jobs.refinements(job, out)
        m.wall += time.perf_counter() - t_pass
        m.passes += 1
        if passes is not None:
            if m.passes >= passes:
                return m
        elif len(m.samples) >= MIN_SAMPLES and m.wall * (m.passes + 1) / m.passes > 1.1 * seconds:
            return m


def layer_values(summary: dict, untraced: Measurement, traced: Measurement) -> dict:
    import spans

    stats = summary["stats"]
    values = {}
    for layer, names in list(spans.LAYERS.items()) + list(spans.COUNTED.items()):
        for qualname in names:
            entry = stats.get(f"{layer}.{qualname}", {"calls": 0, "self_s": 0.0})
            values[f"{layer}.{qualname}.calls"] = entry["calls"]
            values[f"{layer}.{qualname}.self_s"] = entry["self_s"]
    for op in spans.LINALG:
        entry = stats.get(f"linalg.{op}", {"calls": 0, "s": 0.0})
        values[f"linalg.{op}.calls"] = entry["calls"]
        values[f"linalg.{op}.s"] = entry["s"]
    si_total = values["indices.si_total.calls"]
    values["indices.window_radii_per_si_total"] = (
        summary["split_under_si_total"] / si_total if si_total else 0.0
    )
    values["serialize.dumps_canonical.bytes"] = summary["dumped_bytes"]
    values["linalg.factor_gflop"] = summary["gflop"]
    values["walks.momentum_refinements"] = traced.refinements
    values["trace.overhead_frac"] = untraced.jobs_per_s / traced.jobs_per_s - 1.0
    for command in CLI_COMMANDS:
        values[f"cli.{command}.s_p50"] = untraced.percentile(0.5, command)
    return values


def machine(workload: str, seed: int) -> dict:
    import numpy as np

    record = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "blas": None,
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": None,
        "source_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((SRC / "walkindex").glob("*.py")))
        ).hexdigest(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            if kind != "Instruction":
                record["caches"][f"L{level}"] = size
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas['name']} {blas['version']}"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            record["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "walkindex" / "__init__.py").is_file():
        print(f"perfbench: no walkindex sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        setup_s, cli_main, job_list, errors = setup(args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            values, runs, errors = traced_run(args, cli_main, job_list, errors)
            metrics = spec["per_layer"]
        else:
            setups = [setup_s] + [fresh_setup(args.workload, args.seed)
                                  for _ in range(SETUP_REPEATS - 1)]
            m = measure(cli_main, job_list, args.seconds)
            runs = [m]
            errors += m.errors
            values = {
                "jobs_per_s": m.jobs_per_s,
                "job_s_p50": m.percentile(0.5),
                "job_s_p90": m.percentile(0.9),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, metrics, values, runs, errors)


def traced_run(args, cli_main, job_list, errors):
    import microbench
    import spans

    untraced = measure(cli_main, job_list, args.seconds, passes=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = measure(cli_main, job_list, args.seconds, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    errors += untraced.errors + traced.errors
    summary = tracer.summary()
    values = layer_values(summary, untraced, traced)
    for name in BYPASS[args.workload]:
        if values[f"{name}.calls"]:
            message = (f"bypass self-check failed: {name} ran {values[f'{name}.calls']} times "
                       f"on {args.workload}")
            print(f"perfbench: {message}", file=sys.stderr)
            errors.append(message)
    values.update(microbench.run())
    tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}-{time.time_ns()}.jsonl.gz")
    return values, [untraced, traced], errors


def report(args, metrics, values, runs: list[Measurement], errors: list) -> int:
    missing = [x["name"] for x in metrics if x["name"] not in values]
    if missing:
        raise KeyError(f"metrics without a value: {missing}")
    attempted = sum(len(m.samples) for m in runs)
    failed = sum(len(m.errors) for m in runs)
    passes = sum(m.passes for m in runs)
    record = machine(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {passes} pass(es), "
          f"{attempted} job samples, fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
    for x in metrics:
        print(f"  {x['name']:<48} {values[x['name']]:<14.6g} {x['unit']}")
    for error in errors[:20]:
        print(f"  error: {error}")
    print("machine " + json.dumps(record, sort_keys=True))
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps({"machine": record, "values": values, "samples": attempted,
                    "passes": passes, "errors": errors}, indent=1, sort_keys=True),
        encoding="utf-8",
    )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
