"""Layer microbench: public walkindex functions called directly at fixed sizes.

The walk is the split-step walk at (1.2, 0.4) and the line join uses the
issue pair, so every seed times the same operators.  Each figure is the
median of a few repeats (one at the largest size), and ``exp`` is the
least-squares slope of log(seconds) against log(n_cells).
"""

from __future__ import annotations

import math
import statistics
import time

from jobs import PAIR_A, PAIR_B

SIZES = (32, 64, 128, 256)
# gentle_decoupling and the line join take tens of seconds at 256 cells
DECOUPLING_SIZES = (32, 64, 128)
OPS = ("build_lattice", "measured_band", "assembled_validate", "eig_unitary", "si_left_right",
       "gentle_decoupling", "join_crossover")


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run() -> dict[str, float]:
    """Seconds per op and size as ``layer.<op>.s_n<N>``, plus ``layer.<op>.exp``."""
    from walkindex.decoupling import gentle_decoupling
    from walkindex.finite import join_crossover
    from walkindex.indices import si_left_right
    from walkindex.lattice import measured_band
    from walkindex.operators import eig_unitary
    from walkindex.walks import build_lattice, make_split_step

    ti = make_split_step(1.2, 0.4)
    left, right = make_split_step(*PAIR_A), make_split_step(*PAIR_B)
    points: dict[str, list[tuple[int, float]]] = {op: [] for op in OPS}
    for n in SIZES:
        repeats = 3 if n <= 64 else 1
        ring = build_lattice(ti, n, "circle")
        timings = {
            "build_lattice": lambda: build_lattice(ti, n, "circle"),
            "measured_band": lambda: measured_band(ring),
            "assembled_validate": lambda: ring.local_rep.assembled().validate(),
            "eig_unitary": lambda: eig_unitary(ring.matrix),
            "si_left_right": lambda: si_left_right(ring, n // 2),
        }
        if n in DECOUPLING_SIZES:
            timings["gentle_decoupling"] = lambda: gentle_decoupling(ring, 0)
            timings["join_crossover"] = lambda: join_crossover(left, right, n // 2, n // 2, "line")
        for op, fn in timings.items():
            points[op].append((n, _timed(fn, repeats)))
    out = {}
    for op, pts in points.items():
        for n, s in pts:
            out[f"layer.{op}.s_n{n}"] = s
        out[f"layer.{op}.exp"] = _slope(pts)
    return out
