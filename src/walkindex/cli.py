"""Command line front end.

Reports go to stdout as canonical JSON (sorted keys, 12-significant-digit
floats), diagnostics to stderr.  Stored operators (``join``, ``decouple``'s
``V.json`` and ``Wprime.json``) are their cell-band blocks with ``repr``
floats (``serialize.dumps_operator``).  Exit codes: 0 ok, 1 usage, 2
admissibility/unitarity, 3 spectral gap, 4 non-integer invariant, 5 index
obstruction.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .decoupling import gentle_decoupling
from .errors import WalkIndexError
from .finite import certify_boundary_modes, crossover_sweep
from .indices import ESSENTIAL_KERNEL_CEILING, si_left_right, si_pm
from .lattice import LatticeOperator, measured_band
from .operators import check_admissible
from .serialize import (
    certificate_to_json,
    dumps_canonical,
    dumps_operator,
    index_value_to_json,
    operator_from_spec,
    sweep_csv,
    tiwalk_from_json,
    walk_from_spec,
)
from .tolerances import DEFAULT_TOL, Tolerances
from .walks import TIWalk, berry_phase, ti_gap_margin, validate_ti, winding_number

_TOL_FIELDS = [f.name for f in dataclasses.fields(Tolerances)]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this front end reserves 2 for admissibility."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(obj) -> None:
    sys.stdout.write(dumps_canonical(obj) + "\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load_spec(path: str) -> dict:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("walk spec must be a JSON object")
    return data


def _resolve_tol(args) -> Tolerances:
    overrides: dict[str, float] = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        overrides.update(cfg.get("tolerances", {}))
    for name in _TOL_FIELDS:
        value = getattr(args, f"tol_{name}", None)
        if value is not None:
            overrides[name] = value
    return DEFAULT_TOL.with_(**{k: float(v) for k, v in overrides.items()})


def _tol_json(tol: Tolerances) -> dict:
    return {f: getattr(tol, f) for f in _TOL_FIELDS}


# -- commands -----------------------------------------------------------------------


def _gate_residuals(op: LatticeOperator, tol: Tolerances) -> tuple[float, float | None]:
    """The operator's recorded unitarity defect and worst admissibility residual
    (None without a rep), each its bound where it passes, else exact."""
    unitarity = op.unitarity.screened(tol.unit)
    if op.local_rep is None:
        return unitarity, None
    return unitarity, check_admissible(op, tol=tol, strict=False).max_residual


def cmd_index(args, tol: Tolerances) -> int:
    op = operator_from_spec(_load_spec(args.spec), tol)
    cut = args.cut if args.cut is not None else op.cells.n_cells // 2
    si_l, si_r = si_left_right(op, cut, tol=tol)
    unitarity, admissibility = _gate_residuals(op, tol)
    out = {
        "si_left": index_value_to_json(si_l),
        "si_right": index_value_to_json(si_r),
        "si_minus": None,
        "si_plus": None,
        "cut": cut,
        "residuals": {"unitarity": unitarity, "admissibility": admissibility},
        "tolerances": _tol_json(tol),
    }
    if unitarity <= tol.unit:
        minus, plus = si_pm(op, ceiling=args.window, tol=tol)
        out["si_minus"] = index_value_to_json(minus)
        out["si_plus"] = index_value_to_json(plus)
    else:
        _note(
            "si_minus/si_plus need an exactly unitary operator; "
            f"this one has unitarity defect {unitarity:.3e} (compressed ends)"
        )
    _emit(out)
    return 0


def _ti_from_args(args, tol: Tolerances) -> TIWalk:
    spec = _load_spec(args.spec)
    if spec.get("type") != "ti":
        raise ValueError("this command needs a translation-invariant walk spec (type 'ti')")
    return tiwalk_from_json(spec, tol)


def cmd_invariant(args, tol: Tolerances) -> int:
    """``winding`` and ``berry``; a residual above ``tol.integer_residual`` raises (exit 4)."""
    invariant = winding_number if args.command == "winding" else berry_phase
    report = invariant(_ti_from_args(args, tol), n_k=args.n_k, tol=tol)
    _emit(
        {
            "value": index_value_to_json(report.value),
            "raw": report.raw,
            "residual": report.residual,
            "n_k": report.n_k,
        }
    )
    return 0


def cmd_decouple(args, tol: Tolerances) -> int:
    op = operator_from_spec(_load_spec(args.spec), tol)
    cut = args.cut if args.cut is not None else 0
    result = gentle_decoupling(op, cut, second_cut=args.second_cut, tol=tol)
    path_report = {
        "commutator_norm": result.commutator_norm,
        "transfer_counts": {str(b): list(c) for b, c in result.transfer_counts.items()},
        "si_before": [index_value_to_json(v) for v in result.si_before],
        "si_after": [index_value_to_json(v) for v in result.si_after],
        "si_preserved": result.si_preserved,
        "ok": result.ok,
    }
    files = {
        "V.json": dumps_operator(dataclasses.replace(result.v, band=measured_band(result.v, tol)), tol),
        "Wprime.json": dumps_operator(result.w_prime, tol),
        "path_report.json": dumps_canonical(path_report),
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text + "\n", encoding="utf-8")
    _emit(
        {
            "ok": result.ok,
            "commutator_norm": result.commutator_norm,
            "si_preserved": result.si_preserved,
            "out_dir": str(out_dir),
        }
    )
    return 0


def cmd_join(args, tol: Tolerances) -> int:
    spec = {
        "type": "join",
        "left": _load_spec(args.left),
        "right": _load_spec(args.right),
        "geometry": {
            "n_left": args.n_left,
            "n_right": args.n_right,
            "topology": args.topology,
        },
    }
    joined = walk_from_spec(spec, tol)
    text = dumps_operator(joined, tol) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _emit({"out": args.out, "n_cells": joined.cells.n_cells, "meta": joined.meta})
    else:
        sys.stdout.write(text)
    return 0


def _parse_sizes(items: list[str]) -> list[tuple[int, int]]:
    sizes = []
    for item in items:
        parts = item.split(",")
        if len(parts) != 2:
            raise ValueError(f"size must be 'nA,nB', got {item!r}")
        sizes.append((int(parts[0]), int(parts[1])))
    return sizes


def cmd_sweep(args, tol: Tolerances) -> int:
    left = tiwalk_from_json(_load_spec(args.left), tol)
    right = tiwalk_from_json(_load_spec(args.right), tol)
    records = crossover_sweep(left, right, _parse_sizes(args.size), args.topology, tol)
    text = sweep_csv(records)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _note(f"wrote {len(records)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_temple_kato(args, tol: Tolerances) -> int:
    op = operator_from_spec(_load_spec(args.spec), tol)
    lo, _, hi = args.window.partition(":")
    window = range(int(lo), int(hi))
    theta = complex(args.theta)
    cert = certify_boundary_modes(
        op, window, theta, args.k, select_radius=args.select_radius, tol=tol
    )
    _emit(certificate_to_json(cert))
    return 0


def cmd_validate(args, tol: Tolerances) -> int:
    spec = _load_spec(args.spec)
    obj = walk_from_spec(spec, tol)
    if isinstance(obj, TIWalk):
        residual = validate_ti(obj, tol=tol)
        margin = ti_gap_margin(obj, tol=tol, strict=False)
        out = {
            "ok": bool(residual <= tol.adm and margin > tol.gap),
            "kind": "ti",
            "class": obj.cls.value,
            "cell_dim": obj.cell_dim,
            "band": obj.band,
            "residual": residual,
            "gap_margin": margin,
        }
    else:
        op: LatticeOperator = obj
        unitarity, adm = _gate_residuals(op, tol)
        out = {
            "ok": bool(unitarity <= tol.unit and (adm is None or adm <= tol.adm)),
            "kind": "operator",
            "n_cells": op.cells.n_cells,
            "topology": op.cells.topology,
            "band": op.band,
            "unitarity": unitarity,
            "admissibility": adm,
        }
    _emit(out)
    return 0


# -- parser -------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file with a 'tolerances' table")
    for name in _TOL_FIELDS:
        common.add_argument(
            f"--tol-{name.replace('_', '-')}",
            dest=f"tol_{name}",
            type=float,
            default=None,
            help=f"override tolerance {name!r}",
        )

    parser = _Parser(
        prog="walkindex",
        description="Symmetry indices, decoupling and certificates for 1D walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[common], help="half-space and +-1 eigenspace indices")
    p.add_argument("spec", help="walk spec JSON file, or - for stdin")
    p.add_argument("--cut", type=int, default=None, help="cut bond (default: middle)")
    p.add_argument(
        "--window",
        type=float,
        default=ESSENTIAL_KERNEL_CEILING,
        help="ceiling of the +-1 eigenvalue cluster in |Im lambda| (default: %(default)s)",
    )
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("winding", parents=[common], help="chiral winding number")
    p.add_argument("spec")
    p.add_argument("--n-k", type=int, default=256, help="initial momentum samples")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("berry", parents=[common], help="phase index (classes D, DIII)")
    p.add_argument("spec")
    p.add_argument("--n-k", type=int, default=256)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("decouple", parents=[common], help="canonical gentle decoupling")
    p.add_argument("spec")
    p.add_argument("--cut", type=int, default=None, help="cut bond (default: 0)")
    p.add_argument("--second-cut", type=int, default=None, help="second bond (circles)")
    p.add_argument("--out-dir", required=True, help="directory for V/Wprime/path_report")
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("join", parents=[common], help="two bulks on one finite lattice")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n-left", type=int, required=True)
    p.add_argument("--n-right", type=int, required=True)
    p.add_argument("--topology", choices=("circle", "line"), default="circle")
    p.add_argument("--out", help="write the joined operator JSON here instead of stdout")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("sweep", parents=[common], help="crossover size sweep (CSV)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--size", action="append", required=True, help="segment sizes 'nA,nB' (repeatable)")
    p.add_argument("--topology", choices=("circle", "line"), default="circle")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("temple-kato", parents=[common], help="boundary-mode count certificate")
    p.add_argument("spec")
    p.add_argument(
        "--theta",
        required=True,
        help="target point, python complex syntax; attach a negative one with '=': --theta=-1+0j",
    )
    p.add_argument("--k", type=int, required=True, help="modes to certify")
    p.add_argument("--window", required=True, help="cell window 'lo:hi'")
    p.add_argument("--select-radius", type=float, default=None, help="eigenvalue selection radius")
    p.set_defaults(func=cmd_temple_kato)

    p = sub.add_parser("validate", parents=[common], help="parse a spec and check it")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = _resolve_tol(args)
        return args.func(args, tol)
    except WalkIndexError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        _note(f"error: {exc}")
        return exc.exit_code
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        _note(f"usage error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
