"""Command line behavior: JSON shapes, exit codes, determinism."""

import importlib
import io
import json
import pkgutil

import numpy as np
import pytest

import walkindex
import walkindex.lattice
import walkindex.symmetry as symmetry_module
from helpers import dense_offband, record_gate_measurements
from walkindex.cli import main
from walkindex.decoupling import gentle_decoupling
from walkindex.lattice import LatticeOperator, LocalSymmetryRep, measured_band
from walkindex.serialize import (
    lattice_operator_from_json,
    lattice_operator_to_json,
    operator_from_spec,
    rep_to_json,
    tiwalk_to_json,
    walk_from_spec,
)
from walkindex.symmetry import IndexGroup, IndexValue
from walkindex.tolerances import DEFAULT_TOL, Tolerances
from walkindex.walks import InvariantReport, build_lattice, make_split_step

GEN = {"type": "ti", "builtin": "generating"}
GEN_LINE = {**GEN, "geometry": {"n_cells": 20, "topology": "line", "boundary": "compress"}}
GEN_CIRCLE = {**GEN, "geometry": {"n_cells": 16, "topology": "circle"}}
SPLIT_A = {
    "type": "ti",
    "builtin": "split_step",
    "coin_params": {"theta1": 9 * np.pi / 32, "theta2": 7 * np.pi / 32},
}
SPLIT_B = {
    "type": "ti",
    "builtin": "split_step",
    "coin_params": {"theta1": -5 * np.pi / 16, "theta2": 2 * np.pi / 16},
}


def write_spec(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# -- index ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 24, 32])
def test_index_decoupled_segment_end_pair_needs_no_window(tmp_path, capsys, n):
    # the end-mode pair sits exp(-n/xi) from +1: at 24 cells on the edge of
    # the old fixed 1e-7 radius, which refused the balanced pair
    spec = {
        "type": "ti",
        "builtin": "split_step",
        "coin_params": {"theta1": 0.90495, "theta2": -0.38464},
        "geometry": {"n_cells": n, "topology": "line", "boundary": "decoupled_unitary"},
    }
    code, data = run_json(capsys, ["index", write_spec(tmp_path, "seg.json", spec)])
    assert code == 0, data
    assert data["si_left"]["value"] == -1 and data["si_right"]["value"] == 1
    assert data["si_minus"]["value"] + data["si_plus"]["value"] == 0


def test_index_compressed_line(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_line.json", GEN_LINE)
    code, data = run_json(capsys, ["index", spec])
    assert code == 0
    assert data["si_right"] == {"group": "Z", "value": 1}
    assert data["si_left"] == {"group": "Z", "value": -1}
    assert data["cut"] == 10
    assert data["si_minus"] is None and data["si_plus"] is None
    assert data["residuals"]["admissibility"] <= 1e-8


def test_index_circle_reports_eigenspace_indices(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_circle.json", GEN_CIRCLE)
    code, data = run_json(capsys, ["index", spec, "--cut", "8"])
    assert code == 0
    assert data["cut"] == 8
    assert data["si_minus"] == {"group": "Z", "value": 0}
    assert data["si_plus"] == {"group": "Z", "value": 0}
    assert data["si_left"]["value"] + data["si_right"]["value"] == 0
    assert data["residuals"]["unitarity"] <= 1e-10


def test_index_output_is_byte_identical(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_line.json", GEN_LINE)
    _, first = run(capsys, ["index", spec])
    _, second = run(capsys, ["index", spec])
    assert first == second


def test_index_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GEN_LINE)))
    code, data = run_json(capsys, ["index", "-"])
    assert code == 0 and data["si_right"]["value"] == 1


# -- winding / berry -----------------------------------------------------------------


def test_winding_gen(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen.json", GEN)
    code, data = run_json(capsys, ["winding", spec])
    assert code == 0
    assert data["value"] == {"group": "Z", "value": 1}
    assert data["residual"] < 1e-6


def test_winding_doubled_cii(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "cii.json", {"type": "ti", "builtin": "doubled", "coin_params": {"variant": "CII"}}
    )
    code, data = run_json(capsys, ["winding", spec])
    assert code == 0 and data["value"] == {"group": "2Z", "value": 2}


def test_berry_doubled_diii(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "diii.json", {"type": "ti", "builtin": "doubled", "coin_params": {"variant": "DIII"}}
    )
    code, data = run_json(capsys, ["berry", spec])
    assert code == 0 and data["value"] == {"group": "2Z2", "value": 2}


def test_winding_gapless_exits_3(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "flat.json",
        {"type": "ti", "builtin": "split_step", "coin_params": {"theta1": 0.0, "theta2": 0.0}},
    )
    code, data = run_json(capsys, ["winding", spec])
    assert code == 3 and data["error"] == "SingularBlock"


@pytest.mark.parametrize(
    "spec, n_k, floor",
    [
        (SPLIT_A, 2, 2),
        (GEN, 1, 2),
        ({"type": "ti", "builtin": "doubled", "coin_params": {"variant": "CII"}}, 2, 4),
    ],
)
def test_winding_aliasing_grid_exits_1(tmp_path, capsys, spec, n_k, floor):
    path = write_spec(tmp_path, "walk.json", spec)
    code, data = run_json(capsys, ["winding", path, "--n-k", str(n_k)])
    assert code == 1 and data["error"] == "ValueError"
    assert f"need n_k > 2 m band = {floor}" in data["message"]


def test_berry_wrong_class_exits_1(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen.json", GEN)
    code, data = run_json(capsys, ["berry", spec])
    assert code == 1 and data["error"] == "NotChiral"


def test_invariant_residual_within_tolerance_exits_0(tmp_path, capsys, monkeypatch):
    # the library owns the integer gate (NonIntegerInvariant above
    # tol.integer_residual); the CLI adds no threshold of its own
    def fake(value):
        return lambda ti, n_k, tol: InvariantReport(value, float(value.value) + 0.02, 0.02, n_k)

    monkeypatch.setattr("walkindex.cli.winding_number", fake(IndexValue(IndexGroup.Z, 1)))
    monkeypatch.setattr("walkindex.cli.berry_phase", fake(IndexValue(IndexGroup.TWO_Z2, 2)))
    for command, spec in (
        ("winding", GEN),
        ("berry", {"type": "ti", "builtin": "doubled", "coin_params": {"variant": "DIII"}}),
    ):
        path = write_spec(tmp_path, f"{command}.json", spec)
        code, data = run_json(capsys, [command, path, "--tol-integer-residual", "0.05"])
        assert code == 0, command
        assert data["residual"] == pytest.approx(0.02)


# -- decouple ------------------------------------------------------------------------


def test_decouple_writes_artifacts(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_circle.json", GEN_CIRCLE)
    out_dir = tmp_path / "dec"
    code, data = run_json(
        capsys, ["decouple", spec, "--cut", "8", "--out-dir", str(out_dir)]
    )
    assert code == 0 and data["ok"] is True and data["si_preserved"] is True
    v = lattice_operator_from_json(json.loads((out_dir / "V.json").read_text())).matrix
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) < 1e-9
    w_prime = lattice_operator_from_json(json.loads((out_dir / "Wprime.json").read_text()))
    assert w_prime.cells.n_cells == 16
    report = json.loads((out_dir / "path_report.json").read_text())
    assert set(report) == {
        "commutator_norm", "ok", "si_after", "si_before", "si_preserved", "transfer_counts"
    }
    assert report["ok"] is True and report["si_preserved"] is True
    # circles get a default antipodal second cut, so two bonds carry transfer
    assert report["transfer_counts"] == {"0": [1, 1], "8": [1, 1]}
    # Wprime.json is an explicit walk spec that every command reads back
    code, data = run_json(capsys, ["validate", str(out_dir / "Wprime.json")])
    assert code == 0 and data["ok"] is True and data["n_cells"] == 16


def _reads_back_within_its_band(path, op: LatticeOperator) -> None:
    """The file is the stdlib JSON of the operator's payload, its in-band
    entries read back bit for bit, and the rest is the recorded off-band norm."""
    text = path.read_text(encoding="utf-8")
    payload = lattice_operator_to_json(op)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    back = lattice_operator_from_json(json.loads(text))
    assert back.band == op.band and back.cells == op.cells
    assert np.array_equal(back.cell_band.blocks, op.cell_band.blocks)
    dropped = np.linalg.norm(op.matrix - back.matrix)
    # the norm is padded against squares lost to underflow
    assert payload["offband"] == pytest.approx(dense_offband(op), rel=1e-12, abs=1e-140)
    assert payload["offband"] == pytest.approx(dropped, rel=1e-12, abs=1e-140)
    # written again, it is the same but for what was dropped
    assert {**lattice_operator_to_json(back), "offband": 0} == {**payload, "offband": 0}


def test_written_walks_are_the_reference_encoding_of_their_payloads(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_circle.json", GEN_CIRCLE)
    out_dir = tmp_path / "dec"
    assert run(capsys, ["decouple", spec, "--cut", "8", "--out-dir", str(out_dir)])[0] == 0
    result = gentle_decoupling(operator_from_spec(GEN_CIRCLE), 8)
    v = result.v
    assert v.band == measured_band(v) == 1
    # each cut's window is two cells: V holds stacks within them, W' within
    # its band plus their reach (3 band - 1 = 2)
    assert sorted(v.blocks) == [-1, 0, 1]
    assert result.w_prime.band == 1 and sorted(result.w_prime.blocks) == [-2, -1, 0, 1, 2]
    _reads_back_within_its_band(out_dir / "V.json", v)
    _reads_back_within_its_band(out_dir / "Wprime.json", result.w_prime)
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    right = write_spec(tmp_path, "b.json", SPLIT_B)
    out = tmp_path / "line.json"
    argv = ["join", left, right, "--n-left", "16", "--n-right", "16", "--topology", "line"]
    assert run(capsys, argv + ["--out", str(out)])[0] == 0
    geometry = {"n_left": 16, "n_right": 16, "topology": "line"}
    joined = walk_from_spec({"type": "join", "left": SPLIT_A, "right": SPLIT_B, "geometry": geometry})
    assert joined.cells.topology == "line"
    # a line join is cut out of a decoupled circle whose two cuts are solved
    # apart: no stack lies off its band, and its off-band norm is the padding
    assert joined.band == 1 and sorted(joined.blocks) == [-1, 0, 1]
    assert joined.cell_band.offband == np.sqrt((32 * 2) ** 2 * np.finfo(float).tiny)
    _reads_back_within_its_band(out, joined)


@pytest.mark.parametrize(
    "argv,spec,ring_cells",
    [
        (["decouple", "{spec}", "--cut", "3", "--out-dir", "{tmp}/dec"], {**SPLIT_A, "geometry": {"n_cells": 32, "topology": "circle"}}, 32),
        (["index", "{spec}"], {**SPLIT_A, "geometry": {"n_cells": 24, "topology": "line", "boundary": "decoupled_unitary"}}, 28),
        (["join", "{spec}", "{spec}", "--n-left", "16", "--n-right", "16", "--topology", "line"], SPLIT_A, 40),
    ],
    ids=["decouple", "decoupled_unitary index", "line join"],
)
def test_decoupling_places_no_matrix_of_the_walk(tmp_path, capsys, monkeypatch, argv, spec, ring_cells):
    # the decoupled walk (the circle, or the padded ring a segment or a line
    # join is cut from) is read from its stacks only; the half-space pieces of
    # the index certificate have fewer cells and may be placed
    original = walkindex.lattice.place_blocks

    def guarded(blocks, cells):
        assert cells.n_cells != ring_cells, "the decoupled walk was placed"
        return original(blocks, cells)

    monkeypatch.setattr(walkindex.lattice, "place_blocks", guarded)
    path = write_spec(tmp_path, "spec.json", spec)
    assert main([a.format(spec=path, tmp=tmp_path) for a in argv]) == 0
    out = capsys.readouterr().out
    assert '"ok":false' not in out


def test_index_and_decouple_never_assemble_the_dense_rep(tmp_path, capsys, monkeypatch):
    # every action of a cell-local rep goes run of cells by run of cells
    calls = []
    assembled = LocalSymmetryRep.assembled

    def counted(self):
        calls.append(self.total_dim)
        return assembled(self)

    monkeypatch.setattr(LocalSymmetryRep, "assembled", counted)
    circle = write_spec(tmp_path, "c192.json", {**SPLIT_A, "geometry": {"n_cells": 192, "topology": "circle"}})
    code, data = run_json(capsys, ["index", circle])
    assert code == 0 and data["si_right"]["value"] == 1
    circle = write_spec(tmp_path, "c32.json", {**SPLIT_A, "geometry": {"n_cells": 32, "topology": "circle"}})
    code, data = run_json(capsys, ["decouple", circle, "--out-dir", str(tmp_path / "dec")])
    assert code == 0 and data["ok"] is True
    assert calls == []
    build_lattice(make_split_step(1.2, 0.4), 4, "circle").local_rep.assembled()
    assert calls == [8]


def test_decouple_steps_flag_is_gone(tmp_path):
    # the contraction path is its generator; there are no samples to count
    spec = write_spec(tmp_path, "gen_circle.json", GEN_CIRCLE)
    with pytest.raises(SystemExit) as exc:
        main(["decouple", spec, "--steps", "4", "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 1
    assert not (tmp_path / "x").exists()


def test_decouple_compressed_line_refused(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_line.json", GEN_LINE)
    code, data = run_json(
        capsys, ["decouple", spec, "--cut", "10", "--out-dir", str(tmp_path / "x")]
    )
    assert code == 2 and data["error"] == "NotUnitary"
    assert not (tmp_path / "x").exists()


def test_decouple_pure_shift_obstructed(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "shift.json",
        {"type": "ti", "builtin": "shift", "geometry": {"n_cells": 12, "topology": "circle"}},
    )
    code, data = run_json(
        capsys, ["decouple", spec, "--cut", "6", "--out-dir", str(tmp_path / "x")]
    )
    assert code == 5 and data["error"] == "Obstructed"


def test_decouple_refuses_a_band_that_understates_a_hop_across_the_cut(tmp_path, capsys):
    # the decoupling works on the cells within the declared band of each cut
    # bond; a stored walk that hops across the cut from farther out is refused
    # by the commutator with the region, never decoupled
    stored = lattice_operator_to_json(build_lattice(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16, "circle"))
    assert stored["band"] == 1
    stored["band"] = 0
    spec = write_spec(tmp_path, "understated.json", stored)
    out_dir = tmp_path / "x"
    code, data = run_json(capsys, ["decouple", spec, "--cut", "3", "--out-dir", str(out_dir)])
    assert code == 5 and data["error"] == "DecouplingFailed"
    assert "residual coupling 7.730e-01" in data["message"]
    assert "declared band 0 understates a hop across the cut" in data["message"]
    assert not out_dir.exists()


# -- join / sweep --------------------------------------------------------------------


def test_join_to_stdout(tmp_path, capsys):
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    right = write_spec(tmp_path, "b.json", SPLIT_B)
    code, data = run_json(
        capsys, ["join", left, right, "--n-left", "10", "--n-right", "10"]
    )
    assert code == 0
    assert data["meta"]["interfaces"] == [0, 10]
    op = lattice_operator_from_json(data)
    assert np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(op.dim))) < 1e-10


def test_join_to_file(tmp_path, capsys):
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    right = write_spec(tmp_path, "b.json", SPLIT_B)
    out = tmp_path / "joined.json"
    code, data = run_json(
        capsys,
        ["join", left, right, "--n-left", "8", "--n-right", "8", "--out", str(out)],
    )
    assert code == 0 and data["n_cells"] == 16
    op = lattice_operator_from_json(json.loads(out.read_text()))
    assert op.cells.topology == "circle"
    code, data = run_json(capsys, ["index", str(out)])
    assert code == 0 and data["residuals"]["unitarity"] <= 1e-10
    assert data["si_minus"]["value"] + data["si_plus"]["value"] == 0


def test_circle_join_files_read_back_bit_for_bit(tmp_path, capsys):
    # a circle join has exact zeros off its band: nothing is dropped
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    right = write_spec(tmp_path, "b.json", SPLIT_B)
    for n in (2, 16, 256):
        out = tmp_path / f"join{n}.json"
        argv = ["join", left, right, "--n-left", str(n), "--n-right", str(n), "--out", str(out)]
        assert run(capsys, argv)[0] == 0
        geometry = {"n_left": n, "n_right": n, "topology": "circle"}
        joined = walk_from_spec({"type": "join", "left": SPLIT_A, "right": SPLIT_B, "geometry": geometry})
        back = lattice_operator_from_json(json.loads(out.read_text(encoding="utf-8")))
        assert np.array_equal(back.matrix, joined.matrix) and back.band == joined.band == 1
        assert dense_offband(joined) == 0.0
    # 512 cells: three offsets of 512 blocks of 2 x 2, where a dense grid took 6.5 MB
    assert out.stat().st_size < 200_000


def test_validate_reads_a_stored_join_as_its_spec(tmp_path, capsys):
    # the file is exact, so its gate residuals are those of the join it stores
    join = {
        "type": "join",
        "left": {**SPLIT_A, "coin_params": {"theta1": 0.9, "theta2": 0.3}},
        "right": {**SPLIT_A, "coin_params": {"theta1": -0.9, "theta2": 0.3}},
        "geometry": {"n_left": 32, "n_right": 32, "topology": "circle"},
    }
    spec = write_spec(tmp_path, "join.json", join)
    out = tmp_path / "stored.json"
    argv = ["join", write_spec(tmp_path, "a.json", join["left"]), write_spec(tmp_path, "b.json", join["right"]),
            "--n-left", "32", "--n-right", "32", "--out", str(out)]
    assert run(capsys, argv)[0] == 0
    code, from_spec = run(capsys, ["validate", spec])
    assert code == 0
    code, from_file = run(capsys, ["validate", str(out)])
    assert code == 0 and from_file == from_spec
    assert json.loads(from_file)["unitarity"] < 1e-13


def test_join_incompatible_exits_1(tmp_path, capsys):
    left = write_spec(tmp_path, "a.json", GEN)
    right = write_spec(tmp_path, "s.json", {"type": "ti", "builtin": "shift"})
    code, data = run_json(
        capsys, ["join", left, right, "--n-left", "4", "--n-right", "4"]
    )
    assert code == 1 and data["error"] == "IncompatibleCells"


def test_sweep_csv_stdout(tmp_path, capsys):
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    right = write_spec(tmp_path, "b.json", SPLIT_B)
    code, out = run(
        capsys, ["sweep", left, right, "--size", "10,10", "--size", "20,20"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_A,n_B,delta,count_near_plus,count_near_minus,max_localization_radius"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[:2] for r in rows] == [["10", "10"], ["20", "20"]]
    assert float(rows[1][2]) < float(rows[0][2])
    assert all(r[3] == "2" and r[4] == "2" for r in rows)


def test_sweep_to_file_and_gapless_refusal(tmp_path, capsys):
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    right = write_spec(tmp_path, "b.json", SPLIT_B)
    out = tmp_path / "sweep.csv"
    code, _ = run(
        capsys, ["sweep", left, right, "--size", "10,10", "--out", str(out)]
    )
    assert code == 0 and out.read_text().startswith("n_A,n_B,")
    shift = write_spec(tmp_path, "s.json", {"type": "ti", "builtin": "shift"})
    code, data = run_json(capsys, ["sweep", shift, shift, "--size", "10,10"])
    assert code == 3 and data["error"] == "Gapless"


def test_sweep_rejects_malformed_size(tmp_path, capsys):
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    for size in ("10", "10x10"):
        code, data = run_json(capsys, ["sweep", left, left, "--size", size])
        assert code == 1 and data["error"] == "ValueError"


# -- temple-kato ---------------------------------------------------------------------


@pytest.mark.parametrize("theta", ["1+0j", "-1+0j"])
def test_temple_kato_certifies_a_stored_join_as_its_spec(tmp_path, capsys, theta):
    # an opposite-phase circle join read back from `join --out` (12 significant
    # digits) certifies the same modes as the join built from its spec
    left = write_spec(tmp_path, "a.json", SPLIT_A)
    right = write_spec(tmp_path, "b.json", SPLIT_B)
    geometry = {"n_left": 32, "n_right": 32, "topology": "circle"}
    spec = write_spec(tmp_path, "join.json", {"type": "join", "left": SPLIT_A, "right": SPLIT_B, "geometry": geometry})
    stored = str(tmp_path / "stored.json")
    assert run(capsys, ["join", left, right, "--n-left", "32", "--n-right", "32", "--out", stored])[0] == 0
    certificates = []
    for source in (spec, stored):
        code, data = run_json(capsys, ["temple-kato", source, f"--theta={theta}", "--k", "1", "--window", "28:36"])
        assert code == 0, data
        certificates.append((data["k"], data["valid"]))
    assert certificates == [(1, True), (1, True)]


def test_temple_kato_interface_certificate(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "join.json",
        {
            "type": "join",
            "left": SPLIT_A,
            "right": SPLIT_B,
            "geometry": {"n_left": 30, "n_right": 30, "topology": "circle"},
        },
    )
    code, data = run_json(
        capsys,
        ["temple-kato", spec, "--theta", "1+0j", "--k", "1", "--window", "25:35"],
    )
    assert code == 0 and data["valid"] is True
    assert data["theta"] == [1.0, 0.0]
    assert data["r_min"] < 0.1


@pytest.mark.parametrize("theta", ["1+0j", "-1+0j"])
def test_temple_kato_selects_the_essential_cluster(tmp_path, capsys, theta):
    # the interface pairs of this 12+12 join sit 5.8e-5 from +-1, outside any
    # fixed 1e-7 radius; without --select-radius the cluster of Im W holds them
    spec = write_spec(
        tmp_path,
        "join.json",
        {
            "type": "join",
            "left": SPLIT_A,
            "right": SPLIT_B,
            "geometry": {"n_left": 12, "n_right": 12, "topology": "circle"},
        },
    )
    code, data = run_json(
        capsys, ["temple-kato", spec, f"--theta={theta}", "--k", "1", "--window", "8:16"]
    )
    assert code == 0 and data["valid"] is True and data["k"] == 1
    assert data["r_min"] < 0.2


def test_temple_kato_too_many_modes_exits_1(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_circle.json", GEN_CIRCLE)
    code, data = run_json(
        capsys,
        ["temple-kato", spec, "--theta", "1+0j", "--k", "30", "--window", "0:16"],
    )
    assert code == 1 and data["error"] == "NotEnoughModes"


def test_temple_kato_negative_k_exits_1(tmp_path, capsys):
    # used to exit 0 with a one-mode certificate
    spec = write_spec(
        tmp_path,
        "join.json",
        {
            "type": "join",
            "left": SPLIT_A,
            "right": SPLIT_B,
            "geometry": {"n_left": 24, "n_right": 24, "topology": "circle"},
        },
    )
    code, data = run_json(
        capsys,
        [
            "temple-kato", spec, "--theta=1+0j", "--k", "-1", "--window", "18:30",
            "--select-radius", "0.05",
        ],
    )
    assert code == 1 and data["error"] == "NotEnoughModes"


@pytest.mark.parametrize("window", ["0:1000", "-3:4", "16:8"])
def test_temple_kato_window_outside_lattice_exits_1(tmp_path, capsys, window):
    # with the interface pair selected, these windows used to crash with an
    # IndexError, certify over wrapped negative cells, or blame the modes
    spec = write_spec(
        tmp_path,
        "join.json",
        {
            "type": "join",
            "left": SPLIT_A,
            "right": SPLIT_B,
            "geometry": {"n_left": 12, "n_right": 12, "topology": "circle"},
        },
    )
    code, data = run_json(
        capsys,
        [
            "temple-kato", spec, "--theta", "1+0j", "--k", "1", f"--window={window}",
            "--select-radius", "1e-3",
        ],
    )
    assert code == 1 and data["error"] == "CutOutOfRange"


# -- validate ------------------------------------------------------------------------


def test_validate_ti_walk(tmp_path, capsys):
    spec = write_spec(tmp_path, "a.json", SPLIT_A)
    code, data = run_json(capsys, ["validate", spec])
    assert code == 0
    assert data == {
        "band": 1,
        "cell_dim": 2,
        "class": "BDI",
        "gap_margin": pytest.approx(0.196034280659, rel=1e-9),
        "kind": "ti",
        "ok": True,
        "residual": pytest.approx(0.0, abs=1e-12),
    }


def test_validate_gapless_reports_not_ok(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {"type": "ti", "builtin": "shift"})
    code, data = run_json(capsys, ["validate", spec])
    assert code == 0 and data["ok"] is False and data["gap_margin"] == 0


def test_validate_finite_operator(tmp_path, capsys):
    spec = write_spec(tmp_path, "join.json", {
        "type": "join",
        "left": GEN,
        "right": GEN,
        "geometry": {"n_left": 5, "n_right": 5, "topology": "circle"},
    })
    code, data = run_json(capsys, ["validate", spec])
    assert code == 0 and data["ok"] is True and data["kind"] == "operator"
    assert data["n_cells"] == 10 and data["unitarity"] <= 1e-10


# exit code, stdout and stderr of validate, index and decouple on a 16+16
# line join of SPLIT_A | SPLIT_B stored with its band edited from 1 to 0
# ("edited") and stored with 1e-16 noise in stacks at offsets +-2 ("noisy"),
# recorded while the reader still placed the stored stacks into a matrix; the
# residuals were recorded again when the join's cuts came to be solved apart,
# and the code before that change gave the same outputs on the same files
EDITED_JOIN_RECORDS = {
    'validate edited.json': (
        0,
        (
            '{"admissibility":2.65969904294e-16,"band":0,"kind":"operator","n_cells":32,"ok":true,"top'
            'ology":"line","unitarity":3.26888620734e-16}\n'
        ),
        '',
    ),
    'index edited.json': (
        0,
        (
            '{"cut":16,"residuals":{"admissibility":2.65969904294e-16,"unitarity":3.26888620734e-16},"'
            'si_left":{"group":"Z","value":-1},"si_minus":{"group":"Z","value":0},"si_plus":{"group":'
            '"Z","value":0},"si_right":{"group":"Z","value":-1},"tolerances":{"adm":1e-08,"band":1e-1'
            '2,"det":1e-08,"eig":1e-09,"exact":1e-07,"gap":1e-06,"idx":1e-06,"integer_residual":0.01,'
            '"ker":1e-08,"orth":1e-09,"unit":1e-10}}\n'
        ),
        '',
    ),
    'decouple edited.json': (
        5,
        (
            '{"error":"DecouplingFailed","message":"residual coupling 7.730e-01 outside the cut windo'
            'w: the declared band 0 understates a hop across the cut"}\n'
        ),
        (
            'error: residual coupling 7.730e-01 outside the cut window: the declared band 0 understat'
            'es a hop across the cut\n'
        ),
    ),
    'validate noisy.json': (
        0,
        (
            '{"admissibility":4.98164590106e-15,"band":1,"kind":"operator","n_cells":32,"ok":true,"to'
            'pology":"line","unitarity":5.93901810613e-15}\n'
        ),
        '',
    ),
    'index noisy.json': (
        0,
        (
            '{"cut":16,"residuals":{"admissibility":4.98164590106e-15,"unitarity":5.93901810613e-15},'
            '"si_left":{"group":"Z","value":-1},"si_minus":{"group":"Z","value":0},"si_plus":{"group"'
            ':"Z","value":0},"si_right":{"group":"Z","value":-1},"tolerances":{"adm":1e-08,"band":1e-'
            '12,"det":1e-08,"eig":1e-09,"exact":1e-07,"gap":1e-06,"idx":1e-06,"integer_residual":0.01'
            ',"ker":1e-08,"orth":1e-09,"unit":1e-10}}\n'
        ),
        '',
    ),
    'decouple noisy.json': (
        0,
        '{"commutator_norm":7.93785543216e-16,"ok":true,"out_dir":"out","si_preserved":true}\n',
        '',
    ),
}


def test_files_with_stacks_beyond_their_band_keep_their_outputs(tmp_path, capsys, monkeypatch):
    # such a file's off-band norm is read from its stacks, once
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, "a.json", SPLIT_A)
    write_spec(tmp_path, "b.json", SPLIT_B)
    argv = ["join", "a.json", "b.json", "--n-left", "16", "--n-right", "16", "--topology", "line"]
    assert run(capsys, argv + ["--out", "join.json"])[0] == 0
    stored = json.loads((tmp_path / "join.json").read_text())
    gen = np.random.default_rng(28)
    noise = {str(j): (1e-16 * gen.normal(size=(32, 2, 2, 2))).tolist() for j in (2, -2)}
    files = {"edited.json": {**stored, "band": 0}, "noisy.json": {**stored, "blocks": {**stored["blocks"], **noise}}}
    for name, data in files.items():
        write_spec(tmp_path, name, data)
        for argv in (["validate", name], ["index", name], ["decouple", name, "--cut", "16", "--out-dir", "out"]):
            code = main(argv)
            printed = capsys.readouterr()
            assert (code, printed.out, printed.err) == EDITED_JOIN_RECORDS[f"{argv[0]} {name}"], argv


def test_index_and_validate_reach_the_gates_without_a_dense_entry_point(tmp_path, capsys, monkeypatch):
    # the benchmark's index_scan refuses any measured_band call: built walks,
    # compressed lines and stored joins are stacks from the start
    join = str(tmp_path / "join.json")
    argv = ["join", write_spec(tmp_path, "a.json", SPLIT_A), write_spec(tmp_path, "b.json", SPLIT_B)]
    assert run(capsys, argv + ["--n-left", "16", "--n-right", "16", "--out", join])[0] == 0
    calls = []
    original = walkindex.lattice.measured_band

    def counted(*args, **kwargs):
        calls.append("measured_band")
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(walkindex.__path__):
        module = importlib.import_module(f"walkindex.{info.name}")
        if getattr(module, "measured_band", None) is original:
            monkeypatch.setattr(module, "measured_band", counted)
    dense = LatticeOperator.from_matrix.__func__

    def from_matrix(cls, *args, **kwargs):
        calls.append("from_matrix")
        return dense(cls, *args, **kwargs)

    monkeypatch.setattr(LatticeOperator, "from_matrix", classmethod(from_matrix))
    circle = write_spec(tmp_path, "circle.json", {**SPLIT_A, "geometry": {"n_cells": 64, "topology": "circle"}})
    line = write_spec(tmp_path, "line.json", {**SPLIT_A, "geometry": {"n_cells": 64, "topology": "line"}})
    for argv in (["index", circle], ["index", line], ["index", join], ["validate", join]):
        code, out = run(capsys, argv)
        assert code == 0, out
    assert calls == []


def test_negative_declared_band_exits_1(tmp_path, capsys):
    stored = lattice_operator_to_json(build_lattice(make_split_step(1.2, 0.4), 8, "circle"))
    stored["band"] = -1
    spec = write_spec(tmp_path, "stored.json", stored)
    for command in ("validate", "index"):
        code, data = run_json(capsys, [command, spec])
        assert code == 1 and data["error"] == "IncompatibleCells", command
        assert "band -1 is negative" in data["message"]


def _negate_gamma(rep_json: dict) -> None:
    gamma = rep_json["operators"]["gamma"]
    gamma["matrix"] = (-np.asarray(gamma["matrix"])).tolist()


def test_broken_rep_is_refused_when_read(tmp_path, capsys):
    # negating gamma breaks gamma = eta tau (residual 2)
    walk = make_split_step(0.4, 1.2)
    ti = tiwalk_to_json(walk)
    _negate_gamma(ti["rep"])
    stored = lattice_operator_to_json(build_lattice(walk, 8, "circle"))
    # the one run of 8 cells split around cell 3, whose rep alone is broken
    ((count, rep),) = stored["local_rep"]["runs"]
    assert count == 8
    broken = json.loads(json.dumps(rep))
    _negate_gamma(broken)
    stored["local_rep"]["runs"] = [[3, rep], [1, broken], [4, rep]]
    # valid BDI cell reps under a declared class they do not have
    relabelled = lattice_operator_to_json(build_lattice(make_split_step(1.2, 0.4), 8, "circle"))
    relabelled["local_rep"]["class"] = "AIII"
    specs = {
        "ti": write_spec(tmp_path, "ti.json", ti),
        "ti_circle": write_spec(
            tmp_path, "ti_circle.json", {**ti, "geometry": {"n_cells": 16, "topology": "circle"}}
        ),
        "explicit": write_spec(tmp_path, "explicit.json", stored),
        "relabelled": write_spec(tmp_path, "relabelled.json", relabelled),
    }
    for argv, message in (
        (["validate", specs["ti"]], "eta tau = gamma"),
        (["index", specs["ti_circle"]], "eta tau = gamma"),
        (["validate", specs["explicit"]], "eta tau = gamma"),
        (["index", specs["explicit"]], "eta tau = gamma"),
        (["validate", specs["relabelled"]], "class AIII disagrees with per-cell class(es) ['BDI']"),
        (["index", specs["relabelled"]], "class AIII disagrees with per-cell class(es) ['BDI']"),
    ):
        code, data = run_json(capsys, argv)
        assert code == 2 and data["error"] == "RelationViolation", argv
        assert message in data["message"]


def test_runs_that_do_not_fit_their_cells_are_refused_when_read(tmp_path, capsys):
    op = build_lattice(make_split_step(1.2, 0.4), 8, "circle")
    ((_, rep),) = lattice_operator_to_json(op)["local_rep"]["runs"]
    wide = rep_to_json(op.local_rep.per_cell[0].direct_sum(op.local_rep.per_cell[0]))
    cases = {
        "short": ([[3, rep], [4, rep]], "local_rep runs cover 7 of 8 cells: run 1 ends at cell 6"),
        "long": ([[3, rep], [6, rep]], "local_rep run 1 of 6 cells from cell 3 does not fit in 8 cells"),
        "empty run": ([[0, rep], [8, rep]], "local_rep run 0 of 0 cells from cell 0"),
        "wide rep": ([[5, rep], [3, wide]], "local_rep run 1 (cells 5..7) has rep dim 4, its cells dim [2]"),
    }
    for name, (runs, message) in cases.items():
        stored = lattice_operator_to_json(op)
        stored["local_rep"]["runs"] = runs
        spec = write_spec(tmp_path, "runs.json", stored)
        for command in ("validate", "index"):
            code, data = run_json(capsys, [command, spec])
            assert code == 1 and data["error"] == "IncompatibleCells", (name, command)
            assert message in data["message"], name


# -- plumbing ------------------------------------------------------------------------


def test_missing_file_exits_1(capsys):
    code, data = run_json(capsys, ["index", "/nonexistent/spec.json"])
    assert code == 1 and data["error"] == "FileNotFoundError"


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, data = run_json(capsys, ["winding", str(path)])
    assert code == 1 and data["error"] == "JSONDecodeError"


def test_non_object_spec_exits_1(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1,2,3]", encoding="utf-8")
    code, data = run_json(capsys, ["winding", str(path)])
    assert code == 1 and data["error"] == "ValueError"
    # a spec names its kind with "type"; a "kind" key is not read
    path = write_spec(tmp_path, "kind.json", {"kind": "ti", "builtin": "trivial"})
    code, data = run_json(capsys, ["validate", path])
    assert code == 1 and data["error"] == "ValueError"


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_tolerance_precedence(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_line.json", GEN_LINE)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"idx": 1e-05}}), encoding="utf-8")
    _, data = run_json(capsys, ["index", spec, "--config", str(cfg)])
    assert data["tolerances"]["idx"] == 1e-05
    _, data = run_json(
        capsys, ["index", spec, "--config", str(cfg), "--tol-idx", "1e-4"]
    )
    assert data["tolerances"]["idx"] == 1e-04
    assert "subspace" not in data["tolerances"]


@pytest.mark.parametrize(
    "override",
    [["--tol-unit", "nan"], ["config", "unit"], ["--tol-unit", "-1"], ["--tol-adm", "nan"], ["config", "adm"]],
    ids=["flag nan", "config nan", "flag negative", "adm flag nan", "adm config nan"],
)
def test_a_nan_or_negative_tolerance_exits_1(tmp_path, capsys, override):
    # every gate compares against its threshold, and against nan each
    # comparison is false: decouple of a compressed line (unitarity defect
    # 0.91) reported ok, and a nan tol.adm refused a residual of 3e-17
    line = {**SPLIT_A, "coin_params": {"theta1": 0.9, "theta2": 0.3}}
    spec = write_spec(tmp_path, "line.json", {**line, "geometry": {"n_cells": 16, "topology": "line"}})
    argv = ["decouple", spec, "--cut", "8", "--out-dir", str(tmp_path / "out")]
    code, data = run_json(capsys, argv)
    assert code == 2 and data["error"] == "NotUnitary"
    name = override[1] if override[0] == "config" else override[0].removeprefix("--tol-")
    if override[0] == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"tolerances": {{"{name}": NaN}}}}', encoding="utf-8")
        override = ["--config", str(cfg)]
    for command in (argv, ["index", spec]):
        code, data = run_json(capsys, command + override)
        assert code == 1 and data["error"] == "ValueError", data
        assert data["message"].startswith(f"tolerance {name} must be a number >= 0")


def test_tolerances_refuse_nan_and_negative_values():
    with pytest.raises(ValueError, match="tolerance unit must be a number >= 0, got nan"):
        Tolerances(unit=float("nan"))
    with pytest.raises(ValueError, match="tolerance ker must be"):
        DEFAULT_TOL.with_(ker=-1e-8)
    assert Tolerances(gap=0.0).gap == 0.0


@pytest.mark.parametrize("dims", [[2, -2, 2], [2, 2.5, 2], [2, True, 2]])
def test_cell_dimensions_that_are_not_nonnegative_integers_are_refused(tmp_path, capsys, dims):
    # [2, -2, 2] summed to two rows, so validate passed it and index refused
    # it for a block shape; 2.5 was truncated to 2
    stored = lattice_operator_to_json(LatticeOperator.one_cell(np.eye(2)))
    stored["cells"]["cell_dims"] = dims
    spec = write_spec(tmp_path, "explicit.json", stored)
    for command in ("validate", "index"):
        code, data = run_json(capsys, [command, spec])
        assert code == 1 and data["error"] == "IncompatibleCells", data
        assert data["message"] == f"cell dimensions must be integers >= 0, got {dims}"


def _with(data: dict, path: tuple, value) -> dict:
    """A deep copy of ``data`` with the entry at ``path`` replaced."""
    out = json.loads(json.dumps(data))
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


def _spec_fields():
    """``(name, spec, path, commands)`` of each integer field a spec or a
    stored operator holds, with the commands that read it."""
    stored = lattice_operator_to_json(build_lattice(make_split_step(1.2, 0.4), 12, "line"))
    join = {"type": "join", "left": SPLIT_A, "right": SPLIT_B, "geometry": {"n_left": 8, "n_right": 8}}
    factored = {**tiwalk_to_json(make_split_step(1.2, 0.4)), "geometry": {"n_cells": 12, "topology": "circle"}}
    step = next(k for k, f in enumerate(factored["factors"]) if f["kind"] == "shift")
    both = ("validate", "index")
    return [
        ("band", stored, ("band",), both),
        ("x_min", stored, ("cells", "x_min"), both),
        ("geometry.n_cells", GEN_CIRCLE, ("geometry", "n_cells"), ("index",)),
        ("geometry.n_left", join, ("geometry", "n_left"), both),
        ("geometry.n_right", join, ("geometry", "n_right"), both),
        ("shift step", factored, ("factors", step, "step"), both),
        ("shift component", factored, ("factors", step, "components", 0), both),
        ("cell_dim", factored, ("cell_dim",), both),
        ("rep dim", stored, ("local_rep", "runs", 0, 1, "dim"), both),
        ("local_rep run 0 count", stored, ("local_rep", "runs", 0, 0), both),
    ]


@pytest.mark.parametrize("name,spec,path,commands", _spec_fields(), ids=[f[0] for f in _spec_fields()])
@pytest.mark.parametrize("value", [1.7, 2.0, True, "2"])
def test_integer_fields_that_are_not_integers_are_refused(tmp_path, capsys, name, spec, path, commands, value):
    # int() truncated them: "n_cells": 16.7 ran on 16 cells, and a stored
    # join with "band": 1.7 and "x_min": 2.5 passed validate
    good = write_spec(tmp_path, "good.json", spec)
    assert [run_json(capsys, [command, good])[0] for command in commands] == [0] * len(commands)
    bad = write_spec(tmp_path, "bad.json", _with(spec, path, value))
    for command in commands:
        code, data = run_json(capsys, [command, bad])
        assert code == 1 and data["error"] == "ValueError", data
        assert data["message"] == f"{name} must be an integer, got {value!r}"


def test_tol_subspace_flag_is_gone(tmp_path):
    spec = write_spec(tmp_path, "gen_line.json", GEN_LINE)
    with pytest.raises(SystemExit) as exc:
        main(["index", spec, "--tol-subspace", "1e-8"])
    assert exc.value.code == 1


def test_winding_on_finite_spec_exits_1(tmp_path, capsys):
    spec = write_spec(tmp_path, "gen_circle.json", GEN_CIRCLE)
    code, data = run_json(capsys, ["winding", spec])
    assert code == 0 or code == 1
    # a geometry-carrying ti spec is still a ti walk; only non-ti types are refused
    join = write_spec(tmp_path, "join.json", {
        "type": "join",
        "left": GEN,
        "right": GEN,
        "geometry": {"n_left": 4, "n_right": 4},
    })
    code, data = run_json(capsys, ["winding", join])
    assert code == 1 and data["error"] == "ValueError"


def test_successive_calls_share_no_parser_state(tmp_path, capsys):
    # the parser is built once per process; overrides and usage errors of
    # one call must not reach the next
    spec = write_spec(tmp_path, "gen_line.json", GEN_LINE)
    _, plain = run_json(capsys, ["index", spec])
    _, loose = run_json(capsys, ["index", spec, "--tol-unit", "1e-3", "--cut", "4"])
    assert loose["tolerances"]["unit"] == 1e-3 and loose["cut"] == 4
    _, again = run_json(capsys, ["index", spec])
    assert again == plain
    assert again["tolerances"]["unit"] == 1e-10 and again["cut"] == 10
    with pytest.raises(SystemExit) as exc:
        main(["index", spec, "--cut", "middle"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, after = run_json(capsys, ["index", spec])
    assert code == 0 and after == plain


# Passing runs of every command that gates a full-size matrix, and the SVDs
# (square spectral norms of at least 32 rows) each one takes.
ONE_RULE_RUNS = {
    "index-circle": (["index", "circle96"], 0),
    "index-decoupled-line": (["index", "segment32"], 0),
    "index-stored-join": (["index", "stored"], 0),
    "validate-stored-join": (["validate", "stored"], 0),
    "decouple": (["decouple", "circle48", "--out-dir", "dec"], 0),
    "join-line": (["join", "a", "b", "--n-left", "24", "--n-right", "24", "--topology", "line"], 0),
    "sweep": (["sweep", "a", "b", "--size", "16,16", "--size", "24,24"], 0),
    "temple-kato": (["temple-kato", "join32", "--theta", "1+0j", "--k", "1", "--window", "28:36"], 0),
    # its unitarity fails, so the printed defect is the exact norm, from an
    # eigvalsh on the end cells that the defect reaches and no SVD
    "index-compressed-line": (["index", "compressed32"], 0),
}


@pytest.mark.parametrize("argv, svds", list(ONE_RULE_RUNS.values()), ids=list(ONE_RULE_RUNS))
def test_full_size_checks_take_an_svd_only_to_fail(tmp_path, capsys, monkeypatch, argv, svds):
    # every gate and printed residual on an N x N matrix is a screened norm:
    # the Frobenius bound passes it, and only a failing one is measured exactly
    files = {
        "a": write_spec(tmp_path, "a.json", SPLIT_A),
        "b": write_spec(tmp_path, "b.json", SPLIT_B),
        "circle96": write_spec(tmp_path, "c96.json", {**SPLIT_A, "geometry": {"n_cells": 96, "topology": "circle"}}),
        "circle48": write_spec(tmp_path, "c48.json", {**SPLIT_A, "geometry": {"n_cells": 48, "topology": "circle"}}),
        "segment32": write_spec(
            tmp_path,
            "seg.json",
            {**SPLIT_A, "geometry": {"n_cells": 32, "topology": "line", "boundary": "decoupled_unitary"}},
        ),
        "compressed32": write_spec(
            tmp_path, "line.json", {**SPLIT_A, "geometry": {"n_cells": 32, "topology": "line", "boundary": "compress"}}
        ),
        "join32": write_spec(
            tmp_path,
            "join.json",
            {"type": "join", "left": SPLIT_A, "right": SPLIT_B,
             "geometry": {"n_left": 32, "n_right": 32, "topology": "circle"}},
        ),
        "stored": str(tmp_path / "stored.json"),
        "dec": str(tmp_path / "dec"),
    }
    join = ["join", files["a"], files["b"], "--n-left", "32", "--n-right", "32", "--out", files["stored"]]
    assert run(capsys, join)[0] == 0
    shapes = []
    original = symmetry_module.spectral_norm

    def counted(x):
        shapes.append(x.shape)
        return original(x)

    for info in pkgutil.iter_modules(walkindex.__path__):
        module = importlib.import_module(f"walkindex.{info.name}")
        if getattr(module, "spectral_norm", None) is original:
            monkeypatch.setattr(module, "spectral_norm", counted)
    code, out = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 0, out
    assert [s for s in shapes if s[0] == s[1] >= 32] == [(64, 64)] * svds


@pytest.mark.parametrize("topology", ["circle", "line"])
def test_index_measures_each_operator_once(tmp_path, capsys, monkeypatch, topology):
    # the walk's unitarity and admissibility are measured once, where it
    # enters; si_pm, si_total on the half-space pieces and the printed
    # residuals read the records, and the pieces inherit the admissibility bound
    spec = write_spec(tmp_path, "w.json", {**SPLIT_A, "geometry": {"n_cells": 64, "topology": topology}})
    seen = record_gate_measurements(monkeypatch)
    code, out = run(capsys, ["index", spec])
    assert code == 0, out
    residuals = json.loads(out)["residuals"]
    assert residuals["admissibility"] <= DEFAULT_TOL.adm
    assert (residuals["unitarity"] <= DEFAULT_TOL.unit) == (topology == "circle")
    for gate, matrices in seen.items():
        # the rest are the k x k compressions near +-1 that eig_unitary checks
        assert [m.shape for m in matrices if len(m) >= 64] == [(128, 128)], gate
