import json

import pytest

from twocenter.cli import main, parse_state
from twocenter.model import StateLabel


def test_parse_state_forms():
    assert parse_state("1ssg") == StateLabel(0, 0, 0, +1)
    assert parse_state("3dπg") == StateLabel(0, 0, 1, -1)
    assert parse_state("(1,0,0,-)") == StateLabel(1, 0, 0, -1)
    assert parse_state("0, 0, 2, +") == StateLabel(0, 0, 2, +1)


def test_bad_state_exit_code(capsys):
    assert main(["optimize", "--state", "9zz", "--R", "2.0"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_grid_exit_code(capsys):
    assert main(["optimize", "--state", "1ssg", "--R-grid", "4:1:1"]) == 2
    assert main(["optimize", "--state", "1ssg"]) == 2
    assert main(["optimize", "--state", "1ssg", "--R", "1.0",
                 "--R-grid", "1:2:1"]) == 2


@pytest.mark.parametrize("flags", [["--R-grid", "1:inf:1"], ["--R", "inf"]])
def test_non_finite_R_exit_code(capsys, flags):
    assert main(["optimize", "--state", "1ssg"] + flags) == 2
    assert "finite" in capsys.readouterr().err


def test_huge_R_exit_code(capsys):
    # finite but beyond any molecular scale: a validation failure, not an
    # overflow inside the oracle
    assert main(["oracle", "--state", "1ssg", "--R", "1e300"]) == 2
    assert "at most" in capsys.readouterr().err


def test_unwritable_output_exit_code(capsys):
    rc = main(["optimize", "--state", "1ssg", "--R", "2.0",
               "--out", "/nonexistent-dir/x.csv"])
    assert rc == 4


def test_optimize_json_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["optimize", "--state", "1ssg", "--R", "2.0", "--format", "json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert abs(float(doc[0]["E"]) - (-1.20526842899)) <= 5e-10


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["oracle", "--state", "2psu", "--R", "12.54525",
               "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().split("\n")
    vals = dict(zip(header.split(","), row.split(",")))
    assert abs(float(vals["E"]) - (-1.0001215811)) <= 1e-9
    assert abs(float(vals["radial_mismatch"])) <= 1e-12


def test_pt_subcommand_and_tables(tmp_path):
    prefix = str(tmp_path / "corr")
    out = tmp_path / "pt.csv"
    rc = main(["pt", "--state", "1ssg", "--R", "2.0", "--out", str(out),
               "--emit-tables", prefix])
    assert rc == 0
    header, row = out.read_text().strip().split("\n")
    vals = dict(zip(header.split(","), row.split(",")))
    assert abs(float(vals["A1_xi"]) - 0.8117295846248) <= 1e-7
    assert float(vals["consistency"]) <= 1e-10
    phi_table = (tmp_path / "corr_phi1_R2.0.csv").read_text().splitlines()
    assert phi_table[0] == "xi,phi1"
    assert len(phi_table) > 100


def test_pt_tables_key_by_exact_R(tmp_path):
    # the two R values of the mislabelled 2psu cell, 1e-7 apart
    prefix = str(tmp_path / "corr")
    for R in ("1.997193", "1.9971931"):
        assert main(["pt", "--state", "1ssg", "--R", R,
                     "--out", str(tmp_path / "pt.csv"),
                     "--emit-tables", prefix]) == 0
    for kind in ("phi1", "rho1"):
        assert (tmp_path / f"corr_{kind}_R1.997193.csv").exists()
        assert (tmp_path / f"corr_{kind}_R1.9971931.csv").exists()


def test_transitions_subcommand(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["transitions", "--kind", "E2", "--final", "3ddg",
               "--R", "2.0", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().split("\n")
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["f"]) == pytest.approx(1.5573573e-6, rel=5e-6)
    assert vals["G"] == "2"


def test_united_atom_subcommand(capsys):
    rc = main(["united-atom", "--state", "2ssg"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "atomic_n" in out and "2" in out


def test_united_atom_untabulated_state_exit_code(capsys):
    assert main(["united-atom", "--state", "(2,0,0,+)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no tabulated limit for (2,0,0,+)")


def test_reproduce_tables_subset(tmp_path, capsys):
    # the separation table, the three energy tables and the node table
    # with its extra VI-node rows
    for which, grid, tables in (("VII", "2.0", {"VII"}),
                                ("I,II,V", "2.0,4.0", {"I", "II", "V"}),
                                ("VI", "2.0", {"VI", "VI-node"})):
        out = tmp_path / "r.csv"
        rc = main(["reproduce-tables", "--which", which, "--grid", grid,
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert {r["table"] for r in rows} == tables
        # node positions are held to 1e-5 absolute (criterion 4)
        nodes = [abs(float(r["value"]) - float(r["reference"]))
                 for r in rows if r["table"] == "VI-node"]
        assert max(nodes, default=0.0) <= 1e-5
        diffs = [abs(float(r["rel_diff"])) for r in rows
                 if r["table"] != "VI-node"]
        assert diffs and max(diffs) <= 1e-7
        assert "max relative deviation" in capsys.readouterr().err


def test_reproduce_tables_bad_id(capsys):
    assert main(["reproduce-tables", "--which", "XIV"]) == 2


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 2.0, "format": "json"}))
    out = tmp_path / "c.json"
    rc = main(["--config", str(cfg), "optimize", "--state", "1ssg",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc[0]["R"] == 2.0


@pytest.mark.parametrize("entry, message", [
    ({"R": "abc"}, "invalid float value"),
    ({"quadN": 64}, "unrecognized arguments"),
    ({"format": "xml"}, "invalid choice"),
], ids=["bad-value", "unknown-key", "bad-choice"])
def test_config_file_values_are_validated(tmp_path, capsys, entry, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "oracle", "--state", "1ssg", "--R", "2"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_file_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "1ssg"}))
    assert main(["--config", str(cfg), "united-atom"]) == 0
    assert "1ssg" in capsys.readouterr().out


def test_unsupported_state_exit_code(capsys):
    assert main(["optimize", "--state", "3dsg", "--R", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_extended_precision_flag(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["optimize", "--state", "1ssg", "--R", "2.0",
               "--precision", "extended", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().split("\n")
    vals = dict(zip(header.split(","), row.split(",")))
    assert abs(float(vals["E_extended"]) - float(vals["E"])) <= 1e-12


def test_oracle_failure_exit_codes(monkeypatch, capsys):
    import twocenter.oracle
    from twocenter.oracle import RadialRootError

    def no_root(*args, **kwargs):
        raise RadialRootError("no bispectral root")

    monkeypatch.setattr(twocenter.oracle, "solve_bispectral", no_root)
    assert main(["oracle", "--state", "1ssg", "--R", "2.0"]) == 3
    assert "error:" in capsys.readouterr().err

    def bug(*args, **kwargs):
        raise RuntimeError("not a convergence failure")

    monkeypatch.setattr(twocenter.oracle, "solve_bispectral", bug)
    with pytest.raises(RuntimeError, match="not a convergence failure"):
        main(["oracle", "--state", "1ssg", "--R", "2.0"])
