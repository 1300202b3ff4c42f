import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twocenter

from twocenter.cli import fmt, main, parse_grid, parse_state
from twocenter.model import StateLabel


def test_parse_state_forms():
    assert parse_state("1ssg") == StateLabel(0, 0, 0, +1)
    assert parse_state("3dπg") == StateLabel(0, 0, 1, -1)
    assert parse_state("(1,0,0,-)") == StateLabel(1, 0, 0, -1)
    assert parse_state("0, 0, 2, +") == StateLabel(0, 0, 2, +1)


def test_bad_state_exit_code(capsys):
    assert main(["optimize", "--state", "9zz", "--R", "2.0"]) == 2
    assert "error" in capsys.readouterr().err
    # a parity other than exactly "+" or "-" is no state
    for state in ("(1,0,0,)", "(0,0,0,+-)"):
        assert main(["oracle", "--state", state, "--R", "2.0"]) == 2
        assert "error:" in capsys.readouterr().err


def test_bad_grid_exit_code(capsys):
    assert main(["optimize", "--state", "1ssg", "--R-grid", "4:1:1"]) == 2
    assert main(["optimize", "--state", "1ssg"]) == 2
    assert main(["optimize", "--state", "1ssg", "--R", "1.0",
                 "--R-grid", "1:2:1"]) == 2


@pytest.mark.parametrize("flags", [["--R-grid", "1:inf:1"], ["--R", "inf"]])
def test_non_finite_R_exit_code(capsys, flags):
    assert main(["optimize", "--state", "1ssg"] + flags) == 2
    assert "finite" in capsys.readouterr().err


def test_grid_step_too_small_to_count_exit_code(capsys):
    # (stop - start) / step overflows to inf: a bad grid, not a crash
    assert main(["oracle", "--state", "1ssg", "--R-grid", "1:2:5e-324"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_grid_step_below_R_resolution_exit_code(capsys):
    # 1e300 points that are all R = 1: a bad grid, not an endless list
    assert main(["oracle", "--state", "1ssg", "--R-grid", "1:2:1e-300"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_long_grid_is_read_lazily():
    # 1e12 points: only those read are made
    args = argparse.Namespace(R=None, R_grid="1:1000:1e-9")
    assert list(itertools.islice(parse_grid(args), 2)) == [1.0, 1.000000001]


@pytest.mark.parametrize("kind", ["B1", "E2"])
def test_unwired_transition_exit_code(capsys, kind):
    assert main(["transitions", "--kind", kind, "--initial", "2ppu",
                 "--final", "4fdu", "--R", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "wired" in err and "Traceback" not in err


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


def test_oracle_near_the_united_atom(tmp_path, capsys):
    # 3psu at R = 0.02 once exited 3: "node count 0 != 1"
    out = tmp_path / "o.csv"
    assert main(["oracle", "--state", "3psu", "--R", "0.02",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, row = out.read_text().strip().split("\n")
    assert dict(zip(header.split(","), row.split(",")))["state"] == "3psu"


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


def test_pt_tables_hold_the_attached_corrections(tmp_path):
    # a nodeless state's tables are phi1 and rho1 on their grids; a
    # single-node state's xi table is the regular part r of its node
    # correction, and it writes no phi1 table
    from twocenter.states import StateBank

    prefix = tmp_path / "t"
    bank = StateBank()
    for name, xi_kind in (("1ssg", "phi1"), ("2ssg", "r")):
        assert main(["pt", "--state", name, "--R", "4.0",
                     "--out", str(tmp_path / "pt.csv"),
                     "--emit-tables", f"{prefix}_{name}"]) == 0
        st = bank.get(parse_state(name), 4.0, corrected=True)
        xs = np.linspace(1.0, 1.0 + 12.0 / st.params.p, 801)
        es = np.linspace(-1.0, 1.0, 401)
        xi_pair = st.pt_xi.correction if st.node is None else st.node.regular
        for axis, x, kind, pair in (("xi", xs, xi_kind, xi_pair),
                                    ("eta", es, "rho1", st.pt_eta.correction)):
            text = (tmp_path / f"t_{name}_{kind}_R4.0.csv").read_text()
            assert text == "".join(
                [f"{axis},{kind}\n"]
                + [f"{fmt(u)},{fmt(v)}\n" for u, v in zip(x, pair(x)[0])])
            assert len(text.splitlines()) == 1 + x.size
    assert not (tmp_path / "t_2ssg_phi1_R4.0.csv").exists()


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


def test_the_package_runs_without_scipy():
    # a fresh process that imports the CLI and loads every reference table
    # pulls in no scipy module: scipy is a test dependency only
    code = """
import sys
import twocenter.cli
from twocenter import reference
for which in ("1ssg", "2psu", "lam12", "node"):
    reference.energy_table(which)
reference.separation_table()
for kind in ("e1", "b1", "e2"):
    reference.oscillator_table(kind)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(twocenter.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "[]"


def test_cli_output_identical_across_processes(tmp_path):
    # two fresh interpreters with different string-hash salts print the
    # same bytes: nothing the commands print depends on set or dict order
    # of hashed keys, or on which process computed it
    code = """
import sys
from twocenter.cli import main
for argv in (["oracle", "--state", "3psu", "--R", "0.02"],
             ["optimize", "--state", "2ssg", "--R", "4", "--format", "json"],
             ["transitions", "--kind", "E2", "--final", "3ddg",
              "--R", "2.0"]):
    if main(argv) != 0:
        sys.exit(1)
"""
    outs = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   TWOCENTER_DATA_DIR=str(tmp_path),
                   PYTHONPATH=str(Path(twocenter.__file__).parents[1]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   check=True, capture_output=True).stdout)
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert "3psu" in text and '"state": "2ssg"' in text and "3ddg" in text
