"""Command-line front end.

Subcommands
-----------
optimize          variational solve of one state on an R grid
oracle            independent bispectral solve (ground truth)
pt                first-order corrections and separation constants
transitions       oscillator strengths from the ground state
united-atom       R -> 0 limit forms and convergence probes
reproduce-tables  regenerate the bundled reference tables and diff

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
4 I/O failure.  All numeric output uses '.' decimals with 17 significant
digits, and a repeated invocation writes byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable

from .model import (PhysicalSetup, StateLabel, UnsupportedStateError,
                    label_from_designation, united_atom_designation)
from .oracle import OracleConvergenceError, RadialRootError
from .quadrature import QuadratureError
from .reference import energy_table, oscillator_table, separation_table
from .states import StateBank, correction_energy_shift
from .trial import ParamDomainError
from .united_atom import (UntabulatedLimitError, limit_convergence_probe,
                          limit_form)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def parse_state(text: str) -> StateLabel:
    t = text.strip()
    try:
        return label_from_designation(t)
    except KeyError:
        pass
    t2 = t.strip("()")
    parts = [p.strip() for p in t2.split(",")]
    if len(parts) == 4 and parts[3] in ("+", "-"):
        try:
            return StateLabel(int(parts[0]), int(parts[1]), int(parts[2]),
                              +1 if parts[3] == "+" else -1)
        except ValueError as exc:
            raise CliError(f"bad state {text!r}: {exc}", 2) from None
    raise CliError(f"unrecognized state {text!r}", 2)


def parse_grid(args) -> Iterable[float]:
    """The R values of --R or --R-grid, checked before the first one is
    read; a grid's points are made as they are read."""
    if args.R is not None and args.R_grid is not None:
        raise CliError("give either --R or --R-grid, not both", 2)
    if args.R is not None:
        return [args.R]
    if args.R_grid is None:
        raise CliError("one of --R or --R-grid is required", 2)
    try:
        start, stop, step = (float(v) for v in args.R_grid.split(":"))
    except ValueError:
        raise CliError(f"bad --R-grid {args.R_grid!r} "
                       "(expected start:stop:step)", 2) from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliError(f"bad --R-grid {args.R_grid!r} (must be finite)", 2)
    if step <= 0 or stop < start:
        raise CliError("grid must ascend", 2)
    # a step below R's resolution would repeat R values
    if step < math.ulp(max(abs(start), abs(stop))):
        raise CliError(f"bad --R-grid {args.R_grid!r} (step too small)", 2)
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return (start + i * step for i in range(n))


def emit(rows: list[dict], args) -> None:
    header = list(rows[0].keys()) if rows else []
    if args.format == "json":
        # numpy scalars subclass float/int; normalize so JSON holds numbers
        norm = [{k: (float(r[k]) if isinstance(r[k], float) else r[k])
                 for k in header} for r in rows]
        text = json.dumps(norm, indent=1, default=fmt)
        text += "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(fmt(r[k]) for k in header) for r in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc}", 4) from None
    else:
        sys.stdout.write(text)


def _bank(args) -> StateBank:
    return StateBank(rule_N=args.quad_N)


# ----------------------------------------------------------------------
# subcommands


def cmd_optimize(args) -> int:
    label = parse_state(args.state)
    bank = _bank(args)
    rows = []
    for R in parse_grid(args):
        st = bank.get(label, R)
        extended_note = {}
        if args.precision == "extended":
            from .quadrature import (assemble_energy, build_rules,
                                     channel_moments, trial_channels)
            rules = build_rules(st.params.p, st.result.rule_N)
            moments = [channel_moments(c, c, r, label.lam, extended=True)
                       for c, r in zip(trial_channels(st.params, label,
                                                      st.setup, rules), rules)]
            e = assemble_energy(*moments, st.setup)
            extended_note = {"E_extended": e.E_total}
        row = {"state": united_atom_designation(label) or str(label),
               "R": R, "E": st.energy.E_total, "p": st.params.p,
               "converged": st.result.converged,
               "evaluations": st.result.evaluations}
        row.update({k: getattr(st.params, k) for k in
                    ("alpha", "gamma", "a1", "a2", "b2", "b3")})
        if st.params.xi0 is not None:
            row["xi0"] = st.params.xi0
        row.update(extended_note)
        rows.append(row)
        if args.store:
            from .variational import save_result
            save_result(st.result)
    emit(rows, args)
    return 0


def cmd_oracle(args) -> int:
    from .oracle import solve_bispectral

    label = parse_state(args.state)
    rows = []
    for R in parse_grid(args):
        r = solve_bispectral(label, PhysicalSetup(R))
        rows.append({"state": united_atom_designation(label) or str(label),
                     "R": R, "E": r.E_total, "A": r.A, "p": r.p,
                     "radial_mismatch": r.radial_mismatch,
                     "angular_basis": r.angular_basis_size})
    emit(rows, args)
    return 0


def cmd_pt(args) -> int:
    label = parse_state(args.state)
    bank = _bank(args)
    rows = []
    for R in parse_grid(args):
        st = bank.get(label, R, corrected=True)
        a_xi = st.node.A1 if st.node is not None else st.pt_xi.A1
        row = {"state": united_atom_designation(label) or str(label),
               "R": R, "E": st.energy.E_total,
               "A1_xi": a_xi, "A1_eta": st.pt_eta.A1,
               "consistency": abs(a_xi - st.pt_eta.A1),
               "bound_C_eta": st.pt_eta.bound_C,
               "dE_corrected": correction_energy_shift(st)}
        if st.pt_xi is not None:
            row["bound_C_xi"] = st.pt_xi.bound_C
        rows.append(row)
        if args.emit_tables:
            import numpy as np
            base = args.emit_tables
            xs = np.linspace(1.0, 1.0 + 12.0 / st.params.p, 801)
            es = np.linspace(-1.0, 1.0, 401)
            # a single-node state's xi correction is its regular part r
            xi = (("phi1", st.pt_xi.correction) if st.node is None
                  else ("r", st.node.regular))
            try:
                for axis, x, kind, table in (
                        ("xi", xs, *xi),
                        ("eta", es, "rho1", st.pt_eta.correction)):
                    # the exact R (its repr) keeps nearby R values apart
                    with open(f"{base}_{kind}_R{R!r}.csv", "w") as fh:
                        fh.write(f"{axis},{kind}\n")
                        for u, v in zip(x, table(x)[0]):
                            fh.write(f"{fmt(u)},{fmt(v)}\n")
            except OSError as exc:
                raise CliError(f"cannot write tables: {exc}", 4) from None
    emit(rows, args)
    return 0


def cmd_transitions(args) -> int:
    from .transitions import oscillator_strength

    final = parse_state(args.final)
    initial = parse_state(args.initial)
    bank = _bank(args)
    corrected = not args.plain
    rows = []
    for R in parse_grid(args):
        si = bank.get(initial, R, corrected=corrected)
        sf = bank.get(final, R, corrected=corrected)
        rec = oscillator_strength(args.kind, si, sf)
        rows.append({"kind": rec.kind,
                     "initial": united_atom_designation(initial),
                     "final": united_atom_designation(final),
                     "R": R, "deltaE": rec.deltaE, "S": rec.S, "G": rec.G,
                     "f": rec.f, "forbidden": rec.forbidden})
    emit(rows, args)
    return 0


def cmd_united_atom(args) -> int:
    label = parse_state(args.state)
    form = limit_form(label)
    base = {"state": form.designation, "atomic_n": form.orbital[0],
            "atomic_l": form.orbital[1], "atomic_m": form.orbital[2],
            "constant": "" if form.constant is None else str(form.constant)}
    if not args.probe:
        emit([base], args)
        return 0
    probe = limit_convergence_probe(label)
    rows = []
    for pt, e1, e2 in zip(probe["points"], probe["R_over_p_errors"],
                          probe["E_prime_errors"]):
        rows.append(dict(base, R=pt.R, E=pt.E_total, R_over_p=pt.R_over_p,
                         A=pt.A, R_over_p_err=e1, E_prime_err=e2))
    emit(rows, args)
    return 0


_TABLE_GRIDS = {
    "I": [1.0, 2.0, 6.0, 10.0],
    "II": [1.0, 2.0, 4.0, 10.0, 20.0],
    "V": [4.0, 6.0, 10.0],
    "VI": [4.0, 10.0],
    "VII": [2.0, 6.0, 10.0],
    "VIII": [1.0, 2.0, 6.0],
    "IX": [2.0, 4.0, 10.0],
    "X": [1.0, 2.0, 10.0],
}


def cmd_reproduce(args) -> int:
    which = [w.strip().upper() for w in args.which.split(",")]
    bad = [w for w in which if w not in _TABLE_GRIDS]
    if bad:
        raise CliError(f"unknown table ids {bad}; choose from "
                       f"{sorted(_TABLE_GRIDS)}", 2)
    grid_override = None
    if args.grid != "paper":
        grid_override = [float(v) for v in args.grid.split(",")]
    bank = _bank(args)
    rows, maxdiff = [], 0.0
    for w in which:
        grid = grid_override or _TABLE_GRIDS[w]
        for entry in _reproduce_one(w, grid, bank):
            rows.append(entry)
            maxdiff = max(maxdiff, abs(entry["rel_diff"]))
    emit(rows, args)
    sys.stderr.write(f"max relative deviation: {maxdiff:.3e}\n")
    return 0


# energy tables: id -> (reference CSV, row filter or None)
_ENERGY_TABLES = {"I": ("1ssg", None), "II": ("2psu", None),
                  "V": ("lam12", lambda row: row["neg_explicit"]),
                  "VI": ("node", None)}

# oscillator-strength tables: id -> (reference CSV, [(column, final, kind)])
_OSCILLATOR_TABLES = {
    "VIII": ("e1", [("f_2ppu", StateLabel(0, 0, 1, +1), "E1"),
                    ("f_3psu", StateLabel(1, 0, 0, -1), "E1")]),
    "IX": ("b1", [("f_3dpg", StateLabel(0, 0, 1, -1), "B1")]),
    "X": ("e2", [("f_3dpg", StateLabel(0, 0, 1, -1), "E2"),
                 ("f_3ddg", StateLabel(0, 0, 2, +1), "E2"),
                 ("f_2ssg", StateLabel(1, 0, 0, +1), "E2")]),
}


def _entry(which: str, label: StateLabel, R: float, value: float,
           reference: float) -> dict:
    return {"table": which, "state": united_atom_designation(label),
            "R": R, "value": value, "reference": reference,
            "rel_diff": (value - reference) / abs(reference)}


def _reproduce_one(which: str, grid, bank: StateBank):
    from .transitions import oscillator_strength

    if which in _ENERGY_TABLES:
        name, keep = _ENERGY_TABLES[which]
        for row in energy_table(name):
            if row["R"] not in grid or (keep is not None and not keep(row)):
                continue
            label, R = row["label"], row["R"]
            st = bank.get(label, R)
            yield _entry(which, label, R, st.energy.E_total, row["E"])
            if which == "VI":
                yield _entry("VI-node", label, R, st.params.xi0, row["xi0"])
    elif which == "VII":
        for row in separation_table():
            if row["R"] not in grid or row["label"].n != 0 \
                    or row["label"].lam != 0:
                continue
            st = bank.get(row["label"], row["R"], corrected=True)
            yield _entry(which, row["label"], row["R"], st.pt_xi.A1,
                         row["A_ref"])
    else:
        name, cols = _OSCILLATOR_TABLES[which]
        for row in oscillator_table(name):
            if row["R"] not in grid:
                continue
            si = bank.get(StateLabel(0, 0, 0, +1), row["R"], corrected=True)
            for col, label, kind in cols:
                if col not in row:
                    continue
                sf = bank.get(label, row["R"], corrected=True)
                rec = oscillator_strength(kind, si, sf)
                yield _entry(which, label, row["R"], rec.f, row[col])


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twocenter",
        description="Two-center Coulomb bound states: variational solves, "
                    "independent cross-checks, corrections and transition "
                    "strengths.")
    ap.add_argument("--config", help="JSON file with default flag values")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *groups):
        """Add the flags of the named groups, then --out and --format."""
        if "state" in groups:
            p.add_argument("--state", required=True,
                           help="label '(n,m,lam,+-)' or name like 1ssg")
        if "grid" in groups:
            p.add_argument("--R", type=float)
            p.add_argument("--R-grid", dest="R_grid",
                           help="start:stop:step (inclusive)")
        if "quad" in groups:
            p.add_argument("--quad-N", dest="quad_N", type=int, default=None)
        if "precision" in groups:
            p.add_argument("--precision", choices=("standard", "extended"),
                           default="standard")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("optimize", help="variational solve")
    common(p, "state", "grid", "quad", "precision")
    p.add_argument("--store", action="store_true",
                   help="persist parameters under TWOCENTER_DATA_DIR")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("oracle", help="independent bispectral solve")
    common(p, "state", "grid")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("pt", help="first-order corrections")
    common(p, "state", "grid", "quad")
    p.add_argument("--emit-tables", metavar="PREFIX",
                   help="write (xi, phi1 or r)/(eta, rho1) CSV tables")
    p.set_defaults(func=cmd_pt)

    p = sub.add_parser("transitions", help="oscillator strengths")
    common(p, "grid", "quad")
    p.add_argument("--kind", required=True, choices=("E1", "B1", "E2"))
    p.add_argument("--final", required=True)
    p.add_argument("--initial", default="1ssg")
    p.add_argument("--plain", action="store_true",
                   help="use uncorrected wavefunctions")
    p.set_defaults(func=cmd_transitions)

    p = sub.add_parser("united-atom", help="R -> 0 limit data")
    common(p, "state")
    p.add_argument("--probe", action="store_true",
                   help="run the oracle along a shrinking R sequence")
    p.set_defaults(func=cmd_united_atom)

    p = sub.add_parser("reproduce-tables", help="regenerate references")
    p.add_argument("--which", required=True,
                   help="comma list of table ids (I,II,V,VI,VII,VIII,IX,X)")
    p.add_argument("--grid", default="paper",
                   help="'paper' or comma list of R values")
    common(p, "quad")
    p.set_defaults(func=cmd_reproduce)
    return ap


def _config_tokens(path: str) -> list[str]:
    """A JSON config file's entries as flag tokens: "--key=value", or
    "--key" for a switch set to true."""
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}", 4) from None
    except json.JSONDecodeError as exc:
        raise CliError(f"bad config JSON: {exc}", 2) from None
    if not isinstance(overrides, dict):
        raise CliError("config must be a JSON object", 2)
    bad = [k for k, v in overrides.items()
           if v is False or not isinstance(v, (int, float, str))]
    if bad:
        raise CliError(f"config values of {bad} must be strings, numbers "
                       "or true", 2)
    return [f"--{k.replace('_', '-')}" + ("" if v is True else f"={v}")
            for k, v in overrides.items()]


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # --config is read first, so that the file can supply required flags
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    try:
        if config:
            # per the interface contract the config file wins over flags:
            # its entries are parsed after the command line
            argv = argv + _config_tokens(config)
        args = ap.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParamDomainError, ValueError, UnsupportedStateError,
            UntabulatedLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, OracleConvergenceError,
            RadialRootError) as exc:  # numerical non-convergence
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
