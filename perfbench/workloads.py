"""The four benchmark workloads and their items.

Each workload is a list of phases; a phase is a list of independent
groups, and a group is a callable returning the Outcomes of the items it
runs in a fixed order (a single-node state after the nodeless state it is
orthogonalized against).  The workload seed shuffles the groups inside
each phase, never the items inside a group, so a result that depends on
item order shows up as a determinism mismatch between seeds.

Items call only the package's public functions, through their module
attributes, so the traced run sees every call (see layers.py).
"""

from __future__ import annotations

import random
import warnings

from twocenter import (model, oracle, presets, reference, states, transitions,
                       united_atom, variational)
from twocenter.model import PhysicalSetup, StateLabel

from gate import Check, Outcome, attempt, closest_column

GS = StateLabel(0, 0, 0, +1)   # 1ssg
US = StateLabel(0, 0, 0, -1)   # 2psu
PU = StateLabel(0, 0, 1, +1)   # 2ppu
DG = StateLabel(0, 0, 1, -1)   # 3dpg
DD = StateLabel(0, 0, 2, +1)   # 3ddg
SG2 = StateLabel(1, 0, 0, +1)  # 2ssg
SU3 = StateLabel(1, 0, 0, -1)  # 3psu

# Items that fail on the code this benchmark was defined against: the
# warm-started 2psu scan lands in false minima (and at R = 20 leaves the
# parameter domain).  They are counted in `failed` like any other failure;
# being listed here only keeps them from marking the run incorrect.  An
# item outside this list that fails marks the run incorrect.
KNOWN_FAILURES = {
    "scan 2psu R=1.997193", "scan 2psu R=2", "scan 2psu R=10",
    "scan 2psu R=12.54525", "scan 2psu R=20",
}


def name_of(label: StateLabel) -> str:
    return model.united_atom_designation(label)


def item_name(kind: str, label: StateLabel, R: float) -> str:
    return f"{kind} {name_of(label)} R={R:.10g}"


def energy_tol(label: StateLabel, R: float) -> float:
    """Acceptance tolerance of a tabulated energy cell (Ry)."""
    if label in (GS, US):
        return 5e-9 if R == 50.0 else 5e-10
    return 5e-9


def energy_refs() -> dict:
    """(label, R) -> reference row, over all four energy tables."""
    refs = {}
    for which in ("1ssg", "2psu", "lam12", "node"):
        for row in reference.energy_table(which):
            refs[(row["label"], row["R"])] = row
    return refs


def gated_energy_points() -> list:
    """(label, R) of acceptance criteria 1-4, in table order."""
    pts = [(GS, R) for R in (1.0, 2.0, 6.0, 10.0, 50.0)]
    pts += [(US, R) for R in (1.0, 4.0, 10.0, 20.0)]
    pts += [(r["label"], r["R"]) for r in reference.energy_table("lam12")
            if r["R"] in (4.0, 6.0, 10.0) and r["neg_explicit"]]
    pts += [(r["label"], r["R"]) for r in reference.energy_table("node")
            if r["R"] in (4.0, 10.0)]
    return pts


def params_values(params) -> dict:
    d = {k: getattr(params, k) for k in
         ("alpha", "gamma", "a1", "a2", "b2", "b3", "p")}
    if params.xi0 is not None:
        d["xi0"] = params.xi0
    return d


def energy_checks(label, R, res, ref) -> list:
    checks = [Check("E", res.energy.E_total, ref["E"], energy_tol(label, R))]
    if label.n == 1:
        checks.append(Check("xi0", res.params.xi0, ref["xi0"], 1e-5))
    return checks


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Preparation beyond imports, timed as part of setup_s."""

    def phases(self) -> list:
        raise NotImplementedError

    def run_pass(self) -> list:
        outcomes = []
        for phase in self.phases():
            groups = list(phase)
            self.rng.shuffle(groups)
            for group in groups:
                outcomes += group()
        return outcomes


# ----------------------------------------------------------------------


class Solve(Workload):
    """Cold optimize_state from presets.seed_for at criteria 1-4."""

    name = "solve"

    def setup(self):
        self.refs = energy_refs()
        self.points = gated_energy_points()

    def _optimize(self, label, R, ortho=None):
        return variational.optimize_state(
            label, PhysicalSetup(R), presets.seed_for(label, R),
            ortho_ref=ortho)

    def _item(self, label, R, ortho=None) -> Outcome:
        name = item_name("solve", label, R)

        def run():
            res = self._optimize(label, R, ortho)
            vals = params_values(res.params)
            vals.update(E=res.energy.E_total, evaluations=res.evaluations)
            return Outcome(name, vals,
                           energy_checks(label, R, res, self.refs[(label, R)]),
                           payload=res)
        return attempt(name, run)

    def _node_item(self, label, R) -> Outcome:
        """Node state whose nodeless partner is not an item at this R."""
        name = item_name("solve", label, R)

        def run():
            glabel = StateLabel(0, label.m, label.lam, label.parity)
            ground = self._optimize(glabel, R)
            res = self._optimize(label, R, ground.params)
            vals = params_values(res.params)
            vals.update(E=res.energy.E_total, E_ortho=ground.energy.E_total,
                        evaluations=res.evaluations + ground.evaluations)
            return Outcome(name, vals,
                           energy_checks(label, R, res, self.refs[(label, R)]))
        return attempt(name, run)

    def phases(self):
        nodeless = [p for p in self.points if p[0].n == 0]
        node = [p for p in self.points if p[0].n == 1]
        partners = {p: (StateLabel(0, p[0].m, p[0].lam, p[0].parity), p[1])
                    for p in node}
        groups = []
        for label, R in nodeless:
            deps = [n for n in node if partners[n] == (label, R)]
            groups.append(lambda label=label, R=R, deps=deps:
                          self._group(label, R, deps))
        for label, R in node:
            if partners[(label, R)] not in nodeless:
                groups.append(lambda label=label, R=R:
                              [self._node_item(label, R)])
        return [groups]

    def _group(self, label, R, deps) -> list:
        first = self._item(label, R)
        out = [first]
        for dlabel, dR in deps:
            if first.payload is None:
                out.append(Outcome(item_name("solve", dlabel, dR),
                                   error="nodeless partner failed"))
            else:
                out.append(self._item(dlabel, dR, first.payload.params))
        first.payload = None
        return out


class Scan(Workload):
    """Warm-started scan_R over the full 1ssg and 2psu energy grids."""

    name = "scan"

    def setup(self):
        self.grids = {label: reference.energy_table(which)
                      for label, which in ((GS, "1ssg"), (US, "2psu"))}

    def _scan(self, label) -> list:
        rows = self.grids[label]
        with warnings.catch_warnings():
            # parameter-jump warnings are a symptom the energy gate reports
            warnings.simplefilter("ignore", RuntimeWarning)
            results = variational.scan_R(label, [r["R"] for r in rows])
        out = []
        for row, res in zip(rows, results):
            name = item_name("scan", label, row["R"])
            if isinstance(res, Exception):
                out.append(Outcome(name, error=f"{type(res).__name__}: {res}"))
                continue
            vals = params_values(res.params)
            vals.update(E=res.energy.E_total, evaluations=res.evaluations)
            out.append(Outcome(name, vals, energy_checks(label, row["R"], res,
                                                         row)))
        return out

    def phases(self):
        return [[lambda label=label: self._scan(label)
                 for label in self.grids]]


class Oracle(Workload):
    """Reference-seeded solve_bispectral at criterion 7's 21 points, plus
    one cold united-atom convergence probe."""

    name = "oracle"

    def setup(self):
        self.refs = energy_refs()
        self.points = gated_energy_points()

    def _solve(self, label, R) -> Outcome:
        name = item_name("oracle", label, R)
        ref = self.refs[(label, R)]

        def run():
            res = oracle.solve_bispectral(label, PhysicalSetup(R),
                                          E_seed=ref["E"])
            return Outcome(name, {"E": res.E_total, "A": res.A, "p": res.p,
                                  "brackets": res.bracket_iterations},
                           [Check("E", res.E_total, ref["E"],
                                  energy_tol(label, R))])
        return attempt(name, run)

    def _probe(self) -> Outcome:
        name = "probe 1ssg R->0"

        def run():
            probe = united_atom.limit_convergence_probe(GS)
            errs = probe["R_over_p_errors"]
            vals = {f"E@{pt.R:g}": pt.E_total for pt in probe["points"]}
            vals.update({f"A@{pt.R:g}": pt.A for pt in probe["points"]})
            # the unit-test rule: R/p -> n, errors shrinking as R -> 0
            return Outcome(name, vals, [
                Check("R/p error at R_min", errs[-1], 0.0, 0.1),
                Check("R/p error shrink", errs[-1], 0.0, errs[0])])
        return attempt(name, run)

    def phases(self):
        groups = [lambda p=p: [self._solve(*p)] for p in self.points]
        return [groups + [lambda: [self._probe()]]]


# States behind the gated cells of tables VII-X, trimmed to R = 2 (every
# table and kind) plus R = 4 for the E1 growth ratio f(4)/f(2).
CORRECT_STATES = [(GS, 2.0), (US, 2.0), (PU, 2.0), (DG, 2.0), (DD, 2.0),
                  (SU3, 2.0), (SG2, 2.0), (GS, 4.0), (US, 4.0), (SU3, 4.0)]


class Correct(Workload):
    """attach_corrections on fresh views, then every gated strength."""

    name = "correct"

    def setup(self):
        self.sep = {(r["label"], r["R"]): r for r in
                    reference.separation_table()}
        self.osc = {kind: {r["R"]: r for r in reference.oscillator_table(kind)}
                    for kind in ("e1", "b1", "e2")}
        self.bank = states.StateBank()
        order = list(CORRECT_STATES)
        self.rng.shuffle(order)
        for label, R in order:
            self.bank.get(label, R)

    def _attach(self, label, R) -> list:
        name = item_name("attach", label, R)

        def run():
            view = self.bank.get(label, R)
            states.attach_corrections(view)
            self.views[(label, R)] = view
            A_xi = view.node.A1 if view.node is not None else view.pt_xi.A1
            A_eta = view.pt_eta.A1
            vals = {"A1_xi": A_xi, "A1_eta": A_eta}
            if view.node is not None:
                vals.update(f1=view.node.f1, c1=view.node.c1)
            ref = self.sep[(label, R)]["A_ref"]
            gated = label in (GS, US) and R == 2.0  # criterion 5's cells
            checks = [Check("A1_xi", A_xi, ref, 1e-7, True, gated),
                      Check("A1_eta", A_eta, ref, 1e-7, True, gated),
                      Check("A1_xi-A1_eta", A_xi - A_eta, 0.0,
                            1e-7 * abs(ref), False, gated)]
            return Outcome(name, vals, checks)
        return [attempt(name, run)]

    def _strength(self, kind, final, R) -> float:
        si, sf = self.views.get((GS, R)), self.views.get((final, R))
        if si is None or sf is None:
            raise RuntimeError("a state of the pair has no corrections")
        return transitions.oscillator_strength(kind, si, sf).f

    def _pair(self, kind, final, R, make_checks) -> list:
        name = f"{kind} 1ssg->{name_of(final)} R={R:.10g}"

        def run():
            f = self._strength(kind, final, R)
            return Outcome(name, {"f": f}, make_checks(f))
        return [attempt(name, run)]

    def _growth(self) -> list:
        name = "E1 1ssg->3psu f(4)/f(2)"

        def run():
            f2 = self._strength("E1", SU3, 2.0)
            f4 = self._strength("E1", SU3, 4.0)
            e1 = self.osc["e1"]
            return Outcome(name, {"f2": f2, "f4": f4}, [
                Check("f_3psu(2)", f2, e1[2.0]["f_3psu"], 2e-6, True, False),
                Check("f_3psu(4)", f4, e1[4.0]["f_3psu"], 2e-6, True, False),
                Check("f4/f2", f4 / f2, 19.57, 0.1)])
        return [attempt(name, run)]

    def phases(self):
        self.views = {}
        attach = [lambda k=k: self._attach(*k) for k in CORRECT_STATES]
        e1, b1, e2 = (self.osc[k][2.0] for k in ("e1", "b1", "e2"))
        pairs = [
            lambda: self._pair("E1", PU, 2.0, lambda f: [closest_column(
                "f_2ppu", f, [e1["f_2ppu"], e1["f_2ppu_ext"]], 2e-6)]),
            lambda: self._pair("B1", DG, 2.0, lambda f: [
                Check("f_3dpg", f, b1["f_3dpg"], 5e-6, True),
                Check("external", f, b1["external"], 5e-3, True)]),
            self._growth,
        ]
        for label, col in ((DG, "f_3dpg"), (DD, "f_3ddg"), (SG2, "f_2ssg")):
            pairs.append(lambda label=label, col=col: self._pair(
                "E2", label, 2.0,
                lambda f: [Check(col, f, e2[col], 5e-6, True)]))
        return [attach, pairs]


WORKLOADS = {w.name: w for w in (Solve, Scan, Oracle, Correct)}
