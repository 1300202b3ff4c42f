"""Regenerate the baked optimization presets.

Runs warm-started continuation ladders over the working R grid of every
supported state, always racing the warm seed against the cold built-in
seed, and writes the converged parameter tuples to
src/twocenter/_preset_data.py.  Known reference energies are printed next
to each point so a bad bake is obvious.  Run from the repository root:

    python tools/bake_presets.py
"""

import os
import sys
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from twocenter import variational  # noqa: E402
from twocenter.model import PhysicalSetup, StateLabel  # noqa: E402
from twocenter.presets import seed_for  # noqa: E402
from twocenter.reference import energy_table  # noqa: E402
from twocenter.trial import ParamDomainError  # noqa: E402
from twocenter.variational import optimize_state, rescale_seed  # noqa: E402

# simplex steps of the polish pass, finer than the solver's own ladder
POLISH_LADDER = (0.004, 0.0008, 0.00015)

# main ladders ascend from R = 1; sub-bohr points hang off the R = 1 result
GRIDS = {
    (0, 0, 0, +1): ([1.0, 2.0, 1.997193, 4.0, 6.0, 10.0, 12.5, 20.0, 30.0,
                     40.0, 50.0], [0.5, 0.2, 0.1]),
    (0, 0, 0, -1): ([1.0, 2.0, 1.997193, 4.0, 6.0, 10.0, 12.54525, 20.0,
                     30.0, 40.0], [0.5, 0.2, 0.1]),
    (0, 0, 1, +1): ([1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 30.0, 40.0, 50.0],
                    [0.5, 0.2, 0.1]),
    (0, 0, 1, -1): ([1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0], []),
    (0, 0, 2, +1): ([1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0], []),
    (0, 0, 2, -1): ([1.0, 2.0, 6.0, 10.0], []),
    (1, 0, 0, +1): ([1.0, 2.0, 4.0, 6.0, 10.0], []),
    (1, 0, 0, -1): ([1.0, 2.0, 4.0, 6.0, 10.0], []),
}

HEADER = '''"""Baked optimization presets (generated by tools/bake_presets.py).

Converged (alpha, gamma, a1, a2, b2, b3, p) tuples keyed by
(n, m, lam, parity, R); node positions are re-derived from orthogonality
at load time, so they are not stored.
"""

BAKED = {
'''


def reference_energies() -> dict:
    refs = {}
    for which, lab in (("1ssg", None), ("2psu", None), ("lam12", None),
                       ("node", None)):
        for row in energy_table(which):
            refs[(row["label"], row["R"])] = row["E"]
    return refs


def main() -> None:
    t0 = time.time()
    refs = reference_energies()
    grounds: dict = {}
    entries = {}
    results = {}
    for key, (grid_up, grid_down) in GRIDS.items():
        n, m, lam, par = key
        label = StateLabel(n, m, lam, par)
        prev, prev_R = None, None
        for R in grid_up + grid_down:
            seeds = []
            if prev is not None and 0.05 < R / prev_R < 2.6:
                try:
                    warm = rescale_seed(prev, prev_R, R)
                    warm.validate()
                    seeds.append(warm)
                except ParamDomainError:
                    pass
            seeds.append(seed_for(label, R))
            ortho = None
            if n == 1:
                ortho = grounds[(0, m, lam, par, R)]
            best = None
            for seed in seeds:
                res = optimize_state(label, PhysicalSetup(R), seed,
                                     ortho_ref=ortho)
                if best is None or res.energy.E_total < best.energy.E_total:
                    best = res
            ref = refs.get((label, R))
            # polish pass: shrink-step ladders from the current optimum and
            # from a p-snapped variant, kept only on improvement
            for _ in range(3):
                if ref is not None and abs(best.energy.E_total - ref) < 2e-10:
                    break
                improved = False
                candidates = [best.params]
                try:
                    from twocenter.model import p_from_energy
                    snapped = best.params.replace(
                        p=p_from_energy(best.energy.E_total,
                                        PhysicalSetup(R)))
                    snapped.validate()
                    candidates.append(snapped)
                except Exception:
                    pass
                for cand in candidates:
                    with mock.patch.object(variational, "STEP_LADDER",
                                           POLISH_LADDER):
                        res = optimize_state(label, PhysicalSetup(R),
                                             cand.replace(xi0=None),
                                             ortho_ref=ortho)
                    if res.energy.E_total < best.energy.E_total - 1e-14:
                        best, improved = res, True
                if not improved:
                    break
            note = "" if ref is None else f" dref={best.energy.E_total-ref:+.2e}"
            print(f"{label} R={R:<9g} E={best.energy.E_total:+.13f} "
                  f"p={best.params.p:.9f} conv={best.converged}{note}")
            pars = best.params
            entries[key + (R,)] = (pars.alpha, pars.gamma, pars.a1, pars.a2,
                                   pars.b2, pars.b3, pars.p)
            results[key + (R,)] = best
            if n == 0:
                grounds[(0, m, lam, par, R)] = pars
            prev, prev_R = pars, R

        # descending refinement: some basins are only reached from above
        prev, prev_R = None, None
        for R in sorted(grid_up, reverse=True):
            cur = results[key + (R,)]
            if prev is not None and 0.05 < R / prev_R < 2.6:
                try:
                    seed = rescale_seed(prev, prev_R, R)
                    seed.validate()
                    ortho = grounds.get((0, m, lam, par, R)) if n == 1 else None
                    res = optimize_state(label, PhysicalSetup(R), seed,
                                         ortho_ref=ortho)
                    if res.energy.E_total < cur.energy.E_total - 1e-14:
                        ref = refs.get((label, R))
                        note = ("" if ref is None
                                else f" dref={res.energy.E_total-ref:+.2e}")
                        print(f"  descend improves {label} R={R:<9g} "
                              f"E={res.energy.E_total:+.13f}{note}")
                        cur = res
                        pars = res.params
                        entries[key + (R,)] = (pars.alpha, pars.gamma,
                                               pars.a1, pars.a2, pars.b2,
                                               pars.b3, pars.p)
                        results[key + (R,)] = res
                        if n == 0:
                            grounds[(0, m, lam, par, R)] = pars
                except ParamDomainError:
                    pass
            prev, prev_R = cur.params, R
    out = os.path.join(os.path.dirname(__file__), "..", "src", "twocenter",
                       "_preset_data.py")
    with open(out, "w") as fh:
        fh.write(HEADER)
        for key in sorted(entries):
            vals = entries[key]
            fh.write(f"    {key!r}: (\n")
            fh.write("        " + ", ".join(f"{v!r}" for v in vals[:4]) + ",\n")
            fh.write("        " + ", ".join(f"{v!r}" for v in vals[4:]) + ",\n")
            fh.write("    ),\n")
        fh.write("}\n")
    print(f"wrote {out} ({len(entries)} entries) in {time.time()-t0:.1f}s")


if __name__ == "__main__":
    main()
