"""Self-test of the benchmark harness (about 5 s).

    python3 perfbench/selftest.py

Shows three things on real package results: the correctness gate flags a
result perturbed past its tolerance (and passes it inside), an item that
raises counts as a failed item, and the trace wrappers put every wrapped
module binding back as they found it, on a normal exit and on an
exception, without changing any result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import sys

import run


def check(what: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def test_gate_flags_perturbation(workloads):
    from twocenter import variational
    from twocenter.model import PhysicalSetup

    label, R = workloads.GS, 2.0
    ref = workloads.energy_refs()[(label, R)]
    res = variational.optimize_state(label, PhysicalSetup(R),
                                     workloads.presets.seed_for(label, R))
    tol = workloads.energy_tol(label, R)

    def gated(shift):
        energy = dataclasses.replace(res.energy,
                                     E_total=res.energy.E_total + shift)
        moved = dataclasses.replace(res, energy=energy)
        checks = workloads.energy_checks(label, R, moved, ref)
        return workloads.Outcome("solve 1ssg R=2", {}, checks)

    check("gate passes the solved 1ssg R=2 energy", not gated(0.0).failed)
    dev = res.energy.E_total - ref["E"]
    check("gate flags the energy moved 1.5 tolerances",
          gated(1.5 * tol - dev).failed)
    check("gate flags the energy moved -1.5 tolerances",
          gated(-1.5 * tol - dev).failed)
    check("gate flags a NaN energy", gated(float("nan")).failed)
    ratio = workloads.Check("f", 1.0 + 3e-6, 1.0, 2e-6, relative=True)
    check("relative check flags 3e-6 against 2e-6", not ratio.ok)
    ungated = workloads.Check("f", 2.0, 1.0, 2e-6, True, gated=False)
    check("an ungated cell does not fail its item",
          not workloads.Outcome("x", {}, [ungated]).failed)


def test_raising_item_fails(workloads):
    from twocenter import oracle

    w = workloads.Oracle(seed=0)
    w.setup()
    original = oracle.solve_bispectral

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    oracle.solve_bispectral = boom
    try:
        outcome = w._solve(workloads.GS, 2.0)
    finally:
        oracle.solve_bispectral = original
    check("a raising item comes back as a failed outcome",
          outcome.failed and "injected" in outcome.error)
    items = run.merge_passes([[outcome]])
    check("the raising item counts as failed", items[outcome.name].failed)


def test_trace_restores_bindings(workloads):
    import layers
    from twocenter import quadrature, variational
    from twocenter.model import PhysicalSetup

    before = {(id(owner), attr): vars(owner)[attr]
              for owner, attr, _ in layers.bindings()}
    check("the tracer finds the cross-module bindings",
          all(any(getattr(o, "__name__", "").endswith(m) and a == f
                  for o, a, _ in layers.bindings())
              for m, f in (("quadrature", "xi_channel"),
                           ("variational", "rayleigh_quotient"),
                           ("states", "first_correction_xi"),
                           ("oracle", "radial_solution"))))

    label, R = workloads.GS, 2.0
    seed = workloads.presets.seed_for(label, R)
    rules = quadrature.build_rules(seed.p, 64)
    plain = quadrature.rayleigh_quotient(seed, label, PhysicalSetup(R), rules)

    def unchanged():
        return all(vars(owner)[attr] is before[(id(owner), attr)]
                   for owner, attr, _ in layers.bindings())

    tracer = layers.Tracer()
    with tracer:
        check("bindings are wrapped inside the tracer", not unchanged())
        traced = variational.rayleigh_quotient(seed, label, PhysicalSetup(R),
                                               rules)
    check("every binding restored after a normal exit", unchanged())
    check("tracing leaves the result bit-identical",
          repr(plain.E_total) == repr(traced.E_total))
    m = tracer.layer_metrics(1)
    check("the traced call is charged to quadrature and trial",
          m["quadrature.rayleigh_quotient.calls"] == 1
          and m["quadrature.self_s"] > 0 and m["trial.self_s"] > 0)

    try:
        with layers.Tracer():
            raise KeyError("injected")
    except KeyError:
        pass
    check("every binding restored after an exception", unchanged())


def main() -> int:
    error = run.bootstrap()
    if error is not None:
        sys.stderr.write(error + "\n")
        return 2
    import workloads

    test_gate_flags_perturbation(workloads)
    test_raising_item_fails(workloads)
    test_trace_restores_bindings(workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
