"""Per-module tracing by wrapping the package's public functions.

A Tracer replaces every public function binding in the traced modules
(and every public method of the classes they define) with a timing
wrapper, and puts each binding back on exit.  A name imported with
`from .x import f` is a separate binding in the importing module, so
`quadrature.xi_channel`, `variational.rayleigh_quotient` and the like are
wrapped one by one; calls inside a module go through its own globals and
are wrapped too.

For every call the wrapper records the inclusive time of the function,
and charges the defining module with the call's self time: its duration
minus the time spent in wrapped calls beneath it.  Time in numpy, scipy
and unwrapped helpers counts as self time of the module that called them.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Modules whose public functions are wrapped, lowest layer first.
TRACED = ("model", "trial", "quadrature", "variational", "presets",
          "nonlinearization", "states", "transitions", "oracle",
          "united_atom")

# Modules whose self time is reported.
REPORTED = ("trial", "quadrature", "variational", "nonlinearization",
            "states", "transitions", "oracle", "united_atom")


def _state_class(args, kwargs) -> str:
    label = args[0] if args else kwargs["label"]
    if label.n == 1:
        return "node"
    return "sigma" if label.lam == 0 else "pi_delta"


def _transition_kind(args, kwargs) -> str:
    return (args[0] if args else kwargs["kind"]).upper()


def _seeded(args, kwargs) -> str:
    seed = args[2] if len(args) > 2 else kwargs.get("E_seed")
    return "cold" if seed is None else "seeded"


# function key -> how to split its per-call times into classes
SPLITS = {
    "variational.optimize_state": _state_class,
    "transitions.oscillator_strength": _transition_kind,
    "oracle.solve_bispectral": _seeded,
}

# function key -> (counter, attribute of the returned object to add up)
RESULT_COUNTERS = {
    "variational.optimize_state": ("variational.evaluations", "evaluations"),
    "oracle.solve_bispectral": ("oracle.bracket_iterations",
                                "bracket_iterations"),
}


def bindings() -> list:
    """(owner, attribute, function key) of every binding to wrap."""
    out = []
    for modname in TRACED:
        mod = sys.modules[f"twocenter.{modname}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith(
                    "twocenter."):
                short = obj.__module__.rpartition(".")[2]
                if short in TRACED:
                    out.append((mod, attr, f"{short}.{obj.__name__}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, fn in vars(obj).items():
                    if not mattr.startswith("_") and inspect.isfunction(fn):
                        out.append((obj, mattr,
                                    f"{modname}.{obj.__name__}.{mattr}"))
    return out


class Tracer:
    """Context manager: wraps on entry, restores every binding on exit."""

    def __init__(self):
        self.calls = defaultdict(int)        # function key -> calls
        self.returned = defaultdict(int)     # function key -> normal returns
        self.binding_returns = defaultdict(int)  # "owner.attr" -> returns
        self.total = defaultdict(float)      # function key -> inclusive s
        self.self_s = defaultdict(float)     # module -> self s
        self.split = defaultdict(list)       # "key.class" -> per-call s
        self.counters = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, fn, key: str, binding: str):
        module = key.partition(".")[0]
        stack, split = self._stack, SPLITS.get(key)
        counter = RESULT_COUNTERS.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.self_s[module] += dt - child
                self.calls[key] += 1
                self.total[key] += dt
                if ok:
                    self.returned[key] += 1
                    self.binding_returns[binding] += 1
                    if counter is not None:
                        self.counters[counter[0]] += getattr(out, counter[1])
                if split is not None:
                    self.split[f"{key}.{split(args, kwargs)}"].append(dt)

        return traced

    def __enter__(self):
        found = bindings()
        self._saved = [(owner, attr, vars(owner)[attr])
                       for owner, attr, _ in found]
        try:
            for owner, attr, key in found:
                name = getattr(owner, "__name__", str(owner)).rpartition(".")[2]
                setattr(owner, attr,
                        self._wrap(vars(owner)[attr], key, f"{name}.{attr}"))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    # ------------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass, as named in BENCHMARK.json."""
        n = max(passes, 1)

        def count(key):
            return self.calls[key] / n

        def mean(key, scale):
            c = self.calls[key]
            return self.total[key] / c * scale if c else 0.0

        def median(key, scale=1.0):
            xs = self.split.get(key)
            return statistics.median(xs) * scale if xs else 0.0

        m = {f"{mod}.self_s": self.self_s[mod] / n for mod in REPORTED}
        evals = self.counters["variational.evaluations"]
        optimizes = self.returned["variational.optimize_state"]
        # every optimize_state makes one final Rayleigh quotient outside
        # its objective; the rest were objective evaluations that got one
        reached = self.binding_returns["variational.rayleigh_quotient"] \
            - optimizes
        m.update({
            "variational.evaluations": evals / n,
            "variational.rejected_frac":
                max(evals - reached, 0) / evals if evals else 0.0,
            "variational.optimize_s.sigma":
                median("variational.optimize_state.sigma"),
            "variational.optimize_s.pi_delta":
                median("variational.optimize_state.pi_delta"),
            "variational.optimize_s.node":
                median("variational.optimize_state.node"),
            "variational.solve_node.calls": count("variational.solve_node"),
            "variational.solve_node_s": self.total["variational.solve_node"] / n,
            "quadrature.rayleigh_quotient.calls":
                count("quadrature.rayleigh_quotient"),
            "quadrature.rayleigh_quotient_us":
                mean("quadrature.rayleigh_quotient", 1e6),
            "quadrature.channel_moments_us":
                mean("quadrature.channel_moments", 1e6),
            "quadrature.build_rules.calls": count("quadrature.build_rules"),
            "quadrature.build_rules_s":
                self.total["quadrature.build_rules"] / n,
            "trial.xi_channel.calls": count("trial.xi_channel"),
            "trial.xi_channel_us": mean("trial.xi_channel", 1e6),
            "trial.eta_channel.calls": count("trial.eta_channel"),
            "trial.eta_channel_us": mean("trial.eta_channel", 1e6),
            "nonlinearization.first_correction_xi_ms":
                mean("nonlinearization.first_correction_xi", 1e3),
            "nonlinearization.first_correction_eta_ms":
                mean("nonlinearization.first_correction_eta", 1e3),
            "nonlinearization.node_correction_xi_ms":
                mean("nonlinearization.node_correction_xi", 1e3),
            "states.attach_corrections_ms":
                mean("states.attach_corrections", 1e3),
            "states.norm_squared.calls":
                count("states.SolvedState.norm_squared"),
            "transitions.oscillator_strength_ms.E1":
                median("transitions.oscillator_strength.E1", 1e3),
            "transitions.oscillator_strength_ms.B1":
                median("transitions.oscillator_strength.B1", 1e3),
            "transitions.oscillator_strength_ms.E2":
                median("transitions.oscillator_strength.E2", 1e3),
            "oracle.solve_bispectral_s.seeded":
                median("oracle.solve_bispectral.seeded"),
            "oracle.solve_bispectral_s.cold":
                median("oracle.solve_bispectral.cold"),
            "oracle.bracket_iterations":
                self.counters["oracle.bracket_iterations"] / n,
            "oracle.radial_solution.calls": count("oracle.radial_solution"),
            "oracle.radial_solution_ms": mean("oracle.radial_solution", 1e3),
            "oracle.angular_eigenvalue_us":
                mean("oracle.angular_eigenvalue", 1e6),
            "united_atom.limit_convergence_probe_s":
                self.total["united_atom.limit_convergence_probe"] / n,
        })
        return m


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    **{f"{mod}.self_s": "s" for mod in REPORTED},
    "variational.evaluations": "count",
    "variational.rejected_frac": "ratio",
    "variational.optimize_s.sigma": "s",
    "variational.optimize_s.pi_delta": "s",
    "variational.optimize_s.node": "s",
    "variational.solve_node.calls": "count",
    "variational.solve_node_s": "s",
    "quadrature.rayleigh_quotient.calls": "count",
    "quadrature.rayleigh_quotient_us": "us",
    "quadrature.channel_moments_us": "us",
    "quadrature.build_rules.calls": "count",
    "quadrature.build_rules_s": "s",
    "trial.xi_channel.calls": "count",
    "trial.xi_channel_us": "us",
    "trial.eta_channel.calls": "count",
    "trial.eta_channel_us": "us",
    "nonlinearization.first_correction_xi_ms": "ms",
    "nonlinearization.first_correction_eta_ms": "ms",
    "nonlinearization.node_correction_xi_ms": "ms",
    "states.attach_corrections_ms": "ms",
    "states.norm_squared.calls": "count",
    "transitions.oscillator_strength_ms.E1": "ms",
    "transitions.oscillator_strength_ms.B1": "ms",
    "transitions.oscillator_strength_ms.E2": "ms",
    "oracle.solve_bispectral_s.seeded": "s",
    "oracle.solve_bispectral_s.cold": "s",
    "oracle.bracket_iterations": "count",
    "oracle.radial_solution.calls": "count",
    "oracle.radial_solution_ms": "ms",
    "oracle.angular_eigenvalue_us": "us",
    "united_atom.limit_convergence_probe_s": "s",
    "trace.overhead_frac": "ratio",
}
