"""Correctness gate: item outcomes checked against the bundled tables.

Every benchmark item produces an Outcome: the full-precision values it
computed (compared run to run by the determinism check) and the Checks
that hold those values against a reference cell, with the rule and
tolerance the acceptance suite applies to that cell.  An item fails when
it raised, when a gated check is outside its tolerance, or when its
values differ from an earlier run of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Check:
    """One computed quantity against one reference value."""

    quantity: str
    value: float
    reference: float
    tol: float
    relative: bool = False
    gated: bool = True

    @property
    def deviation(self) -> float:
        d = self.value - self.reference
        return d / abs(self.reference) if self.relative else d

    @property
    def ratio(self) -> float:
        """|deviation| / tolerance; NaN when the value is not finite."""
        return abs(self.deviation) / self.tol

    @property
    def ok(self) -> bool:
        return self.ratio <= 1.0  # False for NaN

    def describe(self) -> str:
        kind = "rel" if self.relative else "abs"
        return (f"{self.quantity}={float(self.value)!r} "
                f"ref={self.reference!r} "
                f"{kind} dev={self.deviation:.3e} tol={self.tol:g} "
                f"ratio={self.ratio:.3g}")


def closest_column(quantity: str, value: float, refs: list[float],
                   tol: float) -> Check:
    """Relative check against whichever of several printed columns the
    value agrees with best (the two-column E1 rule)."""
    return min((Check(quantity, value, r, tol, relative=True) for r in refs),
               key=lambda c: c.ratio)


@dataclass
class Outcome:
    """Result of one benchmark item in one pass."""

    name: str
    values: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    error: str | None = None
    mismatch: str | None = None
    payload: object = None  # result handed to dependent items; not compared

    @property
    def failed(self) -> bool:
        return (self.error is not None or self.mismatch is not None
                or any(c.gated and not c.ok for c in self.checks))

    def reasons(self) -> list[str]:
        out = []
        if self.error is not None:
            out.append(f"raised {self.error}")
        if self.mismatch is not None:
            out.append(f"nondeterministic: {self.mismatch}")
        out += [c.describe() for c in self.checks if c.gated and not c.ok]
        return out

    def fingerprint(self) -> dict:
        """Values at full precision, as compared between runs."""
        return {"values": {k: repr(float(v) if isinstance(v, float) else v)
                           for k, v in sorted(self.values.items())},
                "error": self.error}


def attempt(name: str, fn) -> Outcome:
    """Run one item; an exception becomes a failed Outcome of that item."""
    try:
        return fn()
    except Exception as exc:  # every item failure is recorded, none aborts
        return Outcome(name, error=f"{type(exc).__name__}: {exc}")


def worst_ratio(outcomes) -> float:
    """Largest |deviation|/tolerance over gated checks that returned a
    finite value (math.inf when there is none)."""
    ratios = [c.ratio for o in outcomes for c in o.checks
              if c.gated and math.isfinite(c.ratio)]
    return max(ratios) if ratios else math.inf
