"""Benchmark of the twocenter package: one workload per invocation.

    python3 perfbench/run.py --workload {solve,scan,oracle,correct}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
`src/` directory, in one process and one thread (BLAS pinned to one
thread, string hashing unsalted).  A run sets up the workload, then repeats passes over its items
until S seconds have gone (at least one pass), checks every result
against the bundled reference tables and against the previous run of the
same code, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb, pass_frac, worst_tol_ratio).  With --trace 1 the passes
run under the tracer of layers.py and the metrics are the per-layer
ones, with the tracing overhead against the last untraced run of the
same code (the run makes untraced passes first when there is none).  The
line before the result is a JSON report: versions, core count, commit,
seed, src line count, raw times, every failing item by name and why, and
the ungated cells with their deviations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = Path(__file__).resolve().parent / ".state"
SETUP_SAMPLES = 3

# What a fresh process does before the first item: interpreter start,
# imports (the CLI pulls in every module) and reference loading.
CHILD_SETUP = """
import sys
sys.path.insert(0, sys.argv[1])
import twocenter, twocenter.cli
from twocenter import reference
if not twocenter.__file__.startswith(sys.argv[1]):
    raise SystemExit("imported twocenter from outside the checkout")
for which in ("1ssg", "2psu", "lam12", "node"):
    reference.energy_table(which)
reference.separation_table()
for kind in ("e1", "b1", "e2"):
    reference.oscillator_table(kind)
"""

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "pass_frac": "ratio", "worst_tol_ratio": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve", "scan", "oracle", "correct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def bootstrap() -> str | None:
    """Pin BLAS to one thread and import the package, CLI included, from
    the checkout's src/.  Returns an error message, or None."""
    if not (SRC / "twocenter" / "__init__.py").is_file():
        return (f"no package source under {SRC}; run from a checkout of "
                "the repository")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import twocenter
    import twocenter.cli  # noqa: F401  (part of set-up, as for a CLI user)

    if not twocenter.__file__.startswith(str(SRC)):
        return f"twocenter imported from {twocenter.__file__}, not from {SRC}"
    return None


def code_fingerprint() -> str:
    """Hash of the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts
                   and ".egg-info" not in str(p))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def src_lines() -> dict:
    pkg = SRC / "twocenter"
    lines = {p.name: len(p.read_text().splitlines())
             for p in pkg.glob("*.py")}
    table = lines.pop("_preset_data.py", 0)
    return {"src_lines": sum(lines.values()), "preset_table_lines": table}


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter to its end of set-up."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_SETUP, str(SRC)], check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - t0


def timed_passes(workload, seconds: float):
    """Passes until `seconds` have gone (at least one): times, outcomes."""
    import gc

    times, passes = [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter()
        outcomes = workload.run_pass()
        times.append(perf_counter() - t0)
        passes.append(outcomes)
    return times, passes


def merge_passes(passes) -> dict:
    """name -> Outcome, marking items whose values differ between passes."""
    items = {}
    for outcomes in passes:
        for o in outcomes:
            first = items.setdefault(o.name, o)
            if first is not o and first.fingerprint() != o.fingerprint():
                first.mismatch = "values differ between passes of one run"
            if o.failed and not first.failed:
                items[o.name] = o
    return items


def load_state(workload: str, code: str) -> dict:
    """The record of the previous run of this workload on the same code
    (item fingerprints, and wall_s of the last untraced run), or {}."""
    try:
        prev = json.loads((STATE_DIR / f"{workload}.json").read_text())
    except (OSError, ValueError):
        return {}
    return prev if prev.get("code") == code else {}


def check_determinism(previous: dict, items: dict) -> str:
    """Mark every item whose values differ from the previous run."""
    if not previous:
        return "no previous run of this code"
    status = "matches previous run"
    for name, fp in previous.items():
        o = items.get(name)
        if o is not None and o.fingerprint() != fp:
            o.mismatch = f"previous run gave {fp}, this run {o.fingerprint()}"
            status = "differs from previous run"
    return status


def save_state(workload: str, doc: dict) -> None:
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{workload}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing is salted per process, which moves the speed of
        # dict-heavy code by a few percent from run to run; fix the salt
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *sys.argv[1:]])
    error = bootstrap()
    if error is not None:
        sys.stderr.write(error + "\n")
        return 2
    import numpy
    import scipy

    import layers
    from gate import worst_ratio
    from workloads import KNOWN_FAILURES, WORKLOADS

    code = code_fingerprint()
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "code": code, **src_lines(),
    }

    prev = load_state(args.workload, code)
    samples = [setup_sample()
               for _ in range(SETUP_SAMPLES if not args.trace else 0)]
    workload = WORKLOADS[args.workload](args.seed)
    t0 = perf_counter()
    workload.setup()
    setup_work = perf_counter() - t0

    # a traced run measures its overhead against the last untraced run of
    # the same code when there is one, instead of repeating its passes
    passes = []
    if not (args.trace and "wall_s" in prev):
        times, passes = timed_passes(workload, args.seconds)
        wall = statistics.median(times)
        setup = statistics.median(samples) + setup_work if samples else None
        report = {"wall_s_per_pass": times, "setup_samples_s": samples,
                  "setup_work_s": setup_work,
                  "untraced": {"wall_s": wall, "setup_s": setup}}
    else:
        wall = prev["wall_s"]
        report = {"untraced": {"wall_s": wall, "from": "previous run"}}
    if args.trace:
        tracer = layers.Tracer()
        with tracer:
            ttimes, tpasses = timed_passes(workload, args.seconds)
        passes += tpasses
        metrics = tracer.layer_metrics(len(ttimes))
        metrics["trace.overhead_frac"] = statistics.median(ttimes) / wall - 1.0
        report["traced_wall_s_per_pass"] = ttimes
        report["layers"] = metrics
    report["meta"] = meta

    items = merge_passes(passes)
    report["determinism"] = check_determinism(prev.get("items", {}), items)
    if report["determinism"] != "differs from previous run":
        save_state(args.workload, {
            "code": code, "wall_s": wall,
            "items": {name: o.fingerprint() for name, o in items.items()}})
    failed = {name: o for name, o in items.items() if o.failed}
    unexpected = [n for n, o in failed.items()
                  if n not in KNOWN_FAILURES or o.mismatch is not None]
    report["failures"] = {n: o.reasons() for n, o in failed.items()}
    report["unexpected_failures"] = unexpected
    report["ungated"] = {o.name: [c.describe() for c in o.checks
                                  if not c.gated]
                         for o in items.values()
                         if any(not c.gated for c in o.checks)}
    attempted = len(items)

    if not args.trace:
        worst = worst_ratio(items.values())
        metrics = {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - len(failed)) / attempted,
            # no gated value at all: report a huge finite ratio
            "worst_tol_ratio": worst if math.isfinite(worst) else 1e300,
        }
        units = E2E_UNITS
    else:
        units = layers.LAYER_UNITS

    print(json.dumps({"report": report}, sort_keys=True))
    for name, reasons in report["failures"].items():
        print(f"FAIL {name}: {'; '.join(reasons)}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
