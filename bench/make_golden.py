"""Recompute bench/golden.json from the checkout's cohaut.

    python3 bench/make_golden.py [--out bench/golden.json]

Run it only when the program's outputs are meant to change: the benchmark
counts every difference from this file as a failed operation.  Takes about
two minutes on one core, most of it the query dimensions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import product

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from cohaut import cli, corpus, diagsolve  # noqa: E402
from cohaut.cohomology import cohomology  # noqa: E402
from cohaut.whitehead import build_wes, check_exactness  # noqa: E402

import workloads  # noqa: E402


def wes() -> dict:
    out = {}
    for label in workloads.Wes.MODELS:
        w = build_wes(corpus.load_builtin(label))
        report = check_exactness(w)
        if not report.ok:
            raise SystemExit(f"refusing to record a failing WES as golden:\n{report}")
        out[label] = {"checks": len(report.checks), "nodes_sha256": workloads.wes_digest(w)}
    return out


def lift_grid() -> dict:
    """Counts from the solver: grid points and how many are solutions."""
    out = {}
    for label in workloads.LiftGrid.FULL:
        system = diagsolve.extract_constraints(corpus.load_builtin(label))
        solutions = diagsolve.solve(system)
        n = lifting = 0
        for values in product(workloads.GRID, repeat=len(system.source_variables)):
            vec = diagsolve.canonical_extension(system, dict(zip(system.source_variables, values)))
            n += 1
            lifting += solutions.contains(vec)
        out[label] = {"points": n, "lifting": lifting}
    return out


def reproduce() -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(workloads.Reproduce.ARGV))
    text = buf.getvalue().encode()
    return {"exit_code": code, "bytes": len(text), "sha256": hashlib.sha256(text).hexdigest()}


def query_mix() -> dict:
    """dim H^k(M^{<=c}) for every pool query the draw can pick (null otherwise)."""
    dims: dict = {}
    for label, cutoff, k, window in workloads.query_pool(corpus):
        row = dims.setdefault(label, {}).setdefault(str(cutoff), [])
        if workloads.size_class(window) <= workloads.TOP_CLASS:
            m = corpus.load_builtin(label).truncate(cutoff)
            row.append(cohomology(m, k).dimension)
        else:
            row.append(None)
    return {"dimensions": dims}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default=os.path.join(BENCH, "golden.json"))
    args = p.parse_args()
    golden = {
        "wes": wes(),
        "lift_grid": lift_grid(),
        "reproduce": reproduce(),
        "query_mix": query_mix(),
    }
    with open(args.out, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
