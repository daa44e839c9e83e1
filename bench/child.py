"""One pass of one workload in a fresh interpreter.

Started by run.py; imports cohaut from the checkout's `src`, runs the
workload's setup and body once, and prints one JSON object on its last line.
`--t0` is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so `setup_s` covers interpreter start and `import cohaut`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def layer_metrics(tr, extra: dict, poincare) -> dict:
    """Per-layer metrics of one traced pass (times in s, the rest counts)."""
    calls, counts, self_s = tr.calls, tr.counts, tr.self_s
    queries = calls["cohomology.cohomology"]
    lifts = calls["coherence.try_lift"]
    top = max((k for _, k in tr.queried), default=0)
    series: dict = {}
    basis_monomials = 0
    for m, k in tr.queried:
        if m not in series:
            series[m] = poincare(m.generators, top)
        basis_monomials += series[m][k]
    return {
        "cohomology.self_s": tr.layer_self_s("cohomology"),
        "cohomology.queries": queries,
        "cohomology.distinct_queries": len(tr.queried),
        "cohomology.distinct_ratio": len(tr.queried) / queries if queries else 0.0,
        "cohomology.complexes": calls["cohomology._Complex.__init__"],
        "cohomology.basis_monomials": basis_monomials,
        "cohomology.class_of_calls": calls["cohomology.CohomologyBasis.class_of"],
        "cohomology.preimage_calls": calls["cohomology.solve_coboundary"],
        "linalg.self_s": tr.layer_self_s("linalg"),
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_entries": counts["linalg.rref_entries"],
        "linalg.nullspace_calls": calls["linalg.nullspace"],
        "linalg.solve_calls": calls["linalg.solve"],
        "linalg.lattice_calls": calls["linalg.smith_normal_form"]
        + calls["linalg.kernel_z"]
        + calls["linalg.integer_solve"],
        "linalg.f2_calls": calls["linalg.rref_f2"]
        + calls["linalg.nullspace_f2"]
        + calls["linalg.solve_f2"],
        "whitehead.nodes": counts["whitehead.nodes"],
        "whitehead.checks": counts["whitehead.checks"],
        "whitehead.build_self_s": self_s["whitehead.build_wes"],
        "whitehead.check_self_s": self_s["whitehead.check_exactness"],
        "algebra.self_s": tr.layer_self_s("algebra"),
        "algebra.multiply_calls": calls["algebra.multiply"],
        "model.self_s": tr.layer_self_s("model"),
        "model.d_calls": calls["model.SullivanModel.d"],
        "model.truncate_calls": calls["model.SullivanModel.truncate"],
        "model.morphism_checks": calls["model.CochainMorphism.__init__"],
        "coherence.self_s": tr.layer_self_s("coherence"),
        "coherence.lifts": lifts,
        "coherence.stages": counts["coherence.stages"],
        "coherence.ok_ratio": counts["coherence.ok"] / lifts if lifts else 0.0,
        "diagsolve.extract_self_s": self_s["diagsolve.extract_constraints"],
        "diagsolve.solve_self_s": self_s["diagsolve.solve"],
        "diagsolve.lift_verify_self_s": self_s["diagsolve.lift_verify"],
        "diagsolve.branches": counts["diagsolve.branches"],
        "cli.self_s": tr.layer_self_s("cli"),
        "cli.json_bytes": extra.get("cli.json_bytes", 0),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, required=True, help="pass number within the run")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--golden", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import cohaut
    import cohaut.cli  # every layer is loaded before timing, as for the CLI

    if not os.path.abspath(cohaut.__file__).startswith(SRC + os.sep):
        print(f"cohaut imported from {cohaut.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    import tracer as tracing
    import workloads

    with open(args.golden) as fh:
        golden = json.load(fh)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    work = workloads.WORKLOADS[args.workload](args.seed, args.index, golden)
    work.setup()
    out: dict = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        if tr is not None:
            tr.reset()
        t0 = time.perf_counter()
        lat = work.body()
        out["wall_s"] = time.perf_counter() - t0
        out["ops_s"] = lat
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"], out["failed"], out["errors"] = work.check()
        out["wrapped"] = tracing.wrapped_functions()
        if tr is not None:
            out["layers"] = layer_metrics(tr, work.counts(), workloads.poincare)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
