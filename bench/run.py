"""cohaut benchmark runner.

    python3 bench/run.py --workload wes --seed 1 --seconds 30 --trace 0

Runs one workload for about `--seconds` seconds as a closed loop with one
caller: one child Python process at a time (bench/child.py), each a cold
start of the interpreter and of cohaut's caches, as every `cohaut` CLI call
is.  A child is started only while the run's elapsed time plus the duration
of the previous child fits in `--seconds`; at least one always runs.

Untraced (`--trace 0`) runs print the end-to-end metrics; traced runs
(`--trace 1`) pair each untraced child with a traced child on the same inputs
and print the per-layer metrics.  Every outcome is checked against
bench/golden.json.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; lines before it are a run
header and a readable summary.  The exit code is 0 only if every operation
succeeded and matched the golden data.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("wes", "lift_grid", "reproduce", "query_mix")
DEFAULT_SEED = 20090905
SETUP_CHILDREN = 4  # extra set-up-only children per untraced run
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


class HarnessError(RuntimeError):
    pass


def git_sha(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_child(args, index: int, trace: int, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--index", str(index),
        "--golden", args.golden,
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {index} exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"child {index} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(args) -> tuple[list[dict], list[dict], list[float]]:
    """Run children until the time is up.  Returns untraced passes, traced
    passes and the set-up times of every untraced child."""
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    if not args.trace:
        for i in range(SETUP_CHILDREN):
            setups.append(run_child(args, -1 - i, 0, setup_only=True)["setup_s"])
    index = 0
    while True:
        t_unit = time.monotonic()
        plain.append(run_child(args, index, 0))
        setups.append(plain[-1]["setup_s"])
        if args.trace:
            traced.append(run_child(args, index, 1))
        index += 1
        now = time.monotonic()
        if now - start + (now - t_unit) > args.seconds:
            return plain, traced, setups


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    ops_ms = [x * 1000 for p in plain for x in p["ops_s"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "op_p50_ms": percentile(ops_ms, 0.5),
        "op_p90_ms": percentile(ops_ms, 0.9),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Counts from the first traced pass (every pass of one run repeats
    them); times are medians over the traced passes."""
    out = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith("_s"):
            value = statistics.median(t["layers"][name] for t in traced)
        out[name] = value
    out["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    out["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)
    )
    return out


def units(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--golden",
        default=os.path.join(BENCH, "golden.json"),
        help="golden outputs to check against (default: bench/golden.json)",
    )
    args = p.parse_args(argv)
    args.golden = os.path.abspath(args.golden)

    if not os.path.isfile(os.path.join(ROOT, "src", "cohaut", "__init__.py")):
        print(f"error: no cohaut sources under {ROOT}/src", file=sys.stderr)
        return 2
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "loadavg_before": os.getloadavg(),
    }
    print("# run " + json.dumps(header), flush=True)
    try:
        plain, traced, setups = measure(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = plain + traced
    attempted = sum(x["attempted"] for x in passes)
    failed = sum(x["failed"] for x in passes)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    print(
        "# end "
        + json.dumps(
            {
                "loadavg_after": os.getloadavg(),
                "passes": len(plain),
                "traced_passes": len(traced),
                "setup_samples": len(setups),
                "ops": sum(len(x["ops_s"]) for x in plain),
                "pass_wall_s": [round(x["wall_s"], 4) for x in plain],
            }
        )
    )
    for x in passes:
        for msg in x["errors"]:
            print(f"# FAIL {msg}")
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {units(name)}")
    print(f"# {args.workload} fail_rate = {failed / attempted:.6g} ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
