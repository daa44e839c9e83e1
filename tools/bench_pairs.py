"""Alternating parent/change pairs of `bench/run.py`, recorded in one file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \\
        [--workloads wes,lift_grid,reproduce,query_mix] [--pairs 10] [--seconds 10]

PARENT and CHANGE are git revisions of this repository.  Each is exported
with `git archive` into a fresh temporary directory, `.../parent` and
`.../change`: clean copies of the committed files, in directories whose paths
have the same length, since the path length alone moves `peak_rss_mb`.  For
each workload, pair i (i = 1..pairs) runs

    python3 bench/run.py --workload W --seed i --seconds S --trace 0

once in each copy, the parent first in odd pairs and the change first in
even ones.  Before the pairs, `tools/lift_pass.py` and `tools/corpus_wes.py`
run once in each copy.  The copies are removed at the end.  Progress goes to
standard error; the exit code is 1 if any run was incorrect or failed an
operation, if the two lift passes' verdict digests differ, or if the two
corpus passes' WES digests or check counts differ.

The record (JSON, written to `--out`):

- `host`: `nproc`, `python`, `implementation`, `platform`, and the load
  average before and after all runs (`loadavg_before`, `loadavg_after`);
- `parent`, `change`: `{"rev": as given, "sha": full commit}`;
- `seconds`, `pairs`, `command` (the run.py arguments, without workload and
  seed);
- `workloads[W]`:
  - `runs`: one entry per pair, `{"seed", "first": "parent" | "change",
    "parent": run, "change": run}`, where a run is run.py's last output line
    (`correct`, `attempted`, `failed`, and `metrics` reduced to
    `{name: value}`) plus its own `elapsed_s`;
  - `summary[metric]`: `unit`, and per side `median`, `q1`, `q3` and `iqr`
    (inclusive quartiles over the pairs), `change_lower` (the pairs in which
    the change read lower; ties count for neither), `n` (the pairs), and
    `median_delta_pct` (change median against parent median, in percent);
- `lift_pass`: per side `{"exit", "total_ms", "models"}`, where `models`
  maps each builtin label, in corpus order, to `{"lifts", "ok", "ms",
  "digest"}` as the pass printed them, and `digests_equal`, whether both
  sides printed the same models with the same lift counts, ok counts and
  verdict digests;
- `corpus_wes`: per side `{"exit", "total_s", "models"}`, where `models`
  maps each builtin label, in corpus order, to `{"s", "checks", "ok",
  "windows", "blocks", "digest"}` as the pass printed them (seconds for
  build + check, exactness checks, whether all passed, windows built, blocks
  with two or more degree-k members, WES node digest), and `digests_equal`,
  whether both sides printed the same models with the same check counts,
  verdicts and digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("wes", "lift_grid", "reproduce", "query_mix")
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(sha: str, dest: str) -> None:
    """The committed files of `sha`, extracted into the new directory `dest`."""
    os.mkdir(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py run in `checkout`: its last output line, with the
    metrics reduced to their values."""
    cmd = [
        sys.executable, os.path.join(checkout, "bench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit": proc.returncode, "error": proc.stderr[-2000:],
                "elapsed_s": elapsed}
    out["metrics"] = {name: m["value"] for name, m in out["metrics"].items()}
    out["exit"] = proc.returncode
    out["elapsed_s"] = round(elapsed, 3)
    return out


def _tool(checkout: str, name: str) -> subprocess.CompletedProcess:
    """One run of `tools/<name>` in `checkout`."""
    return subprocess.run(
        [sys.executable, os.path.join(checkout, "tools", name)],
        cwd=checkout, capture_output=True, text=True,
    )


def lift_pass(checkout: str) -> dict:
    """One run of `tools/lift_pass.py` in `checkout`, its lines parsed:
    `label N lifts K ok T ms DIGEST` per model and `total T ms`."""
    proc = _tool(checkout, "lift_pass.py")
    out = {"exit": proc.returncode, "total_ms": None, "models": {}}
    for line in proc.stdout.splitlines():
        f = line.split()
        if f[:1] == ["total"]:
            out["total_ms"] = float(f[1])
        elif len(f) == 8:
            out["models"][f[0]] = {"lifts": int(f[1]), "ok": int(f[3]), "ms": float(f[5]),
                                   "digest": f[7]}
    if proc.returncode or out["total_ms"] is None:
        out["error"] = proc.stderr[-2000:]
    return out


def corpus_wes(checkout: str) -> dict:
    """One run of `tools/corpus_wes.py` in `checkout`, its lines parsed: per
    model `label T s N checks ok=B W windows P pairs C in check X complexes
    K blocks E exact U unclosed DIGEST`, and `total T s`."""
    proc = _tool(checkout, "corpus_wes.py")
    out = {"exit": proc.returncode, "total_s": None, "models": {}}
    for line in proc.stdout.splitlines():
        f = line.split()
        if f[:1] == ["total"]:
            out["total_s"] = float(f[1])
        elif len(f) == 22:
            out["models"][f[0]] = {"s": float(f[1]), "checks": int(f[3]), "ok": f[5] == "ok=True",
                                   "windows": int(f[6]), "blocks": int(f[15]), "digest": f[21]}
    if proc.returncode or out["total_s"] is None:
        out["error"] = proc.stderr[-2000:]
    return out


def compare(runs: dict, fields: tuple[str, ...]) -> bool:
    """Whether both sides' passes ran cleanly and printed the same models
    with the same `fields`."""
    rows = [[(label, *(m[f] for f in fields)) for label, m in runs[s]["models"].items()]
            for s in SIDES]
    return all("error" not in run for run in runs.values()) and rows[0] == rows[1]


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], units: dict) -> dict:
    """Per metric: quartiles per side and the pairs the change read lower in,
    over the pairs where both runs were correct."""
    ok = [r for r in runs if r["parent"].get("correct") and r["change"].get("correct")]
    summary = {}
    for name, unit in units.items() if ok else ():
        sides = {s: [r[s]["metrics"][name] for r in ok] for s in SIDES}
        entry = {"unit": unit, "n": len(ok)}
        entry.update({s: quartiles(sides[s]) for s in SIDES})
        entry["change_lower"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        base = entry["parent"]["median"]
        entry["median_delta_pct"] = round(100 * (entry["change"]["median"] - base) / base, 2)
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--out", required=True, help="path of the JSON record")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            p.error(f"unknown workload {w!r}; choose from {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    shas = {s: _git("rev-parse", "--verify", f"{rev}^{{commit}}") for s, rev in
            zip(SIDES, (args.parent, args.change))}
    record = {
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "platform": platform.platform(),
            "loadavg_before": os.getloadavg(),
        },
        "parent": {"rev": args.parent, "sha": shas["parent"]},
        "change": {"rev": args.change, "sha": shas["change"]},
        "seconds": args.seconds,
        "pairs": args.pairs,
        "command": ["bench/run.py", "--seconds", str(args.seconds), "--trace", "0"],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {s: os.path.join(tmp, s) for s in SIDES}
        for s in SIDES:
            export(shas[s], checkouts[s])
        passes = {s: lift_pass(checkouts[s]) for s in SIDES}
        equal = compare(passes, ("lifts", "ok", "digest"))
        record["lift_pass"] = {**passes, "digests_equal": equal}
        print(f"lift_pass: {passes['parent']['total_ms']} -> {passes['change']['total_ms']} ms, "
              f"digests equal: {equal}", file=sys.stderr, flush=True)
        corpus = {s: corpus_wes(checkouts[s]) for s in SIDES}
        corpus_equal = compare(corpus, ("checks", "ok", "digest"))
        record["corpus_wes"] = {**corpus, "digests_equal": corpus_equal}
        print(f"corpus_wes: {corpus['parent']['total_s']} -> {corpus['change']['total_s']} s, "
              f"digests equal: {corpus_equal}", file=sys.stderr, flush=True)
        all_ok = equal and corpus_equal
        for w in workloads:
            runs = []
            for seed in range(1, args.pairs + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for s in order:
                    pair[s] = run_once(checkouts[s], w, seed, args.seconds)
                    ok = pair[s].get("correct") and not pair[s].get("failed")
                    all_ok = all_ok and bool(ok)
                    print(f"{w} seed {seed} {s}: correct={pair[s].get('correct')} "
                          f"{pair[s].get('metrics', {})}", file=sys.stderr, flush=True)
                runs.append(pair)
            record["workloads"][w] = {"runs": runs, "summary": summarize(runs, units)}
    record["host"]["loadavg_after"] = os.getloadavg()
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    lp, cw = record["lift_pass"], record["corpus_wes"]
    print(f"lift_pass total_ms {lp['parent']['total_ms']} -> {lp['change']['total_ms']}, "
          f"digests equal: {lp['digests_equal']}")
    print(f"corpus_wes total_s {cw['parent']['total_s']} -> {cw['change']['total_s']}, "
          f"digests equal: {cw['digests_equal']}")
    for w, data in record["workloads"].items():
        for name, e in data["summary"].items():
            print(f"{w:9} {name:11} {e['parent']['median']:.4g} -> {e['change']['median']:.4g} "
                  f"{e['unit']} ({e['median_delta_pct']:+.1f} %), change lower in "
                  f"{e['change_lower']}/{e['n']}, parent IQR {e['parent']['iqr']:.3g}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
