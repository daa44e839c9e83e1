"""The corpus lift pass: extract_constraints, solve and lift_verify on all 16
builtin models.

    PYTHONPATH=src python3 tools/lift_pass.py

Runs the models in corpus order in one process and prints one line per
model: the number of lifts `lift_verify` ran, how many of them succeeded,
the milliseconds for extraction, solving and lifting together, and the
first 16 hex digits of a sha256 over the verdicts (each vector, whether it
lifted, and the obstruction message), so two checkouts compare line by line.
The last line is the total time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cohaut.corpus import BUILTIN_LABELS, load_builtin  # noqa: E402
from cohaut.diagsolve import extract_constraints, lift_verify, solve  # noqa: E402


def verdict_digest(verdicts) -> str:
    text = "\n".join(
        f"{','.join(str(x) for x in vec)}|{ok}|{message}" for vec, ok, message in verdicts
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> int:
    total = 0.0
    for label in BUILTIN_LABELS:
        m = load_builtin(label)
        t0 = time.perf_counter()
        verdicts = lift_verify(solve(extract_constraints(m)))
        seconds = time.perf_counter() - t0
        total += seconds
        n_ok = sum(ok for _, ok, _ in verdicts)
        print(f"{label:7} {len(verdicts):4} lifts  {n_ok:4} ok  {seconds * 1000:9.1f} ms  "
              f"{verdict_digest(verdicts)}", flush=True)
    print(f"total   {total * 1000:9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
