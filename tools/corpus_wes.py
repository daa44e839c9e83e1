"""The corpus WES pass: build_wes + check_exactness on all 16 builtin models.

    PYTHONPATH=src python3 tools/corpus_wes.py

Runs the models in corpus order in one process, as acceptance criterion 5
does, and prints one line per model: seconds for build + check, the number
of exactness checks, whether every check passed, the number of cohomology
windows built and of distinct degrees among them (a spy on
`cohaut.cohomology._Window.build`; more builds than degrees means windows were
rebuilt), and the sha256 of the WES node data (`wes_digest` from the
benchmark's workloads, so the digests compare with bench/golden.json).  The
last line is the total time.  Exits 1 if any report fails.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from cohaut.cohomology import _Window  # noqa: E402
from cohaut.corpus import BUILTIN_LABELS, load_builtin  # noqa: E402
from cohaut.whitehead import build_wes, check_exactness  # noqa: E402
from workloads import wes_digest  # noqa: E402


_build = _Window.build.__func__
_built: list[int] = []  # degree of every window built


def _spy(cls, cx, k):
    _built.append(k)
    return _build(cls, cx, k)


def main() -> int:
    _Window.build = classmethod(_spy)
    all_ok = True
    total = 0.0
    for label in BUILTIN_LABELS:
        m = load_builtin(label)
        _built.clear()
        t0 = time.perf_counter()
        w = build_wes(m)
        report = check_exactness(w)
        seconds = time.perf_counter() - t0
        total += seconds
        all_ok = all_ok and report.ok
        print(f"{label:7} {seconds:7.2f} s  {len(report.checks):4} checks  "
              f"ok={report.ok}  {len(_built):3} windows  {len(set(_built)):3} degrees  "
              f"{wes_digest(w)}", flush=True)
    print(f"total   {total:7.2f} s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
