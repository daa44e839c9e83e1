"""The corpus WES pass: build_wes + check_exactness on all 16 builtin models.

    PYTHONPATH=src python3 tools/corpus_wes.py

Runs the models in corpus order in one process, as acceptance criterion 5
does, and prints one line per model: seconds for build + check, the number
of exactness checks, whether every check passed, the number of cohomology
windows built, the number of distinct (complex model, degree) pairs among
them (a spy on `cohaut.cohomology._Window.build`; more builds than pairs
means windows were rebuilt, while a Γ^k on a cut and an H^k on ΛV are two
windows), how many of the builds `check_exactness` made, the number of
cochain complexes created (a spy on `cohaut.cohomology._Complex.__init__`;
the cache `complex_for` keeps holds 32), the windows' blocks (`_Component`s,
with two or more degree-k members) and their exact and unclosed one-member
blocks, which a window keeps as two int sets (a spy on
`cohaut.cohomology._components`), and the sha256 of the WES node data
(`wes_digest` from the benchmark's workloads, so the digests compare with
bench/golden.json).  The last line is the total time.  Exits 1 if any
report fails.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from cohaut.cohomology import _Complex, _Window  # noqa: E402
from cohaut.corpus import BUILTIN_LABELS, load_builtin  # noqa: E402
from cohaut.whitehead import build_wes, check_exactness  # noqa: E402
from workloads import wes_digest  # noqa: E402


_build = _Window.build.__func__
_init = _Complex.__init__
_built: list[tuple] = []  # (complex model, degree) of every window built
_complexes: list[object] = []  # the model of every complex created
# `import cohaut.cohomology` would bind the function the package re-exports
_module = importlib.import_module("cohaut.cohomology")
_components = _module._components
_blocks = [0, 0, 0]  # blocks, exact and unclosed one-member blocks of every window built


def _spy_build(cls, cx, k):
    _built.append((cx.model, k))
    return _build(cls, cx, k)


def _spy_components(cols_km1, cols_k):
    comps, exact, unclosed = out = _components(cols_km1, cols_k)
    for i, n in enumerate((len(comps), len(exact), len(unclosed))):
        _blocks[i] += n
    return out


def _spy_init(self, model):
    _complexes.append(model)
    _init(self, model)


def main() -> int:
    _Window.build = classmethod(_spy_build)
    _Complex.__init__ = _spy_init
    _module._components = _spy_components
    all_ok = True
    total = 0.0
    for label in BUILTIN_LABELS:
        m = load_builtin(label)
        _built.clear()
        _complexes.clear()
        _blocks[:] = [0, 0, 0]
        t0 = time.perf_counter()
        w = build_wes(m)
        in_build = len(_built)
        report = check_exactness(w)
        seconds = time.perf_counter() - t0
        total += seconds
        all_ok = all_ok and report.ok
        print(f"{label:7} {seconds:7.2f} s  {len(report.checks):4} checks  "
              f"ok={report.ok}  {len(_built):3} windows  {len(set(_built)):3} pairs  "
              f"{len(_built) - in_build:3} in check  {len(_complexes):3} complexes  "
              f"{_blocks[0]:6} blocks  {_blocks[1]:6} exact  {_blocks[2]:6} unclosed  "
              f"{wes_digest(w)}", flush=True)
    print(f"total   {total:7.2f} s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
