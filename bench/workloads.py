"""The benchmark's workloads: inputs from the seed, timed calls, golden checks.

A workload object runs in one child process.  `setup()` builds what the
workload body needs and is timed as part of `setup_s`; `body()` makes the timed
calls into cohaut and returns one latency per operation; `check()` compares
the outcomes with the golden data and returns (attempted, failed, messages).
An exception in an operation is caught, recorded and counted as a failure.

Functions are looked up on their modules at call time (`whitehead.build_wes`),
so a traced child reaches the wrappers the tracer installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import time
from fractions import Fraction
from itertools import product

clock = time.perf_counter


def _mod(name: str):
    # `import cohaut.cohomology` would yield the re-exported function
    return importlib.import_module(f"cohaut.{name}")


def poincare(gens, dmax: int) -> list[int]:
    """Basis sizes of ΛV in degrees 0..dmax, from the Poincaré series
    prod 1/(1 - t^|x|) over even x times prod (1 + t^|y|) over odd y."""
    coeff = [0] * (dmax + 1)
    coeff[0] = 1
    for g in gens:
        if g.degree % 2:
            for m in range(dmax, g.degree - 1, -1):
                coeff[m] += coeff[m - g.degree]
        else:
            for m in range(g.degree, dmax + 1):
                coeff[m] += coeff[m - g.degree]
    return coeff


class Workload:
    def __init__(self, seed: int, index: int, golden: dict):
        self.rng = random.Random(seed * 1_000_003 + index)
        self.golden = golden
        self.errors: list[str] = []

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def counts(self) -> dict[str, int]:
        """Counts the benchmark measures itself (traced runs only)."""
        return {}


# --- wes ------------------------------------------------------------------------


def wes_digest(w) -> str:
    """sha256 over the numeric data of every node of a WhiteheadSequence."""
    h = hashlib.sha256(f"{w.n_min}:{w.n_max}".encode())
    for n in range(w.n_min, w.n_max + 1):
        node = w.nodes[n]
        rec = (
            node.n,
            node.gens,
            node.gamma_dim,
            node.h_dim,
            tuple(tuple((i, str(c)) for i, c in col) for col in node.b_columns),
            node.ker_i_dim,
            node.rank_j,
            tuple((pos, tuple((g, str(c)) for g, c in row)) for pos, row in node.j_parts),
        )
        h.update(repr(rec).encode())
    return h.hexdigest()


class Wes(Workload):
    """build_wes + check_exactness on W-ex32, on E3 from the even tower and on
    U3 from the tower as written (odd generators x3, x5).  Its latency sample
    is the whole pass: three per-model timings per pass are too few for a
    percentile, and a 2 s E3 timing follows the host's speed swings closely."""

    MODELS = ("W-ex32", "E3", "U3")

    def setup(self) -> None:
        _mod("corpus").all_builtins()
        self.models = [_mod("corpus").load_builtin(label) for label in self.MODELS]

    def body(self) -> list[float]:
        whitehead = _mod("whitehead")
        self.out = {}
        t0 = clock()
        for m in self.models:
            try:
                w = whitehead.build_wes(m)
                self.out[m.label] = (w, whitehead.check_exactness(w))
            except Exception as exc:  # counted as failed checks
                self.out[m.label] = exc
        return [clock() - t0]

    def check(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        for label in self.MODELS:
            gold = self.golden["wes"][label]
            attempted += gold["checks"]
            out = self.out[label]
            if isinstance(out, Exception):
                self.error(f"{label}: {out!r}")
                failed += gold["checks"]
                continue
            w, report = out
            bad = sum(not c.ok for c in report.checks)
            if len(report.checks) != gold["checks"] or wes_digest(w) != gold["nodes_sha256"]:
                self.error(f"{label}: WES node data or check count differs from golden")
                bad = gold["checks"]
            elif bad:
                self.error(f"{label}: {bad} exactness checks failed")
            failed += bad
        return attempted, failed, self.errors


# --- lift_grid --------------------------------------------------------------------

GRID = tuple(Fraction(x) for x in ("0", "1", "-1", "2", "-2", "1/2", "-1/2"))


class LiftGrid(Workload):
    """Acceptance criterion 4: try_lift on every point of {0,±1,±2,±1/2}^sources
    of V-ex31 and W-ex32 and on a seeded draw of E3 points, each verdict
    checked against membership in the solver's solution set."""

    FULL = ("V-ex31", "W-ex32")
    DRAWN = "E3"
    DRAW = 300

    def setup(self) -> None:
        corpus, diagsolve = _mod("corpus"), _mod("diagsolve")
        coherence = _mod("coherence")
        corpus.all_builtins()
        self.points = []  # (label, xi, expected verdict from the solver)
        for label in self.FULL + (self.DRAWN,):
            system = diagsolve.extract_constraints(corpus.load_builtin(label))
            solutions = diagsolve.solve(system)
            sources = system.source_variables
            grid = list(product(GRID, repeat=len(sources)))
            if label == self.DRAWN:
                grid = [grid[i] for i in sorted(self.rng.sample(range(len(grid)), self.DRAW))]
            for values in grid:
                vec = diagsolve.canonical_extension(system, dict(zip(sources, values)))
                self.points.append(
                    (label, diagsolve.as_linear_map(system, vec), solutions.contains(vec))
                )
            # warm the windows the lifting stages use
            ones = diagsolve.canonical_extension(system, {v: GRID[1] for v in sources})
            coherence.try_lift(diagsolve.as_linear_map(system, ones))

    def body(self) -> list[float]:
        coherence = _mod("coherence")
        self.out = []
        lat = []
        for _, xi, _ in self.points:
            t0 = clock()
            try:
                self.out.append(coherence.try_lift(xi))
            except Exception as exc:
                self.out.append(exc)
            lat.append(clock() - t0)
        return lat

    def check(self) -> tuple[int, int, list[str]]:
        points: dict[str, int] = {}
        lifting: dict[str, int] = {}
        failed: dict[str, int] = {}
        for (label, xi, expected), res in zip(self.points, self.out):
            points[label] = points.get(label, 0) + 1
            bad = isinstance(res, Exception)
            if bad:
                self.error(f"{label}: {res!r}")
            else:
                lifting[label] = lifting.get(label, 0) + res.ok
                obstructed = (
                    res.obstruction is not None
                    and not res.obstruction.failure_class.is_zero()
                )
                if res.ok != expected or (not res.ok and not obstructed):
                    self.error(f"{label}: verdict {res.ok} at {xi!r}, solver says {expected}")
                    bad = True
            failed[label] = failed.get(label, 0) + bad
        for label in self.FULL:
            gold = self.golden["lift_grid"][label]
            got = {"points": points.get(label, 0), "lifting": lifting.get(label, 0)}
            if got != gold:
                # the solver oracle itself disagrees with the golden counts
                self.error(f"{label}: {got} differs from golden {gold}")
                failed[label] = points.get(label, 0)
        return len(self.points), sum(failed.values()), self.errors


# --- reproduce --------------------------------------------------------------------


class Reproduce(Workload):
    """`cohaut reproduce all --json` through cli.main, output captured."""

    ARGV = ["reproduce", "all", "--json"]

    def setup(self) -> None:
        _mod("corpus").all_builtins()

    def body(self) -> list[float]:
        cli = _mod("cli")
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                self.out = cli.main(list(self.ARGV))
        except Exception as exc:
            self.out = exc
        lat = [clock() - t0]
        self.text = buf.getvalue().encode()
        return lat

    def counts(self) -> dict[str, int]:
        return {"cli.json_bytes": len(self.text)}

    def check(self) -> tuple[int, int, list[str]]:
        gold = self.golden["reproduce"]
        if isinstance(self.out, Exception):
            self.error(repr(self.out))
            return 1, 1, self.errors
        digest = hashlib.sha256(self.text).hexdigest()
        if self.out != gold["exit_code"] or digest != gold["sha256"] or len(self.text) != gold["bytes"]:
            self.error(
                f"exit {self.out}, {len(self.text)} bytes, sha256 {digest[:12]}; golden {gold}"
            )
            return 1, 1, self.errors
        return 1, 0, self.errors


# --- query_mix --------------------------------------------------------------------


def query_pool(corpus) -> list[tuple[str, int, int, int]]:
    """Every (model, cutoff, degree) query of `cohaut cohomology MODEL --truncate
    CUTOFF --degree K` over the builtins, their generator degrees as cutoffs and
    K in 40..121, with the size of its window (basis in degrees K-1..K+1)."""
    pool = []
    for label in corpus.BUILTIN_LABELS:
        m = corpus.load_builtin(label)
        for cutoff in sorted(set(m.degrees())):
            sizes = poincare(m.truncate(cutoff).generators, 122)
            for k in range(40, 122):
                pool.append((label, cutoff, k, sizes[k - 1] + sizes[k] + sizes[k + 1]))
    return pool


class QueryMix(Workload):
    """Single cold cohomology queries: dimension, representatives when there
    are at most 64 classes, and one class_of round trip."""

    MAX_REPS = 64

    def setup(self) -> None:
        corpus = _mod("corpus")
        corpus.all_builtins()
        self.queries = draw_queries(query_pool(corpus), self.rng)
        self.models = {label: corpus.load_builtin(label) for label, _, _ in self.queries}

    def body(self) -> list[float]:
        cohomology = _mod("cohomology")
        self.out = []
        lat = []
        for label, cutoff, k in self.queries:
            t0 = clock()
            try:
                h = cohomology.cohomology(self.models[label].truncate(cutoff), k)
                dim = h.dimension
                reps = h.representatives() if dim <= self.MAX_REPS else None
                trip = None
                if reps:
                    i = k % dim
                    trip = h.class_of(reps[i]).coords == {i: 1}
                self.out.append((dim, None if reps is None else len(reps), trip))
            except Exception as exc:
                self.out.append(exc)
            lat.append(clock() - t0)
        return lat

    def check(self) -> tuple[int, int, list[str]]:
        dims = self.golden["query_mix"]["dimensions"]
        failed = 0
        for (label, cutoff, k), res in zip(self.queries, self.out):
            where = f"H^{k}({label}<={cutoff})"
            if isinstance(res, Exception):
                self.error(f"{where}: {res!r}")
                failed += 1
                continue
            dim, n_reps, trip = res
            want = dims[label][str(cutoff)][k - 40]
            if dim != want or n_reps not in (None, dim) or trip is False:
                self.error(f"{where}: dim {dim} (golden {want}), round trip {trip}")
                failed += 1
        return len(self.queries), failed, self.errors


# Queries are stratified by the log2 size class of their window.  A query's
# cost roughly doubles from one class to the next, so classes 0..11 get 48
# draws each and classes 12 and 13 get 32 and 16, which keeps the costly
# classes near the same share of time.  Windows of 2^14 monomials and more
# (1,346 of the 13,284 pool queries, 0.15-1.6 s each) are left out: one draw
# more or less of those would move a pass's wall time by 5-50 %.
TOP_CLASS = 13


def size_class(window: int) -> int:
    return max(window, 1).bit_length() - 1


def draws(size_cls: int) -> int:
    return min(48, 2 ** (17 - size_cls))


def draw_queries(pool, rng) -> list[tuple[str, int, int]]:
    """A seeded draw of `draws(c)` queries from every size class c <= TOP_CLASS,
    in a seeded order."""
    classes: dict[int, list] = {}
    for label, cutoff, k, window in pool:
        classes.setdefault(size_class(window), []).append((label, cutoff, k))
    picked = []
    for c in range(TOP_CLASS + 1):
        members = classes.get(c, [])
        picked.extend(rng.sample(members, min(draws(c), len(members))))
    rng.shuffle(picked)
    return picked


WORKLOADS = {
    "wes": Wes,
    "lift_grid": LiftGrid,
    "reproduce": Reproduce,
    "query_mix": QueryMix,
}
