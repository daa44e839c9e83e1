"""Command-line front end.

Commands: validate, cohomology, wes, coherent, solve, iso, extend, reproduce.
Models are builtin labels (V-ex31, W-ex32, U1..U8, E2..E7) or .mcca files.
Every command supports --json with the stable schema
{command, model, results, warnings, timing_ms}; JSON output is byte-identical
across runs (timing_ms is fixed to 0 there - real timing appears only in the
human-readable form).  Every command but validate refuses a model that fails
validation.

Exit codes: 0 success, 1 mathematical failure (failed validation, obstructed
lift, failed reproduction), 2 usage or parse errors (a non-diagonal model
given to solve or iso among them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import corpus, diagsolve, dsl
from .algebra import AlgebraError, Q
from .coherence import GradedLinearMap, ShapeError, gap_report, try_lift
from .cohomology import cohomology
from .model import ModelError, SullivanModel, extend_tower
from .whitehead import build_wes, check_exactness


class UsageError(ValueError):
    pass


def _load_model(spec: str) -> SullivanModel:
    if spec in corpus.BUILTIN_LABELS:
        return corpus.load_builtin(spec)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return dsl.parse(fh.read(), filename=spec)
    raise UsageError(
        f"{spec!r} is neither a builtin label ({', '.join(corpus.BUILTIN_LABELS)}) "
        "nor an existing file"
    )


def _load_valid_model(spec: str) -> SullivanModel:
    """The model of `_load_model`, checked by `SullivanModel.require_valid`."""
    m = _load_model(spec)
    m.require_valid()
    return m


def _emit(args, command: str, model: str, results, warnings, t0: float, code: int) -> int:
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if args.json:
        doc = {
            "command": command,
            "model": model,
            "results": results,
            "warnings": list(warnings),
            "timing_ms": 0,  # fixed: JSON output is byte-identical across runs
        }
        print(json.dumps(doc, indent=2))
    else:
        if warnings:
            for w in warnings:
                print(f"warning: {w}")
        print(f"[{command}] finished in {elapsed_ms} ms (exit {code})")
    return code


# --- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    t0 = time.monotonic()
    m = _load_model(args.model)
    report = m.validate()
    results = {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
        "generators": [{"name": g.name, "degree": g.degree} for g in m.generators],
    }
    if not args.json:
        print(report)
    return _emit(args, "validate", m.label, results, report.warnings, t0, 0 if report.ok else 1)


def cmd_cohomology(args) -> int:
    t0 = time.monotonic()
    if args.degree < 0:
        raise UsageError(f"--degree must be >= 0, got {args.degree}")
    if args.truncate is not None and args.truncate < 0:
        raise UsageError(f"--truncate must be >= 0, got {args.truncate}")
    if args.max_representatives < 0:
        raise UsageError(
            f"--max-representatives must be >= 0, got {args.max_representatives}"
        )
    m = _load_valid_model(args.model)
    warnings = list(m.warnings)
    target = m.truncate(args.truncate) if args.truncate is not None else m
    basis = cohomology(target, args.degree)
    reps: list[str] = []
    if basis.dimension <= args.max_representatives:
        reps = [str(p) for p in basis.representatives()]
    else:
        warnings.append(
            f"{basis.dimension} representatives exceed the display cap "
            f"({args.max_representatives}); listing suppressed"
        )
    results = {
        "degree": args.degree,
        "truncate": args.truncate,
        "dimension": basis.dimension,
        "representatives": reps,
    }
    if not args.json:
        trunc = f", truncated at {args.truncate}" if args.truncate is not None else ""
        print(f"H^{args.degree}({m.label}{trunc}): dimension {basis.dimension}")
        for r in reps:
            print(f"  [{r}]")
    return _emit(args, "cohomology", m.label, results, warnings, t0, 0)


def cmd_wes(args) -> int:
    t0 = time.monotonic()
    if args.max is not None and args.max < 3:
        raise UsageError(f"--max must be >= 3, got {args.max}")
    m = _load_valid_model(args.model)
    w = build_wes(m, args.max)
    report = check_exactness(w)
    nodes = []
    for n in range(w.n_min, w.n_max + 1):
        node = w.nodes[n]
        if not node.gens and args.nontrivial_only:
            continue
        nodes.append(
            {
                "n": n,
                "generators": list(node.gens),
                "dim_gamma_next": node.gamma_dim,  # dim H^{n+1}(ΛV^{<=n-1}), codomain of b^n
                "dim_h_next": node.h_dim,
                "b_columns": [
                    [[i, str(c)] for i, c in col] for col in node.b_columns
                ],
            }
        )
    results = {
        "range": [w.n_min, w.n_max],
        "b_indexing": "stored at domain degree n; the paper's section-3 labels "
        "use the codomain degree n+1",
        "nodes": nodes,
        "exact": report.ok,
        "failures": [
            {"n": c.n, "node": c.node, "detail": c.detail} for c in report.failures()
        ],
    }
    if not args.json:
        print(f"WES({m.label}) over degrees [{w.n_min}, {w.n_max}]")
        for rec in nodes:
            print(
                f"  n={rec['n']}: V^n spanned by {rec['generators'] or '{}'}; "
                f"dim Γ^{rec['n'] + 1} = {rec['dim_gamma_next']}, "
                f"dim H^{rec['n'] + 1} = {rec['dim_h_next']}"
            )
        print(report)
    return _emit(args, "wes", m.label, results, m.warnings, t0, 0 if report.ok else 1)


def _parse_xi(m: SullivanModel, spec: str) -> GradedLinearMap:
    if "=" in spec:
        entries: dict[int, Fraction] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            if not key.startswith("p"):
                raise UsageError(f"bad --xi entry {item!r} (expected pDEG=value)")
            try:
                degree, entry = int(key[1:]), Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"bad --xi entry {item!r}")
            if degree in entries:
                raise UsageError(f"--xi gives degree {degree} more than once")
            entries[degree] = entry
        for d in sorted({g.degree for g in m.generators}):
            entries.setdefault(d, Q(0))
        try:
            return GradedLinearMap.diagonal(m, entries)
        except ShapeError as exc:
            raise UsageError(f"bad --xi: {exc}")
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"--xi file {spec} is not JSON: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"--xi file {spec} must map degrees to matrices")
        try:
            blocks = {
                int(d): [[Fraction(x) for x in row] for row in mat]
                for d, mat in doc.items()
            }
            return GradedLinearMap(m, m, blocks)
        except (ValueError, TypeError, ZeroDivisionError) as exc:  # ShapeError is a ValueError
            raise UsageError(f"bad --xi block in {spec}: {exc}")
    raise UsageError(
        f"--xi {spec!r} is neither a diagonal spec (p10=1,p12=-1,...) nor a JSON file"
    )


def cmd_coherent(args) -> int:
    t0 = time.monotonic()
    m = _load_valid_model(args.model)
    xi = _parse_xi(m, args.xi)
    result = try_lift(xi)
    gaps = gap_report(m)
    if result.ok:
        results = {
            "coherent": True,
            "branch_note": "witness found"
            if gaps.all_unique
            else "witness found (stage lifts not unique; canonical branch)",
            "lift_images": {
                name: str(p) for name, p in sorted(result.morphism.images.items())
            },
        }
        code = 0
    else:
        ob = result.obstruction
        results = {
            "coherent": False,
            "branch_note": "obstructed"
            if gaps.all_unique
            else "obstructed along canonical branch (one-branch evidence)",
            "obstruction": {
                "degree": ob.degree,
                "generator": ob.generator,
                "class": [[i, str(c)] for i, c in sorted(ob.failure_class.coords.items())],
                "message": ob.message,
            },
        }
        code = 1
    if not args.json:
        print(result)
    return _emit(args, "coherent", m.label, results, m.warnings, t0, code)


def _solve_payload(m: SullivanModel) -> tuple[dict, list[str]]:
    system = diagsolve.extract_constraints(m)
    solutions = diagsolve.solve(system)
    group = diagsolve.group_structure(solutions)
    warnings = list(system.notes)
    payload: dict = {
        "variables": [f"p{d}" for d in system.variables],
        "equations": [str(eq) for eq in system.equations],
        "complete": system.complete,
    }
    verified = diagsolve.lift_verify(solutions)
    n_failed = sum(1 for _, ok, _ in verified if not ok)
    if solutions.is_finite:
        sols = solutions.solutions()
        payload["morphisms"] = len(sols)
        payload["automorphisms"] = len(solutions.invertible_solutions())
        payload["solutions"] = [[str(x) for x in vec] for vec in sols]
        payload["lift_verified"] = {
            "checked": len(verified),
            "failed": n_failed,
            "mode": "all solutions"
            if system.complete
            else "candidates, verified by lifting",
        }
    else:
        payload["morphisms"] = "infinite"
        payload["automorphisms"] = "infinite" if group.order is None else group.order
        inv = solutions.invertible_branch()
        payload["family"] = {
            "free_rank": solutions.free_rank,
            "torsion_rank": solutions.torsion_rank,
            "free_directions": [
                {f"p{d}": e for d, e in zip(inv.nonzero, vec) if e}
                for vec in inv.pos_kernel
            ]
            if inv
            else [],
        }
        payload["lift_verified"] = {
            "checked": len(verified),
            "failed": n_failed,
            "mode": "family generators and sampled free directions",
        }
    payload["group"] = {
        "order": group.order if group.order is not None else "infinite",
        "torsion_rank": group.torsion_rank,
        "free_rank": group.free_rank,
        "rank_notation": group.name,
        "paper_notation": group.paper_name,
    }
    if n_failed:
        warnings.append(
            f"{n_failed} solver solutions failed lift verification - solver bug"
        )
    return payload, warnings


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    m = _load_valid_model(args.model)
    try:
        payload, warnings = _solve_payload(m)
    except diagsolve.NotDiagonal as exc:
        raise UsageError(str(exc))
    if not args.json:
        print(f"coherent self-maps of {m.label}:")
        print(f"  variables: {', '.join(payload['variables'])}")
        for eq in payload["equations"]:
            print(f"  {eq}")
        print(f"  complete: {payload['complete']}")
        print(f"  morphisms: {payload['morphisms']}")
        print(f"  automorphisms: {payload['automorphisms']}")
        if "solutions" in payload:
            for vec in payload["solutions"]:
                print(f"    ({', '.join(vec)})")
        else:
            print(f"  family: {payload['family']}")
        g = payload["group"]
        print(
            f"  group: order {g['order']}, {g['rank_notation']} "
            f"(paper notation: {g['paper_notation']})"
        )
        lv = payload["lift_verified"]
        print(f"  lift verification: {lv['checked']} checked, {lv['failed']} failed ({lv['mode']})")
    return _emit(args, "solve", m.label, payload, warnings, t0, 0)


def cmd_iso(args) -> int:
    t0 = time.monotonic()
    a = _load_valid_model(args.model_a)
    b = _load_valid_model(args.model_b)
    try:
        decision = diagsolve.coherent_iso_exists(a, b)
    except diagsolve.NotDiagonal as exc:
        raise UsageError(str(exc))
    results = {
        "isomorphic": decision.isomorphic,
        "reason": decision.reason,
        "witness": [str(x) for x in decision.witness] if decision.witness else None,
    }
    if not args.json:
        print(f"{a.label} ~ {b.label}: {decision}")
        if decision.witness and decision.isomorphic:
            print(f"  witness: ({', '.join(str(x) for x in decision.witness)})")
    return _emit(args, "iso", f"{a.label},{b.label}", results, (), t0, 0)


def cmd_extend(args) -> int:
    t0 = time.monotonic()
    m = _load_valid_model(args.model)
    try:
        degree_s, _, rest = args.gen.partition(":")
        exponent_s, _, name = rest.partition(":")
        degree, exponent = int(degree_s), int(exponent_s)
    except ValueError:
        raise UsageError(f"--gen must be d:k or d:k:name, got {args.gen!r}")
    if degree < 2 or exponent < 2:
        raise UsageError(f"--gen needs degree >= 2 and exponent >= 2, got {args.gen!r}")
    names = {g.name for g in m.generators}
    if name in names:
        raise UsageError(f"generator name {name} already used")
    if args.closing not in names:
        raise UsageError(f"unknown generator {args.closing!r} in {m.label}")
    z = m.generator(args.closing)
    if degree * exponent != z.degree + 1:
        raise UsageError(
            f"extension degree mismatch: {degree} * {exponent} != |{z.name}| + 1 = {z.degree + 1}"
        )
    try:
        extended = extend_tower(m, args.closing, degree, exponent, name=name or None)
        extended.require_valid()  # x^k in d(z) can break d ∘ d = 0
    except (AlgebraError, ModelError) as exc:  # a name the model text cannot hold, or a non-complex
        raise UsageError(str(exc))
    text = dsl.serialize(extended)
    results = {
        "label": extended.label,
        "generators": [
            {"name": g.name, "degree": g.degree} for g in extended.generators
        ],
        "source": text,
    }
    if not args.json:
        print(text, end="")
    return _emit(args, "extend", m.label, results, extended.warnings, t0, 0)


# --- reproduce -------------------------------------------------------------------


def _reproduce_ex31() -> tuple[dict, list[str], bool]:
    m = corpus.load_builtin("V-ex31")
    checks: list[dict] = []
    warnings: list[str] = []

    def check(name: str, ok: bool, got) -> None:
        checks.append({"check": name, "ok": bool(ok), "got": got})

    payload, _ = _solve_payload(m)
    check("3 coherent morphisms", payload["morphisms"] == 3, payload["morphisms"])
    check("2 coherent automorphisms", payload["automorphisms"] == 2, payload["automorphisms"])
    expected = [
        ["1", "-1", "-1", "1", "-1", "1"],
        ["1", "1", "1", "1", "1", "1"],
    ]
    inv = [
        vec
        for vec in payload["solutions"]
        if all(x != "0" for x in vec)
    ]
    check("automorphism tuples match the paper", inv == expected, inv)
    check("group is Z2", payload["group"]["rank_notation"] == "Z2^1", payload["group"])
    for truncate_at, degree, rep in ((40, 42, "x1^3*x2"), (42, 44, "x1^2*x2^2"), (44, 46, "x1*x2^3")):
        basis = cohomology(m.truncate(truncate_at), degree)
        ok = basis.dimension == 1 and str(basis.representative(0)) == rep
        check(f"H^{degree}(trunc {truncate_at}) = Q·{rep}", ok, [basis.dimension] + [str(p) for p in basis.representatives()])
    h120 = cohomology(m.truncate(118), 120)
    check("dim H^120(trunc 118) = 3", h120.dimension == 3, h120.dimension)
    check(
        "lift verification clean",
        payload["lift_verified"]["failed"] == 0,
        payload["lift_verified"],
    )
    ok = all(c["ok"] for c in checks)
    return {"model": "V-ex31", "checks": checks, "solve": payload}, warnings, ok


def _reproduce_ex32() -> tuple[dict, list[str], bool]:
    m = corpus.load_builtin("W-ex32")
    checks: list[dict] = []
    warnings: list[str] = []

    def check(name: str, ok: bool, got) -> None:
        checks.append({"check": name, "ok": bool(ok), "got": got})

    payload, _ = _solve_payload(m)
    check("5 coherent morphisms", payload["morphisms"] == 5, payload["morphisms"])
    check("4 coherent automorphisms", payload["automorphisms"] == 4, payload["automorphisms"])
    check(
        "group is Z2 + Z2",
        payload["group"]["order"] == 4 and payload["group"]["torsion_rank"] == 2,
        payload["group"],
    )
    inv = [tuple(Fraction(x) for x in vec) for vec in payload["solutions"] if all(x != "0" for x in vec)]
    identity_vec = tuple([Q(1)] * 7)
    order2 = all(
        tuple(a * a for a in vec) == identity_vec for vec in inv if vec != identity_vec
    )
    check("non-identity automorphisms have order 2", order2, None)
    check(
        "lift verification clean",
        payload["lift_verified"]["failed"] == 0,
        payload["lift_verified"],
    )
    ok = all(c["ok"] for c in checks)
    return {"model": "W-ex32", "checks": checks, "solve": payload}, warnings, ok


def _reproduce_tower() -> tuple[dict, list[str], bool]:
    checks: list[dict] = []
    warnings: list[str] = []
    entries: list[dict] = []

    def check(name: str, ok: bool, got) -> None:
        checks.append({"check": name, "ok": bool(ok), "got": got})

    u_expect_torsion = {f"U{i}": i + 2 for i in range(1, 9)}
    for label in [f"U{i}" for i in range(1, 9)]:
        payload, notes = _solve_payload(corpus.load_builtin(label))
        entries.append({"model": label, "group": payload["group"], "morphisms": payload["morphisms"]})
        warnings.extend(f"{label}: {n}" for n in notes)
        check(
            f"{label} as written has an infinite coherent automorphism family",
            payload["group"]["order"] == "infinite",
            payload["group"],
        )
        check(
            f"{label} torsion rank = {u_expect_torsion[label]}",
            payload["group"]["torsion_rank"] == u_expect_torsion[label],
            payload["group"]["torsion_rank"],
        )
        check(
            f"{label} lift verification clean",
            payload["lift_verified"]["failed"] == 0,
            payload["lift_verified"],
        )
    warnings.append(
        "paper discrepancy: U1..U8 as written have unconstrained variables "
        "(x3^40, x5^20, x15^8 vanish), so Coh.Aut is infinite and the claim "
        "'⊕_{2^n} Z2 realizable for n <= 10' is NOT reproducible as written; "
        "the even tower E2..E7 realizes ranks 2..7"
    )
    warnings.append(
        "paper discrepancy: U1 is listed with 8 automorphisms but named "
        "Z2⊕Z2⊕Z2⊕Z2 (8 elements force rank 3); computed sign-torsion rank is 3"
    )
    e_ranks = []
    for label in [f"E{i}" for i in range(2, 8)]:
        payload, notes = _solve_payload(corpus.load_builtin(label))
        entries.append({"model": label, "group": payload["group"], "morphisms": payload["morphisms"]})
        warnings.extend(f"{label}: {n}" for n in notes)
        e_ranks.append(payload["group"]["torsion_rank"])
        check(
            f"{label} is finite elementary abelian",
            payload["group"]["order"] != "infinite" and payload["group"]["free_rank"] == 0,
            payload["group"],
        )
        check(
            f"{label} lift verification clean",
            payload["lift_verified"]["failed"] == 0,
            payload["lift_verified"],
        )
    check(
        "E2..E7 ranks strictly increasing (2,3,4,5,6,7)",
        e_ranks == [2, 3, 4, 5, 6, 7],
        e_ranks,
    )
    ok = all(c["ok"] for c in checks)
    return {"entries": entries, "checks": checks}, warnings, ok


def cmd_reproduce(args) -> int:
    t0 = time.monotonic()
    parts = {
        "ex31": _reproduce_ex31,
        "ex32": _reproduce_ex32,
        "tower": _reproduce_tower,
    }
    selected = list(parts) if args.what == "all" else [args.what]
    results: dict = {}
    warnings: list[str] = []
    ok = True
    for name in selected:
        payload, part_warnings, part_ok = parts[name]()
        results[name] = payload
        results[name]["ok"] = part_ok
        warnings.extend(part_warnings)
        ok = ok and part_ok
    results["ok"] = ok
    if not args.json:
        for name in selected:
            print(f"[{name}] {'PASS' if results[name]['ok'] else 'FAIL'}")
            for c in results[name]["checks"]:
                mark = "ok" if c["ok"] else "FAIL"
                print(f"  [{mark}] {c['check']}")
    return _emit(args, "reproduce", args.what, results, warnings, t0, 0 if ok else 1)


# --- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohaut",
        description="Whitehead exact sequences and coherent automorphism groups "
        "of 1-connected minimal Sullivan algebras over Q (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, "check model axioms (degrees, minimality, d^2 = 0)")
    p.add_argument("model", help="builtin label or .mcca file")

    p = add("cohomology", cmd_cohomology, "cohomology basis of a (truncated) model")
    p.add_argument("model")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--truncate", type=int, default=None, help="generator-degree cutoff")
    p.add_argument("--max-representatives", type=int, default=64)

    p = add("wes", cmd_wes, "build the Whitehead exact sequence and verify exactness")
    p.add_argument("model")
    p.add_argument("--max", type=int, default=None, help="top degree (default: top generator + 1)")
    p.add_argument(
        "--all-nodes",
        dest="nontrivial_only",
        action="store_false",
        help="list nodes with V^n = 0 too",
    )

    p = add("coherent", cmd_coherent, "decide coherence of a graded linear map by lifting")
    p.add_argument("model")
    p.add_argument("--xi", required=True, help="p10=1,p12=-1,... or a JSON matrix file")

    p = add("solve", cmd_solve, "full diagonal pipeline: extract, solve, group, lift-verify")
    p.add_argument("model")

    p = add("iso", cmd_iso, "decide coherent isomorphism of two diagonal models")
    p.add_argument("model_a")
    p.add_argument("model_b")

    p = add("extend", cmd_extend, "add a closed generator x with x^k closing a generator")
    p.add_argument("model")
    p.add_argument("--gen", required=True, help="d:k or d:k:name (requires d*k = |closing|+1)")
    p.add_argument("--closing", default="z", help="generator whose differential is extended")

    p = add("reproduce", cmd_reproduce, "re-run the worked examples and audit the tower")
    p.add_argument("what", choices=["ex31", "ex32", "tower", "all"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (UsageError, dsl.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout was closed (`| head`): the exit flush must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
