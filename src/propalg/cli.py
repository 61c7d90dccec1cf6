"""Command-line interface.

Every verb prints machine-parseable ``key: value`` lines (terms rendered by
the canonical printer).  Boolean verdicts are mirrored in the exit code
(0 yes / 1 no); usage and parse errors exit 2 (a statement nested too
deeply to parse is a parse error), exhausted budgets exit 3, and inputs too
deeply nested or too large to process after parsing (Python's recursion
limit or memory ran out) exit 4.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import congruence, expressive, projective, transform
from .sat import acc as _acc_fn, sat as _sat_fn
from .errors import BudgetExceededError, PropalgError
from .syntax import desugar, parse, print_term
from .terms import Term, Variety, atoms
from .valuation import dump_valuation, evaluate, load_valuation

_VARIETIES = [k.value for k in Variety]
_CANONICAL = ["fr", "rp", "cr", "wm", "mem", "st"]


def _variety(text: str) -> Variety:
    return Variety(text)


def _statement(text: str) -> Term:
    return desugar(parse(text))


def _read(path: str) -> str:
    return Path(path).read_text()


def _bool_line(key: str, value: bool) -> int:
    print(f"{key}: {'true' if value else 'false'}")
    return 0 if value else 1


def _load_spec_arg(path: str) -> projective.LinearSpec | projective.IndexedSpec:
    if path in projective.BUILTIN_SPECS:
        return projective.BUILTIN_SPECS[path]()
    return projective.load_spec(_read(path))


def _spec_var(spec, var: str):
    if isinstance(spec, projective.IndexedSpec):
        return int(var.lstrip("X") or "1")
    return var


# ---------------------------------------------------------------------------
# Verb implementations


def _cmd_parse(args) -> int:
    print(f"statement: {print_term(parse(args.statement))}")
    return 0


def _cmd_bf(args) -> int:
    print(f"basic_form: {print_term(congruence.basic_form(_statement(args.statement)))}")
    return 0


def _cmd_normalize(args) -> int:
    out = congruence.normalize(_statement(args.statement), args.variety)
    print(f"normal_form: {print_term(out)}")
    return 0


def _cmd_equal(args) -> int:
    verdict = congruence.equal(_statement(args.lhs), _statement(args.rhs), args.variety)
    return _bool_line("equal", verdict)


def _cmd_equiv(args) -> int:
    p, q = _statement(args.lhs), _statement(args.rhs)
    verdict = congruence.oracle_verdict(p, q, args.variety)
    print(f"verdict: {verdict}")
    return _bool_line("equivalent", verdict != "value")


def _cmd_sat(args, falsify: bool = False) -> int:
    p = _statement(args.statement)
    verdict = _sat_fn(p, args.variety, witness=args.witness and not falsify)
    key = "falsifiable" if falsify else "satisfiable"
    answer = verdict.falsifiable if falsify else verdict.satisfiable
    code = _bool_line(key, answer)
    if args.witness and not falsify and verdict.witness is not None:
        sys.stdout.write(dump_valuation(verdict.witness))
    return code


def _cmd_fal(args) -> int:
    return _cmd_sat(args, falsify=True)


def _cmd_acc(args) -> int:
    names = sorted(a.name for a in _acc_fn(parse(args.statement)))
    print(f"acc: {' '.join(names)}")
    return 0


def _cmd_eval(args) -> int:
    h = load_valuation(_read(args.val))
    result = evaluate(_statement(args.statement), h)
    print(f"value: {'T' if result.value else 'F'}")
    print(f"trace: {'.'.join(result.trace)}")
    return 0 if result.value else 1


def _cmd_project(args) -> int:
    out = projective.project(args.n, _statement(args.statement))
    print(f"projection: {print_term(out)}")
    return 0


def _cmd_spec_project(args) -> int:
    spec = _load_spec_arg(args.spec)
    out = projective.unfold_projection(spec, _spec_var(spec, args.var), args.n)
    print(f"projection: {print_term(out)}")
    return 0


def _cmd_spec_eval(args) -> int:
    spec = _load_spec_arg(args.spec)
    h = load_valuation(_read(args.val))
    result = projective.eval_spec(spec, _spec_var(spec, args.var), h, args.fuel)
    print(f"result: {result}")
    return 0 if result == "T" else 1


def _cmd_transform_caching(args) -> int:
    p = congruence.basic_form(_statement(args.statement))
    out = transform.caching(p)
    print(f"monotest_form: {print_term(out)}")
    return 0


def _cmd_transform_re_eval(args) -> int:
    p = congruence.basic_form(_statement(args.statement))
    spec = transform.re_eval(p, args.variant.replace("-", "_"))
    print(f"start: {spec.start}")
    sys.stdout.write(projective.dump_spec(spec))
    return 0


def _cmd_search(args) -> int:
    target = _statement(args.target)
    catalog = expressive.OperatorCatalog.full(args.body_depth)
    names = {a.name for a in atoms(target)}
    hit = expressive.search_equivalent(
        target, args.variety, names, catalog, args.max_2p, args.result_depth
    )
    print(f"max_2p: {args.max_2p}")
    print(f"body_depth: {args.body_depth}")
    print(f"result_depth: {args.result_depth}")
    if hit is None:
        print("found: false")
        return 1
    print("found: true")
    print(f"witness: {print_term(hit.term)}")
    print(f"two_place_count: {hit.two_place_count}")
    return 0


def _cmd_laws(args) -> int:
    failures = 0
    for name, verdict, expected in congruence.run_law_suite(args.variety):
        ok = expected is None or verdict == expected
        failures += not ok
        print(f"law {name}: {'pass' if ok else 'fail'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="propalg", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def verb(name: str, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def add_variety(p, choices=_VARIETIES):
        p.add_argument("--variety", type=_variety, choices=[Variety(c) for c in choices], required=True)

    verb("parse", _cmd_parse).add_argument("statement")
    verb("bf", _cmd_bf).add_argument("statement")

    p = verb("normalize", _cmd_normalize)
    add_variety(p, _CANONICAL)
    p.add_argument("statement")

    for name, fn in (("equal", _cmd_equal), ("equiv", _cmd_equiv)):
        p = verb(name, fn)
        add_variety(p, _CANONICAL if name == "equal" else _VARIETIES)
        p.add_argument("lhs")
        p.add_argument("rhs")

    for name, fn in (("sat", _cmd_sat), ("fal", _cmd_fal)):
        p = verb(name, fn)
        add_variety(p)
        p.add_argument("--witness", action="store_true")
        p.add_argument("statement")

    verb("acc", _cmd_acc).add_argument("statement")

    p = verb("eval", _cmd_eval)
    p.add_argument("--val", required=True, metavar="FILE")
    p.add_argument("statement")

    p = verb("project", _cmd_project)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("statement")

    spec = sub.add_parser("spec")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    p = spec_sub.add_parser("project")
    p.set_defaults(fn=_cmd_spec_project)
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--var", required=True)
    p.add_argument("-n", type=int, required=True)
    p = spec_sub.add_parser("eval")
    p.set_defaults(fn=_cmd_spec_eval)
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--var", required=True)
    p.add_argument("--val", required=True, metavar="FILE")
    p.add_argument("--fuel", type=int, required=True)

    tr = sub.add_parser("transform")
    tr_sub = tr.add_subparsers(dest="transform_command", required=True)
    p = tr_sub.add_parser("caching")
    p.set_defaults(fn=_cmd_transform_caching)
    p.add_argument("statement")
    p = tr_sub.add_parser("re-eval")
    p.set_defaults(fn=_cmd_transform_re_eval)
    p.add_argument("--variant", choices=["plain", "dlni", "dlni-subst"], default="plain")
    p.add_argument("statement")

    p = verb("search", _cmd_search)
    p.add_argument("--target", required=True, metavar="STMT")
    add_variety(p, _CANONICAL)
    p.add_argument("--max-2p", dest="max_2p", type=int, default=2)
    p.add_argument("--body-depth", dest="body_depth", type=int, default=2)
    p.add_argument("--result-depth", dest="result_depth", type=int, default=3)

    p = verb("laws", _cmd_laws)
    add_variety(p, _CANONICAL)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PropalgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deeply nested or too large ({type(exc).__name__})", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
