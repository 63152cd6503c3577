"""Command line front end.

Subcommands wrap the library with JSON persistence so batch runs are
reproducible: identical invocations emit byte-identical JSON (keys are
always sorted).  Exit codes are part of the contract: 0 success, 1
malformed input, 2 indeterminate arithmetic, 3 no common tail.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bratteli as bratteli_mod
from .cf import (
    PERIODIC,
    Expansion,
    Tail,
    expand_certified,
    expansion_from_json,
    expansion_to_json,
)
from .errors import (
    BudgetExceeded,
    IndeterminateFloor,
    InvalidGenus,
    JperronError,
    MalformedInput,
    NoCommonTail,
)
from .lattices import genus_rank
from .representation import (
    build_representation,
    job_from_json,
    representation_to_json,
    verify,
)
from .scalars import _check_exponent, scalar_from_json, vector_from_json

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INDETERMINATE = 2
EXIT_NO_COMMON_TAIL = 3


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor``, imported on first call:
    it pulls in ``multiprocessing``, which only an ``expand`` batch with
    ``--jobs`` above 1 needs."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are malformed input (exit 1),
    not argparse's exit 2, which the CLI keeps for indeterminate
    arithmetic.  Subparsers are made of the same class."""

    def error(self, message):
        raise MalformedInput(message)


def _render(fn, *args, **kwargs):
    """The report ``fn(*args, **kwargs)`` builds, as one string.

    The whole report is built before anything is written, so a failure
    leaves stdout empty.
    """
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        # an integer beyond Python's int/str digit limit
        raise JperronError("cannot print the result: %s" % exc) from exc


def _emit(obj, stream=None):
    stream = stream or sys.stdout
    stream.write(_render(json.dumps, obj, sort_keys=True) + "\n")


def _error(kind, message, position=None):
    payload = {"error": kind, "message": message}
    if position is not None:
        payload["position"] = position
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _exact_number(text):
    """A JSON number with a fraction or an exponent, read exactly from its
    text (a float would round it)."""
    _check_exponent(text)
    return Fraction(text)


def _load_json(text):
    try:
        return json.loads(text, parse_float=_exact_number)
    except json.JSONDecodeError as exc:
        raise MalformedInput(str(exc), position=exc.pos) from exc
    except ValueError as exc:
        # e.g. an integer literal beyond Python's int/str digit limit
        raise MalformedInput(str(exc)) from exc


def _read_input(args):
    if getattr(args, "theta", None):
        return _load_json(args.theta)
    if getattr(args, "input", None):
        if args.input == "-":
            return _load_json(sys.stdin.read())
        with open(args.input, "r", encoding="utf-8") as fh:
            return _load_json(fh.read())
    raise MalformedInput("no input given: use --theta or --input")


def _coerce_entry(entry, mode):
    """In interval mode a bare number is the point interval at its value."""
    if mode != "interval" or not isinstance(entry, (int, Fraction, str)):
        return entry
    value = scalar_from_json(entry).value
    pair = [value.numerator, value.denominator]
    return {"ivl": {"lo": pair, "hi": pair}}


def _theta_from_obj(obj, mode):
    if not isinstance(obj, list):
        raise MalformedInput("theta must be a JSON array")
    return vector_from_json([_coerce_entry(e, mode) for e in obj])


def _looks_like_scalar(obj):
    if isinstance(obj, dict):
        return True
    if isinstance(obj, (int, Fraction, str)):
        return True
    if (
        isinstance(obj, list)
        and len(obj) == 2
        and isinstance(obj[0], str)
    ):
        return True
    return False


def _expand_one(theta_obj, mode, depth, budget):
    theta = _theta_from_obj(theta_obj, mode)
    if depth < 0:
        raise MalformedInput("depth must be non-negative")
    exp = expand_certified(theta, depth, budget)
    if exp.tail.kind == PERIODIC:
        blocks = exp.realize(max(depth, exp.depth))
        return Expansion(exp.rank, tuple(blocks), exp.tail, theta=exp.theta)
    if exp.depth > depth:
        # terminated past the requested depth: print the requested prefix
        tail = Tail.truncated()
        return Expansion(exp.rank, exp.blocks[:depth], tail, theta=exp.theta)
    return exp


def _expand_job(payload):
    return expansion_to_json(_expand_one(*payload))


def cmd_expand(args):
    obj = _read_input(args)
    if isinstance(obj, dict) and "theta" in obj:
        obj = obj["theta"]
    if isinstance(obj, list) and obj and all(isinstance(e, list) and not _looks_like_scalar(e) for e in obj):
        jobs = [(item, args.mode, args.depth, args.budget) for item in obj]
        workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_expand_job, jobs))
        else:
            results = [_expand_job(j) for j in jobs]
        _emit(results)
        return EXIT_OK
    exp = _expand_one(obj, args.mode, args.depth, args.budget)
    payload = expansion_to_json(exp)
    if args.format == "text":
        sys.stdout.write(_render(_expand_text, exp, payload))
    else:
        _emit(payload)
    return EXIT_OK


def _expand_text(exp, payload):
    return "rank %d, depth %d, tail %s\nblocks: %s\n" % (
        exp.rank,
        exp.depth,
        exp.tail.kind,
        payload["blocks"],
    )


def cmd_bratteli(args):
    # --format json and dot read no budget, and reject a negative one too
    if args.budget is not None and args.budget < 0:
        raise MalformedInput("budget %d is negative" % args.budget)
    if args.compare:
        exps = []
        for path in args.compare:
            with open(path, "r", encoding="utf-8") as fh:
                exps.append(expansion_from_json(_load_json(fh.read())))
        budget = 16 if args.budget is None else args.budget
        decision = bratteli_mod.tail_equivalent(exps[0], exps[1], depth_budget=budget)
        payload = {
            "verdict": decision.verdict,
            "offsets": list(decision.offsets) if decision.offsets else None,
            "compared_depth": decision.compared_depth,
            "certified": decision.certified,
            "note": decision.note,
        }
        if args.format == "text":
            sys.stdout.write(_render(_tail_text, decision))
        else:
            _emit(payload)
        return EXIT_OK
    obj = _read_input(args)
    exp = expansion_from_json(obj)
    diag = bratteli_mod.build_diagram(exp)
    if args.format == "dot":
        sys.stdout.write(_render(bratteli_mod.to_dot, diag, depth=args.depth))
    elif args.format == "text":
        budget = 32 if args.budget is None else args.budget
        st = bratteli_mod.is_stationary(exp, budget)
        sys.stdout.write(_render(_diagram_text, diag, exp.tail.kind, bool(st)))
    else:
        _emit(bratteli_mod.diagram_to_json(diag))
    return EXIT_OK


def _diagram_text(diag, tail_kind, stationary):
    return "rank %d, %d levels, tail %s, stationary: %s\n" % (
        diag.rank,
        diag.depth,
        tail_kind,
        stationary,
    )


def _tail_text(decision):
    offs = (
        "offsets %s/%s" % tuple(decision.offsets)
        if decision.offsets
        else "no offsets"
    )
    return "%s, %s\n" % (decision.verdict.replace("_", " "), offs)


def cmd_represent(args):
    obj = _read_input(args)
    if isinstance(obj, dict) and "blocks" in obj and "generators" not in obj:
        exp = expansion_from_json(obj)
        if exp.theta is None:
            raise MalformedInput("expansion input carries no theta vector")
        theta, actions, relations = exp.theta, [], []
    else:
        theta, actions, relations = job_from_json(obj)
    rep = build_representation(theta, actions, depth_budget=args.depth)
    report = verify(rep, relations=relations, budget=args.budget)
    payload = representation_to_json(rep)
    payload["report"] = report.to_json()
    if args.format == "text":
        sys.stdout.write(_render(_represent_text, rep, report))
    else:
        _emit(payload)
    return EXIT_OK


def _represent_text(rep, report):
    lines = [
        "rank %d, certification %s, faithfulness %s"
        % (rep.rank, rep.certification, report.faithfulness)
    ]
    lines.extend("%s: %s" % (name, m) for name, m in sorted(rep.matrices.items()))
    for entry in report.entries:
        mark = "ok" if entry.ok else "FLAG"
        lines.append(
            "[%s] %s%s: %s"
            % (
                mark,
                entry.kind,
                " (%s)" % entry.generator if entry.generator else "",
                entry.message,
            )
        )
    return "".join(line + "\n" for line in lines)


def cmd_genus(args):
    rank = genus_rank(args.g)
    if args.format == "text":
        sys.stdout.write(_render(str, rank) + "\n")
    else:
        _emit({"genus": args.g, "rank": rank})
    return EXIT_OK


def _build_parser():
    parser = _Parser(
        prog="jperron",
        description="Exact Jacobi-Perron expansions, Bratteli diagrams and "
        "unimodular representations of groups acting on expansion vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--theta", help="inline JSON array for the input vector")
        p.add_argument("--input", help="input file path, or - for stdin")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--depth", type=int, default=24)

    p_expand = sub.add_parser("expand", help="Jacobi-Perron expansion of a vector")
    common(p_expand, ["json", "text"])
    p_expand.add_argument(
        "--mode",
        choices=["rational", "interval"],
        default="rational",
        help="how bare numbers in the input are read",
    )
    p_expand.add_argument("--jobs", type=int, default=1)
    p_expand.add_argument("--budget", type=int, default=32)
    p_expand.set_defaults(func=cmd_expand)

    p_brat = sub.add_parser("bratteli", help="diagram export and tail comparison")
    common(p_brat, ["json", "dot", "text"])
    # the budget of the search the subcommand runs: offsets per stream for
    # --compare (default 16), steps of the period search for --format text
    # (default 32)
    p_brat.add_argument("--budget", type=int)
    p_brat.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="two expansion JSON files"
    )
    p_brat.set_defaults(func=cmd_bratteli)

    p_rep = sub.add_parser("represent", help="build and audit a representation")
    common(p_rep, ["json", "text"])
    p_rep.add_argument("--budget", type=int, default=32)
    p_rep.set_defaults(func=cmd_represent)

    p_genus = sub.add_parser("genus", help="coordinate rank of a genus-g surface")
    p_genus.add_argument("g", type=int)
    p_genus.add_argument("--format", choices=["json", "text"], default="json")
    p_genus.set_defaults(func=cmd_genus)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except MalformedInput as exc:
        _error("parse", str(exc), getattr(exc, "position", None))
        return EXIT_MALFORMED
    except (IndeterminateFloor, BudgetExceeded) as exc:
        _error("indeterminate", str(exc))
        return EXIT_INDETERMINATE
    except NoCommonTail as exc:
        _error("no_common_tail", str(exc))
        return EXIT_NO_COMMON_TAIL
    except InvalidGenus as exc:
        _error("invalid_genus", str(exc))
        return EXIT_MALFORMED
    except (JperronError, OSError) as exc:
        _error("error", str(exc))
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
