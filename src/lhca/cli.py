"""Command-line front end.

Subcommands:
  check  -- Latin verdict for one rule: per-window determinants plus,
            within budget, an independent brute-force line sweep.  The
            two verdicts must agree; disagreement exits 4.
  count  -- number of Latin-generating rules for (q, b, k), recounted
            by graph walks and by sweeping every rule, each whenever
            its budget admits it; a forced --verify over budget exits 3.
  graph  -- the de Bruijn graph over nonsingular windows (dot or json);
            a graph with more edges than the enumeration budget is
            refused with exit 3, and a built graph whose edges are not
            the closed form's exits 4.
  synth  -- synthesize Latin-generating rules from graph walks.
  dump   -- all cube entries (text or json).

Flags: the one table of the flags each subcommand takes and requires is
in README.md, section "Command line"; build_parser declares them.

Exit codes: 0 success, 1 a checked property is false (non-Latin rule),
2 usage or value error, 3 budget exceeded, 4 two independent routes
disagree (a bug in lhca; nothing is written).  A usage error, a missing,
unknown or conflicting flag, is argparse's, so main() raises
SystemExit(2) for it.  JSON output is exactly json.dumps(indent=2),
written at join speed; counts are decimal strings.  --budget overrides
the default enumeration and entry budgets.  Sampling exits 3 when one
line has more than 2^30 bytes of inputs, whatever the budget.  synth
--all sweeps and samples only when its whole set of rules fits the entry
budget; a set of one rule samples as check and synth --index do, past
the budget.  synth refuses a walk whose k - 2 windows outnumber the
enumeration budget, since at out-degree 1 no walk count bounds it.
Every other budget bounds a power of q or of the out-degree, and each
refusal is decided before any work, with no huge power built, by one
exact test, errors.bounded_power, the k >= 3 count and its walk recount
included.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import ge

from .debruijn import (
    _walk_total,
    build_graph,
    cross_check_count,
    enumerate_paths,
    latin_hypercube_count,
    rule_from_path,
    unrank_path,
)
from .errors import BudgetExceededError, CrossCheckError, bounded_power
from .field import GF
from .hypercube import (
    DEFAULT_ENTRY_BUDGET,
    _dump_parts,
    check_random_lines,
    is_latin,
)
from .rules import LinearRule, block_structure, rule_from_json
from .toeplitz import DEFAULT_SUPPORT_BUDGET, window_dets

def _parse_coeffs(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.replace(",", " ").split())


def _load_rule(args: argparse.Namespace):
    if args.rule_file is not None:
        with open(args.rule_file) as fh:
            rule = rule_from_json(json.load(fh))
        b, k = block_structure(rule)
        # a flag may repeat the file's reading, never contradict it
        for name, value in (("q", rule.field.q), ("b", b), ("k", k)):
            if getattr(args, name) not in (None, value):
                raise ValueError(f"--{name} {getattr(args, name)} contradicts "
                                 f"the rule file's {name} = {value}")
        if (args.poly is not None
                and GF(rule.field.q, poly=args.poly) != rule.field):
            raise ValueError(f"--poly {args.poly} contradicts the rule "
                             f"file's field {rule.field!r}")
        return rule
    if args.q is None or args.b is None or args.k is None:
        raise ValueError("inline rules need --q, --b and --k")
    return LinearRule(GF(args.q, poly=args.poly), args.b, args.k,
                      _parse_coeffs(args.coeffs))


def _check_report(rule, args: argparse.Namespace) -> dict:
    """Shared by check and synth: criterion verdict, oracle verdict,
    CrossCheckError when they disagree."""
    report = rule.to_json()
    if isinstance(rule, LinearRule):
        dets = window_dets(rule)
        report["windows"] = [{"det": d} for d in dets]
        latin = all(d != 0 for d in dets)
        if not latin:
            report["failing_window"] = 1 + dets.index(0)
        report["latin"] = latin
        verify = args.verify
        if verify is None:
            verify = bounded_power(rule.field.q, rule.b * rule.k,
                                   args.entry_budget) is not None
        if verify:
            # a forced --verify above budget raises rather than running
            # unbounded; raise --budget to allow it
            if bool(is_latin(rule, budget=args.entry_budget)) != latin:
                raise CrossCheckError(
                    "window criterion and exhaustive line sweep disagree on "
                    f"{rule}")
            report["oracle"] = "agree"
        elif args.seed is not None:
            sampled = check_random_lines(rule, n_lines=1000, seed=args.seed)
            if latin and not sampled:
                raise CrossCheckError(
                    f"sampled counterexample {sampled} on a rule the window "
                    "criterion calls Latin")
            report["oracle"] = ("sampled-agree" if latin or not sampled
                                else "sampled-inconclusive")
        else:
            report["oracle"] = "skipped"
        return report
    # general rules carry no window structure: the sweep is the verdict
    report["latin"] = bool(is_latin(rule, budget=args.entry_budget))
    report["oracle"] = "oracle-only"
    return report


def cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    rule = _load_rule(args)
    report = _check_report(rule, args)
    return _json(report), 0 if report["latin"] else 1


def cmd_count(args: argparse.Namespace) -> tuple[str, int]:
    fld, b, k = GF(args.q, poly=args.poly), args.b, args.k
    counts = {"formula": latin_hypercube_count(fld, b, k)}
    if args.verify is not False:
        try:
            counts = cross_check_count(fld, b, k, args.enum_budget,
                                       args.entry_budget)
        except BudgetExceededError:
            # decided before any work: only a forced --verify exits 3
            if args.verify:
                raise
    report = {**fld.short_json(), "b": b, "k": k,
              **{name: _decimal(n) for name, n in counts.items()}}
    if len(counts) > 1:
        report["match"] = True
    return _json(report), 0


def cmd_graph(args: argparse.Namespace) -> tuple[str, int]:
    fld, b, budget = GF(args.q, poly=args.poly), args.b, args.enum_budget
    q = fld.q
    # build_graph bounds the q^(2b-1) windows; edges are about q^b times
    # more.  Their closed form (q-1)^2 q^(3b-3) refuses a graph before it
    # is built, and a built graph with other V * D is not written.
    power = bounded_power(q, 3 * b - 3, budget // (q - 1) ** 2)
    if power is None:
        raise BudgetExceededError(
            f"{q - 1}^2 * {q}^{3 * b - 3} edges exceed the enumeration "
            f"budget {budget}")
    g, edges = build_graph(fld, b, budget), (q - 1) ** 2 * power
    if len(g.vertices) * g.degree != edges:
        raise CrossCheckError(
            f"{len(g.vertices)} vertices of out-degree {g.degree} disagree "
            f"with the closed form's {edges} edges for q={q}, b={b}")
    if args.format == "json":
        return _json(g.to_json()), 0
    return g.to_dot(), 0


def cmd_synth(args: argparse.Namespace) -> tuple[str, int]:
    if args.k < 3:
        raise ValueError("synthesis needs k >= 3; k = 2 squares are not "
                         "walk-generated")
    fld = GF(args.q, poly=args.poly)
    g, length = build_graph(fld, args.b, args.enum_budget), args.k - 3
    if args.all:
        # one oracle for the whole set, bounded before any walk is found
        count = _walk_total(g, length, args.enum_budget)
        budget = args.entry_budget // count
        fits = bounded_power(fld.q, args.b * args.k, budget) is not None
        args.verify = fits if args.verify is None else args.verify
        # one rule samples past the budget, as check and --index do
        if (not fits if args.verify else args.seed is not None and count > 1
                and bounded_power(fld.q, args.b, budget // 1000) is None):
            raise BudgetExceededError(
                f"{'sweeping' if args.verify else 'sampling'} {count} rules "
                f"exceeds the entry budget {args.entry_budget}")
    if args.k - 2 > args.enum_budget:
        raise BudgetExceededError(f"a walk of {args.k - 2} windows exceeds "
                                  f"the enumeration budget {args.enum_budget}")
    walks = (list(enumerate_paths(g, length, args.enum_budget)) if args.all
             else [unrank_path(g, length, args.index)])
    if args.all and (len(walks) != count or any(map(ge, walks, walks[1:]))):
        raise CrossCheckError(f"{len(walks)} walks are not the {count} "
                              "walks in increasing order")
    try:  # the walks are lhca's own, so a refused one is lhca's fault
        rules = [rule_from_path(fld, w) for w in walks]
    except ValueError as exc:
        raise CrossCheckError(f"walk from the window graph: {exc}") from None
    for rule in rules:
        if not _check_report(rule, args)["latin"]:
            raise CrossCheckError(f"synthesized rule {rule} failed validation")
    payload = [r.to_json() for r in rules]
    return _json(payload if args.all else payload[0]), 0


def cmd_dump(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    rule = _load_rule(args)
    return _dump_parts(rule, args.format, args.entry_budget), 0


def _decimal(n: int) -> str:
    """Decimal digits of a count n >= 0.  Past 1024 bits, where str(int) is
    quadratic and may pass ``sys.get_int_max_str_digits()`` (640 at least),
    n is split on powers of two into an exact Decimal, as CPython 3.12 does."""
    if n.bit_length() <= 1024:
        return str(n)
    import decimal
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        power = functools.cache(decimal.Decimal(2).__pow__)  # 2^w built once

        def split(m, w):  # m < 2^w
            if w <= 1024:
                return decimal.Decimal(m)
            half, hi = w >> 1, m >> (w >> 1)
            return (split(m - (hi << half), half)
                    + split(hi, w - half) * power(half))

        return str(split(n, n.bit_length()))


def _index(text: str) -> int:
    """``int(text)``, and past 4000 ASCII digits, where int() may pass
    ``sys.get_int_max_str_digits()``, the inverse of :func:`_decimal`:
    the halves of the digits joined by powers of ten."""
    if len(text) <= 4000 or not (text.isascii() and text.isdigit()):
        return int(text)
    power = functools.cache((10).__pow__)  # each 10^w built once

    def join(s):
        half = len(s) >> 1
        return (int(s) if len(s) <= 4000
                else join(s[:-half]) * power(half) + join(s[-half:]))
    return join(text)


_index.__name__ = "int"  # argparse names the type in its errors


def _json(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2)`` and a newline, each list
    of ints, or of equally long int rows, written by one ``%``."""
    return _encode(payload, "\n") + "\n"


def _encode(x, nl: str) -> str:
    """x as json.dumps(indent=2) writes it on a line that ``nl`` opens."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, (bool, float)):
        return json.dumps(x)
    if isinstance(x, int):
        return int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, dict):  # a key that is not a str is a TypeError
        strs = [encode_basestring_ascii(k) + ": " + _encode(v, inner)
                for k, v in x.items()]
        return "{" + inner + ("," + inner).join(strs) + nl + "}" if x else "{}"
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{type(x).__name__} is not JSON serializable")
    # ints, or equally long rows of ints, fill one template of json's
    # separators with a single %-format
    if set(map(type, x)) == {int}:
        flat, body = x, ("," + inner).join(["%d"] * len(x))
    elif (set(map(type, x)) <= {list, tuple} and len(set(map(len, x))) == 1
          and set(map(type, flat := [*chain.from_iterable(x)])) == {int}):
        cell = inner + "  "
        row = "[" + cell + ("," + cell).join(["%d"] * len(x[0])) + inner + "]"
        body = ("," + inner).join([row] * len(x))
    else:
        body = ("," + inner).join([_encode(v, inner) for v in x])
        return "[" + inner + body + nl + "]" if x else "[]"
    return ("[" + inner + body + nl + "]") % tuple(flat)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lhca", description=(
        "Latin hypercubes from linear cellular automata over GF(q)"))
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="Latin verdict for one rule")
    count = sub.add_parser("count", help="count Latin-generating rules")
    graph = sub.add_parser("graph", help="export the window graph")
    synth = sub.add_parser("synth", help="rules from graph walks")
    dumps = sub.add_parser("dump", help="list all cube entries")
    check.set_defaults(run=cmd_check)
    count.set_defaults(run=cmd_count)
    graph.set_defaults(run=cmd_graph)
    synth.set_defaults(run=cmd_synth)
    dumps.set_defaults(run=cmd_dump)
    every = (check, count, graph, synth, dumps)

    def add(flag, parsers, required=(), **kwargs):
        for p in parsers:
            p.add_argument(flag, required=p in required, **kwargs)

    given = (count, graph, synth)  # no rule file to read q and b off
    add("--q", every, given, type=int, help="field order (prime power)")
    add("--poly", every, type=int,
        help="integer encoding of the field's modulus (default: the "
             "smallest irreducible one)")
    add("--b", every, given, type=int, help="block size")
    add("--k", (check, count, synth, dumps), (count, synth), type=int,
        help="hypercube dimension")
    rule = [p.add_mutually_exclusive_group(required=True)
            for p in (check, dumps)]
    add("--coeffs", rule,
        help="interior coefficients a_2..a_{d-1}, comma or space separated")
    add("--rule-file", rule, help="rule as JSON")
    graph.add_argument("--format", choices=("dot", "json"), default="dot")
    dumps.add_argument("--format", choices=("text", "json"), default="text")
    walks = synth.add_mutually_exclusive_group(required=True)
    walks.add_argument("--index", type=_index,
                       help="emit the nth rule (0-based), of any length")
    walks.add_argument("--all", action="store_true", help="emit every rule")
    add("--budget", every, type=int,
        help="enumeration and entry cap (default: built-in)")
    add("--verify", (check, count, synth),
        action=argparse.BooleanOptionalAction, default=None,
        help="force the exhaustive cross-check on or off "
             "(default: on within budget)")
    add("--seed", (check, synth), type=int,
        help="seed for sampled checks above budget")
    add("--out", every, help="write to file instead of stdout")
    return parser


# parsing keeps no state between calls, so one parser serves every main()
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.budget is not None and args.budget < 1:
            raise ValueError(f"--budget {args.budget}: budget must be a "
                             "positive integer")
        args.enum_budget = args.budget or DEFAULT_SUPPORT_BUDGET
        args.entry_budget = args.budget or DEFAULT_ENTRY_BUDGET
        payload, code = args.run(args)
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            # a dump's parts are evaluated one at a time, as they are written
            fh.writelines([payload] if isinstance(payload, str) else payload)
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
