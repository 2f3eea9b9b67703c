"""Command-line front end.

Subcommands:
  check  -- Latin verdict for one rule: per-window determinants plus,
            within budget, an independent brute-force line sweep.  The
            two verdicts must agree; disagreement aborts the process.
  count  -- number of Latin-generating rules for (q, b, k); --verify
            recounts by graph walks and, within budget, by sweeping
            every rule.
  graph  -- the de Bruijn graph over nonsingular windows (dot or json).
  synth  -- synthesize Latin-generating rules from graph walks.
  dump   -- all cube entries (text or json).

Rules are given inline (--q/--b/--k/--coeffs) or as a JSON file
(--rule-file).  Exit codes: 0 success, 1 a checked property is false
(non-Latin rule), 2 usage or value error, 3 budget exceeded.  All counts
are emitted as decimal strings.  LHCA_BUDGET overrides the default
enumeration and entry budgets; --budget overrides both per run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .debruijn import (
    build_graph,
    cross_check_count,
    enumerate_paths,
    latin_hypercube_count,
    rule_from_path,
    unrank_path,
)
from .errors import BudgetExceededError
from .field import GF
from .hypercube import (
    DEFAULT_ENTRY_BUDGET,
    check_random_lines,
    dump,
    dump_text,
    is_latin,
)
from .rules import (
    DEFAULT_INT_BITS,
    LinearRule,
    rule_from_json,
)
from .toeplitz import DEFAULT_SUPPORT_BUDGET, window_dets

BUDGET_ENV = "LHCA_BUDGET"
AUTO_VERIFY_RULES = 1 << 16


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; fully determines the run."""

    command: str
    q: int | None = None
    b: int | None = None
    k: int | None = None
    coeffs: tuple[int, ...] | None = None
    rule_file: str | None = None
    fmt: str | None = None
    out: str | None = None
    workers: int | None = None
    index: int | None = None
    emit_all: bool = False
    enum_budget: int = DEFAULT_SUPPORT_BUDGET
    entry_budget: int = DEFAULT_ENTRY_BUDGET
    max_bits: int = DEFAULT_INT_BITS
    verify: bool | None = None
    seed: int | None = None


def _parse_coeffs(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.replace(",", " ").split())


def _load_rule(cfg: RunConfig):
    if cfg.rule_file is not None:
        if cfg.coeffs is not None:
            raise ValueError("give either --rule-file or --coeffs, not both")
        with open(cfg.rule_file) as fh:
            return rule_from_json(json.load(fh))
    if cfg.coeffs is None:
        raise ValueError("need --rule-file or --coeffs")
    if cfg.q is None or cfg.b is None or cfg.k is None:
        raise ValueError("inline rules need --q, --b and --k")
    return LinearRule(GF(cfg.q), cfg.b, cfg.k, cfg.coeffs)


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ValueError("missing " + ", ".join(f"--{n}" for n in missing))


def _check_report(rule, cfg: RunConfig) -> dict:
    """Shared by check and synth: criterion verdict, oracle verdict,
    fatal assert that they agree."""
    fld = rule.field
    report: dict = fld.short_json()
    if isinstance(rule, LinearRule):
        b, k = rule.b, rule.k
        report.update(b=b, k=k, coeffs=list(rule.coeffs))
        dets = window_dets(rule)
        report["windows"] = [{"det": d} for d in dets]
        latin = all(d != 0 for d in dets)
        if not latin:
            report["failing_window"] = 1 + dets.index(0)
        report["latin"] = latin
        size = fld.q ** (b * k)
        verify = cfg.verify
        if verify is None:
            verify = size <= cfg.entry_budget
        if verify:
            # a forced --verify above budget raises rather than running
            # unbounded; raise --budget to allow it
            sweep = is_latin(rule, budget=cfg.entry_budget)
            assert bool(sweep) == latin, (
                "window criterion and exhaustive line sweep disagree on "
                f"{rule}; this is a bug, not an input problem")
            report["oracle"] = "agree"
        elif cfg.seed is not None:
            sampled = check_random_lines(rule, n_lines=1000, seed=cfg.seed)
            if not sampled:
                assert not latin, (
                    f"sampled counterexample {sampled} on a rule the window "
                    "criterion calls Latin; this is a bug")
                report["oracle"] = "sampled-agree"
            else:
                report["oracle"] = ("sampled-agree" if latin
                                    else "sampled-inconclusive")
        else:
            report["oracle"] = "skipped"
        return report
    # general rules carry no window structure: the sweep is the verdict
    report.update(d=rule.d, g_table=list(rule.g_table))
    report["latin"] = bool(is_latin(rule, budget=cfg.entry_budget))
    report["oracle"] = "oracle-only"
    return report


def cmd_check(cfg: RunConfig) -> tuple[str, int]:
    rule = _load_rule(cfg)
    report = _check_report(rule, cfg)
    return _json(report), 0 if report["latin"] else 1


def cmd_count(cfg: RunConfig) -> tuple[str, int]:
    _require(cfg, "q", "b", "k")
    fld = GF(cfg.q)
    q, b, k = fld.q, cfg.b, cfg.k
    formula = latin_hypercube_count(fld, b, k, max_bits=cfg.max_bits)
    report = {"q": q, "b": b, "k": k, "formula": str(formula)}
    verify = cfg.verify
    if verify is None:
        # exhaustive space: q^(b(k-1)-1) linear rules, or the formula's
        # bipermutive ones at k = 2, which only a sweep within the entry
        # budget can check; the exponent guard avoids a huge integer
        if k >= 3:
            exp = b * (k - 1) - 1
            verify = exp <= 64 and q ** exp <= AUTO_VERIFY_RULES
        else:
            verify = (formula <= AUTO_VERIFY_RULES
                      and formula * q ** (2 * b) <= cfg.entry_budget)
    if verify:
        counts = cross_check_count(fld, b, k, cfg.enum_budget,
                                   cfg.entry_budget, cfg.max_bits, cfg.workers)
        report.update((name, str(n)) for name, n in counts.items())
        report["match"] = True
    return _json(report), 0


def cmd_graph(cfg: RunConfig) -> tuple[str, int]:
    _require(cfg, "q", "b")
    g = build_graph(GF(cfg.q), cfg.b, cfg.enum_budget)
    if cfg.fmt == "json":
        return _json(g.to_json()), 0
    return g.to_dot(), 0


def cmd_synth(cfg: RunConfig) -> tuple[str, int]:
    _require(cfg, "q", "b", "k")
    if cfg.k < 3:
        raise ValueError("synthesis needs k >= 3; k = 2 squares are not "
                         "walk-generated")
    if cfg.emit_all == (cfg.index is not None):
        raise ValueError("give exactly one of --index or --all")
    fld = GF(cfg.q)
    g = build_graph(fld, cfg.b, cfg.enum_budget)
    if cfg.emit_all:
        walks = enumerate_paths(g, cfg.k - 3, cfg.enum_budget)
        rules = [rule_from_path(fld, w) for w in walks]
    else:
        walk = unrank_path(g, cfg.k - 3, cfg.index, cfg.max_bits)
        rules = [rule_from_path(fld, walk)]
    for rule in rules:
        report = _check_report(rule, cfg)
        assert report["latin"], f"synthesized rule {rule} failed validation"
    payload = [r.to_json() for r in rules]
    return _json(payload if cfg.emit_all else payload[0]), 0


def cmd_dump(cfg: RunConfig) -> tuple[str, int]:
    rule = _load_rule(cfg)
    if cfg.fmt == "json":
        return _json(dump(rule, budget=cfg.entry_budget)), 0
    return dump_text(rule, budget=cfg.entry_budget), 0


COMMANDS = {
    "check": cmd_check,
    "count": cmd_count,
    "graph": cmd_graph,
    "synth": cmd_synth,
    "dump": cmd_dump,
}


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhca",
        description="Latin hypercubes from linear cellular automata over GF(q)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, rule: bool = False, fmt: tuple | None = None,
                   workers: bool = False, synth: bool = False):
        p.add_argument("--q", type=int, help="field order (prime power)")
        p.add_argument("--b", type=int, help="block size")
        p.add_argument("--k", type=int, help="hypercube dimension")
        if rule:
            p.add_argument("--coeffs",
                           help="interior coefficients a_2..a_{d-1}, "
                                "comma or space separated")
            p.add_argument("--rule-file", help="rule as JSON")
        if fmt:
            p.add_argument("--format", choices=fmt[0], default=fmt[1])
        if workers:
            p.add_argument("--workers", type=int)
        if synth:
            p.add_argument("--index", type=int,
                           help="emit the nth rule (0-based)")
            p.add_argument("--all", action="store_true",
                           help="emit every rule")
        p.add_argument("--budget", type=int,
                       help="enumeration and entry cap (default "
                            f"${BUDGET_ENV} or built-in)")
        p.add_argument("--verify", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="force the exhaustive cross-check on or off "
                            "(default: on within budget)")
        p.add_argument("--seed", type=int,
                       help="seed for sampled checks above budget")
        p.add_argument("--out", help="write to file instead of stdout")

    add_common(sub.add_parser("check", help="Latin verdict for one rule"),
               rule=True)
    add_common(sub.add_parser("count", help="count Latin-generating rules"),
               workers=True)
    add_common(sub.add_parser("graph", help="export the window graph"),
               fmt=(("dot", "json"), "dot"))
    add_common(sub.add_parser("synth", help="rules from graph walks"),
               synth=True)
    add_common(sub.add_parser("dump", help="list all cube entries"),
               rule=True, fmt=(("text", "json"), "text"))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    budget = args.budget
    if budget is None and os.environ.get(BUDGET_ENV):
        budget = int(os.environ[BUDGET_ENV])
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    coeffs = getattr(args, "coeffs", None)
    return RunConfig(
        command=args.command,
        q=args.q,
        b=args.b,
        k=args.k,
        coeffs=None if coeffs is None else _parse_coeffs(coeffs),
        rule_file=getattr(args, "rule_file", None),
        fmt=getattr(args, "format", None),
        out=args.out,
        workers=getattr(args, "workers", None),
        index=getattr(args, "index", None),
        emit_all=getattr(args, "all", False),
        enum_budget=budget if budget is not None else DEFAULT_SUPPORT_BUDGET,
        entry_budget=budget if budget is not None else DEFAULT_ENTRY_BUDGET,
        verify=args.verify,
        seed=args.seed,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        payload, code = COMMANDS[cfg.command](cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
