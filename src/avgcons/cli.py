"""Command-line interface.

Subcommands:

* ``run``           -- one trial, trace dumped as JSON-Lines.
* ``sweep``         -- Monte Carlo batch from a JSON config; writes
                       per-trial records (JSONL) and a summary (JSON).
* ``verify-graph``  -- graph-product property suites.
* ``verify-bounds`` -- sampling concentration checks.
* ``report``        -- render a summary JSON to CSV.

Exit codes: 0 when everything checked passes, 1 when some claim fails,
2 on usage errors and runs too large for memory.  The master seed comes
from --seed, falling back (except for sweep, whose config holds it) to the
AVGCONS_SEED environment variable, then to the callee's default.  ``run``
and ``verify-*`` pass only the flags given, so the defaults live in the callee.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

from . import harness
from .engine import PROTOCOLS, dump_trace_jsonl, run_trial
from .graph import SCHEDULE_KINDS


def _seed(args: argparse.Namespace, env: bool = True) -> dict:
    """{"seed": s} from --seed, else (if env) from AVGCONS_SEED; {} when
    neither is set.  A seed that is not a non-negative integer is a
    ValueError naming where it came from."""
    source, text = "--seed", getattr(args, "seed", None)
    if text is None and env:
        source, text = "AVGCONS_SEED", os.environ.get("AVGCONS_SEED")
    if text is not None and not (text.isascii() and text.isdigit()):
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return {} if text is None else {"seed": int(text)}


def _parse_schedule(spec: str) -> tuple[str, dict]:
    """'kind' or 'kind:P' -> (kind, the ExperimentConfig field P sets)."""
    kind, colon, arg = spec.partition(":")
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule {spec!r} (kinds: {', '.join(SCHEDULE_KINDS)})")
    field_name = SCHEDULE_KINDS[kind][0]
    if field_name is None:
        if colon:
            raise ValueError(f"schedule {kind!r} takes no parameter, got {spec!r}")
        return kind, {}
    if not arg:
        raise ValueError(f"schedule {kind!r} needs a parameter, e.g. {kind}:4")
    try:
        return kind, {field_name: int(arg)}
    except ValueError:
        raise ValueError(f"schedule {kind!r} needs an integer parameter, got {spec!r}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number float() reads,
    -1e-3 and -inf among them, as a value; argparse itself knows only -N
    and -N.M, and takes the rest for an unknown option.  Its usage errors
    are one line, as every other exit 2 is (-h prints the usage).
    Subparsers are built by the parser's own class, so they act the same."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="avgcons")
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag reads its ExperimentConfig field's type and, left out, leaves its default.
    hints = get_type_hints(harness.ExperimentConfig)
    kind = lambda name: harness.field_type(hints[name])
    run_p = sub.add_parser("run", help="run one trial and dump its trace",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--protocol", required=True, choices=PROTOCOLS)
    run_p.add_argument("--n", type=kind("n"), required=True)
    for name in ("epsilon", "eta", "a", "b"):
        run_p.add_argument(f"--{name}", type=kind(name))
    run_p.add_argument("--bigN", dest="size_bound", type=kind("size_bound"), help="network size bound (rbard)")
    run_p.add_argument("--schedule", help=f"kind or kind:P, kinds: {', '.join(SCHEDULE_KINDS)}")
    run_p.add_argument("--t-max", type=kind("t_max"))
    run_p.add_argument("--seed")
    run_p.add_argument("--s-max", type=kind("s_max"))
    run_p.add_argument("--out", type=Path, default=None, help="trace path (default: stdout)")

    sweep_p = sub.add_parser("sweep", help="Monte Carlo batch from a JSON config")
    sweep_p.add_argument("--config", type=Path, required=True)
    sweep_p.add_argument("--out", type=Path, required=True, help="output directory")
    sweep_p.add_argument("--seed", default=None, help="override config seed")
    sweep_p.add_argument("--trials", type=kind("trials"), default=None, help="override trial count")

    vg = sub.add_parser("verify-graph", help="graph-lemma property suites",
                        argument_default=argparse.SUPPRESS)
    vg.add_argument("--seed")
    vg.add_argument("--cases", dest="product_cases", type=int, help="product-lemma cases")
    vg.add_argument("--c-cases", type=int, help="cases per (n, c) pair")

    vb = sub.add_parser("verify-bounds", help="concentration-bound checks",
                        argument_default=argparse.SUPPRESS)
    vb.add_argument("--seed")
    vb.add_argument("--reps", type=int)

    rep = sub.add_parser("report", help="render a summary JSON to CSV")
    rep.add_argument("--summary", type=Path, required=True)
    rep.add_argument("--out", type=Path, default=None, help="CSV path (default: stdout)")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    fields = harness.ExperimentConfig.__dataclass_fields__
    given = {k: v for k, v in vars(args).items() if k in fields}
    if "schedule" in args:
        kind, schedule_param = _parse_schedule(args.schedule)
        given.update(schedule_kind=kind, **schedule_param)
    cfg = harness.ExperimentConfig(trials=1, **{**given, **_seed(args)})
    trace = run_trial(harness.trial_config(cfg, 0))
    if args.out is None:
        dump_trace_jsonl(trace, sys.stdout)
    else:
        with open(args.out, "w") as fp:
            dump_trace_jsonl(trace, fp)
        print(f"trace written to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as fp:
        obj = json.load(fp)
    overrides = _seed(args, env=False)
    if args.trials is not None:
        overrides["trials"] = args.trials
    cfg = replace(harness.experiment_from_json(obj), **overrides)

    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    summary = harness.monte_carlo(
        cfg, records_path=outdir / "records.jsonl", summary_path=outdir / "summary.json"
    )
    for name, claim in summary.claims.items():
        state = "PASS" if claim["passed"] else "FAIL"
        print(f"[{state}] {name}: observed {claim['observed']:.4f} {claim['op']} {claim['bound']:.4f}")
    print(f"records: {outdir / 'records.jsonl'}\nsummary: {outdir / 'summary.json'}")
    return 0 if summary.all_passed else 1


def _print_claims(results) -> int:
    ok = True
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        ok &= r.passed
    return 0 if ok else 1


def _cmd_verify(suite, args: argparse.Namespace) -> int:
    sizes = {k: v for k, v in vars(args).items() if k not in ("command", "seed")}
    return _print_claims(suite(**_seed(args), **sizes))


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.summary) as fp:
        summary = harness.summary_from_json(json.load(fp))
    csv = harness.render_csv(summary)
    if args.out is None:
        sys.stdout.write(csv)
    else:
        args.out.write_text(csv)
        print(f"report written to {args.out}")
    return 0


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors via exit
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify-graph": lambda args: _cmd_verify(harness.verify_graph_claims, args),
        "verify-bounds": lambda args: _cmd_verify(harness.verify_bound_claims, args),
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a horizon whose trace cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
