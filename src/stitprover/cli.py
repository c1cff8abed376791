"""Command-line front end.

Four subcommands:

* ``prove`` — decide a single-agent goal; optionally emit a proof
  certificate (provable) or a counter-model (unprovable) as JSON;
* ``check`` — validate a proof-certificate file against its declared
  calculus, with optional cross-checks of the header;
* ``oracle`` — brute-force validity via bounded model enumeration, any
  number of agents;
* ``fuzz`` — differential testing: random goals through both the prover
  and the oracle, with every certificate and counter-model checked,
  reporting the first disagreement or rejected piece of evidence.

Exit status: 0 provable/valid certificate/valid formula/full agreement,
or no counter-model up to a world bound not proved complete (the oracle
prints "not proved valid" then);
1 unprovable, invalid certificate, counter-model found, disagreement, or
rejected evidence;
2 usage or input error, a malformed certificate included;
3 internal invariant failure or search cap.  A certificate is a flat list
of steps, read and written by loops, and a goal is limited by
``formula.MAX_NODES``, memory and time only, so no input reaches Python's
recursion limit; ``main`` still maps a ``RecursionError`` to 3.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Sequence

from .calculus import CalculusConfig, Mode, check_derivation
from .differential import runs
from .formula import ParseError, parse, pretty
from .generate import random_formula
from .prover import (
    Provable,
    ProverConfig,
    SearchLimitExceeded,
    prove,
)
from .semantics import (
    CounterModel,
    Valid,
    ValidUpToBound,
    decide_by_enumeration,
    extract_countermodel,
)
from .wire import derivation_from_json, derivation_to_json, model_to_json

_FUZZ_ALPHABET = "pqrstuvwxyz"


class _UsageError(Exception):
    pass


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except SearchLimitExceeded as err:
        print(f"search aborted: {err}", file=sys.stderr)
        return 3
    except AssertionError as err:
        print(f"internal invariant violated: {err}", file=sys.stderr)
        return 3
    except RecursionError as err:
        print(f"internal limit: {err}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_prove(args: argparse.Namespace) -> int:
    goal = parse(args.formula, agents=1)
    result = prove(
        ProverConfig(
            choices=args.choices,
            max_steps=args.max_steps,
            max_labels=args.max_labels,
        ),
        goal,
    )
    if isinstance(result, Provable):
        print("provable")
        if args.emit_proof:
            cfg = CalculusConfig(agents=1, choices=args.choices, mode=Mode.REFINED)
            _write_json(args.emit_proof, derivation_to_json(cfg, result.derivation))
        if args.emit_model:
            print("note: provable goal, no counter-model to emit", file=sys.stderr)
        return 0
    print("unprovable")
    if args.emit_model:
        model, _ = extract_countermodel(result.stable, 0, args.choices)
        _write_json(args.emit_model, model_to_json(model))
    if args.emit_proof:
        print("note: unprovable goal, no proof to emit", file=sys.stderr)
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        cfg, root = derivation_from_json(_read_json(args.proof))
    except (KeyError, TypeError, ValueError) as err:
        raise _UsageError(f"malformed certificate: {err}") from err
    for flag, declared, label in (
        (args.agents, cfg.agents, "agent count m"),
        (args.choices, cfg.choices, "choice bound n"),
        (Mode(args.mode) if args.mode else None, cfg.mode, "mode"),
    ):
        if flag is not None and flag != declared:
            shown = declared.value if isinstance(declared, Mode) else declared
            print(f"certificate header mismatch: {label} is {shown}")
            return 1
    outcome = check_derivation(cfg, root)
    if outcome.ok:
        print("valid certificate")
        return 0
    print(f"invalid certificate at {outcome.path}: {outcome.error}")
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    f = parse(args.formula, agents=args.agents)
    try:
        outcome = decide_by_enumeration(
            f, agents=args.agents, choices=args.choices, max_worlds=args.max_worlds
        )
    except ValueError as err:
        print(f"internal limit: {err}", file=sys.stderr)
        return 3
    if isinstance(outcome, Valid):
        print(f"valid (all models up to {outcome.bound} worlds)")
        return 0
    if isinstance(outcome, ValidUpToBound):
        if outcome.bound < outcome.default_bound:
            why = f"below the default bound {outcome.default_bound}"
        else:
            why = "no complete world bound is known for several agents"
        print(f"no counter-model up to {outcome.bound} worlds; not proved valid ({why})")
        return 0
    assert isinstance(outcome, CounterModel)
    print(f"counter-model found, goal false at world {outcome.world}:")
    print(json.dumps(model_to_json(outcome.model), indent=2))
    if args.emit_model:
        _write_json(args.emit_model, model_to_json(outcome.model))
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if not 1 <= args.atoms <= len(_FUZZ_ALPHABET):
        raise _UsageError(f"--atoms must be between 1 and {len(_FUZZ_ALPHABET)}")
    names = tuple(_FUZZ_ALPHABET[: args.atoms])
    rng = random.Random(args.seed)
    goals = (random_formula(rng, args.depth, names) for _ in range(args.count))
    pairs = ((goal, args.choices) for goal in goals)
    for index, run in enumerate(runs(pairs), start=1):
        if run.problems:
            print(
                f"failure on formula {index}/{args.count}: {pretty(run.goal)}: "
                + "; ".join(run.problems)
            )
            return 1
    print(f"agreement: {args.count}/{args.count}")
    return 0


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise _UsageError(f"{path} is not valid JSON: {err}") from err
    except RecursionError as err:  # the decoder recurses; no certificate is deep
        raise _UsageError(f"{path} is nested too deeply to decode as JSON") from err


def _write_json(path: str, obj: dict) -> None:
    text = json.dumps(obj, indent=2) + "\n"  # first, so a failure leaves no file
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise _UsageError(f"cannot write {path}: {err}") from err


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stitprover",
        description="Decision procedure and proof checker for single-agent "
        "choice logics with a settledness modality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide a single-agent goal formula")
    p.add_argument("formula", help='goal, e.g. "box p -> [1] p"')
    p.add_argument("--choices", type=_nonneg, default=0, metavar="N",
                   help="choice bound n (default 0 = no bound)")
    p.add_argument("--emit-proof", metavar="PATH",
                   help="write the proof certificate as JSON when provable")
    p.add_argument("--emit-model", metavar="PATH",
                   help="write the counter-model as JSON when unprovable")
    p.add_argument("--max-steps", type=_positive, metavar="K",
                   help="diagnostic cap on rule applications")
    p.add_argument("--max-labels", type=_positive, metavar="K",
                   help="diagnostic cap on labels per sequent")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check", help="validate a proof-certificate file")
    p.add_argument("proof", help="certificate JSON file")
    p.add_argument("--agents", type=_positive, metavar="M",
                   help="cross-check the certificate's agent count")
    p.add_argument("--choices", type=_nonneg, metavar="N",
                   help="cross-check the certificate's choice bound")
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   help="cross-check the certificate's calculus mode")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="brute-force validity by enumeration")
    p.add_argument("formula", help="goal formula (any agent count)")
    p.add_argument("--agents", type=_positive, default=1, metavar="M")
    p.add_argument("--choices", type=_nonneg, default=0, metavar="N")
    p.add_argument("--max-worlds", type=_positive, metavar="K",
                   help="override the enumeration bound")
    p.add_argument("--emit-model", metavar="PATH",
                   help="write the counter-model as JSON when one is found")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fuzz", help="differential test: prover vs. oracle")
    p.add_argument("--depth", type=_nonneg, default=3, metavar="D",
                   help="maximum nesting depth of generated goals")
    p.add_argument("--atoms", type=_positive, default=2, metavar="A",
                   help="number of distinct atoms")
    p.add_argument("--choices", type=_nonneg, default=0, metavar="N")
    p.add_argument("--count", type=_positive, default=100, metavar="C")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(func=_cmd_fuzz)

    return parser
