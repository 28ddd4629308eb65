"""Command-line surface: stabinv {validate,invariant,fingerprint,compare,oracle-check}.

Every command but oracle-check takes its code file (compare two) as a
required positional argument.  Each command returns its payload and exit
code, and main alone prints the payload, as one indented JSON document on
stdout; diagnostics go to stderr.  Exit codes: 0 success or
pass/indistinguishable, 1 violation or distinguishing record, 2 usage or
parse error, 3 budget exceeded, 4 invalid code (a command other than
validate was given a code that fails validation), 5 internal error (any
other exception, a fault of the program rather than an answer: one line
on stderr, nothing on stdout), 6 skipped (an oracle-check suite ran no
check; its report is printed).  A sweep over its record budget is
refused before any work, at the first degree past it.

The commands check no input rule that the library owns: parse_code and
GeneratorMatrix refuse a file that is no code (one on 0 qubits is
bad-shape), trees.parse tree text that serialize would not write, and
the engine an omega outside 1..n, a tuple with one tree too many or too
few and two codes of different lengths, with a ValueError that names
the values and exits 2.

oracle-check passes on only the limits the user gave; the suite's own
signature, read from its code object, supplies every default, and a
limit it does not take is a parse error.  --max-tuples is passed on the
same way, and a negative one is a parse error.  A suite that ran no
check (no size within its limits, every size over a cap of the oracle,
or a projected check count over the suite budget) reports status
"skipped" and exits 6: it certified nothing, and its warning says why.
A pass that skipped some sizes exits 0, since every size that fit was
checked and its warning states the cap that left the rest out.

The engine and the oracle are imported by the commands that use them,
and of the suites only theorem1 and theorem2 import the engine.  The
oracle works on Python ints, and the theorem suites' random codes draw
from random.Random; numpy loads only when the engine eliminates a kernel
of degree 4 or more, single tuple or sweep.  So validate, invariant
below degree 4, fingerprint and compare up to --rmax 3, oracle-check on
lemma1 to lemma4 and on theorem1 and theorem2 up to --max-r 3, and every
usage, parse or invalid-code exit run without numpy.  No command loads
dataclasses, inspect or fractions, and each takes what it runs from the
modules, not from the package, whose import loads nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import stabilizer
from .errors import BudgetError, InvalidCodeError, ParseError

EXIT_OK = 0
EXIT_DISTINGUISHED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5
EXIT_SKIPPED = 6

# the keys of oracle.SUITES, known here without importing the oracle
SUITE_NAMES = ("lemma1", "lemma2", "lemma3", "lemma4", "theorem1", "theorem2")


def _read_code(path: str) -> stabilizer.GeneratorMatrix:
    """The code in the file, in the format its header names.  An
    InvalidCodeError leaves with the file as its `path`, for the message
    on stderr."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    try:
        return stabilizer.parse_code(text)
    except InvalidCodeError as exc:
        exc.path = path
        raise


def _parse_omega(text: str) -> set[int]:
    text = text.strip()
    if not text or text == "-":
        return set()
    try:
        return {int(p) for p in text.split(",")}
    except ValueError:
        raise ParseError(f"bad omega spec {text!r}; expected comma-separated qubits")


def cmd_validate(args) -> tuple[dict, int]:
    try:
        gen = _read_code(args.code)
        shape, violation = (2 * gen.n, gen.k), None
    except InvalidCodeError as exc:
        shape, violation = exc.shape, exc.violation
    payload = {
        "n": shape[0] // 2,
        "k": shape[1],
        "status": "ok" if violation is None else "violation",
    }
    if violation is not None:
        payload["violation"] = violation
    return payload, EXIT_OK if violation is None else EXIT_DISTINGUISHED


def _read_tuple(spec: str):
    """Tree tuple from an inline 'a;b;c' spec or a '@file' with one
    serialized tree per line, both read by invariants.parse_tuple."""
    from . import invariants

    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="ascii") as fh:
            spec = ";".join(ln.strip() for ln in fh)
    return invariants.parse_tuple(spec)


def _budget(args) -> dict:
    """The record budget, when the user gave one; else the engine's default."""
    if getattr(args, "max_tuples", 0) < 0:
        raise ParseError(f"--max-tuples must be at least 0, got {args.max_tuples}")
    return {"max_records": args.max_tuples} if hasattr(args, "max_tuples") else {}


def cmd_invariant(args) -> tuple[dict, int]:
    gen = _read_code(args.code)
    from . import invariants

    if (args.trees is None) == (args.omega is None):
        raise ParseError("need exactly one of --trees or --omega")
    if args.omega is not None:
        omega = _parse_omega(args.omega)
        tup = invariants.degree2_tuple(gen.n, omega)
        dim = invariants.degree2_dim(gen, omega)
    else:
        tup = _read_tuple(args.trees)
        dim = invariants.invariant_dim(gen, tup)
    return {"r": tup.r, "tuple": tup.id(), "dim": dim}, EXIT_OK


def cmd_fingerprint(args) -> tuple[dict, int]:
    gen = _read_code(args.code)
    from . import invariants

    return invariants.fingerprint(gen, args.rmax, **_budget(args)), EXIT_OK


def cmd_compare(args) -> tuple[dict, int]:
    gen_a = _read_code(args.code_a)
    gen_b = _read_code(args.code_b)
    from . import invariants

    if args.global_search:
        perm = invariants.compare_global(gen_a, gen_b, args.rmax, **_budget(args))
        same = perm is not None
        detail = {"permutation": list(perm) if same else None}
    else:
        diff = invariants.first_difference(gen_a, gen_b, args.rmax, **_budget(args))
        same = diff is None
        detail = {} if same else {"first_difference": diff}
    verdict = f"indistinguishable at r <= {args.rmax}" if same else "distinguished"
    return {"verdict": verdict, **detail}, EXIT_OK if same else EXIT_DISTINGUISHED


def cmd_oracle_check(args) -> tuple[dict, int]:
    from . import oracle

    suite = oracle.SUITES[args.suite]
    # the suite's parameters, past functools.wraps; **kwargs takes every limit
    inner = suite
    while hasattr(inner, "__wrapped__"):
        inner = inner.__wrapped__
    code = inner.__code__
    params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    forwards = bool(code.co_flags & 0x08)  # CO_VARKEYWORDS
    kwargs = {}
    for name in ("max_n", "max_r", "seed"):
        if hasattr(args, name):
            if name not in params and not forwards:
                flag = "--" + name.replace("_", "-")
                raise ParseError(f"suite {args.suite} does not take {flag}")
            kwargs[name] = getattr(args, name)
    if kwargs.get("seed", 0) < 0:
        raise ParseError(f"--seed must be at least 0, got {kwargs['seed']}")
    report = suite(**kwargs)
    codes = {"pass": EXIT_OK, "fail": EXIT_DISTINGUISHED, "skipped": EXIT_SKIPPED}
    return report, codes[report["status"]]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabinv",
        description="Local-unitary invariants of stabilizer codes over GF(2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    code_help = "code file ('n k' + bit rows, or 'pauli' + strings)"

    p = sub.add_parser("validate", help="check shape, rank and self-orthogonality")
    p.add_argument("code", help=code_help)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariant", help="kernel dimension for one tree tuple")
    p.add_argument("code", help=code_help)
    p.add_argument("--trees", help="semicolon-joined serialized trees, one per qubit")
    p.add_argument("--omega", help="degree-2 sugar: comma-separated qubit subset "
                                   "(empty or '-' for the empty set)")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("fingerprint", help="all invariant dimensions up to a degree")
    p.add_argument("code", help=code_help)
    p.add_argument("--rmax", type=int, required=True, help="largest degree (>= 2)")
    p.add_argument("--max-tuples", type=int, default=argparse.SUPPRESS,
                   help="record budget for the sweep (default: the engine's)")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("compare", help="screen two codes for local equivalence")
    p.add_argument("code_a", help="first code file")
    p.add_argument("code_b", help="second code file")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--max-tuples", type=int, default=argparse.SUPPRESS,
                   help="record budget for each code's sweep (default: the engine's)")
    p.add_argument("--global", dest="global_search", action="store_true",
                   help="search qubit relabellings of the second code")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle-check", help="run an exact certification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--max-n", type=int, default=argparse.SUPPRESS,
                   help="largest qubit count (default: the suite's)")
    p.add_argument("--max-r", type=int, default=argparse.SUPPRESS,
                   help="largest degree (default: the suite's)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed of the random codes (default: the suite's)")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
        text = json.dumps(payload, indent=2) + "\n"
    except ParseError as exc:
        print(f"stabinv: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidCodeError as exc:
        print(f"stabinv: invalid code: {exc.path}: {exc.violation}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetError as exc:
        print(f"stabinv: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"stabinv: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"stabinv: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # no answer: exit 1 would read as one
        print(f"stabinv: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
