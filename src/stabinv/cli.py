"""Command-line surface: stabinv {validate,invariant,fingerprint,compare,oracle-check}.

Output is JSON on stdout (a plain-text table is available with
--format table where it makes sense).  Exit codes: 0 success or
pass/indistinguishable, 1 violation or distinguishing record, 2 usage or
parse error, 3 budget exceeded, 4 invalid code (a command other than
validate was given a code that fails validation).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import invariants, oracle, stabilizer, trees
from .errors import BudgetError, ParseError

EXIT_OK = 0
EXIT_DISTINGUISHED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4


class InvalidCodeError(ValueError):
    """A code file parsed but describes no valid stabilizer code."""


def _read_code(path: str, fmt: str) -> stabilizer.GeneratorMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return stabilizer.parse_code(fh.read(), fmt)


def _violation(gen: stabilizer.GeneratorMatrix) -> str | None:
    # the library accepts the trivial 0-qubit code (a restriction to the
    # empty set), but every command here needs at least one qubit
    return "bad-shape" if gen.n == 0 else stabilizer.validate(gen)


def _read_valid_code(path: str, fmt: str) -> stabilizer.GeneratorMatrix:
    gen = _read_code(path, fmt)
    violation = _violation(gen)
    if violation is not None:
        raise InvalidCodeError(f"{path}: {violation}")
    return gen


def _code_path(args) -> str:
    # the code file may come positionally or through --code
    path = args.code_flag or args.code_pos
    if not path or (args.code_flag and args.code_pos):
        raise ParseError("give the code file once, positionally or with --code")
    return path


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "table":
        lines = [f"{key}: {payload[key]}" for key in payload if key != "records"]
        for rec in payload.get("records", []):
            lines.append(f"  r={rec['r']} dim={rec['dim']} tuple={rec['tuple']}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_omega(text: str, n: int) -> set[int]:
    text = text.strip()
    if not text or text == "-":
        return set()
    try:
        omega = {int(p) for p in text.split(",")}
    except ValueError:
        raise ParseError(f"bad omega spec {text!r}; expected comma-separated qubits")
    if omega and not omega <= set(range(1, n + 1)):
        raise ParseError(f"omega {sorted(omega)} not inside 1..{n}")
    return omega


def cmd_validate(args) -> int:
    gen = _read_code(_code_path(args), args.code_format)
    violation = _violation(gen)
    payload = {
        "n": gen.n,
        "k": gen.k,
        "status": "ok" if violation is None else "violation",
    }
    if violation is not None:
        payload["violation"] = violation
    _emit(payload, args)
    return EXIT_OK if violation is None else EXIT_DISTINGUISHED


def _read_tuple(spec: str) -> invariants.TreeTuple:
    """Tree tuple from an inline 'a;b;c' spec or a '@file' with one
    serialized tree per line."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        return invariants.TreeTuple(tuple(trees.parse(ln) for ln in lines))
    return invariants.parse_tuple(spec)


def cmd_invariant(args) -> int:
    gen = _read_valid_code(_code_path(args), args.code_format)
    if (args.trees is None) == (args.omega is None):
        raise ParseError("need exactly one of --trees or --omega")
    if args.omega is not None:
        omega = _parse_omega(args.omega, gen.n)
        tup = invariants.degree2_tuple(gen.n, omega)
    else:
        if args.trees.startswith("all:"):
            raise ParseError("'all:r' is a sweep spec; this command takes a single "
                             "tuple (use 'fingerprint' for sweeps)")
        tup = _read_tuple(args.trees)
    if tup.n != gen.n:
        raise ParseError(f"tuple has {tup.n} trees but the code has {gen.n} qubits")
    dim = invariants.invariant_dim(gen, tup)
    _emit(invariants.InvariantRecord(tup.r, tup.id(), dim).to_payload(), args)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    gen = _read_valid_code(_code_path(args), args.code_format)
    fp = invariants.fingerprint(gen, args.rmax, max_records=args.max_tuples)
    _emit(fp.to_payload(), args)
    return EXIT_OK


def cmd_compare(args) -> int:
    gen_a = _read_valid_code(args.code_a, args.code_format)
    gen_b = _read_valid_code(args.code_b, args.code_format)
    if gen_a.n != gen_b.n:
        raise ParseError(f"codes have different lengths {gen_a.n} and {gen_b.n}")
    if args.global_search:
        perm = invariants.compare_global(gen_a, gen_b, args.rmax, args.max_tuples)
        same = perm is not None
        detail = {"permutation": list(perm) if same else None}
    else:
        diff = invariants.first_difference(gen_a, gen_b, args.rmax, args.max_tuples)
        same = diff is None
        detail = {}
        if not same:
            rec_a, rec_b = diff
            detail["first_difference"] = {
                "r": rec_a.r, "tuple": rec_a.tuple_id, "dim_a": rec_a.dim, "dim_b": rec_b.dim
            }
    verdict = f"indistinguishable at r <= {args.rmax}" if same else "distinguished"
    _emit({"verdict": verdict, **detail}, args)
    return EXIT_OK if same else EXIT_DISTINGUISHED


def cmd_oracle_check(args) -> int:
    kwargs = {
        "lemma1": {"max_n": args.max_n, "max_dim": args.max_dim},
        "lemma2": {"max_r": args.max_r},
        "lemma3": {"max_n": args.max_n, "max_r": args.max_r, "max_dim": args.max_dim},
        "lemma4": {"max_n": args.max_n, "max_r": args.max_r},
        "theorem1": {
            "max_n": args.max_n,
            "max_r": args.max_r,
            "seed": args.seed,
            "max_dim": args.max_dim,
        },
        "theorem2": {"max_n": args.max_n, "max_r": args.max_r, "seed": args.seed},
    }
    try:
        report = oracle.SUITES[args.suite](**kwargs[args.suite])
    except BudgetError as exc:
        report = {
            "suite": args.suite,
            "status": "skipped",
            "checks": 0,
            "failures": [],
            "warnings": [str(exc)],
        }
    _emit(report, args)
    if report["status"] == "fail":
        return EXIT_DISTINGUISHED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabinv",
        description="Local-unitary invariants of stabilizer codes over GF(2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, code_args=1):
        if code_args == 1:
            p.add_argument("code_pos", nargs="?", metavar="code",
                           help="code file ('n k' + bit rows, or 'pauli' + strings)")
            p.add_argument("--code", dest="code_flag", metavar="FILE",
                           help="alternative to the positional code file")
        elif code_args == 2:
            p.add_argument("code_a", help="first code file")
            p.add_argument("code_b", help="second code file")
        p.add_argument("--format", choices=("json", "table"), default="json",
                       help="output format (default json)")
        p.add_argument("--code-format", choices=("auto", "bits", "pauli"), default="auto",
                       help="input code file format (default: detect from header)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("validate", help="check shape, rank and self-orthogonality")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariant", help="kernel dimension for one tree tuple")
    common(p)
    p.add_argument("--trees", help="semicolon-joined serialized trees, one per qubit")
    p.add_argument("--omega", help="degree-2 sugar: comma-separated qubit subset "
                                   "(empty or '-' for the empty set)")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("fingerprint", help="all invariant dimensions up to a degree")
    common(p)
    p.add_argument("--rmax", type=int, required=True, help="largest degree (>= 2)")
    p.add_argument("--max-tuples", type=int, default=invariants.DEFAULT_MAX_RECORDS,
                   help="record budget for the sweep")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("compare", help="screen two codes for local equivalence")
    common(p, code_args=2)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--max-tuples", type=int, default=invariants.DEFAULT_MAX_RECORDS)
    p.add_argument("--global", dest="global_search", action="store_true",
                   help="search qubit relabellings of the second code")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle-check", help="run an exact certification suite")
    p.add_argument("--suite", required=True, choices=sorted(oracle.SUITES))
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-r", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=oracle.DEFAULT_MAX_DIM,
                   help="dense dimension cap (default %(default)s)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"stabinv: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidCodeError as exc:
        print(f"stabinv: invalid code: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetError as exc:
        print(f"stabinv: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as exc:
        print(f"stabinv: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"stabinv: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
