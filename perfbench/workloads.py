"""The benchmark's workloads: seeded inputs, the CLI calls of one
operation, and the check of their outputs against known answers.

Each workload operation is a fixed list of stabinv CLI calls.  `check`
returns how many of the operation's items (records, verdicts or suite
checks) came out wrong; it never trusts the program to judge itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference


@dataclass
class Call:
    label: str
    args: list[str]


@dataclass
class Outcome:
    """What one CLI child left behind.  cpu_s is its user + system time
    from wait4, which leaves out time the host's hypervisor took from the
    machine (steal), unlike wall_s.  ref_units and ref_cpu_s are the units
    the reference loop completed on the child's CPU while the child ran and
    the CPU time they took."""

    label: str
    exit_code: int
    wall_s: float
    stdout: bytes
    cpu_s: float
    ref_units: int
    ref_cpu_s: float


def _json(outcome: Outcome):
    try:
        return json.loads(outcome.stdout)
    except ValueError:
        return None


class Sweep:
    """fingerprint over every tree tuple up to r_max of one code."""

    def __init__(self, n: int = 4, k: int = 3, r_max: int = 4):
        self.n, self.k, self.r_max = n, k, r_max

    def prepare(self, seed: int, workdir: Path) -> dict[str, str]:
        rng = random.Random(f"sweep:{seed}")
        rows = inputs.random_code(rng, self.n, self.k)
        self.setup_code = workdir / "sweep.code"
        sha = inputs.write_code(self.setup_code, rows)
        self.expected = [
            {"r": r, "tuple": tid, "dim": dim} for r, tid, dim in reference.fingerprint(rows, self.r_max)
        ]
        self.items = len(self.expected)
        self.calls = [
            Call("fingerprint", ["fingerprint", str(self.setup_code), "--rmax", str(self.r_max)])
        ]
        return {self.setup_code.name: sha}

    def check(self, outcomes: list[Outcome]) -> int:
        (out,) = outcomes
        payload = _json(out)
        if (
            out.exit_code != 0
            or not isinstance(payload, dict)
            or payload.get("n") != self.n
            or payload.get("r_max") != self.r_max
            or not isinstance(payload.get("records"), list)
        ):
            return self.items
        got = payload["records"]
        wrong = sum(1 for a, b in zip(got, self.expected) if a != b)
        return min(self.items, wrong + abs(len(got) - len(self.expected)))


class Screen:
    """compare: a plain and a --global call on an unrelated pair, and a
    --global call on a code against a permuted local-Clifford image."""

    def __init__(self, n: int = 5, k: int = 3, r_max: int = 3):
        self.n, self.k, self.r_max = n, k, r_max

    def prepare(self, seed: int, workdir: Path) -> dict[str, str]:
        rng = random.Random(f"screen:{seed}")
        a = inputs.random_code(rng, self.n, self.k)
        image = inputs.local_clifford(rng, inputs.permute(a, inputs.random_permutation(rng, self.n)))
        # the unrelated code must differ in a permutation-invariant summary,
        # so that both verdicts on the pair are known by construction
        profile = reference.degree2_profile(a)
        b = inputs.random_code(rng, self.n, self.k)
        while reference.degree2_profile(b) == profile:
            b = inputs.random_code(rng, self.n, self.k)

        shas = {}
        paths = {}
        for name, rows in (("a", a), ("image", image), ("b", b)):
            paths[name] = workdir / f"screen_{name}.code"
            shas[paths[name].name] = inputs.write_code(paths[name], rows)
        self.setup_code = paths["a"]

        self.image = image
        self.ref_a = reference.fingerprint(a, self.r_max)
        ref_b = reference.fingerprint(b, self.r_max)
        first = next(i for i, (x, y) in enumerate(zip(self.ref_a, ref_b)) if x != y)
        r, tid, dim_a = self.ref_a[first]
        self.first_difference = {"r": r, "tuple": tid, "dim_a": dim_a, "dim_b": ref_b[first][2]}
        self.matching_perms: dict[tuple, bool] = {}

        rmax = ["--rmax", str(self.r_max)]
        self.calls = [
            Call("compare", ["compare", str(paths["a"]), str(paths["b"]), *rmax]),
            Call("compare_global", ["compare", str(paths["a"]), str(paths["image"]), *rmax, "--global"]),
            Call("compare_global", ["compare", str(paths["a"]), str(paths["b"]), *rmax, "--global"]),
        ]
        self.items = len(self.calls)
        return shas

    def _perm_matches(self, perm) -> bool:
        """Does relabelling the image by perm give the first code's records?"""
        key = tuple(perm)
        if key not in self.matching_perms:
            self.matching_perms[key] = sorted(key) == list(range(1, self.n + 1)) and (
                reference.fingerprint(inputs.permute(self.image, key), self.r_max) == self.ref_a
            )
        return self.matching_perms[key]

    def check(self, outcomes: list[Outcome]) -> int:
        plain, same, unrelated = outcomes
        distinguished = {"verdict": "distinguished", "first_difference": self.first_difference}
        verdicts_ok = [
            plain.exit_code == 1 and _json(plain) == distinguished,
            same.exit_code == 0 and self._same_ok(_json(same)),
            unrelated.exit_code == 1
            and _json(unrelated) == {"verdict": "distinguished", "permutation": None},
        ]
        return verdicts_ok.count(False)

    def _same_ok(self, payload) -> bool:
        if not isinstance(payload, dict) or set(payload) != {"verdict", "permutation"}:
            return False
        perm = payload["permutation"]
        return (
            payload["verdict"] == f"indistinguishable at r <= {self.r_max}"
            and isinstance(perm, list)
            and all(isinstance(p, int) for p in perm)
            and self._perm_matches(perm)
        )


class Certify:
    """oracle-check suites on the dense path, with their exact check counts."""

    SUITES = (
        (["--suite", "lemma1", "--max-n", "3"], 11),
        (["--suite", "lemma2", "--max-r", "4"], 3940),
        (["--suite", "lemma3", "--max-n", "3", "--max-r", "3"], 1140),
        (["--suite", "lemma4", "--max-n", "3", "--max-r", "3"], 1140),
    )

    def __init__(self, suites=SUITES):
        self.suites = list(suites)

    def prepare(self, seed: int, workdir: Path) -> dict[str, str]:
        # The suites' inputs are exhaustive and fixed; the seed only orders
        # them and makes the code that set-up validates.
        rng = random.Random(f"certify:{seed}")
        rng.shuffle(self.suites)
        self.setup_code = workdir / "certify.code"
        sha = inputs.write_code(self.setup_code, inputs.random_code(rng, 3, 3))
        self.calls = [Call(args[1], ["oracle-check", *args]) for args, _ in self.suites]
        self.items = sum(count for _, count in self.suites)
        return {self.setup_code.name: sha}

    def check(self, outcomes: list[Outcome]) -> int:
        wrong = 0
        for out, (args, count) in zip(outcomes, self.suites):
            report = _json(out)
            if not (
                out.exit_code == 0
                and isinstance(report, dict)
                and report.get("suite") == args[1]
                and report.get("status") == "pass"
                and report.get("checks") == count
                and report.get("failures") == []
            ):
                wrong += count
        return wrong


WORKLOADS = {"sweep": Sweep, "screen": Screen, "certify": Certify}
