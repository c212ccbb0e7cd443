"""The benchmark's three workloads: inputs, set-up, ops and output checks.

Each workload is a closed loop: one client in one process issues an op, waits
for its result, then issues the next.  Ops come in rounds; every round walks
the same schedule of size cells, and the seed changes only the numbers, so
runs that stop at a round boundary run the same mix whatever the seed.

``generate`` makes the inputs of each round from the seed (the benchmark's
own work, outside set-up and timing); ``build`` is the set-up a user pays,
parsing every generated document with the library; each op calls a public
entry point; ``check`` verifies an op's output outside the timed region,
without trusting the library's own checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import gen

REQUESTS_PER_INSTANCE = 25
MIX_KINDS = {"Mix", "Mix*"}
AMIX_KINDS = {"AMix", "AMix*"}
WITNESS_CASE = {"lw": "pair-minimum", "c1": "dominance", "c2": "peak-sum"}


def run_cli(lib, argv):
    """`mixcuts.cli.main(argv)` in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def render_cli(output) -> str:
    code, out, err = output
    return f"{code}\n{out}\n{err}"


class Separate:
    """Branch-and-cut separation: both library separators at LP points."""

    name = "separate"
    why = (
        "cut rounds in branch-and-cut: the oracle, greedy and diagnosis layers do the work, "
        "enumeration requests make the tail, and no LP runs"
    )
    round_seconds = 6  # a round's time at the seed commit, for sizing runs

    # A round is 12 instances: the 9 sufficient cells take the greedy path,
    # and every fourth instance is insufficient and takes the enumeration
    # path over 2 to 5 free indices; the 4 enumeration cells and the 3
    # failure cases rotate across rounds.
    GREEDY_CELLS = [(n, k) for n in (16, 32, 64) for k in (2, 3, 5)]
    ENUM_CELLS = [(n, k, case) for case in ("lw", "c1", "c2") for n in (12, 24) for k in (2, 3)]

    def generate(self, seed: int, rounds: int, workdir: Path) -> list:
        rng = random.Random(seed)
        items = []
        for r in range(rounds):
            for c in range(12):
                if c % 4 == 3:
                    n, k, case = self.ENUM_CELLS[(3 * r + c // 4) % len(self.ENUM_CELLS)]
                    weights, eps = gen.insufficient_instance(rng, n, k, case)
                    regime = "enum"
                else:
                    n, k = self.GREEDY_CELLS[c - (c + 1) // 4]
                    weights, eps = gen.sufficient_instance(rng, n, k)
                    regime = "greedy"
                points = []
                for q in range(REQUESTS_PER_INSTANCE):
                    if regime == "greedy":
                        frac = set(rng.sample(range(n), rng.randint(n // 4, n // 2)))
                        z = [gen.fraction_in(rng, 1) if t in frac else Fraction(rng.randint(0, 1)) for t in range(n)]
                    else:
                        free = set(rng.sample(range(n), 2 + q % 4))
                        z = [gen.fraction_in(rng, 0) if t in free else Fraction(1) for t in range(n)]
                    points.append(gen.relaxation_point(weights, eps, z))
                items.append((r, (gen.instance_doc(weights, eps), regime, points)))
        return items

    def build(self, lib, items) -> list:
        ops = []
        for r, (doc, regime, points) in items:
            inst = lib.loads_instance(doc)
            for y, z in points:
                ops.append((r, regime, partial(self.request, lib, inst, y, z), (y, z)))
        return ops

    @staticmethod
    def request(lib, inst, y, z):
        return lib.mixing.separate_mixing(inst, y, z), lib.aggregated.separate_aggregated(inst, y, z)

    def check(self, expect, output) -> str | None:
        y, z = expect
        mix, amix = output
        cuts = [(c, MIX_KINDS) for c in mix] + ([(amix, AMIX_KINDS)] if amix is not None else [])
        for cut, kinds in cuts:
            if cut.kind.value not in kinds:
                return f"cut of kind {cut.kind.value} from the wrong separator"
            lhs = sum(a * v for a, v in zip(cut.y_coeffs, y)) + sum(b * v for b, v in zip(cut.z_coeffs, z))
            if not cut.rhs > lhs:
                return f"returned cut is not violated: lhs {lhs} >= rhs {cut.rhs}"
        return None

    def render(self, output) -> str:
        mix, amix = output
        cuts = list(mix) + ([amix] if amix is not None else [])
        return ";".join(
            f"{c.kind.value}:{','.join(map(gen.fmt, c.y_coeffs))}:{','.join(map(gen.fmt, c.z_coeffs))}:{gen.fmt(c.rhs)}"
            for c in cuts
        )

    def cuts_returned(self, output) -> int:
        mix, amix = output
        return len(mix) + (amix is not None)


class Closure:
    """`mixcuts verify <instance>` (sufficiency mode) on sufficient instances."""

    name = "closure"
    why = (
        "certification that the families describe the hull: the membership LP is answered "
        "many times against one vertex set"
    )
    round_seconds = 10

    # A round is the 9 size cells; every fifth op has a low row and every
    # fourth is lifted, so both rotate over the cells across rounds.
    CELLS = [(n, k) for n in (3, 4, 5) for k in (1, 2, 3)]

    def generate(self, seed: int, rounds: int, workdir: Path) -> list:
        rng = random.Random(seed)
        items = []
        for o in range(rounds * len(self.CELLS)):
            n, k = self.CELLS[o % len(self.CELLS)]
            weights, eps = gen.sufficient_instance(rng, n, k, low_row=o % 5 == 4)
            lower = None
            if o % 4 == 1:  # lifted: reduce_lower_bounds maps it back exactly
                lower = [rng.randint(1, 4) for _ in range(k)]
                weights = [[w + l for w, l in zip(row, lower)] for row in weights]
            items.append((o // len(self.CELLS), gen.instance_doc(weights, eps, lower)))
        return items

    def build(self, lib, items) -> list:
        ops = []
        for r, doc in items:
            lib.loads_instance(doc)
            ops.append((r, "", partial(run_cli, lib, ["verify", doc]), None))
        return ops

    def check(self, expect, output) -> str | None:
        code, out, _ = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(out[out.index("{"):])
        if report.get("ok") is not True or report.get("branch") != "closure" or report.get("failures"):
            return f"closure report not ok: branch={report.get('branch')} failures={report.get('failures')}"
        return None

    render = staticmethod(render_cli)


class Families:
    """Witness certification on insufficient instances, and the band hull."""

    name = "families"
    why = (
        "full family enumeration: the witness branch sweeps every mixing chain and every "
        "sequence, the band hull enumerates the aggregated family"
    )
    round_seconds = 6

    # A round is 26 ops: the 18 verify cells (every failure case at every
    # size) and the band hull twice at each n in 5..8, one op in three.
    VERIFY_CELLS = [(case, n, k) for n in (4, 5, 6) for k in (2, 3) for case in ("lw", "c1", "c2")]
    TWOSIDED_N = (5, 6, 7, 8)

    def generate(self, seed: int, rounds: int, workdir: Path) -> list:
        rng = random.Random(seed)
        items = []
        for r in range(rounds):
            verify = iter(self.VERIFY_CELLS)
            for t in range(26):
                if t % 3 == 2 and t < 24:
                    n = self.TWOSIDED_N[(t // 3) % len(self.TWOSIDED_N)]
                    path = workdir / f"twosided-{r}-{t}.json"
                    path.write_text(gen.twosided_doc(*gen.twosided_data(rng, n)), encoding="utf-8")
                    items.append((r, ("twosided", str(path), None)))
                else:
                    case, n, k = next(verify)
                    weights, eps = gen.insufficient_instance(rng, n, k, case)
                    items.append((r, ("verify", gen.instance_doc(weights, eps), WITNESS_CASE[case])))
        return items

    def build(self, lib, items) -> list:
        ops = []
        for r, (kind, arg, case) in items:
            if kind == "twosided":
                lib.twosided.loads_twosided(Path(arg).read_text(encoding="utf-8"))
            else:
                lib.loads_instance(arg)
            ops.append((r, "", partial(run_cli, lib, [kind, arg]), case))
        return ops

    def check(self, expect, output) -> str | None:
        code, out, _ = output
        if code != 0:
            return f"exit code {code}"
        if expect is None:
            return None if "band_ok=yes" in out.splitlines() else "band hull not ok"
        report = json.loads(out[out.index("{"):])
        witness = report.get("witness") or {}
        assertions = witness.get("assertions", [])
        if report.get("branch") != "witness" or report.get("ok") is not True:
            return f"witness report not ok: branch={report.get('branch')}"
        if len(assertions) != 4 or not all(a.startswith("ok:") for a in assertions):
            return f"witness assertions {assertions}"
        if witness.get("case") != expect:
            return f"witness case {witness.get('case')}, generator built {expect}"
        return None

    render = staticmethod(render_cli)


WORKLOADS = {w.name: w for w in (Separate(), Closure(), Families())}
