"""The benchmark's workloads and how a seed chooses each one's entries.

A workload is one `defset verify --grid ...` invocation.  Seed 0 runs the
entries named in `Workload.entries`.  Any other seed picks one of the
workload's cost-matched entry sets (`Workload.sets`, all drawn from
`Workload.pool`) and shuffles its order.  The sets are matched on cost so
that the seed changes the inputs but not the amount of work: an unmatched
draw from a pool would move `verify_s` by up to 2x between seeds, far more
than the regression bound, and a regression could not be told from a draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Entry = tuple[int, int]

FIELD_LARGE_MAX_Q = 531_441  # 3^12, the largest field in the field-large pool


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple[Entry, ...]
    # every set a nonzero seed may draw; the first is `entries` itself
    sets: tuple[tuple[Entry, ...], ...]
    # the entries the sets are drawn from
    pool: tuple[Entry, ...]
    max_q: int | None = None
    checks: tuple[str, ...] | None = None

    def flags(self) -> list[str]:
        """Verify flags besides --grid, --format and --out."""
        out = []
        if self.max_q is not None:
            out += ["--max-q", str(self.max_q)]
        if self.checks is not None:
            out += ["--checks", ",".join(self.checks)]
        return out

    @property
    def variant(self) -> str:
        """Key of the reference outputs: entries verify alike under equal flags."""
        return " ".join(self.flags()) or "default"

    def draw(self, seed: int) -> list[Entry]:
        if seed == 0:
            return list(self.entries)
        rng = random.Random(seed)
        largest, *rest = sorted(rng.choice(self.sets), key=lambda e: -e[0] ** e[1])
        # the largest field goes first: built after the others, which the
        # field cache keeps alive, it would raise peak memory by up to 20%
        return [largest, *rng.sample(rest, len(rest))]


GRID10 = ((3, 3), (3, 4), (3, 5), (3, 6), (3, 8), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4))

# Sets within about 5% of the seed-0 set's verify time, from single-entry
# medians of five cold passes on a 2-core Intel Xeon (seconds):
#   large-q     (3,8) 0.33  (3,9) 1.95  (5,6) 0.77  (7,5) 0.91
#   large-p     (11,3) 0.25  (13,3) 0.61  (17,3) 3.08  (19,2) 0.52  (23,2) 1.30
#   field-large (3,11) 1.05  (3,12) 3.08  (5,8) 1.80  (7,6) 0.44  (11,5) 0.67
# No other subset of the large-q pool comes within 9%, so large-q seeds only
# reorder its entries.  field-large runs one field per pass.  With (3,12) and
# (5,8), a pass took 5 s, a 15 s run held three passes, and their median
# moved by 26% between runs on that machine.  No other single entry of the
# pool matches (3,11), so field-large seeds change nothing.
WORKLOADS = {
    w.name: w for w in (
        # README acceptance grid: all four CaseTag regimes, q <= 6561; no layer
        # dominates, so added per-entry set-up shows here
        Workload(
            name="grid10",
            entries=GRID10,
            sets=(GRID10,),
            pool=GRID10,
        ),
        # q of 15k-20k with small p: the O(q^2/p) enumeration dominates
        Workload(
            name="large-q",
            entries=((3, 9), (5, 6), (7, 5)),
            sets=(((3, 9), (5, 6), (7, 5)),),
            pool=((3, 8), (3, 9), (5, 6), (7, 5)),
        ),
        # small q with large p: the lemma-9 oracle (about p^4 q) dominates
        Workload(
            name="large-p",
            entries=((13, 3), (17, 3), (19, 2)),
            sets=(((13, 3), (17, 3), (19, 2)),
                  ((17, 3), (23, 2))),
            pool=((11, 3), (13, 3), (17, 3), (19, 2), (23, 2)),
        ),
        # q = 3^11, gauss and dual checks only: field construction is about
        # 95% of the pass
        Workload(
            name="field-large",
            entries=((3, 11),),
            sets=(((3, 11),),),
            pool=((3, 11), (3, 12), (5, 8), (7, 6), (11, 5)),
            max_q=FIELD_LARGE_MAX_Q,
            checks=("gauss", "dual"),
        ),
    )
}


def grid_arg(entries: list[Entry]) -> str:
    return ";".join(f"{p},{m}" for p, m in entries)
