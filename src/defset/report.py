"""The verify report as JSON, text and CSV."""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from .codes import ClassChecks, LemmaCheck, VerifyReport, weight_enumerator_string
from .verify import FAMILIES


def _lemma_row(c: LemmaCheck) -> dict:
    return {"id": c.id, "params": c.params, "closed": c.closed, "oracle": c.oracle,
            "match": c.match}


def report_dict(rep: VerifyReport, include_runtime: bool = False,
                lemmas: list | None = None) -> dict:
    """Schema-stable JSON object for one verification entry.

    `lemmas`, if given, stands in the place of the rows of `rep.lemma_checks`.
    """
    dist = {
        "predicted": [[w, a] for w, a in rep.distribution_predicted.items()],
        "bruteforce": ([[w, a] for w, a in rep.distribution_bruteforce.items()]
                       if rep.distribution_bruteforce else None),
    }
    ss = (None if rep.ss_ratio is None else
          {"wmin": rep.ss_ratio[0], "wmax": rep.ss_ratio[1], "passes": rep.ss_ratio[2]})
    out = {
        "p": rep.p,
        "m": rep.m,
        "case": rep.case,
        "theorem": rep.theorem,
        "length": {"predicted": rep.n_predicted, "bruteforce": rep.n_bruteforce},
        "distribution": dist,
        "checks": {
            "match": rep.match,
            "moments": list(rep.moment_checks) if rep.moment_checks else None,
            "dual_distance_two": rep.dual_distance_two,
            "ss_ratio": ss,
        },
        "lemmas": [_lemma_row(c) for c in rep.lemma_checks] if lemmas is None else lemmas,
    }
    if rep.outside_theorem_hypothesis:
        out["outside_theorem_hypothesis"] = True
    if include_runtime:
        out["runtime_ms"] = rep.runtime_ms
    return out


def report_text(rep: VerifyReport, checks: tuple[str, ...]) -> str:
    lines = [
        f"p={rep.p} m={rep.m} case={rep.case} theorem={rep.theorem}",
        f"  length: predicted={rep.n_predicted} bruteforce={rep.n_bruteforce}",
    ]
    if rep.distribution_bruteforce is not None:
        lines.append(f"  enumerator: {weight_enumerator_string(rep.distribution_bruteforce)}")
        lines.append(f"  match: {rep.match}  moments: {rep.moment_checks}")
    if rep.dual_distance_two is not None:
        lines.append(f"  dual distance two: {rep.dual_distance_two}")
    if rep.ss_ratio is not None:
        wmin, wmax, ok = rep.ss_ratio
        lines.append(f"  ss ratio: wmin={wmin} wmax={wmax} exceeds (p-1)/p: {ok}")
    if rep.lemma_checks:
        bad = rep.lemma_checks.mismatches()
        lines.append(f"  lemma checks: {len(rep.lemma_checks)} run, {len(bad)} mismatched")
        lines += [f"    MISMATCH {c.id} {c.params}: closed={c.closed} oracle={c.oracle}"
                  for c in bad]
    if rep.outside_theorem_hypothesis:
        gating = [f for f in checks if FAMILIES[f].gate(rep.p, rep.m)]
        who = f"only {', '.join(gating)}" if gating else "none of the selected checks"
        verb = "gate" if len(gating) > 1 else "gates"
        lines.append("  note: m <= 2 is outside the theorem hypotheses; "
                     f"{who} {verb} the exit code")
    lines.append(f"  result: {'PASS' if rep.passed else 'FAIL'}")
    return "\n".join(lines)


_CSV_HEADER = ("p,m,case,theorem,n_predicted,n_bruteforce,match,"
               "moment1,moment2,dual_distance_two,wmin,wmax,ss_passes,passed")


def _csv_row(rep: VerifyReport) -> str:
    mom = rep.moment_checks or (None, None)
    ss = rep.ss_ratio or (None, None, None)
    cells = [rep.p, rep.m, rep.case, rep.theorem, rep.n_predicted, rep.n_bruteforce,
             rep.match, mom[0], mom[1], rep.dual_distance_two, ss[0], ss[1], ss[2],
             rep.passed]
    return ",".join("" if c is None else str(c) for c in cells)


def reports_csv(reports: list[VerifyReport]) -> str:
    """The header and one row per report, each line ended by a newline."""
    return "\n".join([_CSV_HEADER, *map(_csv_row, reports)]) + "\n"


# stands for a ClassChecks in the objects given to json.dumps, which
# writes it as _CLASS_TOKEN where the class rows go
_CLASS_BLOCK = "\0class checks"
_CLASS_TOKEN = json.dumps(_CLASS_BLOCK)
# a bool column's values as JSON writes them; an object array lists the same two strings
_JSON_BOOL = np.array(["false", "true"], dtype=object)


@functools.cache
def _class_row(names: tuple[str, ...]) -> str:
    """A class row as json.dumps(indent=2) writes a LemmaCheck with these params
    at depth 0: id "<id>", and %s in place of each value."""
    hole = "\0"
    row = LemmaCheck("<id>", dict.fromkeys(names, hole), hole, hole, hole)
    return json.dumps(_lemma_row(row), indent=2).replace(json.dumps(hole), "%s")


def _class_block(cc: ClassChecks, indent: str) -> str:
    """The rows of cc as json.dumps(indent=2) writes them in a list at this indent,
    with the first line not indented: one %-format of a class's rows, entry 0 then
    entry 1 of its pairs, repeated; a class's params are listed once for both."""
    row = _class_row(tuple(cc.params))
    pair = ",\n".join(row.replace("<id>", i) for i in cc.ids).replace("\n", "\n" + indent)
    # each column as the values %s writes, and a classes x 2 array as one list per entry
    *params, closed, oracle, match = (
        (_JSON_BOOL[col.astype(np.int8)] if col.dtype == bool else col).tolist()
        for col in (*cc.params.values(), cc.closed.T, cc.oracle.T, cc.match.T))
    rows = [[*params, *entry] for entry in zip(closed, oracle, match)]
    values = itertools.chain.from_iterable(zip(*itertools.chain.from_iterable(rows)))
    return ((pair + ",\n" + indent) * (len(cc.closed) - 1) + pair) % tuple(values)


def reports_json(reports: list[VerifyReport], single: bool, include_runtime: bool) -> str:
    """json.dumps(indent=2) of the report_dict objects, each ClassChecks written by
    _class_block."""
    objs, blocks = [], []
    for rep in reports:
        lemmas = []
        for part in rep.lemma_checks.parts:
            if not isinstance(part, ClassChecks):
                lemmas += map(_lemma_row, part)
            elif part:
                lemmas.append(_CLASS_BLOCK)
                blocks.append(part)
        objs.append(report_dict(rep, include_runtime, lemmas))
    pieces = json.dumps(objs[0] if single else objs, indent=2).split(_CLASS_TOKEN)
    out = pieces[:1]
    for block, piece in zip(blocks, pieces[1:]):
        indent = " " * (len(out[-1]) - 1 - out[-1].rfind("\n"))
        out += [_class_block(block, indent), piece]
    return "".join(out)
