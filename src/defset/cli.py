"""Command-line front end: build codes, print predictions, verify, Gauss report.

Exit codes are stable: 0 all enabled checks pass, 1 mathematical mismatch,
2 usage error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .codes import (LemmaCheck, VerifyReport, brute_weight_distribution, count_Nb,
                    defining_set, distribution_csv, dual_distance_two,
                    export_defining_set, power_moment_check, secret_sharing_ratio,
                    weight_enumerator_string)
from .closed_form import (ORACLES, CaseTag, THEOREM_NUMBER, classify, lemma8_value,
                          lemma9_B, lemma10_N0a, lemma11_counts, lemma12_V, lemma16_uc,
                          lemma17_vc, lemma_Nb_predicted, predicted_distribution,
                          realized_b_classes, PredictedDistribution)
from .cyclotomic import CycInt, embed_complex, gauss_closed, gauss_sum_exact
from .errors import DefSetError, FieldTooLarge
from .fields import DEFAULT_MAX_Q, field

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3

CHECK_FAMILIES = ("distribution", "lemmas", "gauss", "moments", "dual", "ss-ratio")

_NB_LEMMA_ID = {
    CaseTag.EVEN_DIVIDES: "lemma13",
    CaseTag.EVEN_COPRIME: "lemma14",
    CaseTag.ODD_DIVIDES: "lemma15",
    CaseTag.ODD_COPRIME: "lemma18",
}


# --- verification ------------------------------------------------------------

def run_lemma_suite(ctx) -> list[LemmaCheck]:
    """Compare every applicable closed form against its enumeration oracle on ctx."""
    p, m = ctx.p, ctx.m
    out: list[LemmaCheck] = []

    def add(check_id, params, closed, brute):
        out.append(LemmaCheck(check_id, params, closed, brute, closed == brute))

    add("lemma8", {}, lemma8_value(p, m), ORACLES["lemma8"](ctx))
    nb_id = _NB_LEMMA_ID[classify(p, m)]
    classes = realized_b_classes(ctx)
    for cls in sorted(classes, key=lambda c: (c.t2, c.t1, c.disc)):
        b = classes[cls]
        params = {"t2": cls.t2, "t1": cls.t1, "disc": cls.disc, "b": b}
        add("lemma9", params, lemma9_B(p, m, cls), ORACLES["lemma9"](ctx, b=b))
        add(nb_id, params, lemma_Nb_predicted(p, m, cls), count_Nb(ctx, b))
    for a in range(p):
        add("lemma10", {"a": a}, lemma10_N0a(p, m, a), ORACLES["lemma10"](ctx, a=a))
    add("lemma11", {}, list(lemma11_counts(p, m)), list(ORACLES["lemma11"](ctx)))
    if m % p != 0:
        add("lemma12", {}, lemma12_V(p, m), ORACLES["lemma12"](ctx))
    if m % 2 == 1:
        for c in range(p):
            add("lemma16", {"c": c}, lemma16_uc(p, m, c), ORACLES["lemma16"](ctx, c=c))
        if m % p == 0:
            for c in range(1, p):
                add("lemma17", {"c": c}, lemma17_vc(p, m, c), ORACLES["lemma17"](ctx, c=c))
    return out


def gauss_checks(ctx) -> list[LemmaCheck]:
    """Exact square identity and the closed-form embedding bound for G."""
    p, m = ctx.p, ctx.m
    exact = gauss_sum_exact(ctx)
    eta_minus_one = 1 if ((ctx.q - 1) // 2) % 2 == 0 else -1
    square = exact * exact
    want = CycInt.from_int(p, eta_minus_one * ctx.q)
    closed = gauss_closed(p, m)
    diff = abs(embed_complex(exact) - closed.value())
    tol = 1e-9 * p ** (m / 2)
    return [
        LemmaCheck("lemma5_square_identity", {},
                   eta_minus_one * ctx.q,
                   square.to_int() if square.is_rational_int() else str(square),
                   square == want),
        LemmaCheck("lemma5_embedding", {"tolerance": tol},
                   str(closed), f"{diff:.3e}", diff < tol),
    ]


def _ss_claimed(tag: CaseTag, m: int) -> bool:
    # the regimes where the ratio bound w_min/w_max > (p-1)/p is asserted
    if tag is CaseTag.EVEN_DIVIDES:
        return m >= 4
    if tag is CaseTag.EVEN_COPRIME:
        return m >= 6
    return m >= 5


def run_verification(p: int, m: int, *, max_q: int = DEFAULT_MAX_Q,
                     checks=CHECK_FAMILIES,
                     corrupt_prediction: bool = False) -> VerifyReport:
    """Build, enumerate, predict and compare one (p, m) entry."""
    t0 = time.perf_counter()
    checks = tuple(checks)
    ctx = field(p, m, max_q)
    ds = defining_set(ctx)
    tag = classify(p, m)
    pred = predicted_distribution(p, m)
    if corrupt_prediction:
        rows = list(pred.rows)
        w, a = rows[-1]
        rows[-1] = (w, a + 1)
        pred = PredictedDistribution(tuple(rows), pred.n, pred.dimension)

    need_brute = bool({"distribution", "moments", "ss-ratio"} & set(checks))
    brute = brute_weight_distribution(ds) if need_brute else None
    match = (brute == pred.with_zero_word() and ds.n == pred.n) if brute else None
    moments = power_moment_check(brute, p, m, ds.n) if brute else None
    dual = dual_distance_two(ds) if "dual" in checks else None
    ss = secret_sharing_ratio(brute, p) if brute else None

    lemma_checks: list[LemmaCheck] = []
    if "lemmas" in checks:
        lemma_checks.extend(run_lemma_suite(ctx))
    if "gauss" in checks:
        lemma_checks.extend(gauss_checks(ctx))

    in_hypothesis = m > 2
    passed = all(c.match for c in lemma_checks)
    if "distribution" in checks:
        passed &= bool(match)
    if in_hypothesis:
        if "moments" in checks:
            passed &= all(moments)
        if "dual" in checks and tag in (CaseTag.EVEN_COPRIME, CaseTag.ODD_COPRIME) and ds.n >= 2:
            # In the four-weight degeneration (m = 3 with p = 2 mod 3) the only
            # solution of tr(x) = tr(x^2) = 0 is x = 0, so no two coordinates of
            # D are proportional and the dual distance is 3: there the computed
            # value is reported but not asserted.
            if not (m == 3 and p % 3 == 2):
                passed &= bool(dual)
        if "ss-ratio" in checks and _ss_claimed(tag, m):
            passed &= bool(ss[2])

    return VerifyReport(
        p=p, m=m, case=tag.value, theorem=THEOREM_NUMBER[tag],
        n_bruteforce=ds.n, n_predicted=pred.n,
        distribution_bruteforce=brute,
        distribution_predicted=pred.with_zero_word(),
        match=match, moment_checks=moments, dual_distance_two=dual, ss_ratio=ss,
        lemma_checks=lemma_checks,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        outside_theorem_hypothesis=not in_hypothesis,
        passed=passed,
    )


def report_dict(rep: VerifyReport, include_runtime: bool = False) -> dict:
    """Schema-stable JSON object for one verification entry."""
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
        "lemmas": [{"id": c.id, "params": c.params, "closed": c.closed,
                    "oracle": c.oracle, "match": c.match} for c in rep.lemma_checks],
    }
    if rep.outside_theorem_hypothesis:
        out["outside_theorem_hypothesis"] = True
    if include_runtime:
        out["runtime_ms"] = rep.runtime_ms
    return out


def _report_text(rep: VerifyReport) -> str:
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
        n_bad = sum(1 for c in rep.lemma_checks if not c.match)
        lines.append(f"  lemma checks: {len(rep.lemma_checks)} run, {n_bad} mismatched")
        for c in rep.lemma_checks:
            if not c.match:
                lines.append(f"    MISMATCH {c.id} {c.params}: closed={c.closed} oracle={c.oracle}")
    if rep.outside_theorem_hypothesis:
        lines.append("  note: m <= 2 is outside the theorem hypotheses; "
                     "only the distribution comparison gates the exit code")
    lines.append(f"  result: {'PASS' if rep.passed else 'FAIL'}")
    return "\n".join(lines)


def _report_csv_row(rep: VerifyReport) -> str:
    mom = rep.moment_checks or (None, None)
    ss = rep.ss_ratio or (None, None, None)
    cells = [rep.p, rep.m, rep.case, rep.theorem, rep.n_predicted, rep.n_bruteforce,
             rep.match, mom[0], mom[1], rep.dual_distance_two, ss[0], ss[1], ss[2],
             rep.passed]
    return ",".join("" if c is None else str(c) for c in cells)


# --- option plumbing ----------------------------------------------------------

def _load_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DefSetError(f"bad config line (want key=value): {line!r}")
            cfg[key.strip()] = value.strip()
    return cfg


class _Settings:
    """Flags win over environment variables, which win over --config values."""

    def __init__(self, args: argparse.Namespace):
        cfg = _load_config(args.config) if getattr(args, "config", None) else {}
        env = os.environ

        def pick(flag_value, env_name, cfg_name, default, cast):
            if flag_value is not None:
                return flag_value
            if env_name and env.get(env_name):
                raw, source = env[env_name], f"environment variable {env_name}"
            elif cfg_name in cfg:
                raw, source = cfg[cfg_name], f"config key {cfg_name!r}"
            else:
                return default
            try:
                return cast(raw)
            except ValueError:
                raise DefSetError(f"bad value {raw!r} for {source}") from None

        self.max_q = pick(getattr(args, "max_q", None), "CAP", "max_q", DEFAULT_MAX_Q, int)
        self.jobs = pick(getattr(args, "jobs", None), "JOBS", "jobs", 1, int)
        self.fmt = pick(getattr(args, "format", None), None, "format", "text", str)
        self.out = pick(getattr(args, "out", None), None, "out", None, str)
        checks = pick(getattr(args, "checks", None), None, "checks", None, str)
        self.checks = CHECK_FAMILIES if checks is None else tuple(
            c.strip() for c in checks.split(",") if c.strip())
        for c in self.checks:
            if c not in CHECK_FAMILIES:
                raise DefSetError(f"unknown check family {c!r} (known: {', '.join(CHECK_FAMILIES)})")
        grid = pick(getattr(args, "grid", None), None, "grid", None, str)
        if grid is not None:
            self.entries = _parse_grid(grid)
            self.single = False
        else:
            p = pick(getattr(args, "p", None), None, "p", None, int)
            m = pick(getattr(args, "m", None), None, "m", None, int)
            if p is None or m is None:
                raise DefSetError("need --p and --m (or --grid)")
            self.entries = [(p, m)]
            self.single = True


def _parse_grid(text: str) -> list[tuple[int, int]]:
    entries = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            p_str, m_str = part.split(",")
            entries.append((int(p_str), int(m_str)))
        except ValueError:
            raise DefSetError(f"bad grid entry {part!r} (want 'p,m;p,m;...')") from None
    if not entries:
        raise DefSetError("empty grid")
    return entries


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------

def cmd_build(args: argparse.Namespace) -> int:
    st = _Settings(args)
    p, m = st.entries[0]
    ctx = field(p, m, st.max_q)
    ds = defining_set(ctx)
    dist = None if args.no_enumerate else brute_weight_distribution(ds)

    if dist is not None:
        d_min = min(dist.nonzero_weights()) if dist.nonzero_weights() else 0
        header = f"[{ds.n},{m},{d_min}]"
    else:
        header = f"[{ds.n},{m}]"
    d_export = export_defining_set(ds)

    if st.fmt == "json":
        obj = {"p": p, "m": m, "n": ds.n, "k": m,
               "d": None if dist is None else d_min,
               "enumerator": None if dist is None else weight_enumerator_string(dist),
               "distribution": None if dist is None else [[w, a] for w, a in dist.items()],
               "defining_set": d_export.splitlines()}
        _emit(json.dumps(obj, indent=2) + "\n", st.out)
        return EXIT_OK

    lines = [header]
    if dist is not None:
        lines.append(weight_enumerator_string(dist))
    print("\n".join(lines))
    if st.fmt == "csv" and dist is not None:
        print(distribution_csv(dist), end="")
    if st.out:
        _emit(d_export, st.out)
        print(f"defining set written to {st.out}")
    else:
        print("defining set (c0,...,c_{m-1} per line):")
        print(d_export, end="")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    st = _Settings(args)
    p, m = st.entries[0]
    tag = classify(p, m)
    pred = predicted_distribution(p, m)
    if st.fmt == "json":
        obj = {"p": p, "m": m, "case": tag.value, "theorem": THEOREM_NUMBER[tag],
               "length": pred.n, "dimension": pred.dimension,
               "rows": [[w, a] for w, a in pred.rows]}
        _emit(json.dumps(obj, indent=2) + "\n", st.out)
        return EXIT_OK
    if st.fmt == "csv":
        rows = "\n".join(f"{w},{a}" for w, a in pred.rows)
        _emit("weight,multiplicity\n" + rows + "\n", st.out)
        return EXIT_OK
    lines = [
        f"p={p} m={m} case={tag.value} theorem={THEOREM_NUMBER[tag]}",
        f"length={pred.n} dimension={pred.dimension} rows={len(pred.rows)}",
        "weight,multiplicity",
    ]
    lines += [f"{w},{a}" for w, a in pred.rows]
    _emit("\n".join(lines) + "\n", st.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    st = _Settings(args)

    def one(entry):
        p, m = entry
        return run_verification(p, m, max_q=st.max_q, checks=st.checks,
                                corrupt_prediction=args.corrupt_prediction)

    if st.jobs > 1 and len(st.entries) > 1:
        with ThreadPoolExecutor(max_workers=st.jobs) as pool:
            reports = list(pool.map(one, st.entries))
    else:
        reports = [one(e) for e in st.entries]

    if st.fmt == "json":
        objs = [report_dict(r, include_runtime=args.timestamps) for r in reports]
        payload = objs[0] if st.single else objs
        _emit(json.dumps(payload, indent=2) + "\n", st.out)
    elif st.fmt == "csv":
        header = ("p,m,case,theorem,n_predicted,n_bruteforce,match,"
                  "moment1,moment2,dual_distance_two,wmin,wmax,ss_passes,passed")
        body = "\n".join(_report_csv_row(r) for r in reports)
        _emit(header + "\n" + body + "\n", st.out)
    else:
        _emit("\n".join(_report_text(r) for r in reports) + "\n", st.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH


def cmd_gauss(args: argparse.Namespace) -> int:
    st = _Settings(args)
    p, m = st.entries[0]
    ctx = field(p, m, st.max_q)
    checks = gauss_checks(ctx)
    exact = gauss_sum_exact(ctx)
    closed = gauss_closed(p, m)
    emb = embed_complex(exact)
    ok = all(c.match for c in checks)
    if st.fmt == "json":
        obj = {"p": p, "m": m,
               "exact": str(exact), "closed": str(closed),
               "embed_exact": [emb.real, emb.imag],
               "closed_value": [closed.value().real, closed.value().imag],
               "checks": [{"id": c.id, "closed": c.closed, "oracle": c.oracle,
                           "match": c.match} for c in checks]}
        _emit(json.dumps(obj, indent=2) + "\n", st.out)
    else:
        lines = [
            f"G exact  = {exact}",
            f"G closed = {closed}",
            f"embed(exact) = {emb:.12g}",
            f"closed value = {closed.value():.12g}",
        ]
        for c in checks:
            lines.append(f"{c.id}: {'PASS' if c.match else 'FAIL'} "
                         f"(closed={c.closed}, oracle={c.oracle})")
        _emit("\n".join(lines) + "\n", st.out)
    return EXIT_OK if ok else EXIT_MISMATCH


# --- entry point ----------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, grid: bool = False) -> None:
    sp.add_argument("--p", type=int, default=None, help="odd prime characteristic")
    sp.add_argument("--m", type=int, default=None, help="extension degree")
    if grid:
        sp.add_argument("--grid", type=str, default=None,
                        help="batch of entries as 'p,m;p,m;...'")
    sp.add_argument("--max-q", dest="max_q", type=int, default=None,
                    help=f"enumeration cap on p^m (default {DEFAULT_MAX_Q}; env CAP)")
    sp.add_argument("--format", choices=("json", "csv", "text"), default=None)
    sp.add_argument("--out", type=str, default=None, help="write output to this path")
    sp.add_argument("--jobs", type=int, default=None,
                    help="parallel grid entries (default 1; env JOBS)")
    sp.add_argument("--config", type=str, default=None,
                    help="key=value config file; flags and env win over it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defset",
        description="Defining-set linear codes from tr(x^2+x) = 0: build, predict, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="construct D and C_D, export D, enumerate weights")
    _add_common(sp)
    sp.add_argument("--no-enumerate", action="store_true",
                    help="skip the brute-force weight distribution")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("predict", help="closed-form length and weight table, no enumeration")
    _add_common(sp)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("verify", help="brute force vs closed forms, lemma oracles, invariants")
    _add_common(sp, grid=True)
    sp.add_argument("--checks", type=str, default=None,
                    help="comma list of: " + ",".join(CHECK_FAMILIES))
    sp.add_argument("--timestamps", action="store_true",
                    help="include runtime_ms in reports (off for byte-stable output)")
    sp.add_argument("--corrupt-prediction", action="store_true", help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gauss", help="exact Gauss sum vs closed form")
    _add_common(sp)
    sp.set_defaults(func=cmd_gauss)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FieldTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DefSetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
