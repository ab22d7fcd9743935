"""Command-line front end: build codes, print predictions, verify, Gauss report.

Exit codes are stable: 0 all enabled checks pass, 1 mathematical mismatch or
a result that cannot be certified (`InexactTransform`, `NonIntegralTableEntry`),
2 usage error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codes import (VerifyReport, defining_set, distribution_csv, export_defining_set,
                    transform_weight_distribution, weight_enumerator_string)
from .closed_form import THEOREM_NUMBER, classify, predicted_distribution
from .cyclotomic import embed_complex, gauss_closed, gauss_sum_exact
from .errors import DefSetError, FieldTooLarge, InexactTransform, NonIntegralTableEntry
from .fields import DEFAULT_MAX_Q, field
from .verify import CHECK_FAMILIES, CLAIMS, gauss_checks, run_verification

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


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
        gating = [f for f, claim in CLAIMS.items() if claim(rep.p, rep.m)]
        lines.append("  note: m <= 2 is outside the theorem hypotheses; only "
                     f"{', '.join(gating)} gate the exit code")
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
    """Flags win over environment variables, which win over --config values.

    A config key is the dest of a value-taking flag of the running subcommand
    (`max_q`, `format`, ...), and that flag's type and choices check its value.
    The entries come from the first of flags and config that names any of
    `grid`, `p` and `m`; a source that names both `grid` and `p` or `m` is an error.
    """

    def __init__(self, args: argparse.Namespace):
        flags = {a.dest: a for a in args.parser._actions
                 if a.option_strings and a.nargs != 0 and a.dest != "config"}
        cfg = _load_config(args.config) if args.config else {}
        unknown = sorted(set(cfg) - set(flags))
        if unknown:
            raise DefSetError(f"unknown config key(s) for {args.command}: "
                              f"{', '.join(map(repr, unknown))} (want: {', '.join(flags)})")
        env = os.environ

        def pick(dest, default=None, env_name=None):
            if dest not in flags:
                return default
            if getattr(args, dest) is not None:
                return getattr(args, dest)
            if env_name and env.get(env_name):
                raw, source = env[env_name], f"environment variable {env_name}"
            elif dest in cfg:
                raw, source = cfg[dest], f"config key {dest!r}"
            else:
                return default
            action = flags[dest]
            try:
                value = (action.type or str)(raw)
            except ValueError:
                raise DefSetError(f"bad value {raw!r} for {source}") from None
            if action.choices is not None and value not in action.choices:
                raise DefSetError(f"bad value {raw!r} for {source} "
                                  f"(want one of: {', '.join(action.choices)})")
            return value

        self.max_q = pick("max_q", DEFAULT_MAX_Q, "CAP")
        self.fmt = pick("format", "text")
        self.out = pick("out")
        checks = pick("checks")
        self.checks = CHECK_FAMILIES if checks is None else tuple(
            c.strip() for c in checks.split(",") if c.strip())
        if not self.checks or not set(self.checks) <= set(CHECK_FAMILIES):
            raise DefSetError(f"bad check selection {checks!r} (want a nonempty comma list of: "
                              f"{', '.join(CHECK_FAMILIES)})")
        named = [{k for k in ("grid", "p", "m") if getattr(args, k, None) is not None},
                 {"grid", "p", "m"} & set(cfg)]
        if any("grid" in keys and len(keys) > 1 for keys in named):
            raise DefSetError("give either a grid or p and m, not both")
        self.single = "grid" not in next((keys for keys in named if keys), set())
        if self.single:
            p, m = pick("p"), pick("m")
            if p is None or m is None:
                raise DefSetError("need --p and --m (or --grid)")
            self.entries = [(p, m)]
        else:
            self.entries = _parse_grid(pick("grid"))


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
    dist = None if args.no_enumerate else transform_weight_distribution(ds)

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
    reports = [run_verification(p, m, max_q=st.max_q, checks=st.checks)
               for p, m in st.entries]

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

def _subcommand(sub, name: str, func, help: str, grid: bool = False, max_q: bool = True,
                formats=("json", "csv", "text")) -> argparse.ArgumentParser:
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(func=func, parser=sp)
    sp.add_argument("--p", type=int, default=None, help="odd prime characteristic")
    sp.add_argument("--m", type=int, default=None, help="extension degree")
    if grid:
        sp.add_argument("--grid", type=str, default=None,
                        help="batch of entries as 'p,m;p,m;...'")
    if max_q:
        sp.add_argument("--max-q", dest="max_q", type=int, default=None,
                        help=f"cap on q = p^m, which bounds the size of the field tables and "
                        f"of the weight transform (default {DEFAULT_MAX_Q}; env CAP)")
    sp.add_argument("--format", choices=formats, default=None)
    sp.add_argument("--out", type=str, default=None, help="write output to this path")
    sp.add_argument("--config", type=str, default=None,
                    help="key=value config file, keys named like the flags' dests "
                    "(format=...); flags and env win over it")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defset",
        description="Defining-set linear codes from tr(x^2+x) = 0: build, predict, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "build", cmd_build,
                     "construct D and C_D, export D, enumerate weights")
    sp.add_argument("--no-enumerate", action="store_true",
                    help="skip the weight distribution (one DFT over F_p^m)")

    _subcommand(sub, "predict", cmd_predict,
                "closed-form length and weight table, no enumeration", max_q=False)

    sp = _subcommand(sub, "verify", cmd_verify,
                     "enumeration vs closed forms, lemma oracles, invariants", grid=True)
    sp.add_argument("--checks", type=str, default=None,
                    help="comma list of: " + ",".join(CHECK_FAMILIES))
    sp.add_argument("--timestamps", action="store_true",
                    help="include runtime_ms in reports (off for byte-stable output)")

    _subcommand(sub, "gauss", cmd_gauss, "exact Gauss sum vs closed form",
                formats=("json", "text"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FieldTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InexactTransform, NonIntegralTableEntry) as exc:
        # a numerical or implementation fault: the result cannot be certified
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (DefSetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
