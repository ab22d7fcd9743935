"""Command-line front end: build codes, print predictions, verify, Gauss report.

Exit codes are stable: 0 all enabled checks pass, 1 mathematical mismatch or
a non-integral closed-form entry (`NonIntegralTableEntry`), 2 usage error, 3 a
size bound exceeded: the cap on q, the exact range of the transform or of the
primality test, or, for `predict`, the interpreter's limit on printing an integer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .codes import (WeightDistribution, defining_set, distribution_csv, export_defining_set,
                    transform_weight_distribution, weight_enumerator_string)
from .closed_form import THEOREM_NUMBER, classify, predicted_distribution
from .errors import DefSetError, FieldTooLarge, NonIntegralTableEntry
from .fields import DEFAULT_MAX_Q, _check_size, field, require_odd_prime
# report_dict is also read as cli.report_dict, by perfbench/replay.py
from .report import report_dict, report_text, reports_csv, reports_json
from .verify import CHECK_FAMILIES, FAMILIES, gauss_checks, run_verification

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# --- option plumbing ----------------------------------------------------------

def _cap(text: str) -> int:
    """The value of --max-q, CAP or max_q: a cap below 1 admits no field, so it is malformed."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"the cap on q must be at least 1, got {value}")
    return value


def _load_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not part of a key
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise DefSetError(f"bad config line (want key=value): {line!r}")
                cfg[key.strip()] = value.strip()
    except UnicodeDecodeError:
        raise DefSetError(f"config file {path!r} is not UTF-8 text") from None
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
            except (ValueError, argparse.ArgumentTypeError):
                raise DefSetError(f"bad value {raw!r} for {source}") from None
            if action.choices is not None and value not in action.choices:
                raise DefSetError(f"bad value {raw!r} for {source} "
                                  f"(want one of: {', '.join(action.choices)})")
            return value

        self.max_q = pick("max_q", DEFAULT_MAX_Q, "CAP")
        self.fmt = pick("format", "text")
        self.out = pick("out")
        checks = pick("checks")
        self.checks = CHECK_FAMILIES if checks is None else tuple(dict.fromkeys(
            c.strip() for c in checks.split(",") if c.strip()))
        if not self.checks or not set(self.checks) <= set(FAMILIES):
            raise DefSetError(f"bad check selection {checks!r} (want a nonempty comma list of: "
                              f"{', '.join(FAMILIES)})")
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
    if args.no_enumerate and st.fmt == "csv":
        raise DefSetError("--no-enumerate excludes --format csv, whose output is the "
                          "weight distribution that --no-enumerate skips")
    p, m = st.entries[0]
    ctx = field(p, m, st.max_q)
    ds = defining_set(ctx)
    dist = None if args.no_enumerate else transform_weight_distribution(ds)
    k = ds.dimension

    if dist is not None:
        d_min = min(dist.nonzero_weights()) if dist.nonzero_weights() else 0
        header = f"[{ds.n},{k},{d_min}]"
    else:
        header = f"[{ds.n},{k}]"
    d_export = export_defining_set(ds)

    if st.fmt == "json":
        obj = {"p": p, "m": m, "n": ds.n, "k": k,
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
    if st.fmt == "csv":
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
    require_odd_prime(p)
    tag = classify(p, m)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    unprintable = FieldTooLarge(f"the p={p}, m={m} table has entries that exceed the "
                                f"{limit}-digit limit on printing an integer "
                                "(sys.get_int_max_str_digits)")
    # the at most five multiplicities sum to p^m - 1, so one of them has at
    # least m*log10(p) - 1 digits; refuse such a table before building it
    if limit and m > (limit + 2) / math.log10(p):
        raise unprintable
    pred = predicted_distribution(p, m)
    if limit and max(pred.n, *(x for row in pred.rows for x in row)) >= 10 ** limit:
        raise unprintable
    if st.fmt == "json":
        obj = {"p": p, "m": m, "case": tag.value, "theorem": THEOREM_NUMBER[tag],
               "length": pred.n, "dimension": pred.dimension,
               "rows": [[w, a] for w, a in pred.rows]}
        _emit(json.dumps(obj, indent=2) + "\n", st.out)
        return EXIT_OK
    table = distribution_csv(WeightDistribution(dict(pred.rows)))
    if st.fmt == "text":
        table = (f"p={p} m={m} case={tag.value} theorem={THEOREM_NUMBER[tag]}\n"
                 f"length={pred.n} dimension={pred.dimension} rows={len(pred.rows)}\n" + table)
    _emit(table, st.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    st = _Settings(args)
    if args.timestamps and st.fmt != "json":
        raise DefSetError("--timestamps needs --format json, the only format with runtime_ms")
    # refuse the grid at its first bad entry before verifying any entry
    for p, m in st.entries:
        _check_size(p, m, st.max_q)
        predicted_distribution(p, m)
    reports = [run_verification(p, m, max_q=st.max_q, checks=st.checks)
               for p, m in st.entries]

    if st.fmt == "json":
        _emit(reports_json(reports, st.single, args.timestamps) + "\n", st.out)
    elif st.fmt == "csv":
        _emit(reports_csv(reports), st.out)
    else:
        _emit("\n".join(report_text(r, st.checks) for r in reports) + "\n", st.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH


def cmd_gauss(args: argparse.Namespace) -> int:
    st = _Settings(args)
    p, m = st.entries[0]
    ctx = field(p, m, st.max_q)
    exact, emb, closed, checks = gauss_checks(ctx)
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

def _fill(sp: argparse.ArgumentParser, name: str, func, help: str, grid: bool = False,
          max_q: bool = True, formats=("json", "csv", "text"), extra=()):
    """Give sp the flags of subcommand `name`, its own `extra` ones last; `help` is
    its line in the full parser's list of subcommands."""
    sp.set_defaults(command=name, func=func, parser=sp)
    sp.add_argument("--p", type=int, default=None, help="odd prime characteristic")
    sp.add_argument("--m", type=int, default=None, help="extension degree")
    if grid:
        sp.add_argument("--grid", type=str, default=None,
                        help="batch of entries as 'p,m;p,m;...'")
    if max_q:
        sp.add_argument("--max-q", dest="max_q", type=_cap, default=None,
                        help=f"cap on q = p^m, which bounds the size of the field tables and "
                        f"of the weight transform (default {DEFAULT_MAX_Q}; env CAP)")
    sp.add_argument("--format", choices=formats, default=None)
    sp.add_argument("--out", type=str, default=None, help="write output to this path")
    sp.add_argument("--config", type=str, default=None,
                    help="key=value config file, keys named like the flags' dests "
                    "(format=...); flags and env win over it")
    for flag, kwargs in extra:
        sp.add_argument(flag, **kwargs)
    return sp


def _commands() -> dict[str, dict]:
    """Each subcommand: the _fill arguments after its name.  Built per parser, so
    that --checks lists FAMILIES as they stand."""
    return {
        "build": dict(func=cmd_build, help="construct D and C_D, export D, enumerate weights",
                      extra=[("--no-enumerate", dict(action="store_true", help=(
                          "skip the weight distribution (one DFT over F_p^m)")))]),
        "predict": dict(func=cmd_predict, max_q=False,
                        help="closed-form length and weight table, no enumeration"),
        "verify": dict(func=cmd_verify, grid=True,
                       help="enumeration vs closed forms, lemma oracles, invariants", extra=[
                           ("--checks", dict(help="comma list of: " + ",".join(FAMILIES))),
                           ("--timestamps", dict(action="store_true", help=(
                               "include runtime_ms in JSON reports (off for byte-stable "
                               "output)")))]),
        "gauss": dict(func=cmd_gauss, help="exact Gauss sum vs closed form",
                      formats=("json", "text")),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defset",
        description="Defining-set linear codes from tr(x^2+x) = 0: build, predict, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kwargs in _commands().items():
        _fill(sub.add_parser(name, help=kwargs["help"]), name, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name, commands = argv[0] if argv else None, _commands()
    if name in commands:
        # only the invoked subcommand's parser; it prints what its subparser would
        args, unknown = _fill(argparse.ArgumentParser(prog=f"defset {name}"), name,
                              **commands[name]).parse_known_args(argv[1:])
    if name not in commands or unknown:
        # any other command line, and unknown arguments, which the full parser reports
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FieldTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NonIntegralTableEntry as exc:
        # an implementation fault: the result cannot be certified
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (DefSetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
