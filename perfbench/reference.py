"""Reference outputs of `defset verify`, and the byte check against them.

`reference.json` holds, for every pool entry of every workload, the exit code
and the SHA-256 of the JSON object that `verify --grid "p,m" --format json`
wrote for it, recorded by running this file at the commit that added the
benchmark:

    PYTHONPATH=src python3 perfbench/reference.py

Do not edit `reference.json` by hand.  A pass matches the reference when its
output is exactly `json.dumps(objects, indent=2) + "\\n"` and each object
hashes to its entry's recorded digest, so the check is byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, grid_arg

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")
EXIT_OK = 0
EXIT_MISMATCH = 1


def entry_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()


def expected_exit(ref: dict, entries) -> int:
    """Exit code of a grid pass over entries, from their recorded exit codes."""
    ok = all(ref[grid_arg([e])]["exit"] == EXIT_OK for e in entries)
    return EXIT_OK if ok else EXIT_MISMATCH


def matching_entries(text: str, ref: dict, entries) -> list[bool]:
    """For each entry, whether the grid output holds its reference bytes."""
    try:
        objs = json.loads(text)
    except ValueError:
        return [False] * len(entries)
    if (not isinstance(objs, list) or len(objs) != len(entries)
            or text != json.dumps(objs, indent=2) + "\n"):
        return [False] * len(entries)
    return [entry_digest(obj) == ref[grid_arg([e])]["sha256"]
            for obj, e in zip(objs, entries)]


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():  # so that no enclosing repository answers
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def record() -> None:
    from defset import cli, fields

    out_path = ROOT / ".perfbench" / "reference-entry.json"
    out_path.parent.mkdir(exist_ok=True)
    variants: dict[str, dict] = {}
    for wl in WORKLOADS.values():
        assert wl.sets[0] == wl.entries, wl.name
        assert all(set(s) <= set(wl.pool) for s in wl.sets), wl.name
        ref = variants.setdefault(wl.variant, {})
        for entry in wl.pool:
            key = grid_arg([entry])
            if key in ref:
                continue
            fields.field.cache_clear()
            code = cli.main(["verify", "--grid", key, "--format", "json",
                             "--out", str(out_path), *wl.flags()])
            (obj,) = json.loads(out_path.read_text(encoding="utf-8"))
            ref[key] = {"exit": code, "sha256": entry_digest(obj)}
            print(f"{wl.variant}: {key} exit {code}", file=sys.stderr)
    out_path.unlink()
    doc = {"recorded_at_git_sha": git_sha(), "variants": variants}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
