#!/usr/bin/env python3
"""Write the reference outputs that run.py compares against at the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only when a change to randent's physics output is intended, and say
so with the change.  Each workload is run once; its output must still pass
the seed-independent checks.
"""
import json
import sys
import tempfile
from pathlib import Path

import run
from outputs import PARSERS, check


def record(name: str, work: Path) -> str | None:
    """Run one workload at the default seed and store its parsed output; the reason it failed, or None."""
    wl = run.WORKLOADS[name]
    out = run.spawn_child(wl.argv(run.DEFAULT_SEED, work), False, work)
    if out is None or out["rc"] != 0:
        return "the call failed"
    parsed = PARSERS[wl.kind](work / wl.output)
    failure = check(parsed, wl.kind, wl.max_gates, wl.threshold, None)
    if failure:
        return failure
    path = run.BENCH_DIR / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(parsed, separators=(",", ":")) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return None


def main(names) -> int:
    run.TMP_ROOT.mkdir(exist_ok=True)
    try:
        for name in names or sorted(run.WORKLOADS):
            with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as work:
                failure = record(name, Path(work))
            if failure:
                print(f"{name}: {failure}", file=sys.stderr)
                return 1
    finally:
        run.remove_tmp_root()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
