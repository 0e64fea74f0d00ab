"""One randent CLI call in a fresh interpreter, measured from inside.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds
  spawned  CLOCK_MONOTONIC reading taken by the parent just before the spawn
  result   path of the JSON file this process writes
  argv     CLI arguments, or null to measure set-up only
  trace    trace the call's layers (writes worker totals to trace_dir)

Set-up time runs from the spawn to the end of ``import randent.cli``.
CPU time and peak RSS cover this process and its reaped pool workers.
"""
import json
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    spec = json.loads(sys.argv[1])
    import randent.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"setup_s": ready - spec["spawned"]}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import layers

            tracer = layers.Tracer(trace_dir=spec["trace_dir"]).install()
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = randent.cli.main(spec["argv"])
            else:
                rc = tracer.call("cli.main", randent.cli.main, spec["argv"])
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=_cpu(self1) - _cpu(self0) + _cpu(kids),
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb=max(self1.ru_maxrss, kids.ru_maxrss) / 1024.0,
        )
        if tracer is not None:
            tracer.merge_workers()
            result["trace"] = tracer.snapshot()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
