"""Parse randent's schema-1 output files and check them.

Columns are read by header name, so added columns do not change the parsed
values.  Reals are written with repr and parse back to the same doubles,
which makes the comparison with a stored reference exact.
"""
from __future__ import annotations

import json
from pathlib import Path

SCHEMA_LINE = "#schema=1"


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SCHEMA_LINE:
        raise ValueError(f"{path.name}: first line is not {SCHEMA_LINE}")
    body = [line for line in lines[1:] if not line.startswith("#")]
    header = body[0].split(",")
    return [dict(zip(header, line.split(","))) for line in body[1:]]


def _int_or_none(text):
    return None if text in ("", None) else int(text)


def parse_run_csv(path: Path) -> dict:
    """Trajectory and report of a CSV `run` output (the report is a sibling file)."""
    series: dict[str, dict[str, list[float]]] = {}
    gates: list[int] = []
    for row in _csv_rows(path):
        key = f"{row['measure']}/{row['level']}"
        s = series.setdefault(key, {"mean_E": [], "delta_E": []})
        s["mean_E"].append(float(row["mean_E"]))
        s["delta_E"].append(float(row["delta_E"]))
        if len(series) == 1:
            gates.append(int(row["gate_index"]))
    report = path.with_name(path.stem + "_report" + path.suffix)
    n_gates = {
        f"{row['measure']}/{row['level']}": _int_or_none(row["n_gates"])
        for row in _csv_rows(report)
    }
    return {"gate_index": gates, "series": series, "n_gates": n_gates}


def parse_run_json(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != 1:
        raise ValueError(f"{path.name}: schema is {payload.get('schema')!r}, not 1")
    series = {
        f"{s['measure']}/{s['level']}": {"mean_E": s["mean_E"], "delta_E": s["delta_E"]}
        for s in payload["series"]
    }
    n_gates = {f"{e['measure']}/{e['level']}": e["n_gates"] for e in payload["report"]}
    return {"gate_index": payload["gate_index"], "series": series, "n_gates": n_gates}


def parse_sweep_csv(path: Path) -> dict:
    rows = _csv_rows(path)
    return {
        "phi": [float(r["phi"]) for r in rows],
        "n_gates": [_int_or_none(r["n_gates"]) for r in rows],
    }


PARSERS = {"run-csv": parse_run_csv, "run-json": parse_run_json, "sweep-csv": parse_sweep_csv}


def _first_difference(got, want, where="") -> str | None:
    if isinstance(want, dict) and isinstance(got, dict):
        for key in want:
            if key not in got:
                return f"{where}/{key} missing"
            diff = _first_difference(got[key], want[key], f"{where}/{key}")
            if diff:
                return diff
        extra = sorted(set(got) - set(want))
        return f"{where}: unexpected {extra}" if extra else None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{where}: {len(got)} values, reference has {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"{where}[{k}]: {g!r} != reference {w!r}"
        return None
    return None if got == want else f"{where}: {got!r} != reference {want!r}"


def check(parsed: dict, kind: str, max_gates: int, threshold: float, reference: dict | None) -> str | None:
    """Reason the output is wrong, or None when it passes.

    Every seed: each sweep angle converged within max_gates, and a run's
    global linear |delta| at its last recorded gate is at most the
    threshold.  With a reference (the default seed): exact equality.
    """
    if kind == "sweep-csv":
        bad = [phi for phi, n in zip(parsed["phi"], parsed["n_gates"]) if n is None or n > max_gates]
        if bad or not parsed["phi"]:
            return f"sweep angles not converged within {max_gates} gates: {bad}"
    else:
        if parsed["gate_index"][-1:] != [max_gates]:
            return f"last recorded gate is not {max_gates}"
        last = parsed["series"]["linear/global"]["delta_E"][-1]
        if not abs(last) <= threshold:
            return f"global linear |delta| {last!r} at gate {max_gates} exceeds {threshold}"
    if reference is not None:
        diff = _first_difference(parsed, reference)
        if diff:
            return "differs from reference: " + diff
    return None
