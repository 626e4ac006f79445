"""Shared bench configuration.

Every benchmark is also an assertion: each bench re-checks the structural
property of the paper artefact it regenerates, so `pytest benchmarks/
--benchmark-only` doubles as an end-to-end reproduction run.

On top of pytest-benchmark's own reporting, the session hook below emits
one machine-readable ``BENCH_<name>.json`` per bench module (e.g.
``BENCH_substrate.json``, ``BENCH_sec5_overhead.json``) into the repo
root with mean / p50 wall time per row, so CI jobs and the experiment
scripts can compare runs without scraping terminal tables.
"""

import json
import subprocess
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _flight_dumps_into_tmp(tmp_path, monkeypatch):
    """Redirect automatic flight-recorder dumps away from the repo root
    (the recorder is always armed — see tests/conftest.py)."""
    from repro.obs.flight import FlightRecorder

    monkeypatch.setattr(FlightRecorder, "dump_dir", str(tmp_path / "flight"))


def _git_sha(root):
    """The commit the numbers were taken at (None outside a checkout) —
    lets CI and the experiment scripts line bench rows up across runs."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _bench_rows(benchmarks):
    """Group benchmark stats by their bench module."""
    by_file = {}
    for bench in benchmarks:
        stats = getattr(bench, "stats", None)
        stats = getattr(stats, "stats", stats)  # Metadata -> Stats
        mean = getattr(stats, "mean", None)
        if mean is None:  # skipped / --benchmark-disable
            continue
        fullname = getattr(bench, "fullname", "") or ""
        modpath = fullname.split("::", 1)[0]
        stem = Path(modpath).stem  # bench_substrate
        params = getattr(bench, "params", None) or {}
        row = {
            "test": fullname.split("::", 1)[-1],
            "group": getattr(bench, "group", None),
            "mean": mean,
            "p50": getattr(stats, "median", None),
            "stddev": getattr(stats, "stddev", None),
            "rounds": getattr(stats, "rounds", None),
        }
        if "timed" in params:  # rows are comparable by whether cycles are charged
            row["timed"] = params["timed"]
        by_file.setdefault(stem, []).append(row)
    return by_file


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    bs = getattr(session.config, "_benchmarksession", None)
    if bs is None:
        return
    root = Path(str(session.config.rootpath))
    sha = _git_sha(root)
    for stem, rows in _bench_rows(getattr(bs, "benchmarks", [])).items():
        name = stem[len("bench_"):] if stem.startswith("bench_") else stem
        out = root / f"BENCH_{name}.json"
        out.write_text(
            json.dumps({"bench": stem, "git_sha": sha, "rows": rows}, indent=2)
            + "\n"
        )
        tr = session.config.pluginmanager.get_plugin("terminalreporter")
        if tr is not None:
            tr.write_line(f"bench results written to {out}")
