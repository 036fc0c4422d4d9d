"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one experiment of DESIGN.md's
per-experiment index (one per theorem / figure of the paper).  Besides the
pytest-benchmark timings, every experiment prints a small table of the
rows/series whose *shape* reproduces the paper's claim; the same rows are
attached to ``benchmark.extra_info`` so they survive in the benchmark JSON.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Appended to the ``experiment`` header of trajectory files written by
#: ``--smoke`` runs.
SMOKE_SUFFIX = " (smoke sizes)"


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="benchmark smoke mode: smaller sizes, no speedup-ratio "
             "assertions (for shared CI runners where wall-clock ratios "
             "wobble); BENCH_perf.json keeps its vetted full-size entries",
    )


@pytest.fixture
def smoke(request) -> bool:
    """True when the run is a CI smoke pass (see --smoke)."""
    return bool(request.config.getoption("--smoke"))


def emit_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    """Print a results table (visible with ``pytest -s`` and in captured
    output on failure)."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))


@pytest.fixture
def table():
    """A fixture handing benchmarks the table emitter."""
    return emit_table


def write_trajectory(entries: dict, label: str, smoke: bool,
                     header: dict | None = None) -> None:
    """Merge one benchmark module's ``entries`` into the trajectory file.

    Full-size runs write ``BENCH_perf.json`` at the repo root.  Smoke runs
    (shrunken sizes, no assertions) write ``BENCH_smoke.json``, which the
    CI perf gate (``benchmarks/check_trajectory.py``) compares against
    the committed smoke baseline, so they never touch the vetted
    full-size points.  Entries and header keys written by other modules
    survive; ``header`` adds or overrides keys.  The ``experiment``
    header lists every module's ``label`` once, joined by `` + ``: a
    label already present is not appended again, however often a module
    runs."""
    path = REPO_ROOT / ("BENCH_smoke.json" if smoke else "BENCH_perf.json")
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):
            pass
    merged_entries = {**existing.pop("entries", {}), **entries}
    labels = existing.pop("experiment", "").removesuffix(SMOKE_SUFFIX)
    labels = [part for part in labels.split(" + ") if part]
    labels += [part for part in label.split(" + ") if part not in labels]
    for key in ("schema", "python"):
        existing.pop(key, None)
    payload = {
        "schema": "repro-perf-trajectory/v1",
        "experiment": " + ".join(labels) + (SMOKE_SUFFIX if smoke else ""),
        "python": platform.python_version(),
        **existing,
        **(header or {}),
        "entries": merged_entries,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def trajectory():
    """The shared trajectory writer (:func:`write_trajectory`)."""
    return write_trajectory
