"""Committed benchmark baselines that move only on a passing full run.

The trajectory benchmarks (kernel tiers, service, decomposition, fleet
chaos) keep their last full-scale numbers in a committed
``BENCH_<name>.json`` at the repo root.  A later full run gates its
ratios against that file, so the file may change only once every gate
of the run has passed: call :func:`write_results` after the last
assertion.  Smoke runs (``REPRO_BENCH_SMOKE=1``) never gate on timing
and never touch the committed file; they write a git-ignored
``BENCH_<name>.smoke.json`` instead, which CI keeps as an artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: Regression band vs the committed baseline's ratios: a new ratio may
#: drop to 80% of the stored one before the gate trips.
REGRESSION_TOLERANCE = 0.20
REPO_ROOT = Path(__file__).resolve().parent.parent


def _result_path(name: str) -> Path:
    """Where this run writes: the committed file, or its smoke twin."""
    return REPO_ROOT / (
        f"BENCH_{name}.smoke.json" if SMOKE else f"BENCH_{name}.json"
    )


def read_results(name: str) -> dict:
    """The current contents of :func:`_result_path` (empty when absent/bad)."""
    path = _result_path(name)
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def load_baseline(name: str, required_key: str) -> Optional[dict]:
    """The committed baseline, when it can gate this run.

    None in smoke runs, and when the committed file is missing, holds
    smoke numbers, or predates ``required_key``.
    """
    if SMOKE:
        return None
    baseline = read_results(name)
    if baseline.get("smoke") or required_key not in baseline:
        return None
    return baseline


def gate_ratio(name: str, label: str, new, old) -> None:
    """Fail on a regression beyond the band; improvements always pass."""
    if old is None or new is None:
        return
    floor = old * (1.0 - REGRESSION_TOLERANCE)
    assert new >= floor, (
        f"{label} regressed: {new:.2f}x vs committed baseline {old:.2f}x "
        f"(tolerance floor {floor:.2f}x) -- investigate before refreshing "
        f"BENCH_{name}.json"
    )


def write_results(name: str, payload: dict) -> None:
    """Persist a run's numbers; call only after every gate has passed."""
    path = _result_path(name)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
