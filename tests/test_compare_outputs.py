"""``benchmarks/compare_outputs.py``, the script that checks a change
keeps every output: a recording compares identical with a fresh run of
the same checkout, and a doctored recording does not."""

import pickle
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_outputs.py"


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "--workload", "misses", *args],
                          capture_output=True, text=True, timeout=60)


def test_misses_recording_compares_identical_then_doctored_differs(tmp_path):
    recording = tmp_path / "misses.pkl"
    made = _run("--out", str(recording))
    assert made.returncode == 0, made.stderr
    same = _run("--against", str(recording))
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.strip() == "identical outputs on 22 operations"

    with open(recording, "rb") as fh:
        recorded = pickle.load(fh)
    ops = recorded["misses"]
    i = next(i for i, (_, _, record) in enumerate(ops) if record[0] == "solved")
    label, quotas, record = ops[i]
    # field 3 of a solved record is its strategy string
    ops[i] = (label, quotas, record[:3] + ("doctored",) + record[4:])
    with open(recording, "wb") as fh:
        pickle.dump(recorded, fh)
    differ = _run("--against", str(recording))
    assert differ.returncode == 1, differ.stdout + differ.stderr
    assert ("misses: 1 of 22 operations differ (0 verdict, 0 answer, "
            "1 strategy or diagnostics only, 0 settled a give-up)") in differ.stdout
    assert f"misses operation {i} " in differ.stdout
