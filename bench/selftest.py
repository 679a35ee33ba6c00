"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload: a tiny untraced and traced run (three ops a pass) must
emit exactly the metrics BENCHMARK.json names, each with its unit, and pass
every check; a run against records whose answers were all altered must
count every recorded op as failed, which proves the gate can fail.  Last,
``run.py`` copied into a directory with no cstree sources must exit
non-zero without printing a result.  Scratch files go to ``.bench_out/``.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import run

OPS = 3


def _check_metrics(result: dict, names: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got


def main() -> int:
    spec = run.load_spec()
    for workload in run.WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, details = run.measure(
                workload, 1, 0, trace, run.load_records(workload), ops=OPS
            )
            _check_metrics(result, names)
            assert result["correct"] and result["failed"] == 0, details["failures"]
            assert result["attempted"] >= OPS
        print(f"{workload}: metrics and checks ok")

        records = run.load_records(workload)
        scope = records.get(run.record_scope(workload, 0), {})
        assert scope, f"no records for {workload} corpus 0"
        wrong = {run.record_scope(workload, 0): {key: "0" * 16 for key in scope}}
        result, _ = run.measure(workload, 1, 0, 0, wrong, ops=OPS)
        assert not result["correct"] and result["failed"] == result["attempted"], result
        assert result["metrics"]["ok_frac"]["value"] == 0.0, result
        print(f"{workload}: wrong records fail {result['failed']} of {result['attempted']} ops")

    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"without sources: exit {proc.returncode}, no result")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
