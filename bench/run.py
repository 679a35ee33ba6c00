"""Run one workload of the cstree benchmark and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Load model: one process, one thread, closed loop (each op starts when the
previous one returns).  Every pass runs in a fresh interpreter
(``worker.py``), because cstree's ``lru_cache``s are keyed by tree value
and a second pass in one process would measure cache hits that no CLI user
and no sweep over distinct trees sees.

``--trace 0`` runs whole passes, cycling over the workload's corpus
passes, until the next would end after ``--seconds`` (at least one), each
preceded by set-up-only starts, and reports the ``end_to_end`` metrics of
BENCHMARK.json; an op's latency is its median over the passes that ran it.
``--trace 1`` repeats pass 0 untraced and traced, checks that both give
the same answers, and reports the ``per_layer`` metrics.  The last line of
stdout is the result object; the line before it records the run's
environment and details.  Exit status 0 when every op passed its checks,
1 when some failed, 2 when the benchmark could not run.

``--record`` adds this run's answers to ``bench/records`` for ops that have
none yet; ops with a record are checked against it as usual.  ``--corpus``
(default 0, the recorded one) draws other random inputs from the same laws.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "balance", "cli")
# No answer depends on the seed.  cli answers do not depend on the corpus
# either; the others are recorded per corpus.
CORPUSLESS = ("cli",)
SETUP_STARTS = 2  # set-up-only starts before each timed pass
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def record_path(workload: str) -> pathlib.Path:
    return BENCH / "records" / f"{workload}.json"


def record_scope(workload: str, corpus: int) -> str:
    return "any" if workload in CORPUSLESS else f"corpus {corpus}"


def load_records(workload: str) -> dict:
    path = record_path(workload)
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload, seed, index, corpus, trace=0, ops=0, setup_only=False) -> dict:
    """Run one pass in a new interpreter and return its JSON report."""
    env = {k: v for k, v in os.environ.items() if k != "CSTREE_MAX_FIBER"}
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--index", str(index),
        "--corpus", str(corpus), "--trace", str(trace), "--ops", str(ops),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass {workload}/{seed}/{index} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies, pass_size: int) -> tuple:
    """Latency at the highest percentile that leaves at least ten ops of a
    pass beyond it (the slowest op when a pass has ten or fewer), and that
    percentile."""
    ordered = sorted(latencies)
    share = (pass_size - 10) / pass_size if pass_size > 10 else 1.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)], 100.0 * share


def check_ops(passes, expected: dict, failures: list) -> int:
    """Count ops that raised, failed their invariant, or differ from the
    recorded answer; describe each in ``failures``."""
    failed = 0
    for p in passes:
        for _, key, digest, ok, error in p["ops"]:
            if error is None and not ok:
                error = "invariant check failed"
            if error is None and key in expected and expected[key] != digest:
                error = f"answer {digest} differs from the record {expected[key]}"
            if error is not None:
                failed += 1
                failures.append(f"{key}: {error}")
    return failed


def layer_values(report: dict) -> dict:
    """Per-layer values of one traced pass, keyed like BENCHMARK.json."""
    summary = report["trace"]
    values = dict(summary["counts"])
    for name, (calls, total, own) in summary["spans"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.total_s"] = total
        values[f"{name}.self_s"] = own
    zero_at = values["algebra.statement_zero_at.calls"]
    refuted = values["algebra.statement_zero_at.refuted"]
    values["algebra.refute_yield"] = refuted / zero_at if zero_at else 0.0
    tried = values["contexts.minimal_contexts.tried"]
    kept = values["contexts.minimal_contexts.kept"]
    values["contexts.kept_ratio"] = kept / tried if tried else 0.0
    values["trace.unattributed_frac"] = 1.0 - summary["loop_self_s"] / report["loop_s"]
    return values


def _until(seconds, step) -> list:
    """Call ``step(i)`` for i = 0, 1, ... until the next call, predicted to
    take as long as the last, would end after ``seconds``."""
    deadline = time.monotonic() + seconds
    out = []
    while True:
        started = time.monotonic()
        out.append(step(len(out)))
        if time.monotonic() + (time.monotonic() - started) > deadline:
            return out


def _environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cstree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def op_latencies(passes) -> list:
    """Each op's median latency over the passes that ran it."""
    runs = {}
    for p in passes:
        for latency, key, *_ in p["ops"]:
            runs.setdefault(key, []).append(latency)
    return [statistics.median(v) for v in runs.values()]


def measure(workload, seed, seconds, trace, records, ops=0, corpus=0) -> tuple:
    """Run the workload; return (result object, details) and, in
    ``records``, add this run's answers for ops that had none."""
    spec = load_spec()
    scope = records.setdefault(record_scope(workload, corpus), {})
    failures = []
    spawn(workload, seed, 0, corpus, setup_only=True)  # compile bytecode, warm the file cache
    details = {"workload": workload, "seed": seed, "corpus": corpus, "trace": trace}
    if trace:
        pairs = _until(seconds, lambda i: (
            spawn(workload, seed, 0, corpus, ops=ops),
            spawn(workload, seed, 0, corpus, trace=1, ops=ops),
        ))
        for plain, traced in pairs:
            for a, b in zip(plain["ops"], traced["ops"]):
                if a[2] != b[2] and b[4] is None:
                    b[4] = f"traced answer {b[2]} differs from untraced {a[2]}"
        passes = [p for pair in pairs for p in pair]
        failed = check_ops(passes, scope, failures)
        values = [layer_values(traced) for _, traced in pairs]
        for (plain, traced), v in zip(pairs, values):
            v["trace.overhead_frac"] = traced["loop_s"] / plain["loop_s"] - 1.0
        names = spec["per_layer"]
        metrics = {
            m["name"]: {"value": statistics.median(v[m["name"]] for v in values), "unit": m["unit"]}
            for m in names
        }
        details["pairs"] = len(pairs)
        details["spans_per_pass"] = [t["trace"]["span_count"] for _, t in pairs]
    else:
        setups = []

        def step(i):
            setups.extend(
                spawn(workload, seed, i, corpus, ops=ops, setup_only=True)["setup_s"]
                for _ in range(SETUP_STARTS)
            )
            return spawn(workload, seed, i, corpus, ops=ops)

        passes = _until(seconds, step)
        failed = check_ops(passes, scope, failures)
        setups += [p["setup_s"] for p in passes]
        latencies = op_latencies(passes)
        tail_s, percentile = tail(latencies, min(len(p["ops"]) for p in passes))
        attempted = sum(len(p["ops"]) for p in passes)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / sum(p["loop_s"] for p in passes),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_s,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        details.update(
            passes=len(passes),
            ops_per_pass=[len(p["ops"]) for p in passes],
            distinct_ops=len(latencies),
            tail_percentile=round(percentile, 1),
            setup_samples=setups,
        )
    for p in passes:
        for _, key, digest, _, error in p["ops"]:
            if error is None and digest is not None:
                scope.setdefault(key, digest)
    attempted = sum(len(p["ops"]) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details["environment"] = _environment()
    details["failures"] = failures[:20]
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="cap ops per pass (self-test)")
    parser.add_argument("--corpus", type=int, default=0, help="draw other random inputs")
    parser.add_argument("--record", action="store_true", help="store new answers in bench/records")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cstree" / "__init__.py").exists():
        print(f"no cstree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    records = load_records(args.workload)
    try:
        result, details = measure(
            args.workload, args.seed, args.seconds, args.trace, records,
            ops=args.ops, corpus=args.corpus,
        )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.record:
        path = record_path(args.workload)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=0, sort_keys=True)
            fh.write("\n")
    for line in details["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
