"""One pass of a workload in a fresh interpreter; ``run.py`` starts it.

    python3 bench/worker.py --workload sweep --seed 1 --index 0 --t0 <monotonic>

Imports cstree from the checkout's ``src``, builds the inputs of corpus
pass ``index`` modulo the workload's ``PASSES``, runs every op once in a
closed loop, then computes answers and checks outside the timed region.  Prints one JSON object on stdout.  ``--t0`` is the
parent's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is shared by all processes on Linux), so ``setup_s``
covers interpreter start, ``import cstree`` and input building.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--corpus", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="run only the first N ops")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cstree

    if pathlib.Path(cstree.__file__).resolve().parent != src / "cstree":
        raise SystemExit(f"cstree imported from {cstree.__file__}, not {src}")
    import workloads

    spans = None
    if args.trace:
        import tracer

        spans = tracer.Tracer()
        tracer.install(spans)
    workload = workloads.WORKLOADS[args.workload]
    items = workload.build(args.seed, args.index % workload.PASSES, args.corpus)
    if args.ops:
        items = items[: args.ops]
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outs = []
    loop_start = time.perf_counter()
    for _, item in items:
        start = time.perf_counter()
        try:
            out, error = workload.run(item), None
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            out, error = None, f"{type(exc).__name__}: {exc}"
        outs.append((time.perf_counter() - start, out, error))
    loop_end = time.perf_counter()
    summary = spans.summary(loop_start, loop_end) if spans else None

    ops = []
    for (key, item), (latency, out, error) in zip(items, outs):
        digest, ok = None, False
        if error is None:
            try:
                digest = _digest(workload.answer(item, out))
                ok = workload.check(item, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        ops.append([latency, key, digest, ok, error])
    result = {
        "setup_s": setup_s,
        "loop_s": loop_end - loop_start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "trace": summary,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
