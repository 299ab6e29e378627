"""realrmt benchmark launcher.

    python3 perfbench/run.py --workload mc_gate --seed 1 --seconds 20 --trace 0

Runs rounds of the workload's fixed op list (workloads.py) until --seconds of
rounds have been measured and at least MIN_OPS ops timed. Each round is a
fresh interpreter (worker.py) with BLAS pinned to one thread, as a CLI user's
command would be; every round replays the same ops with the same seeds. The first round's outputs are
checked (checks.py); each later round must reproduce them byte for byte.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With --trace 0 the metrics are the end-to-end
ones. With --trace 1, rounds alternate untraced and traced, and the metrics
are the per-layer ones from the traced rounds plus the tracing overhead.
Per-round records and trace dumps go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170.0
# At least this many op times per run, so that ten of them lie above p90.
MIN_OPS = 100
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class RoundError(Exception):
    """A worker did not complete its round."""


def run_round(ops, traced, deadline, keep_text):
    """Run the op list once in a fresh worker; return the round's record.

    Op outputs are kept only when keep_text is set (the first round, whose
    outputs are checked); other rounds keep their digests.
    """
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    records, noise, done = [], [], None
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "READY":
            raise RoundError("worker did not start: %s%s"
                             % (first, proc.stdout.read()[-2000:]))
        proc.stdin.write(json.dumps({"ops": ops, "trace": traced}))
        proc.stdin.close()
        for line in proc.stdout:
            if not line.startswith("{"):
                noise.append(line)
                continue
            rec = json.loads(line)
            if rec.get("done"):
                done = rec
            else:
                records.append(rec)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or done is None or len(records) != len(ops):
        raise RoundError("worker exited %s after %d of %d ops: %s"
                         % (proc.returncode, len(records), len(ops),
                            "".join(noise)[-2000:]))
    for rec in records:
        out = rec.pop("out")
        rec["bytes"] = len(out.encode())
        rec["digest"] = hashlib.sha256(
            ("%d\n" % rec["code"] + out).encode()).hexdigest()
        if keep_text:
            rec["text"] = out
    return {"traced": traced, "setup_s": setup_s, "records": records,
            "wall_s": sum(r["ms"] for r in records) / 1e3,
            "rss_mb": done["rss_kb"] / 1024.0,
            "elapsed_s": time.perf_counter() - t0}


def judge(ops, rounds, refs):
    """(attempted, failed, correct, reasons) over every op of every round."""
    first = rounds[0]["records"]
    verdicts = [checks.check_op(op, rec["code"], rec["text"], refs)
                for op, rec in zip(ops, first)]
    attempted = failed = 0
    correct = True
    reasons = []
    for rnd in rounds:
        for op, rec, ref, verdict in zip(ops, rnd["records"], first, verdicts):
            attempted += 1
            if rec["digest"] != ref["digest"]:
                verdict = "output differs from the first round"
            if verdict is None:
                continue
            failed += 1
            if not op["kept_fault"]:
                correct = False
            reasons.append("%s: %s%s" % (" ".join(op.get("args", [op["cmd"]])),
                                         verdict,
                                         " (kept fault)" if op["kept_fault"] else ""))
    return attempted, failed, correct, reasons


def end_to_end(rounds):
    times = [r["ms"] for rnd in rounds for r in rnd["records"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


def per_layer(ops, rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = [tracing.layer_metrics(ops, r["records"]) for r in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "s")
    return metrics


def write_dump(path, args, ops, rounds):
    os.makedirs(OUT, exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "ops": [op.get("args", op["cmd"]) for op in ops],
           "rounds": [{k: v for k, v in rnd.items() if k != "records"}
                      | {"ops": [{k: v for k, v in rec.items() if k != "text"}
                                 for rec in rnd["records"]]}
                      for rnd in rounds]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    refs = checks.References()
    if not os.path.abspath(refs.analytics.__file__).startswith(SRC + os.sep):
        raise ImportError("realrmt was not imported from %s" % SRC)

    ops = workloads.build(args.workload, args.seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    rounds = []
    measured = 0.0
    while (measured < args.seconds or len(rounds) * len(ops) < MIN_OPS
           or (args.trace and len({r["traced"] for r in rounds}) < 2)):
        rounds.append(run_round(ops, bool(args.trace) and len(rounds) % 2 == 1,
                                deadline, keep_text=not rounds))
        measured += rounds[-1]["elapsed_s"]
    attempted, failed, correct, reasons = judge(ops, rounds, refs)
    metrics = per_layer(ops, rounds) if args.trace else end_to_end(rounds)

    kind = "trace" if args.trace else "run"
    write_dump(os.path.join(OUT, "%s-%s-seed%d.json" % (kind, args.workload, args.seed)),
               args, ops, rounds)
    for reason in reasons[:20]:
        print("failed op: " + reason, file=sys.stderr)
    print("%s: %d rounds of %d ops, %d ops attempted, %d failed, %.1f s"
          % (args.workload, len(rounds), len(ops), attempted, failed,
             time.perf_counter() - start), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, RoundError, OSError) as exc:
        print("benchmark failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        sys.exit(1)
