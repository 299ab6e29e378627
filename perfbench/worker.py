"""One round of a workload, run in a fresh interpreter.

The launcher (run.py) starts this script once per round with BLAS pinned to
one thread. The script imports realrmt from the checkout's ``src`` directory,
prints ``READY`` (the launcher times set-up up to that line), then reads the
round's op list as one JSON document on stdin. It runs each op in-process and
writes one JSON line per op to stdout: the op's time, exit code and output.
A final line carries the peak resident memory of the process.

An op is either a CLI command, run through ``realrmt.cli.main`` exactly as
the ``realrmt`` entry point runs it, or an ``npoint`` batch of library calls.
With tracing on, wrappers from tracing.py are installed before the first op.
"""

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import realrmt.cli  # noqa: E402  (set-up: this import is what a CLI user pays)
from realrmt import kernels  # noqa: E402

if not os.path.abspath(realrmt.cli.__file__).startswith(SRC + os.sep):
    sys.exit("realrmt was not imported from %s" % SRC)


def run_cli(args):
    """Run one CLI command in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["realrmt"] + list(args)
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            realrmt.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


def _kernel(op):
    if op["ensemble"] == "truncated":
        return kernels.TruncatedKernel(op["n"], op["l"])
    return {"goe": kernels.GOEKernel, "ginibre": kernels.GinibreKernel,
            "spherical": kernels.SphericalKernel}[op["ensemble"]](op["n"])


def _point(p):
    species, re, im = p
    return (species, re if species == "r" else complex(re, im))


def run_npoint(op):
    """Evaluate a batch of 1- and 2-point correlations; return JSON text."""
    kern = _kernel(op)
    rho1 = [kernels.npoint_correlation(kern, [_point(p)]) for p in op["singles"]]
    rho2 = [[kernels.npoint_correlation(kern, [_point(p), _point(q)]),
             kernels.npoint_correlation(kern, [_point(q), _point(p)])]
            for p, q in op["pairs"]]
    return json.dumps({"rho1": rho1, "rho2": rho2})


def run_op(op):
    if op["kind"] == "cli":
        return run_cli(op["args"])
    try:
        return 0, run_npoint(op), ""
    except (ValueError, ArithmeticError, AttributeError, RuntimeError) as exc:
        return 3, "", "%s: %s" % (type(exc).__name__, exc)


def peak_rss_kb():
    """Peak resident memory of this process image.

    VmHWM, not getrusage: on Linux ru_maxrss survives execve, so a worker
    would report its launcher's peak whenever that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main():
    print("READY", flush=True)
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.begin_op(op)
        t0 = time.perf_counter()
        code, out, err = run_op(op)
        ms = (time.perf_counter() - t0) * 1e3
        rec = {"i": i, "ms": ms, "code": code, "out": out, "err": err[-2000:]}
        if tracer is not None:
            rec["trace"] = tracer.end_op()
        sys.stdout.write(json.dumps(rec) + "\n")
        sys.stdout.flush()
    sys.stdout.write(json.dumps({"done": True, "rss_kb": peak_rss_kb()}) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
