"""Command line interface: exact tables, sampling, densities and comparison."""

import json
import math
import sys

import click
import numpy as np

from . import analytics, ensembles

SCHEMA = "#schema=real-rmt/v1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPARE = 2
EXIT_NUMERIC = 3


def _fmt(x):
    return "%.15g" % (x,)


def _write_csv(out, header, rows):
    out.write(SCHEMA + "\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row[h]) if isinstance(row[h], float) else str(row[h])
                           for h in header) + "\n")


def _emit(out, fmt, config, header, rows, verdict=None):
    """Write row dicts to the path out ("-": stdout) as JSON, or as CSV columns header."""
    stream = sys.stdout if out in (None, "-") else open(out, "w")
    try:
        if fmt == "json":
            doc = {"config": config, "rows": rows}
            if verdict is not None:
                doc["verdict"] = verdict
            # dumps, unlike dump, runs the C encoder
            stream.write(json.dumps(doc, sort_keys=True) + "\n")
        else:
            _write_csv(stream, header, rows)
            if verdict is not None:
                stream.write("#verdict=%s\n" % verdict)
    finally:
        if stream is not sys.stdout:
            stream.close()


def _parse_grid(grid):
    try:
        lo, hi, bins = grid.split(":")
        lo, hi, bins = float(lo), float(hi), int(bins)
    except (ValueError, AttributeError):
        raise click.UsageError("--grid must have the form min:max:bins")
    if not (hi > lo and bins > 0):
        raise click.UsageError("--grid must have max > min and bins > 0")
    return lo, hi, bins


def _prob_rows(ensemble, n, tau, big_l, reps, seed, workers):
    probs = analytics.prob_table(ensemble, n, tau=tau, big_l=big_l)
    ks = [k for k in range(n + 1) if probs[k] != 0.0 or (n - k) % 2 == 0]
    rows = []
    hist = None
    if reps:
        hist = ensembles.simulate_real_counts(ensemble, n, reps, seed, tau=tau,
                                              big_l=big_l, workers=workers)
    for k in ks:
        row = {"k": k, "p_exact": float(probs[k])}
        if reps:
            p_hat = hist[k] / reps
            # the exact p keeps the error finite for an outcome with no draws
            var = max(p_hat * (1.0 - p_hat), probs[k] * (1.0 - probs[k]), 1e-300)
            stderr = math.sqrt(var / reps)
            row["p_hat"] = p_hat
            row["stderr"] = stderr
            row["z"] = (p_hat - probs[k]) / stderr if stderr > 0 else 0.0
        rows.append(row)
    return rows


common_options = [
    click.option("--ensemble", required=True,
                 type=click.Choice(list(ensembles.ENSEMBLES))),
    click.option("--n", "--m", "n", type=int, required=True,
                 help="matrix order (for truncated: the truncation size M)"),
    click.option("--l", "big_l", type=int, default=None,
                 help="number of removed rows/columns (truncated)"),
    click.option("--tau", type=float, default=None,
                 help="symmetry parameter (partial)"),
    click.option("--seed", type=int, default=0),
    click.option("--out", default="-"),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="csv"),
    click.option("--workers", type=click.IntRange(min=1), default=1),
]


def _add_options(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def cli():
    """Exact and simulated real-eigenvalue statistics for real ensembles."""


@cli.command()
@_add_options(common_options)
@click.option("--reps", type=click.IntRange(min=0), default=0)
def probs(ensemble, n, big_l, tau, seed, out, fmt, workers, reps):
    """Exact distribution of the number of real eigenvalues, optionally with MC."""
    rows = _prob_rows(ensemble, n, tau, big_l, reps, seed, workers)
    config = {"command": "probs", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed}
    header = ["k", "p_exact"] + (["p_hat", "stderr", "z"] if reps else [])
    _emit(out, fmt, config, header, rows)


@cli.command()
@_add_options(common_options)
@click.option("--reps", type=click.IntRange(min=0), default=1)
def sample(ensemble, n, big_l, tau, seed, out, fmt, workers, reps):
    """Draw matrices and emit their classified eigenvalues."""
    def stack_rows(first, mats):
        eigs = np.linalg.eigvals(mats)
        real, upper = ensembles.classify_spectra(eigs)
        part = []
        for i, row in enumerate(eigs):
            draw = first + i
            for lam in np.sort(row.real[real[i]]):
                part.append({"draw": draw, "species": "r", "re": float(lam),
                             "im": 0.0})
            for w in sorted(row[upper[i]], key=lambda v: (v.real, v.imag)):
                part.append({"draw": draw, "species": "c", "re": float(w.real),
                             "im": float(w.imag)})
        return part

    rows = [row for part in ensembles._run_stacks(ensemble, n, reps, seed, stack_rows,
                                                  tau=tau, big_l=big_l, workers=workers)
            for row in part]
    config = {"command": "sample", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed}
    _emit(out, fmt, config, ["draw", "species", "re", "im"], rows)


@cli.command()
@_add_options(common_options)
@click.option("--grid", required=True, help="min:max:bins")
@click.option("--reps", type=click.IntRange(min=0), default=0)
def density(ensemble, n, big_l, tau, seed, out, fmt, workers, grid, reps):
    """Analytic real-eigenvalue density on a grid, optionally with a histogram."""
    ens = ensembles.spec(ensemble, n, tau, big_l, density=True)
    lo, hi, bins = _parse_grid(grid)
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = (hi - lo) / bins
    # one call on the whole grid; the spherical density is a constant
    rho = np.broadcast_to(ens.density(n, tau, big_l, centers), centers.shape)
    rows = []
    emp = stderr = None
    if reps:
        vals = ensembles.simulate_real_eigenvalues(ensemble, n, reps, seed, tau=tau,
                                                   big_l=big_l, workers=workers)
        if ens.angles:
            vals = ensembles.boundary_angle(vals)
        hist, _ = np.histogram(vals, bins=edges)
        emp = hist / (reps * width)
        stderr = np.sqrt(np.maximum(hist, 1.0)) / (reps * width)
    for i, x in enumerate(centers):
        row = {"x": float(x), "rho": float(rho[i])}
        if reps:
            row["emp"] = float(emp[i])
            row["stderr"] = float(stderr[i])
        rows.append(row)
    config = {"command": "density", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed, "grid": grid}
    _emit(out, fmt, config, ["x", "rho"] + (["emp", "stderr"] if reps else []), rows)


@cli.command()
@_add_options(common_options)
@click.option("--reps", type=click.IntRange(min=1), default=10000)
@click.option("--z-max", type=float, default=4.0)
@click.option("--perturb-exact", type=float, default=0.0,
              help="testing aid: shift the exact values to force a mismatch")
def compare(ensemble, n, big_l, tau, seed, out, fmt, workers, reps, z_max,
            perturb_exact):
    """Compare exact probabilities against a Monte Carlo run; exit 2 on mismatch."""
    rows = _prob_rows(ensemble, n, tau, big_l, reps, seed, workers)
    worst = 0.0
    for row in rows:
        row["p_exact"] = row["p_exact"] + perturb_exact
        if row["stderr"] > 0:
            row["z"] = (row["p_hat"] - row["p_exact"]) / row["stderr"]
        worst = max(worst, abs(row["z"]))
    verdict = "pass" if worst <= z_max else "fail"
    config = {"command": "compare", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed, "z_max": z_max}
    _emit(out, fmt, config, ["k", "p_exact", "p_hat", "stderr", "z"], rows,
          verdict=verdict)
    if verdict == "fail":
        sys.exit(EXIT_COMPARE)


def main():
    try:
        cli.main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_CONFIG)
    except click.exceptions.Abort:
        sys.exit(EXIT_CONFIG)
    except ensembles.ConfigError as exc:
        print("Error: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    except SystemExit:
        raise
    except (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_NUMERIC)


if __name__ == "__main__":
    main()
