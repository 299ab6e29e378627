"""Command line interface: exact tables, sampling, densities and comparison."""

import json
import sys
from itertools import chain

import click
import numpy as np

from . import analytics, ensembles

SCHEMA = "#schema=real-rmt/v1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPARE = 2
EXIT_NUMERIC = 3


def _json_column(a):
    """(%-spec, values) that print column a as json.dumps does."""
    values = a.tolist()
    if a.dtype.kind in "iu" or (a.dtype.kind == "f" and np.isfinite(a).all()):
        return "%r", values
    # strings, bools and non-finite floats: encode each distinct value once
    text = {v: json.dumps(v) for v in dict.fromkeys(values)}
    return "%s", list(map(text.__getitem__, values))


def _emit(out, fmt, config, columns, verdict=None):
    """Write columns (name -> values, in order) to the path out ("-": stdout).

    Every row goes through one %-format built once per call. CSV prints float
    columns as %.15g and the others as %s. JSON prints one object per row
    under "rows", with the bytes of json.dumps(..., sort_keys=True).
    """
    if fmt == "json":
        names = sorted(columns)
        specs, values = zip(*(_json_column(np.asarray(columns[k])) for k in names))
        row = "{%s}" % ", ".join("%s: %s" % (json.dumps(k).replace("%", "%%"), spec)
                                 for k, spec in zip(names, specs))
        sep = ", "
    else:
        arrays = [np.asarray(v) for v in columns.values()]
        row = ",".join("%.15g" if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
        values = [a.tolist() for a in arrays]
        sep = ""
    body = sep.join([row] * len(values[0])) % tuple(chain.from_iterable(zip(*values)))
    if fmt == "json":
        text = '{"config": %s, "rows": [%s]%s}\n' % (
            json.dumps(config, sort_keys=True), body,
            "" if verdict is None else ', "verdict": %s' % json.dumps(verdict))
    else:
        text = "%s\n%s\n%s" % (SCHEMA, ",".join(columns), body)
        if verdict is not None:
            text += "#verdict=%s\n" % verdict
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as stream:
            stream.write(text)
    except OSError as exc:
        raise click.FileError(out, exc.strerror) from exc


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
    """Columns k, p_exact and, with reps, p_hat, stderr and z."""
    probs = analytics.prob_table(ensemble, n, tau=tau, big_l=big_l)
    ks = np.array([k for k in range(n + 1) if probs[k] != 0.0 or (n - k) % 2 == 0])
    columns = {"k": ks, "p_exact": probs[ks]}
    if reps:
        hist = ensembles.simulate_real_counts(ensemble, n, reps, seed, tau=tau,
                                              big_l=big_l, workers=workers)
        p_exact = columns["p_exact"]
        p_hat = hist[ks] / reps
        # the exact p, and the floor, keep the error positive for an outcome
        # with no draws
        var = np.maximum(np.maximum(p_hat * (1.0 - p_hat), p_exact * (1.0 - p_exact)),
                         1e-300)
        stderr = np.sqrt(var / reps)
        columns.update(p_hat=p_hat, stderr=stderr, z=(p_hat - p_exact) / stderr)
    return columns


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
    columns = _prob_rows(ensemble, n, tau, big_l, reps, seed, workers)
    config = {"command": "probs", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed}
    _emit(out, fmt, config, columns)


@cli.command()
@_add_options(common_options)
@click.option("--reps", type=click.IntRange(min=0), default=1)
def sample(ensemble, n, big_l, tau, seed, out, fmt, workers, reps):
    """Draw matrices and emit their classified eigenvalues.

    Rows run draw by draw: the reals ascending, then the upper-half-plane
    eigenvalues by (re, im).
    """
    def stack_columns(first, mats):
        eigs, real, upper = ensembles.stack_spectra(mats)
        keep = real | upper
        draw = np.broadcast_to(np.arange(first, first + len(mats))[:, None],
                               keep.shape)[keep]
        pair = upper[keep]
        re = eigs.real[keep]
        im = np.where(pair, eigs.imag[keep], 0.0)
        order = np.lexsort((im, re, pair, draw))
        return draw[order], pair[order], re[order], im[order]

    parts = ensembles._run_stacks(ensemble, n, reps, seed, stack_columns, tau=tau,
                                  big_l=big_l, workers=workers)
    draw, pair, re, im = [np.concatenate(c) for c in zip(*parts)] or [np.zeros(0)] * 4
    config = {"command": "sample", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed}
    _emit(out, fmt, config, {"draw": draw, "species": np.where(pair, "c", "r"),
                             "re": re, "im": im})


@cli.command()
@_add_options(common_options)
@click.option("--grid", required=True, help="min:max:bins")
@click.option("--reps", type=click.IntRange(min=0), default=0)
def density(ensemble, n, big_l, tau, seed, out, fmt, workers, grid, reps):
    """Analytic real-eigenvalue density on a grid, optionally with a histogram."""
    ens = ensembles.spec(ensemble, n, tau, big_l)
    lo, hi, bins = _parse_grid(grid)
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = (hi - lo) / bins
    # one call on the whole grid; the spherical density is a constant. A
    # value that is not finite (truncated L = 1 at x = +-1) is refused, and so
    # is one below -1e-12 max |rho|, which no density should reach
    with np.errstate(all="ignore"):
        rho = np.broadcast_to(ens.density(n, tau, big_l, centers), centers.shape)
    if not np.isfinite(rho).all():
        raise ArithmeticError("real density is not finite at x = %.15g"
                              % centers[~np.isfinite(rho)][0])
    negative = rho < -1e-12 * np.abs(rho).max()
    if negative.any():
        raise ArithmeticError("real density is negative at x = %.15g: %.6g"
                              % (centers[negative][0], rho[negative][0]))
    columns = {"x": centers, "rho": rho}
    if reps:
        vals = ensembles.simulate_real_eigenvalues(ensemble, n, reps, seed, tau=tau,
                                                   big_l=big_l, workers=workers)
        if ens.angles:
            vals = ensembles.boundary_angle(vals)
        hist, _ = np.histogram(vals, bins=edges)
        columns.update(emp=hist / (reps * width),
                       stderr=np.sqrt(np.maximum(hist, 1.0)) / (reps * width))
    config = {"command": "density", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed, "grid": grid}
    _emit(out, fmt, config, columns)


@cli.command()
@_add_options(common_options)
@click.option("--reps", type=click.IntRange(min=1), default=10000)
@click.option("--z-max", type=float, default=4.0)
@click.option("--perturb-exact", type=float, default=0.0,
              help="testing aid: shift the exact values to force a mismatch")
def compare(ensemble, n, big_l, tau, seed, out, fmt, workers, reps, z_max,
            perturb_exact):
    """Compare exact probabilities against a Monte Carlo run; exit 2 on mismatch."""
    columns = _prob_rows(ensemble, n, tau, big_l, reps, seed, workers)
    columns["p_exact"] = columns["p_exact"] + perturb_exact
    columns["z"] = (columns["p_hat"] - columns["p_exact"]) / columns["stderr"]
    verdict = "pass" if np.max(np.abs(columns["z"])) <= z_max else "fail"
    config = {"command": "compare", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": reps, "seed": seed, "z_max": z_max}
    _emit(out, fmt, config, columns, verdict=verdict)
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
