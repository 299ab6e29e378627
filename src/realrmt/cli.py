"""Command line interface: exact tables, sampling, densities and comparison."""

import json
import math
import sys
from collections import namedtuple
from itertools import chain

import numpy as np

from . import analytics, ensembles

SCHEMA = "#schema=real-rmt/v1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPARE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """A bad command line or output path: reported as "Error: ...", exit 1."""


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
        raise UsageError("Could not open file '%s': %s" % (out, exc.strerror)) from exc


def _parse_grid(grid):
    try:
        lo, hi, bins = grid.split(":")
        lo, hi, bins = float(lo), float(hi), int(bins)
    except ValueError:
        raise UsageError("--grid must have the form min:max:bins") from None
    if not (hi > lo and bins > 0):
        raise UsageError("--grid must have max > min and bins > 0")
    # so that max - min and the bin centers, (a + b) / 2 over adjacent edges,
    # are finite too
    if not (math.isfinite(2.0 * lo) and math.isfinite(2.0 * hi)):
        raise UsageError("--grid must have a finite min and max, each below 2**1023 in size")
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


def probs(ensemble, n, big_l, tau, seed, workers, reps):
    """Exact distribution of the number of real eigenvalues, optionally with MC."""
    return _prob_rows(ensemble, n, tau, big_l, reps, seed, workers), None


def sample(ensemble, n, big_l, tau, seed, workers, reps):
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
    return {"draw": draw, "species": np.where(pair, "c", "r"), "re": re, "im": im}, None


def density(ensemble, n, big_l, tau, seed, workers, grid, reps):
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
    return columns, None


def compare(ensemble, n, big_l, tau, seed, workers, reps, z_max):
    """Compare exact probabilities against a Monte Carlo run; exit 2 on mismatch."""
    columns = _prob_rows(ensemble, n, tau, big_l, reps, seed, workers)
    return columns, "pass" if np.max(np.abs(columns["z"])) <= z_max else "fail"


Option = namedtuple("Option", "names dest convert default metavar help")
"""One command-line option: its flags, the keyword it fills, the function that
turns its text into the value (raising ValueError on a bad one), the value
when it is not given (REQUIRED: it must be given), and its help."""

REQUIRED = object()


def _number(kind, accept=None, bound=None):
    """Converter to int or float that refuses values accept() rejects."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError("%r is not a valid %s." % (
                text, "integer" if kind is int else "float")) from None
        if accept is not None and not accept(value):
            raise ValueError("%s is not in the range %s." % (text, bound))
        return value
    return convert


def _choice(names):
    def convert(text):
        if text not in names:
            raise ValueError("%r is not one of %s." % (text, ", ".join(map(repr, names))))
        return text
    return convert


def _reps(low, default):
    return Option(("--reps",), "reps", _number(int, lambda v: v >= low, "x>=%d" % low),
                  default, "INTEGER", "number of Monte Carlo draws (at least %d)" % low)


COMMON_OPTIONS = (
    Option(("--ensemble",), "ensemble", _choice(tuple(ensembles.ENSEMBLES)), REQUIRED,
           "[%s]" % "|".join(ensembles.ENSEMBLES), "the ensemble"),
    Option(("--n", "--m"), "n", _number(int), REQUIRED, "INTEGER",
           "matrix order (for truncated: the truncation size M)"),
    Option(("--l",), "big_l", _number(int), None, "INTEGER",
           "number of removed rows/columns (truncated: 1 to %d)"
           % (ensembles.ENSEMBLES["truncated"].param_range[1] - 1)),
    Option(("--tau",), "tau", _number(float), None, "FLOAT",
           "symmetry parameter (partial)"),
    Option(("--seed",), "seed", _number(int, lambda v: 0 <= v < 2 ** 64, "0<=x<2**64"),
           0, "INTEGER", "seed of the Monte Carlo draws, in [0, 2**64)"),
    Option(("--out",), "out", str, "-", "PATH", "output file ('-': stdout)"),
    Option(("--format",), "fmt", _choice(("csv", "json")), "csv", "[csv|json]",
           "output format"),
    Option(("--workers",), "workers", _number(int, lambda v: v >= 1, "x>=1"), 1,
           "INTEGER", "worker threads for the Monte Carlo draws (at least 1)"),
)

# command name -> (command function, its options). The table holds the
# functions themselves, so rebinding a module name does not change dispatch.
# Each returns its columns and verdict (None but for compare), which _run writes.
COMMANDS = {
    "probs": (probs, COMMON_OPTIONS + (_reps(0, 0),)),
    "sample": (sample, COMMON_OPTIONS + (_reps(0, 1),)),
    "density": (density, COMMON_OPTIONS + (
        Option(("--grid",), "grid", str, REQUIRED, "MIN:MAX:BINS",
               "bin edges: BINS equal bins from MIN to MAX"),
        _reps(0, 0))),
    "compare": (compare, COMMON_OPTIONS + (
        _reps(1, 10000),
        Option(("--z-max",), "z_max",
               _number(float, lambda v: 0.0 < v < math.inf, "0<x<inf"), 4.0, "FLOAT",
               "largest |z| that passes (finite, > 0)"))),
}


def _help(name=None):
    """Help text of the program (name None) or of one command."""
    if name is None:
        lines = ["Usage: realrmt COMMAND [OPTIONS]", "",
                 "  Exact and simulated real-eigenvalue statistics for real ensembles.",
                 "", "Commands:"]
        lines += ["  %-8s %s" % (cmd, fn.__doc__.splitlines()[0])
                  for cmd, (fn, _) in COMMANDS.items()]
        lines += ["", "Run 'realrmt COMMAND --help' for the options of a command."]
        return "\n".join(lines) + "\n"
    fn, options = COMMANDS[name]
    lines = ["Usage: realrmt %s [OPTIONS]" % name, ""]
    lines += [("  " + line.strip()).rstrip() for line in fn.__doc__.rstrip().splitlines()]
    lines += ["", "Options:"]
    for opt in options:
        note = ("  [required]" if opt.default is REQUIRED else
                "" if opt.default is None else "  [default: %s]" % opt.default)
        lines += ["  %s %s" % (", ".join(opt.names), opt.metavar),
                  "      %s%s" % (opt.help, note)]
    lines += ["  --help", "      Show this message and exit."]
    return "\n".join(lines) + "\n"


def _run(args):
    """Parse a command line against COMMANDS and run its command.

    An option's value is the text after "=" or the next argument, whatever it
    begins with; a repeated option keeps its last value. Values are converted
    after the whole line is read.
    """
    if args[:1] == ["--help"]:
        sys.stdout.write(_help())
        return
    if not args:
        raise UsageError("Missing command. Try 'realrmt --help' for help.")
    if args[0] not in COMMANDS:
        raise UsageError("No such %s %r." % (
            "option" if args[0].startswith("-") else "command", args[0]))
    name, rest = args[0], iter(args[1:])
    command, options = COMMANDS[name]
    flags = {flag: opt for opt in options for flag in opt.names}
    given = {}
    for arg in rest:
        if arg == "--help":
            sys.stdout.write(_help(name))
            return
        flag, eq, text = arg.partition("=")
        opt = flags.get(flag)
        if opt is None:
            raise UsageError(("No such option %r." if arg.startswith("-")
                              else "Got unexpected extra argument %r.") % arg)
        if not eq:
            text = next(rest, None)
            if text is None:
                raise UsageError("Option %r requires an argument." % flag)
        given[opt.dest] = flag, text
    kwargs = {}
    for opt in options:
        if opt.dest in given:
            flag, text = given[opt.dest]
            try:
                kwargs[opt.dest] = opt.convert(text)
            except ValueError as exc:
                raise UsageError("Invalid value for %r: %s" % (flag, exc)) from None
        elif opt.default is REQUIRED:
            raise UsageError("Missing option %s." % " / ".join(map(repr, opt.names)))
        else:
            kwargs[opt.dest] = opt.default
    out, fmt = kwargs.pop("out"), kwargs.pop("fmt")
    # the command and every option but --out, --format and --workers, by first flag
    config = dict({opt.names[0][2:].replace("-", "_"): kwargs[opt.dest] for opt in options
                   if opt.dest in kwargs and opt.dest != "workers"}, command=name)
    columns, verdict = command(**kwargs)
    _emit(out, fmt, config, columns, verdict)
    if verdict == "fail":
        sys.exit(EXIT_COMPARE)


def main():
    try:
        _run(sys.argv[1:])
    except (UsageError, ensembles.ConfigError) as exc:
        print("Error: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    except KeyboardInterrupt:
        sys.exit(EXIT_CONFIG)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_NUMERIC)


if __name__ == "__main__":
    main()
