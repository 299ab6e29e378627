"""The benchmark's four workloads: fixed op lists, with seeds from --seed.

An op is a dict. ``kind`` is ``cli`` (``args`` is a realrmt command line) or
``npoint`` (a batch of ``kernels.npoint_correlation`` calls). The other keys
describe the configuration for the output checks in checks.py. ``kept_fault``
names the program fault for the few ops that fail on every seed today.

No two ops of one workload share a configuration (command, ensemble, order,
tau, L, grid): a CLI user starts a new process per command, so an in-process
cache must not be able to earn a gain here that such a user never sees.
"""

import math
import random

TWO_PI = 2.0 * math.pi

MC_DRAWS = 4096
SAMPLE_DRAWS = 1000
HIST_DRAWS = 2000
GRID_POINTS = 500

VANDERMONDE = ("ill-conditioned Vandermonde extraction in "
               "analytics._poly_from_values")
ZERO_COUNT_Z = ("cli._prob_rows floors the standard error of a zero-count "
                "outcome at sqrt(1e-300/reps), so z is about -1e147")


def cli_op(cmd, ensemble, n, tau=None, l=None, seed=None, reps=None, fmt="csv",
           grid=None, extra=(), kept_fault=None):
    args = [cmd, "--ensemble", ensemble, "--n", str(n), "--workers", "1",
            "--format", fmt]
    if tau is not None:
        args += ["--tau", repr(tau)]
    if l is not None:
        args += ["--l", str(l)]
    if seed is not None:
        args += ["--seed", str(seed)]
    if reps is not None:
        args += ["--reps", str(reps)]
    if grid is not None:
        args += ["--grid", "%r:%r:%d" % grid]
    return {"kind": "cli", "args": args + list(extra), "cmd": cmd,
            "ensemble": ensemble, "n": n, "tau": tau, "l": l, "reps": reps,
            "fmt": fmt, "grid": grid, "kept_fault": kept_fault}


def npoint_op(ensemble, n, singles, pairs):
    return {"kind": "npoint", "cmd": "npoint", "ensemble": ensemble, "n": n,
            "singles": singles, "pairs": pairs, "kept_fault": None}


# ---------------------------------------------------------------------------
# mc_gate: compare cells, Monte Carlo layer

# Every cell here has probability below 1e-5 that the CLI's own gate fails
# it by chance at MC_DRAWS draws and --z-max 5 (exact binomial computation,
# checked in tests/test_workloads.py). Cells where some p_{N,k} * draws lies
# between about 1e-3 and 15 fail at random through the zero-count fault, and
# those closer to the gate by chance alone, are left out.
MC_CELLS = (
    [("ginibre", n, None, None) for n in (2, 3, 4, 5)]
    + [("spherical", n, None, None) for n in (2, 3, 4, 5)]
    + [("goe", n, None, None) for n in (4, 6, 8, 10, 12)]
    + [("partial", n, 0.5, None) for n in (3, 4, 5, 7)]
    + [("partial", n, 0.25, None) for n in (4, 5)]
    + [("partial", n, 0.75, None) for n in (3, 5)]
    + [("partial", 3, -0.5, None)]
    + [("truncated", m, None, big_l)
       for big_l, ms in ((1, (3, 4)), (2, (2, 4)), (3, (3, 4)), (4, (2, 4)),
                         (8, (3, 4)))
       for m in ms]
)
MC_KEPT_FAULT = ("ginibre", 12, None, None)


def mc_gate(rng):
    ops = [cli_op("compare", ens, n, tau=tau, l=big_l, seed=rng.randrange(2 ** 31),
                  reps=MC_DRAWS, extra=("--z-max", "5"))
           for ens, n, tau, big_l in MC_CELLS]
    ens, n, tau, big_l = MC_KEPT_FAULT
    ops.append(cli_op("compare", ens, n, seed=rng.randrange(2 ** 31), reps=MC_DRAWS,
                      extra=("--z-max", "5"), kept_fault=ZERO_COUNT_Z))
    return ops


# ---------------------------------------------------------------------------
# spectra: per-eigenvalue output path

SAMPLE_CSV = [("goe", 6, None, None), ("goe", 10, None, None),
              ("ginibre", 7, None, None), ("ginibre", 9, None, None),
              ("spherical", 5, None, None), ("spherical", 8, None, None),
              ("partial", 6, 0.5, None), ("partial", 9, -0.5, None),
              ("truncated", 4, None, 2), ("truncated", 6, None, 4)]
SAMPLE_JSON = [("goe", 8, None, None), ("goe", 5, None, None),
               ("ginibre", 6, None, None), ("ginibre", 10, None, None),
               ("spherical", 6, None, None), ("spherical", 9, None, None),
               ("partial", 5, 0.25, None), ("partial", 8, 0.75, None),
               ("truncated", 5, None, 3), ("truncated", 3, None, 1)]
HISTOGRAMS = [("goe", 8, None, None, (-7.0, 7.0, 40)),
              ("goe", 4, None, None, (-5.0, 5.0, 40)),
              ("ginibre", 6, None, None, (-6.0, 6.0, 40)),
              ("ginibre", 9, None, None, (-7.0, 7.0, 40)),
              ("spherical", 7, None, None, (0.0, TWO_PI, 40)),
              ("spherical", 4, None, None, (0.0, TWO_PI, 40)),
              ("partial", 8, 0.5, None, (-8.0, 8.0, 40)),
              ("partial", 5, -0.25, None, (-5.0, 5.0, 40)),
              ("truncated", 6, None, 2, (-1.0, 1.0, 40)),
              ("truncated", 4, None, 3, (-1.0, 1.0, 40))]


def spectra(rng):
    ops = []
    for fmt, cells in (("csv", SAMPLE_CSV), ("json", SAMPLE_JSON)):
        ops += [cli_op("sample", ens, n, tau=tau, l=big_l, fmt=fmt,
                       seed=rng.randrange(2 ** 31), reps=SAMPLE_DRAWS)
                for ens, n, tau, big_l in cells]
    ops += [cli_op("density", ens, n, tau=tau, l=big_l, grid=grid,
                   seed=rng.randrange(2 ** 31), reps=HIST_DRAWS)
            for ens, n, tau, big_l, grid in HISTOGRAMS]
    return ops


# ---------------------------------------------------------------------------
# exact_tables: generating functions, no draws

# Orders whose tables pass every check in checks.check_table_values today,
# each with a margin of at least four on the p_{N,N} tolerance.
TRUNCATED_ORDERS = {1: range(2, 10), 2: range(2, 10), 3: range(2, 10),
                    4: range(2, 11), 6: range(2, 11), 8: range(2, 12)}
PARTIAL_ORDERS = {0.5: range(8, 15), 0.75: (14, 16), 0.25: (12,), -0.5: (8,)}
# Ginibre, spherical and GOE tables take about a millisecond; a few stand for
# them, so that the median op falls inside the group of truncated M = 4-5
# tables rather than between groups.
GINIBRE_ORDERS = (7, 9, 11)
SPHERICAL_ORDERS = (30,)


def exact_tables(rng):
    ops = [cli_op("probs", "truncated", m, l=big_l)
           for big_l, ms in TRUNCATED_ORDERS.items() for m in ms]
    ops += [cli_op("probs", "partial", n, tau=tau)
            for tau, ns in PARTIAL_ORDERS.items() for n in ns]
    ops += [cli_op("probs", "ginibre", n) for n in GINIBRE_ORDERS]
    ops += [cli_op("probs", "spherical", n) for n in SPHERICAL_ORDERS]
    ops.append(cli_op("probs", "goe", 10))
    ops += [cli_op("probs", "ginibre", 16, kept_fault=VANDERMONDE),
            cli_op("probs", "ginibre", 40, kept_fault=VANDERMONDE),
            cli_op("probs", "partial", 22, tau=0.5, kept_fault=VANDERMONDE),
            cli_op("probs", "truncated", 12, l=8, kept_fault=VANDERMONDE)]
    return ops


# ---------------------------------------------------------------------------
# density_grid: kernels, sopoly and specfun


def _gauss_grid(half_width):
    return (-half_width, half_width, GRID_POINTS)


DENSITY_GRIDS = (
    [("goe", n, None, None, _gauss_grid(math.sqrt(2.0 * n) + 4.0))
     for n in (6, 8, 10, 12, 14, 16)]
    + [("partial", n, tau, None, _gauss_grid((1.0 + tau) * math.sqrt(n) + 6.0))
       for n, tau in ((6, 0.5), (10, 0.5), (8, -0.5), (12, 0.25))]
    + [("ginibre", n, None, None, _gauss_grid(math.sqrt(n) + 6.0))
       for n in (8, 16, 24)]
    + [("spherical", 10, None, None, (0.0, TWO_PI, GRID_POINTS))]
    + [("truncated", m, None, big_l, (-1.0, 1.0, GRID_POINTS))
       for m, big_l in ((4, 2), (6, 3), (8, 4), (10, 2), (10, 3), (12, 4),
                        (6, 6), (8, 8))]
)
NPOINT_GOE = (4, 6, 8, 10, 12)
NPOINT_GINIBRE = (4, 8, 12, 16, 20)
NPOINT_SPHERICAL = (4, 6)


def _real_curve(rng, lo, hi, size):
    """A 2-point curve: one anchor, partners at seeded distinct positions."""
    anchor = ["r", round(rng.uniform(lo, hi), 6), 0.0]
    partners = sorted({round(rng.uniform(lo, hi), 6) for _ in range(size)})
    pairs = [[anchor, ["r", x, 0.0]] for x in partners if x != anchor[1]]
    return anchor, pairs


def density_grid(rng):
    ops = [cli_op("density", ens, n, tau=tau, l=big_l, grid=grid)
           for ens, n, tau, big_l, grid in DENSITY_GRIDS]
    for n in NPOINT_GOE:
        r = math.sqrt(2.0 * n)
        anchor, pairs = _real_curve(rng, -r, r, 8)
        ops.append(npoint_op("goe", n, [anchor], pairs))
    for n in NPOINT_GINIBRE:
        r = math.sqrt(n)
        anchor, pairs = _real_curve(rng, -r, r, 12)
        w = ["c", round(rng.uniform(-r, r), 6), round(rng.uniform(0.2, r), 6)]
        pairs += [[anchor, ["c", round(rng.uniform(-r, r), 6),
                            round(rng.uniform(0.2, r), 6)]] for _ in range(12)]
        pairs += [[w, ["c", round(rng.uniform(-r, r), 6),
                       round(rng.uniform(0.2, r), 6)]] for _ in range(12)]
        ops.append(npoint_op("ginibre", n, [anchor, w], pairs))
    for n in NPOINT_SPHERICAL:
        anchor, pairs = _real_curve(rng, 0.0, TWO_PI, 6)
        ops.append(npoint_op("spherical", n, [anchor], pairs))
    return ops


WORKLOADS = {"mc_gate": mc_gate, "spectra": spectra,
             "exact_tables": exact_tables, "density_grid": density_grid}


def build(workload, seed):
    """The workload's op list for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
