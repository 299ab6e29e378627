"""Output checks for the benchmark's ops.

Each ``check_*`` function takes an op spec (see workloads.py), the op's text
output and a ``References`` object, and raises ``CheckFailed`` when the output
is wrong. The checks compare against closed forms coded here (Edelman 1997;
Edelman, Kostlan & Shub 1994; Khoruzhenko, Sommers & Zyczkowski 2010), against
properties the method must have, and, where no closed form exists, against
``analytics`` tables computed in the launcher process, never in the process
whose ops are timed.
"""

import json
import math

import numpy as np
from scipy import stats

# |z| above this, with z from the standard error of the exact p, rejects.
Z_REJECT = 6.0
# Where the expected count is small the normal approximation fails; there an
# outcome is rejected only if its exact two-sided binomial tail is below this.
TAIL_REJECT = 1e-9
# Table tolerances: every order the exact_tables sweep keeps meets them today
# by a margin of at least four; the named kept-fault orders miss them.
P_SLACK = 1e-12
SUM_TOL = 1e-9
PNN_RTOL = 1e-3
# Midpoint-rule integral of a density over its grid against the expected
# number of real eigenvalues.
MASS_RTOL = 1e-3


class CheckFailed(Exception):
    """An op's output disagrees with what the method must produce."""


def _fail(msg, *args):
    raise CheckFailed(msg % args)


# ---------------------------------------------------------------------------
# closed forms


def ginibre_pnn(n):
    """P(all real), real Ginibre (Edelman 1997)."""
    return 2.0 ** (-n * (n - 1) / 4.0)


def partial_pnn(n, tau):
    """P(all real), partially symmetric real Ginibre."""
    return ((1.0 + tau) / 2.0) ** (n * (n - 1) / 4.0)


def truncated_pmm(m, big_l):
    """P(all real) for the M x M truncation of a Haar orthogonal (M+L) matrix.

    The Khoruzhenko-Sommers-Zyczkowski closed form, with the ratio of
    orthogonal-group volumes reduced to gamma functions.
    """
    lg = math.lgamma
    s = (m * (big_l - 1) + m * m / 2.0 + m * big_l / 2.0) * math.log(2.0)
    s -= 0.5 * m * lg(big_l + 1.0) + 0.75 * m * math.log(math.pi) + lg(m + 1.0)
    s += 0.5 * m * (math.log(big_l) + lg((big_l + 1) / 2.0) - lg(big_l / 2.0))
    for j in range(1, m + 1):
        s += lg((big_l + j) / 2.0) - lg(j / 2.0)
    for j in range(m):
        s += (2.0 * lg((big_l + j) / 2.0) + lg((j + 3) / 2.0)
              - lg(big_l + (m + j - 1) / 2.0))
    return math.exp(s)


def _dfact_ratio(top, bottom):
    """top!! / bottom!! for top, bottom >= -1, in floating point."""
    r = 1.0
    while top > 1 or bottom > 1:
        if top > 1:
            r *= top
            top -= 2
        if bottom > 1:
            r /= bottom
            bottom -= 2
    return r


def ginibre_expected_reals(n):
    """Edelman-Kostlan-Shub expected number of real eigenvalues, real Ginibre."""
    if n % 2 == 0:
        return math.sqrt(2.0) * sum(_dfact_ratio(4 * k - 1, 4 * k)
                                    for k in range(n // 2))
    return 1.0 + math.sqrt(2.0) * sum(_dfact_ratio(4 * k - 3, 4 * k - 2)
                                      for k in range(1, (n - 1) // 2 + 1))


def spherical_expected_reals(n):
    """Edelman-Kostlan-Shub expected number of real eigenvalues of A^{-1} B."""
    return math.sqrt(math.pi) * math.exp(math.lgamma((n + 1) / 2.0)
                                         - math.lgamma(n / 2.0))


def closed_pnn(op):
    """Closed-form p_{N,N} for the op's ensemble, or None (spherical)."""
    ens, n = op["ensemble"], op["n"]
    if ens == "goe":
        return 1.0
    if ens == "ginibre":
        return ginibre_pnn(n)
    if ens == "partial":
        return partial_pnn(n, op["tau"])
    if ens == "truncated":
        return truncated_pmm(n, op["l"])
    return None


# ---------------------------------------------------------------------------
# references computed with the program in the launcher process


class References:
    """Exact tables and densities for checks, computed once per config."""

    def __init__(self):
        from realrmt import analytics, kernels

        self.analytics = analytics
        self.kernels = kernels
        self._tables = {}

    def table(self, op):
        key = (op["ensemble"], op["n"], op.get("tau"), op.get("l"))
        if key not in self._tables:
            self._tables[key] = np.asarray(self.analytics.prob_table(
                op["ensemble"], op["n"], tau=op.get("tau"), big_l=op.get("l")))
        return self._tables[key]

    def expected_reals(self, op):
        ens, n = op["ensemble"], op["n"]
        if ens == "goe":
            return float(n)
        if ens == "ginibre":
            return ginibre_expected_reals(n)
        if ens == "spherical":
            return spherical_expected_reals(n)
        return float(np.dot(np.arange(n + 1), self.table(op)))

    def density(self, op, x):
        """Analytic real density at the points x (angles for spherical)."""
        k = self.kernels
        ens, n = op["ensemble"], op["n"]
        x = np.asarray(x, dtype=float)
        if ens == "goe":
            return np.asarray(k.goe_density(n, x), dtype=float)
        if ens == "spherical":
            return np.full(x.shape, k.spherical_density_real(n))
        fn = {"ginibre": lambda t: k.ginibre_density_real(n, t),
              "partial": lambda t: k.partial_density_real(n, op["tau"], t),
              "truncated": lambda t: k.truncated_density_real(n, op["l"], t)}[ens]
        return np.array([fn(float(t)) for t in x.ravel()]).reshape(x.shape)

    def point_density(self, op, species, value):
        """One-point function for the n-point check: the density itself."""
        k = self.kernels
        ens, n = op["ensemble"], op["n"]
        if ens == "ginibre" and species == "c":
            return float(k.ginibre_density_complex(n, value))
        return float(self.density(op, [value])[0])


# ---------------------------------------------------------------------------
# parsing


def parse_table(text, fmt):
    """(rows as dicts, verdict or None) from CSV or JSON CLI output."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["rows"], doc.get("verdict")
    lines = text.splitlines()
    if not lines or lines[0] != "#schema=real-rmt/v1":
        _fail("missing schema line")
    header = lines[1].split(",")
    rows, verdict = [], None
    for line in lines[2:]:
        if line.startswith("#verdict="):
            verdict = line.split("=", 1)[1]
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            _fail("row has %d cells, header %d", len(cells), len(header))
        rows.append({h: (c if h == "species" else float(c))
                     for h, c in zip(header, cells)})
    return rows, verdict


def _column(rows, name):
    try:
        return np.array([float(r[name]) for r in rows])
    except KeyError:
        _fail("column %r missing", name)


# ---------------------------------------------------------------------------
# statistical agreement of counts with exact probabilities


def counts_agree(counts, probs, reps, what):
    """Reject counts out of line with exact probabilities over reps draws."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if abs(counts.sum() - reps) > 1e-6:
        _fail("%s: counts sum to %g, not %d draws", what, counts.sum(), reps)
    for k, (c, p) in enumerate(zip(counts, probs)):
        p = min(max(p, 0.0), 1.0)
        if p == 0.0 or p == 1.0:
            if c != reps * p:
                _fail("%s: k=%d seen %d times with exact p=%g", what, k, c, p)
            continue
        mean = reps * p
        z = (c - mean) / math.sqrt(mean * (1.0 - p))
        if abs(z) <= Z_REJECT:
            continue
        if min(mean, reps - mean) >= 10.0:
            _fail("%s: k=%d z=%.2f (count %d, exact p %.6g)", what, k, z, c, p)
        tail = 2.0 * min(stats.binom.cdf(c, reps, p), stats.binom.sf(c - 1, reps, p))
        if tail < TAIL_REJECT:
            _fail("%s: k=%d count %d has binomial tail %.2g (exact p %.6g)",
                  what, k, c, tail, p)


# ---------------------------------------------------------------------------
# op checks


def check_table_values(op, ks, p_exact):
    """0 <= p <= 1, sum 1, and p_{N,N} against its closed form."""
    what = "%s n=%d" % (op["ensemble"], op["n"])
    if np.any(p_exact < -P_SLACK) or np.any(p_exact > 1.0 + P_SLACK):
        _fail("%s: p outside [0, 1] (min %.3g, max %.3g)", what,
              p_exact.min(), p_exact.max())
    if abs(p_exact.sum() - 1.0) > SUM_TOL:
        _fail("%s: sum of p is 1%+.3g", what, p_exact.sum() - 1.0)
    n = op["n"]
    if n not in ks:
        _fail("%s: row k=%d missing", what, n)
    pnn = p_exact[ks.index(n)]
    ref = closed_pnn(op)
    if ref is not None and abs(pnn - ref) > PNN_RTOL * ref:
        _fail("%s: p_NN=%.6g, closed form %.6g", what, pnn, ref)


def check_probs(op, text, refs):
    """probs and compare output: table sanity, then MC agreement if drawn."""
    rows, verdict = parse_table(text, op["fmt"])
    ks = [int(round(k)) for k in _column(rows, "k")]
    n = op["n"]
    expected_ks = [k for k in range(n + 1) if (n - k) % 2 == 0]
    if sorted(ks) != expected_ks:
        _fail("rows for k=%s, expected %s", ks, expected_ks)
    p_exact = _column(rows, "p_exact")
    check_table_values(op, ks, p_exact)
    reps = op.get("reps") or 0
    if not reps:
        return
    counts = _column(rows, "p_hat") * reps
    if np.max(np.abs(counts - np.round(counts))) > 1e-6:
        _fail("p_hat * reps is not a whole number of draws")
    counts = np.round(counts)
    if op["cmd"] == "compare" and verdict not in ("pass", "fail"):
        _fail("compare output has no verdict")
    counts_agree(counts, p_exact, reps, "%s n=%d" % (op["ensemble"], n))


def check_sample(op, text, refs):
    """sample output: n eigenvalues per draw, support, real-count law."""
    rows, _ = parse_table(text, op["fmt"])
    n, reps = op["n"], op["reps"]
    draw = _column(rows, "draw").astype(int)
    re = _column(rows, "re")
    im = _column(rows, "im")
    species = np.array([r["species"] for r in rows])
    if not set(species) <= {"r", "c"}:
        _fail("unknown species in %s", sorted(set(species)))
    is_real = species == "r"
    if np.any(im[is_real] != 0.0) or np.any(im[~is_real] <= 0.0):
        _fail("complex rows must lie in the upper half plane, real rows on the axis")
    if draw.min(initial=0) < 0 or draw.max(initial=-1) >= reps:
        _fail("draw index out of range")
    n_real = np.bincount(draw[is_real], minlength=reps)
    n_pair = np.bincount(draw[~is_real], minlength=reps)
    bad = np.nonzero(n_real + 2 * n_pair != n)[0]
    if bad.size:
        _fail("draw %d has %d real and %d complex-pair eigenvalues, n=%d",
              bad[0], n_real[bad[0]], n_pair[bad[0]], n)
    if op["ensemble"] == "goe" and np.any(~is_real):
        _fail("GOE spectrum with a complex eigenvalue")
    if op["ensemble"] == "truncated":
        radius = np.max(np.hypot(re, im))
        if radius > 1.0 + 1e-9:
            _fail("truncated eigenvalue of modulus %.12g outside the unit disk", radius)
    hist = np.bincount(n_real, minlength=n + 1)[: n + 1]
    counts_agree(hist, refs.table(op), reps, "real counts")


def _grid_centres(op):
    lo, hi, bins = op["grid"]
    edges = np.linspace(lo, hi, bins + 1)
    return 0.5 * (edges[:-1] + edges[1:]), (hi - lo) / bins


def check_density(op, text, refs):
    """density output: grid, mass against E[#real], histogram if drawn."""
    rows, _ = parse_table(text, op["fmt"])
    centres, width = _grid_centres(op)
    x = _column(rows, "x")
    if x.shape != centres.shape or np.max(np.abs(x - centres)) > 1e-9 * width:
        _fail("density rows are not on the grid centres")
    rho = _column(rows, "rho")
    if np.any(rho < -1e-12):
        _fail("negative density %.3g", rho.min())
    reps = op.get("reps") or 0
    if not reps:
        mass = float(np.sum(rho) * width)
        expected = refs.expected_reals(op)
        if abs(mass - expected) > MASS_RTOL * expected:
            _fail("density integrates to %.8g, E[#real] = %.8g", mass, expected)
        return
    emp = _column(rows, "emp")
    counts = emp * reps * width
    if np.max(np.abs(counts - np.round(counts))) > 1e-6:
        _fail("histogram is not a whole number of eigenvalues per bin")
    counts = np.round(counts)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    sub = (0.5 * width * nodes[None, :] + centres[:, None])
    mean = reps * 0.5 * width * (refs.density(op, sub) @ weights)
    # Real eigenvalues repel, so a bin count varies no more than a Poisson
    # count with the same mean; the Poisson deviation is conservative.
    z = (counts - mean) / np.sqrt(np.maximum(mean, 1.0))
    worst = int(np.argmax(np.abs(z)))
    if abs(z[worst]) > Z_REJECT:
        _fail("histogram bin %d: %d eigenvalues, bin-averaged density gives %.1f",
              worst, counts[worst], mean[worst])


def check_npoint(op, text, refs):
    """n-point batch: rho_1 equals the density, rho_2 is symmetric."""
    doc = json.loads(text)
    if len(doc["rho1"]) != len(op["singles"]) or len(doc["rho2"]) != len(op["pairs"]):
        _fail("n-point batch returned the wrong number of values")
    for (species, re, im), got in zip(op["singles"], doc["rho1"]):
        value = re if species == "r" else complex(re, im)
        want = refs.point_density(op, species, value)
        if abs(got - want) > 1e-9 * abs(want) + 1e-14:
            _fail("rho_1(%s) = %.12g, density %.12g", value, got, want)
    for (p, q), (pq, qp) in zip(op["pairs"], doc["rho2"]):
        if abs(pq - qp) > 1e-9 * max(abs(pq), abs(qp)) + 1e-14:
            _fail("rho_2 not symmetric at %s, %s: %.12g vs %.12g", p, q, pq, qp)


CHECKS = {"probs": check_probs, "compare": check_probs, "sample": check_sample,
          "density": check_density, "npoint": check_npoint}


def check_op(op, code, text, refs):
    """None if the op succeeded and its output is right, else the reason."""
    if code != 0:
        return "exit code %d" % code
    try:
        CHECKS[op["cmd"]](op, text, refs)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
    return None
