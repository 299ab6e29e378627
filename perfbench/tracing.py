"""Tracing from outside the program: wrappers on realrmt's public functions.

``Tracer.install`` wraps every public function of the seven realrmt modules,
in every module namespace that binds it (``kernels`` binds
``specfun.upper_gamma_regularized``, for instance), so calls made through any
of those names are seen. Each wrapper keeps, per op, the call count, the
inclusive time and the self time (inclusive time minus the time of wrapped
calls it made). A few wrappers also count work from their arguments: draws
requested, density points evaluated, and polynomial families built inside a
density evaluation.

``layer_metrics`` turns the per-op records of one round into the per-layer
metrics listed in BENCHMARK.json.
"""

import functools
import inspect
import time

import numpy as np

MODULES = ("specfun", "pfaffian", "sopoly", "ensembles", "analytics", "kernels",
           "cli")

# density function -> index of its point argument (None: one point per call)
DENSITY_POINT_ARG = {"kernels.goe_density": 1, "kernels.ginibre_density_real": 1,
                     "kernels.partial_density_real": 2,
                     "kernels.truncated_density_real": 2,
                     "kernels.spherical_density_real": None}
SIMULATORS = ("ensembles.simulate_real_counts", "ensembles.simulate_real_eigenvalues")
FAMILIES = tuple("sopoly.%s_family" % e
                 for e in ("goe", "ginibre", "partial", "spherical", "truncated"))
ELEMENTS = tuple("kernels." + f for f in (
    "goe_s", "goe_d", "goe_itilde",
    "ginibre_srr", "ginibre_src", "ginibre_scr", "ginibre_scc", "ginibre_drr",
    "ginibre_drc", "ginibre_dcc", "ginibre_irr", "ginibre_irc", "ginibre_icc",
    "partial_srr", "spherical_srr", "spherical_drr", "spherical_irr",
    "spherical_scc", "truncated_srr", "truncated_d"))


class Tracer:
    """Per-op call statistics gathered by wrappers on realrmt functions."""

    def __init__(self):
        self._stack = []
        self._density_depth = 0
        self._reset()

    def _reset(self):
        self.funcs = {}
        self.draws = 0
        self.points = {}
        self.builds_in_density = 0

    def install(self):
        import importlib

        modules = [importlib.import_module("realrmt." + m) for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap("%s.%s" % (short, name), obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def _before(self, name, args, kwargs):
        if name in DENSITY_POINT_ARG:
            idx = DENSITY_POINT_ARG[name]
            size = 1 if idx is None else int(np.size(args[idx]))
            self.points[name] = self.points.get(name, 0) + size
            self._density_depth += 1
        elif name in SIMULATORS:
            self.draws += int(args[2] if len(args) > 2 else kwargs["reps"])
        elif name in FAMILIES and self._density_depth:
            self.builds_in_density += 1

    def _wrap(self, name, fn):
        stack = self._stack
        is_density = name in DENSITY_POINT_ARG
        hooked = is_density or name in SIMULATORS or name in FAMILIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hooked:
                self._before(name, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if is_density:
                    self._density_depth -= 1
                rec = self.funcs.get(name)
                if rec is None:
                    rec = self.funcs[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt * 1e3
                rec[2] += (dt - frame[0]) * 1e3

        return wrapper

    def begin_op(self, op):
        self._reset()
        if op.get("cmd") == "sample":
            # the sample command draws in its own loop, not through a simulator
            self.draws += op["reps"]

    def end_op(self):
        """Statistics of the op just run, as a JSON-ready dict."""
        return {"funcs": self.funcs, "draws": self.draws, "points": self.points,
                "builds_in_density": self.builds_in_density}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(ops, records):
    """Per-layer metrics of one traced round.

    ops is the round's op list; records the worker's per-op records, each
    with ``trace`` statistics and the op's output ``bytes``.
    """
    funcs = {}
    draws = builds = 0
    points = {}
    cli_ops = cli_self = cli_bytes = 0
    for op, rec in zip(ops, records):
        tr = rec["trace"]
        for name, (calls, incl, self_ms) in tr["funcs"].items():
            agg = funcs.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += self_ms
        draws += tr["draws"]
        builds += tr["builds_in_density"]
        for name, n in tr["points"].items():
            points[name] = points.get(name, 0) + n
        if op["kind"] == "cli":
            cli_ops += 1
            cli_self += tr["funcs"].get("cli.main", [0, 0.0, 0.0])[2]
            cli_bytes += rec["bytes"]

    def calls(*names):
        return sum(funcs.get(n, [0, 0.0, 0.0])[0] for n in names)

    def incl(*names):
        return sum(funcs.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_time(name):
        return funcs.get(name, [0, 0.0, 0.0])[2]

    def per_point(name):
        return _ratio(incl(name) * 1e3, points.get(name, 0))

    n_points = sum(points.values())
    return {
        "ensembles.draws": (draws, "count"),
        "ensembles.sample_matrix_calls": (calls("ensembles.sample_matrix"), "count"),
        "ensembles.sample_us_per_draw": (
            _ratio(incl("ensembles.sample_matrix") * 1e3, draws), "us"),
        "ensembles.count_us_per_draw": (
            _ratio(self_time("ensembles.count_real_eigenvalues") * 1e3, draws), "us"),
        "ensembles.classify_us_per_draw": (
            _ratio(incl("ensembles.classify_spectrum") * 1e3, draws), "us"),
        "ensembles.simulate_ms": (incl(*SIMULATORS), "ms"),
        "analytics.prob_table_calls": (calls("analytics.prob_table"), "count"),
        "analytics.truncated_prob_gf_ms": (incl("analytics.truncated_prob_gf"), "ms"),
        "analytics.partial_prob_gf_ms": (incl("analytics.partial_prob_gf"), "ms"),
        "analytics.ginibre_prob_gf_ms": (incl("analytics.ginibre_prob_gf"), "ms"),
        "analytics.partial_beta_calls": (calls("analytics.partial_beta"), "count"),
        "analytics.partial_beta_ms": (incl("analytics.partial_beta"), "ms"),
        "pfaffian.signed_log_calls": (calls("pfaffian.pfaffian_signed_log"), "count"),
        "pfaffian.signed_log_us_per_call": (
            _ratio(incl("pfaffian.pfaffian_signed_log") * 1e3,
                   calls("pfaffian.pfaffian_signed_log")), "us"),
        "pfaffian.bordered_calls": (
            calls("pfaffian.pfaffian_bordered", "pfaffian.pfaffian_bordered_signed_log"),
            "count"),
        "pfaffian.pfaffian_calls": (calls("pfaffian.pfaffian"), "count"),
        "sopoly.family_builds": (calls(*FAMILIES), "count"),
        "sopoly.family_ms": (incl(*FAMILIES), "ms"),
        "sopoly.eval_poly_calls": (calls("sopoly.eval_poly"), "count"),
        "kernels.family_builds_per_point": (_ratio(builds, n_points), "ratio"),
        "kernels.density_points": (n_points, "count"),
        "kernels.goe_density_us_per_point": (per_point("kernels.goe_density"), "us"),
        "kernels.ginibre_density_us_per_point": (
            per_point("kernels.ginibre_density_real"), "us"),
        "kernels.partial_density_us_per_point": (
            per_point("kernels.partial_density_real"), "us"),
        "kernels.truncated_density_us_per_point": (
            per_point("kernels.truncated_density_real"), "us"),
        "kernels.npoint_ms_per_call": (
            _ratio(incl("kernels.npoint_correlation"),
                   calls("kernels.npoint_correlation")), "ms"),
        "kernels.element_calls": (calls(*ELEMENTS), "count"),
        "specfun.upper_gamma_calls": (
            calls("specfun.upper_gamma_regularized"), "count"),
        "specfun.upper_gamma_us_per_call": (
            _ratio(incl("specfun.upper_gamma_regularized") * 1e3,
                   calls("specfun.upper_gamma_regularized")), "us"),
        "cli.self_ms_per_op": (_ratio(cli_self, cli_ops), "ms"),
        "cli.bytes_out_per_op": (_ratio(cli_bytes, cli_ops), "bytes"),
    }
