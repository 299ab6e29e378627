"""Tests for the command line interface."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from realrmt import analytics, cli, ensembles, kernels
from realrmt.ensembles import ENSEMBLES

BASE = [sys.executable, "-m", "realrmt.cli"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def _parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "#schema=real-rmt/v1"
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(",")))
            for line in lines[2:] if not line.startswith("#")]
    return header, rows


def test_probs_csv_matches_exact_table():
    res = run_cli("probs", "--ensemble", "ginibre", "--n", "4")
    assert res.returncode == 0
    header, rows = _parse_csv(res.stdout)
    assert header == ["k", "p_exact"]
    probs = analytics.ginibre_prob_gf(4)
    got = {int(r["k"]): float(r["p_exact"]) for r in rows}
    for k in (0, 2, 4):
        assert got[k] == pytest.approx(probs[k], rel=1e-14)


def test_probs_json_with_monte_carlo():
    res = run_cli("probs", "--ensemble", "spherical", "--n", "3",
                  "--reps", "2000", "--seed", "5", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["config"]["ensemble"] == "spherical"
    for row in doc["rows"]:
        assert set(row) == {"k", "p_exact", "p_hat", "stderr", "z"}
        assert abs(row["z"]) < 5.0


def test_probs_requires_tau_for_partial():
    res = run_cli("probs", "--ensemble", "partial", "--n", "4")
    assert res.returncode == 1


def test_probs_rejects_bad_order():
    res = run_cli("probs", "--ensemble", "ginibre", "--n", "0")
    assert res.returncode == 1


@pytest.mark.parametrize("command", [
    pytest.param(["probs"], id="probs"),
    pytest.param(["sample"], id="sample"),
    pytest.param(["density", "--grid", "-3:3:12"], id="density"),
])
def test_probs_output_is_worker_invariant(tmp_path, command):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    common = command + ["--ensemble", "ginibre", "--n", "3", "--reps", "3000",
                        "--seed", "11"]
    assert run_cli(*common, "--workers", "1", "--out", str(out1)).returncode == 0
    assert run_cli(*common, "--workers", "3", "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_is_deterministic():
    args = ("sample", "--ensemble", "ginibre", "--n", "3", "--reps", "5",
            "--seed", "7")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    _, rows = _parse_csv(a.stdout)
    # each draw contributes n eigenvalue slots: reals + two per complex pair
    for draw in range(5):
        total = sum(1 if r["species"] == "r" else 2
                    for r in rows if int(r["draw"]) == draw)
        assert total == 3


def _sample_reference_rows(ensemble, n, reps, seed, tau=None, big_l=None):
    """The sample command's rows, from one sample_matrix call per draw."""
    rows = []
    for draw in range(reps):
        if draw % ensembles.CHUNK == 0:
            rng = ensembles.rng_for(seed, draw // ensembles.CHUNK)
        mat = ensembles.sample_matrix(ensemble, n, rng, tau=tau, big_l=big_l)
        reals, upper = ensembles.classify_spectrum(np.linalg.eigvals(mat))
        rows += [{"draw": draw, "species": "r", "re": float(lam), "im": 0.0}
                 for lam in np.sort(reals)]
        rows += [{"draw": draw, "species": "c", "re": float(w.real), "im": float(w.imag)}
                 for w in sorted(upper, key=lambda v: (v.real, v.imag))]
    return rows


def _sample_args(ensemble, n, reps, seed, tau, big_l):
    args = ["sample", "--ensemble", ensemble, "--n", str(n), "--reps", str(reps),
            "--seed", str(seed)]
    args += ["--tau", repr(tau)] if tau is not None else []
    args += ["--l", str(big_l)] if big_l is not None else []
    return args


SAMPLE_CELLS = [("partial", 4, 0.5, None), ("truncated", 3, None, 2),
                ("ginibre", 5, None, None), ("spherical", 4, None, None)]


@pytest.mark.parametrize("ensemble,n,tau,big_l", SAMPLE_CELLS)
def test_sample_prints_the_per_draw_reference(ensemble, n, tau, big_l):
    # 1100 draws: two chunks, and stacks that end mid-chunk
    res = run_cli(*_sample_args(ensemble, n, 1100, 13, tau, big_l))
    assert res.returncode == 0
    got = res.stdout.splitlines()
    want = ["#schema=real-rmt/v1", "draw,species,re,im"] + [
        "%d,%s,%.15g,%.15g" % (r["draw"], r["species"], r["re"], r["im"])
        for r in _sample_reference_rows(ensemble, n, 1100, 13, tau, big_l)]
    # the first differing line, rather than a diff of some 4000 lines
    diff = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                None)
    assert diff is None and len(got) == len(want), (diff, len(got), len(want))
    assert res.stdout.endswith("\n")


def test_sample_of_large_draws_prints_the_per_draw_reference():
    # at m = 12, L = 10^4 a stack holds 8 draws, so 20 draws come in stacks of 8, 8 and 4
    res = run_cli(*_sample_args("truncated", 12, 20, 13, None, 10 ** 4))
    assert res.returncode == 0
    assert res.stdout.splitlines()[2:] == [
        "%d,%s,%.15g,%.15g" % (r["draw"], r["species"], r["re"], r["im"])
        for r in _sample_reference_rows("truncated", 12, 20, 13, big_l=10 ** 4)]


@pytest.mark.parametrize("ensemble,n,tau,big_l", SAMPLE_CELLS)
def test_sample_json_prints_the_per_draw_reference(ensemble, n, tau, big_l):
    res = run_cli(*_sample_args(ensemble, n, 300, 17, tau, big_l), "--format", "json")
    assert res.returncode == 0
    config = {"command": "sample", "ensemble": ensemble, "n": n, "l": big_l,
              "tau": tau, "reps": 300, "seed": 17}
    doc = {"config": config,
           "rows": _sample_reference_rows(ensemble, n, 300, 17, tau, big_l)}
    assert res.stdout == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("verdict", [None, "fail"])
def test_emit_json_is_the_json_dumps_document(capsys, verdict):
    columns = {"z": np.array([1.5, -0.0, np.nan, np.inf, -np.inf, 1e-300]),
               "k": np.arange(6),
               "name": np.array(["r", 'q"uote', "back\\slash", "é", "50%", ""]),
               "ok": np.array([True, False] * 3),
               "x": np.array([0.1, 2.0, -3e20, 7.0, 1 / 3, 5e-324])}
    config = {"command": "test", "n": 6, "tau": None, "grid": "0:1:2"}
    cli._emit("-", "json", config, columns, verdict)
    doc = {"config": config,
           "rows": [dict(zip(columns, row))
                    for row in zip(*(v.tolist() for v in columns.values()))]}
    if verdict is not None:
        doc["verdict"] = verdict
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True) + "\n"
    cli._emit("-", "json", config, {"k": np.zeros(0, dtype=int), "x": np.zeros(0)})
    assert capsys.readouterr().out == json.dumps({"config": config, "rows": []},
                                                 sort_keys=True) + "\n"


def test_goe_sample_matches_the_general_eigensolver():
    # the symmetric eigensolver may differ from eigvals in the last bits
    res = run_cli(*_sample_args("goe", 6, 1100, 13, None, None))
    assert res.returncode == 0
    _, rows = _parse_csv(res.stdout)
    want = _sample_reference_rows("goe", 6, 1100, 13)
    assert len(rows) == len(want)
    assert [(int(r["draw"]), r["species"]) for r in rows] == [
        (r["draw"], r["species"]) for r in want]
    for draw in range(1100):
        got = [(float(r["re"]), float(r["im"])) for r in rows[6 * draw: 6 * draw + 6]]
        ref = [(r["re"], r["im"]) for r in want[6 * draw: 6 * draw + 6]]
        scale = max(abs(re) for re, _ in ref)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)


def test_density_grid_values():
    res = run_cli("density", "--ensemble", "ginibre", "--n", "4",
                  "--grid", "-1:1:4")
    assert res.returncode == 0
    _, rows = _parse_csv(res.stdout)
    assert len(rows) == 4
    x = float(rows[0]["x"])
    assert x == pytest.approx(-0.75)
    assert float(rows[0]["rho"]) == pytest.approx(
        kernels.ginibre_density_real(4, x), rel=1e-12)


@pytest.mark.parametrize("name,n,grid", [
    ("goe", 6, "-5:5:40"), ("ginibre", 5, "-5:5:40"), ("partial", 5, "-6:6:40"),
    ("spherical", 5, "0:6.283185307179586:40"), ("truncated", 4, "-1:1:40")])
def test_density_matches_the_per_point_reference(name, n, grid):
    args = _ensemble_args(name, n)
    res = run_cli("density", "--grid", grid, *args)
    assert res.returncode == 0, res.stderr
    _, rows = _parse_csv(res.stdout)
    tau = 0.5 if ENSEMBLES[name].param == "tau" else None
    big_l = 2 if ENSEMBLES[name].param == "big_l" else None
    lo, hi, bins = (float(v) for v in grid.split(":"))
    edges = np.linspace(lo, hi, int(bins) + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert [float(r["x"]) for r in rows] == pytest.approx(list(centers), rel=1e-14)
    for row, x in zip(rows, centers):
        want = float(ENSEMBLES[name].density(n, tau, big_l, float(x)))
        assert float(row["rho"]) == pytest.approx(want, rel=1e-12), x


def test_density_of_order_one_ginibre():
    res = run_cli("density", "--ensemble", "ginibre", "--n", "1", "--grid", "-1:1:2")
    assert res.returncode == 0
    _, rows = _parse_csv(res.stdout)
    assert [float(r["rho"]) for r in rows] == pytest.approx(
        [math.exp(-0.125) / math.sqrt(2.0 * math.pi)] * 2, rel=1e-14)


def test_density_rejects_bad_grid():
    assert run_cli("density", "--ensemble", "ginibre", "--n", "4",
                   "--grid", "oops").returncode == 1


def test_truncated_density_off_its_support():
    # rho = 0 outside [-1, 1]; at L = 1 the density diverges at x = +-1,
    # which is refused
    for big_l in ("2", "3"):
        res = run_cli("density", "--ensemble", "truncated", "--n", "4", "--l", big_l,
                      "--grid", "-2:2:4")
        assert res.returncode == 0, res.stderr
        _, rows = _parse_csv(res.stdout)
        assert [float(r["rho"]) for r in rows[::3]] == [0.0, 0.0]
        assert all(float(r["rho"]) > 0.0 for r in rows[1:3])
    res = run_cli("density", "--ensemble", "truncated", "--n", "4", "--l", "1",
                  "--grid", "-1.5:1.5:3")
    assert res.returncode == 3
    assert res.stdout == ""
    assert "not finite" in res.stderr
    assert "Warning" not in res.stderr


NEGATIVE_CASES = [
    ["--ensemble", "goe", "--n", "80", "--grid", "-1:1:2"],
    ["--ensemble", "partial", "--n", "120", "--tau", "0.5", "--grid", "-18.6:-18.5:1"],
]


@pytest.mark.parametrize("args", NEGATIVE_CASES)
def test_density_refuses_a_negative_value(monkeypatch, capsys, args):
    # the registry looks the density up at call time, so rebinding reaches it
    negative = lambda *a: np.full(np.shape(a[-1]), -1.0)
    monkeypatch.setattr(kernels, "goe_density", negative)
    monkeypatch.setattr(kernels, "partial_density_real", negative)
    monkeypatch.setattr(sys, "argv", ["realrmt", "density"] + args)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    res = capsys.readouterr()
    assert res.out == ""
    assert "negative" in res.err


@pytest.mark.parametrize("args", NEGATIVE_CASES)
def test_density_is_nonnegative_where_the_monomial_sums_went_negative(args):
    res = run_cli("density", *args)
    assert res.returncode == 0, res.stderr
    _, rows = _parse_csv(res.stdout)
    assert rows and all(float(r["rho"]) >= 0.0 for r in rows)


def test_compare_passes_and_reports():
    res = run_cli("compare", "--ensemble", "ginibre", "--n", "4",
                  "--reps", "5000", "--seed", "3", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "pass"
    assert {r["k"] for r in doc["rows"]} == {0, 2, 4}


def test_compare_passes_with_an_outcome_that_got_no_draws():
    # p_{8,8} * reps is 0.5, and this seed gives k = 8 no draw
    res = run_cli("compare", "--ensemble", "ginibre", "--n", "8",
                  "--reps", "8192", "--seed", "5", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    row = {r["k"]: r for r in doc["rows"]}[8]
    assert row["p_hat"] == 0.0
    assert math.isfinite(row["z"]) and abs(row["z"]) < 4.0


@pytest.mark.parametrize("args", [
    ("probs", "--reps", "-5"),
    ("sample", "--reps", "-1"),
    ("density", "--grid", "-1:1:4", "--reps", "-3"),
    ("compare", "--reps", "0"),
    ("probs", "--workers", "0"),
    ("sample", "--workers", "-2"),
    ("density", "--grid", "-1:1:4", "--workers", "0"),
    ("compare", "--reps", "100", "--workers", "0"),
    ("probs", "--seed", "-1", "--reps", "10"),
    ("sample", "--seed", str(2 ** 64)),
    ("compare", "--reps", "100", "--z-max", "nan"),
    ("compare", "--reps", "100", "--z-max", "inf"),
    ("compare", "--reps", "100", "--z-max=0"),
])
def test_invalid_reps_and_workers_exit_with_config_error(args):
    res = run_cli(args[0], "--ensemble", "ginibre", "--n", "4", *args[1:])
    assert res.returncode == 1
    assert "Invalid value" in res.stderr


@pytest.mark.parametrize("args", [
    ("probs", "--ensemble", "ginibre", "--n", "4", "--tau", "0.5"),
    ("sample", "--ensemble", "truncated", "--n", "3", "--l", "2", "--tau", "0.5"),
    ("density", "--ensemble", "goe", "--n", "4", "--grid", "-1:1:4", "--tau", "0"),
    ("probs", "--ensemble", "partial", "--n", "4", "--tau", "0.5", "--l", "2"),
    ("compare", "--ensemble", "spherical", "--n", "3", "--l", "1"),
])
def test_options_of_another_ensemble_exit_with_config_error(args):
    res = run_cli(*args)
    assert res.returncode == 1
    assert "applies only to the" in res.stderr


def _ensemble_args(name, n):
    ens = ENSEMBLES[name]
    param = {None: [], "tau": ["--tau", "0.5"], "big_l": ["--l", "2"]}[ens.param]
    return ["--ensemble", name, "--n", str(n)] + param


@pytest.mark.parametrize("name", [k for k, e in ENSEMBLES.items()
                                  if e.max_table < math.inf])
def test_orders_past_the_table_cap_exit_with_config_error(name):
    args = _ensemble_args(name, ENSEMBLES[name].max_table + 1)
    for command in (["probs"], ["compare", "--reps", "10"]):
        res = run_cli(*command, *args)
        assert res.returncode == 1, (command, res.stderr)
        assert "supported up to order" in res.stderr
    # sampling has no cap
    assert run_cli("sample", "--reps", "3", *args).returncode == 0


@pytest.mark.parametrize("name,args,kernel", [
    ("goe", ["--grid", "-4:4:8"], kernels.GOEKernel(5)),
    ("truncated", ["--l", "3", "--grid", "-1:1:8"], kernels.TruncatedKernel(5, 3))],
    ids=["goe", "truncated"])
def test_odd_order_density_is_the_kernel_diagonal(name, args, kernel):
    res = run_cli("density", "--ensemble", name, "--n", "5", *args)
    assert res.returncode == 0, res.stderr
    _, rows = _parse_csv(res.stdout)
    x = np.array([float(r["x"]) for r in rows])
    np.testing.assert_allclose([float(r["rho"]) for r in rows], kernel.s_xy(x, x),
                               rtol=1e-14)


def test_table_outside_the_bound_exits_with_numeric_error(monkeypatch, capsys):
    # a partial table inside the cap, corrupted so that p_{5,5} = -2e-12
    bad = analytics.partial_prob_gf(5, 0.5)
    bad[3], bad[5] = bad[3] + bad[5] + 2e-12, -2e-12
    monkeypatch.setitem(analytics._TABLES, "partial", lambda n, tau, big_l: bad)
    monkeypatch.setattr(sys, "argv", ["realrmt", "probs", "--ensemble", "partial",
                                      "--tau", "0.5", "--n", "5"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    res = capsys.readouterr()
    assert res.out == ""
    assert "1e-12 bound" in res.err


def test_partial_table_that_loses_the_all_real_probability_exits_with_numeric_error():
    # p_{19,19} = 1.8e-197 at tau = -0.99, where the odd-order factor gives 0
    res = run_cli("probs", "--ensemble", "partial", "--n", "19", "--tau", "-0.99")
    assert res.returncode == 3
    assert res.stdout == ""
    assert "p_{N,N}" in res.stderr
    assert run_cli("probs", "--ensemble", "partial", "--n", "19", "--tau", "0.5").returncode == 0


def test_bernoulli_factor_off_the_unit_interval_exits_with_numeric_error(
        monkeypatch, capsys):
    monkeypatch.setattr(analytics, "_factor_mu", lambda k, nu: np.array([0.3, 1.2]))
    monkeypatch.setattr(sys, "argv", ["realrmt", "probs", "--ensemble", "partial",
                                      "--tau", "0.5", "--n", "5"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    res = capsys.readouterr()
    assert res.out == ""
    assert "mu outside [0, 1]" in res.err


def test_truncated_table_and_density_at_large_l():
    res = run_cli("probs", "--ensemble", "truncated", "--n", "4", "--l", "400")
    assert res.returncode == 0, res.stderr
    p_mm = float(res.stdout.strip().splitlines()[-1].split(",")[1])
    assert p_mm == pytest.approx(analytics.truncated_pmm(4, 400), rel=1e-9)
    res = run_cli("density", "--ensemble", "truncated", "--n", "4", "--l", "400",
                  "--grid", "-1:1:50")
    assert res.returncode == 0, res.stderr


def test_truncated_l_past_its_cap_exits_with_config_error():
    # the cost of a table or a density grows about as L^2; L is capped where a
    # table at m = 12 still takes tens of milliseconds
    cap = ENSEMBLES["truncated"].param_range[1] - 1
    assert cap == 10 ** 4
    assert run_cli("probs", "--ensemble", "truncated", "--m", "12", "--l", str(cap)).returncode == 0
    for command in (["probs"], ["density", "--grid", "-1:1:50"]):
        res = run_cli(*command, "--ensemble", "truncated", "--m", "4", "--l", str(cap + 1))
        assert res.returncode == 1, (command, res.stderr)
        assert "requires big_l in (0, %d)" % (cap + 1) in res.stderr
    assert "1 to %d" % cap in run_cli("probs", "--help").stdout


def test_compare_fails_on_perturbed_exact_values(monkeypatch, capsys):
    exact = analytics.prob_table
    monkeypatch.setattr(analytics, "prob_table", lambda *a, **kw: exact(*a, **kw) + 0.05)
    monkeypatch.setattr(sys, "argv", ["realrmt", "compare", "--ensemble", "ginibre",
                                      "--n", "4", "--reps", "5000", "--seed", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "#verdict=fail" in capsys.readouterr().out


def test_unwritable_out_path_exits_with_config_error(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    res = run_cli("probs", "--ensemble", "ginibre", "--n", "4", "--out", str(target))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("Error: ") and len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("args,config", [
    (["probs", "--ensemble=ginibre", "--n=4", "--seed=9"],
     {"ensemble": "ginibre", "n": 4, "seed": 9}),
    (["probs", "--ensemble", "truncated", "--m", "3", "--l", "2"], {"n": 3, "l": 2}),
    (["probs", "--ensemble", "goe", "--n", "7", "--n", "4"], {"n": 4}),
    (["probs", "--ensemble", "goe", "--n", "7", "--m=5"], {"n": 5}),
    (["probs", "--ensemble", "partial", "--n", "4", "--tau", "-0.5"], {"tau": -0.5}),
    (["density", "--ensemble", "goe", "--n", "4", "--grid", "-3:-1:4"], {"grid": "-3:-1:4"}),
    (["density", "--ensemble", "goe", "--n", "4", "--grid=-3:3:12", "--out", "-"],
     {"grid": "-3:3:12"}),
], ids=["equals", "m-alias", "last-wins", "last-wins-alias", "negative-tau",
        "negative-grid", "equals-negative-grid"])
def test_option_spellings(args, config):
    res = run_cli(*args, "--format", "json")
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)["config"]
    assert {k: got[k] for k in config} == config


@pytest.mark.parametrize("args,config", [
    (["probs", "--ensemble", "goe", "--n", "4"],
     {"command": "probs", "ensemble": "goe", "n": 4, "l": None, "tau": None, "reps": 0,
      "seed": 0}),
    (["sample", "--ensemble", "truncated", "--m", "3", "--l", "2", "--reps", "2",
      "--seed", "5", "--workers", "2"],
     {"command": "sample", "ensemble": "truncated", "n": 3, "l": 2, "tau": None,
      "reps": 2, "seed": 5}),
    (["density", "--ensemble", "goe", "--n", "4", "--grid", "-1:1:4"],
     {"command": "density", "ensemble": "goe", "n": 4, "l": None, "tau": None,
      "reps": 0, "seed": 0, "grid": "-1:1:4"}),
    (["compare", "--ensemble", "partial", "--n", "3", "--tau", "0.5", "--reps", "200",
      "--z-max", "50"],
     {"command": "compare", "ensemble": "partial", "n": 3, "l": None, "tau": 0.5,
      "reps": 200, "seed": 0, "z_max": 50.0}),
], ids=["probs", "sample", "density", "compare"])
def test_json_config_holds_every_option_but_the_output_ones(args, config):
    res = run_cli(*args, "--format", "json", "--out", "-")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["config"] == config


@pytest.mark.parametrize("args,message", [
    (["probs", "--ensemble", "goe", "--n", "4", "--bogus", "1"], "No such option '--bogus'"),
    (["probs", "--ensemble", "goe", "--n", "4", "-h"], "No such option '-h'"),
    (["--bogus"], "No such option '--bogus'"),
    (["tables", "--ensemble", "goe", "--n", "4"], "No such command 'tables'"),
    ([], "Missing command"),
    (["probs", "--n", "4"], "Missing option '--ensemble'"),
    (["probs", "--ensemble", "goe"], "Missing option '--n' / '--m'"),
    (["density", "--ensemble", "goe", "--n", "4"], "Missing option '--grid'"),
    (["probs", "--ensemble", "goe", "--n"], "Option '--n' requires an argument"),
    (["probs", "--ensemble", "goe", "--n", "4", "5"], "unexpected extra argument '5'"),
    (["probs", "--ensemble", "goa", "--n", "4"], "Invalid value for '--ensemble'"),
    (["probs", "--ensemble", "goe", "--m", "four"], "Invalid value for '--m'"),
    (["density", "--ensemble", "goe", "--n", "4", "--grid", "0:inf:10"], "--grid must"),
    (["density", "--ensemble", "goe", "--n", "4", "--grid", "-inf:0:10"], "--grid must"),
    (["density", "--ensemble", "goe", "--n", "4", "--grid", "nan:1:10"], "--grid must"),
    (["density", "--ensemble", "goe", "--n", "4", "--grid", "-1e308:1e308:3"], "--grid must"),
    (["density", "--ensemble", "goe", "--n", "4", "--grid", "1e308:1.7e308:2"], "--grid must"),
])
def test_bad_command_lines_exit_with_one_error_line(args, message):
    res = run_cli(*args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("Error: ") and len(res.stderr.splitlines()) == 1, res.stderr
    assert message in res.stderr


COMMON_FLAGS = ["--ensemble", "--n", "--m", "--l", "--tau", "--seed", "--out", "--format",
                "--workers", "--reps", "--help"]


@pytest.mark.parametrize("command,flags", [
    ("probs", COMMON_FLAGS),
    ("sample", COMMON_FLAGS),
    ("density", COMMON_FLAGS + ["--grid"]),
    ("compare", COMMON_FLAGS + ["--z-max"]),
])
def test_command_help_lists_every_option(command, flags):
    res = run_cli(command, "--help")
    assert res.returncode == 0 and res.stderr == ""
    assert sorted(set(re.findall(r"(?<![\w-])--[a-z-]+", res.stdout))) == sorted(flags)


def test_help_lists_every_command():
    res = run_cli("--help")
    assert res.returncode == 0 and res.stderr == ""
    commands = res.stdout.split("Commands:")[1]
    assert re.findall(r"^  (\w+) ", commands, re.M) == ["probs", "sample", "density",
                                                        "compare"]
