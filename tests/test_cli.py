"""Tests for the command line interface."""

import json
import math
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


def test_density_rejects_bad_grid_and_odd_order():
    assert run_cli("density", "--ensemble", "ginibre", "--n", "4",
                   "--grid", "oops").returncode == 1
    assert run_cli("density", "--ensemble", "goe", "--n", "5",
                   "--grid", "-1:1:4").returncode == 1


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


@pytest.mark.parametrize("name", [k for k, e in ENSEMBLES.items() if e.even_density])
def test_odd_order_density_exits_with_config_error(name):
    res = run_cli("density", "--grid", "-1:1:4", *_ensemble_args(name, 5))
    assert res.returncode == 1
    assert "requires even order" in res.stderr


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


def test_bernoulli_factor_off_the_unit_interval_exits_with_numeric_error(
        monkeypatch, capsys):
    monkeypatch.setattr(analytics, "_skew_bernoulli",
                        lambda family, sgn, moments: np.array([0.3, 1.2]))
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


def test_compare_fails_on_perturbed_exact_values():
    res = run_cli("compare", "--ensemble", "ginibre", "--n", "4",
                  "--reps", "5000", "--seed", "3", "--perturb-exact", "0.05")
    assert res.returncode == 2
    assert "#verdict=fail" in res.stdout


def test_unwritable_out_path_exits_with_config_error(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    res = run_cli("probs", "--ensemble", "ginibre", "--n", "4", "--out", str(target))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("Error: ") and len(res.stderr.splitlines()) == 1
