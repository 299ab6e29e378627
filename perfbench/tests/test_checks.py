"""Each output check accepts a real output and rejects a corrupted copy of it.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math

import numpy as np
import pytest

import checks
import worker
import workloads


@pytest.fixture(scope="module")
def refs():
    return checks.References()


def _run(op):
    code, out, err = worker.run_op(op)
    assert code == 0, err
    return out


def _csv_lines(text):
    return text.splitlines()


def _replace_cell(text, row, col, fn):
    """Apply fn to one CSV cell (row counted after the header)."""
    lines = _csv_lines(text)
    cells = lines[row + 2].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 2] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _rejects(check, op, text, refs):
    with pytest.raises(checks.CheckFailed):
        check(op, text, refs)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_forms_known_values():
    assert checks.truncated_pmm(1, 1) == pytest.approx(1.0, rel=1e-14)
    assert checks.truncated_pmm(1, 7) == pytest.approx(1.0, rel=1e-14)
    assert checks.truncated_pmm(2, 1) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert checks.ginibre_expected_reals(1) == 1.0
    assert checks.ginibre_expected_reals(2) == pytest.approx(math.sqrt(2.0))
    assert checks.ginibre_expected_reals(3) == pytest.approx(1.0 + math.sqrt(0.5))
    assert checks.spherical_expected_reals(2) == pytest.approx(math.pi / 2.0)
    assert checks.ginibre_pnn(2) == pytest.approx(math.sqrt(0.5))
    assert checks.partial_pnn(3, 0.0) == pytest.approx(checks.ginibre_pnn(3))


# ---------------------------------------------------------------------------
# exact tables and compare rows


def test_probs_table_accepted_and_corruptions_rejected(refs):
    op = workloads.cli_op("probs", "truncated", 5, l=3)
    text = _run(op)
    checks.check_probs(op, text, refs)
    # a shifted p_exact breaks the sum
    _rejects(checks.check_probs, op, _replace_cell(text, 0, 1, lambda p: p + 1e-6), refs)
    # p_NN moved off its closed form, with the sum kept at one
    lines = _csv_lines(text)
    last = float(lines[-1].split(",")[1])
    moved = _replace_cell(text, len(lines) - 3, 1, lambda p: p * 1.01)
    moved = _replace_cell(moved, 0, 1, lambda p: p - 0.01 * last)
    _rejects(checks.check_probs, op, moved, refs)
    # a negative probability
    neg = _replace_cell(text, 0, 1, lambda p: -1e-9)
    _rejects(checks.check_probs, op, neg, refs)
    # a missing row
    _rejects(checks.check_probs, op, "\n".join(lines[:-1]) + "\n", refs)


def test_compare_rows_accepted_and_corruptions_rejected(refs):
    op = workloads.cli_op("compare", "ginibre", 4, seed=3, reps=4096,
                          extra=("--z-max", "5"))
    text = _run(op)
    checks.check_probs(op, text, refs)
    reps = op["reps"]
    # move 200 draws from k = 0 to k = 2: counts still sum, z is far off
    moved = _replace_cell(text, 0, 2, lambda p: p - 200.0 / reps)
    moved = _replace_cell(moved, 1, 2, lambda p: p + 200.0 / reps)
    _rejects(checks.check_probs, op, moved, refs)
    # a histogram that no longer sums to the draws
    _rejects(checks.check_probs, op, _replace_cell(text, 0, 2, lambda p: p + 1.0 / reps),
             refs)
    # a p_hat that is not a whole number of draws
    _rejects(checks.check_probs, op, _replace_cell(text, 0, 2, lambda p: p + 0.3 / reps),
             refs)


def test_counts_agree_small_expected_counts():
    # one draw where p = 1e-6: unlikely but allowed at 1000 draws
    checks.counts_agree([999, 1], [1.0 - 1e-6, 1e-6], 1000, "t")
    with pytest.raises(checks.CheckFailed):
        checks.counts_agree([995, 5], [1.0 - 1e-6, 1e-6], 1000, "t")
    with pytest.raises(checks.CheckFailed):
        checks.counts_agree([999, 1], [1.0, 0.0], 1000, "t")


# ---------------------------------------------------------------------------
# sample


def test_sample_csv_accepted_and_corruptions_rejected(refs):
    op = workloads.cli_op("sample", "truncated", 4, l=2, seed=7, reps=600)
    text = _run(op)
    checks.check_sample(op, text, refs)
    lines = _csv_lines(text)
    # a missing eigenvalue row
    _rejects(checks.check_sample, op, "\n".join(lines[:5] + lines[6:]) + "\n", refs)
    # an eigenvalue pushed outside the unit disk
    _rejects(checks.check_sample, op, _replace_cell(text, 0, 2, lambda x: 1.5), refs)
    # every complex pair relabelled as two real eigenvalues: counts law breaks
    rel = [lines[0], lines[1]]
    for line in lines[2:]:
        draw, species, re, im = line.split(",")
        if species == "c":
            rel += ["%s,r,%s,0" % (draw, re), "%s,r,%s,0" % (draw, re)]
        else:
            rel.append(line)
    _rejects(checks.check_sample, op, "\n".join(rel) + "\n", refs)


def test_sample_json_goe_rejects_complex_eigenvalue(refs):
    op = workloads.cli_op("sample", "goe", 4, fmt="json", seed=2, reps=50)
    text = _run(op)
    checks.check_sample(op, text, refs)
    doc = json.loads(text)
    # two real eigenvalues of draw 0 replaced by one complex pair
    del doc["rows"][1]
    doc["rows"][0].update(species="c", im=0.5)
    _rejects(checks.check_sample, op, json.dumps(doc), refs)


# ---------------------------------------------------------------------------
# densities and histograms


def test_density_accepted_and_corruptions_rejected(refs):
    op = workloads.cli_op("density", "ginibre", 6, grid=(-9.0, 9.0, 200))
    text = _run(op)
    checks.check_density(op, text, refs)
    lines = _csv_lines(text)
    scaled = lines[:2] + ["%s,%r" % (x, 1.01 * float(r))
                          for x, r in (line.split(",") for line in lines[2:])]
    _rejects(checks.check_density, op, "\n".join(scaled) + "\n", refs)
    # the same rows reported against another grid
    other = dict(op, grid=(-9.0, 9.5, 200))
    _rejects(checks.check_density, other, text, refs)


def test_histogram_accepted_and_corruption_rejected(refs):
    op = workloads.cli_op("density", "goe", 4, grid=(-5.0, 5.0, 20), seed=9, reps=3000)
    text = _run(op)
    checks.check_density(op, text, refs)
    width = 10.0 / 20
    # 400 eigenvalues moved from bin 8 to bin 12
    moved = _replace_cell(text, 8, 2, lambda e: e - 400.0 / (3000 * width))
    moved = _replace_cell(moved, 12, 2, lambda e: e + 400.0 / (3000 * width))
    _rejects(checks.check_density, op, moved, refs)


# ---------------------------------------------------------------------------
# n-point batches


def test_npoint_accepted_and_corruptions_rejected(refs):
    op = workloads.npoint_op("ginibre", 6, [["r", 0.4, 0.0], ["c", 0.2, 0.9]],
                             [[["r", 0.4, 0.0], ["r", -1.1, 0.0]],
                              [["r", 0.4, 0.0], ["c", 0.5, 1.2]]])
    text = _run(op)
    checks.check_npoint(op, text, refs)
    doc = json.loads(text)
    bad = dict(doc, rho1=[doc["rho1"][0] * (1 + 1e-6), doc["rho1"][1]])
    _rejects(checks.check_npoint, op, json.dumps(bad), refs)
    bad = dict(doc, rho2=[[doc["rho2"][0][0], doc["rho2"][0][1] * 1.001],
                          doc["rho2"][1]])
    _rejects(checks.check_npoint, op, json.dumps(bad), refs)


def test_truncated_kernel_has_no_itilde():
    op = workloads.npoint_op("truncated", 4, [], [[["r", 0.3, 0.0], ["r", -0.5, 0.0]]])
    op["l"] = 2
    code, _, err = worker.run_op(op)
    assert code != 0 and "itilde" in err


def test_check_op_reports_exit_codes_and_unreadable_output(refs):
    op = workloads.cli_op("probs", "ginibre", 4)
    assert checks.check_op(op, 2, "", refs) == "exit code 2"
    assert checks.check_op(op, 0, "not a table", refs) is not None
    assert np.isfinite(checks.truncated_pmm(12, 8))
