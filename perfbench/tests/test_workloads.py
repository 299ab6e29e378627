"""Properties of the workload definitions."""

import numpy as np
import pytest
from scipy import stats

import workloads
from realrmt import analytics

MC_Z_MAX = 5.0


def _cli_gate_fail_probability(probs, reps, z_max=MC_Z_MAX):
    """P(the compare command's own gate fails a correct table), union over k.

    Mirrors cli._prob_rows: the standard error comes from p_hat, floored at
    sqrt(1e-300 / reps) when an outcome gets no draws.
    """
    n = len(probs) - 1
    counts = np.arange(reps + 1)
    p_hat = counts / reps
    stderr = np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 1e-300) / reps)
    total = 0.0
    for k, p in enumerate(probs):
        if p == 0.0 and (n - k) % 2:
            continue
        bad = np.abs((p_hat - p) / stderr) > z_max
        total += stats.binom.pmf(counts, reps, p)[bad].sum()
    return total


@pytest.mark.parametrize("cell", workloads.MC_CELLS)
def test_mc_gate_cells_fail_by_chance_rarely(cell):
    ens, n, tau, big_l = cell
    probs = analytics.prob_table(ens, n, tau=tau, big_l=big_l)
    assert _cli_gate_fail_probability(probs, workloads.MC_DRAWS) < 1e-5


def test_mc_gate_kept_fault_fails_almost_surely():
    ens, n, tau, big_l = workloads.MC_KEPT_FAULT
    probs = analytics.prob_table(ens, n, tau=tau, big_l=big_l)
    # p_{12,12} * draws is about 5e-7, so k = 12 gets no draw and z ~ -1e147
    assert probs[n] * workloads.MC_DRAWS < 1e-5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_two_ops_share_a_configuration(name):
    ops = workloads.build(name, 1)
    keys = [(op["cmd"], op["ensemble"], op["n"], op.get("tau"), op.get("l"),
             op.get("grid")) for op in ops]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    assert workloads.build(name, 4) == workloads.build(name, 4)
    if name != "exact_tables":
        assert workloads.build(name, 4) != workloads.build(name, 5)


def test_kept_faults_are_the_named_ones():
    kept = {name: [op["args"] for op in workloads.build(name, 1) if op["kept_fault"]]
            for name in workloads.WORKLOADS}
    assert len(kept["mc_gate"]) == 1 and "12" in kept["mc_gate"][0]
    assert len(kept["exact_tables"]) == 4
    assert not kept["spectra"] and not kept["density_grid"]


def test_every_cli_op_runs_single_worker():
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1):
            if op["kind"] == "cli":
                assert op["args"][op["args"].index("--workers") + 1] == "1"
