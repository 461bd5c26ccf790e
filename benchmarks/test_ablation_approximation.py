"""Ablation: the PE's operation approximation and accuracy recovery (Sec. 5.2.2).

Measures the numerical quality of the bit-level special functions the PEs
use -- the ingredient behind Table 5 -- without the cost of training:
relative errors of exp / reciprocal / inverse-sqrt over the operating ranges
the routing procedure produces, with and without Newton refinement and with
and without the calibrated recovery multiplier.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.arithmetic.approx import (
    approx_exp,
    approx_inv_sqrt,
    approx_reciprocal,
    exact_exp,
    exact_inv_sqrt,
    exact_reciprocal,
)
from repro.arithmetic.recovery import calibrate_exp_recovery


def _relative_error(approx, exact):
    exact = np.asarray(exact, dtype=np.float64)
    return np.abs(np.asarray(approx, dtype=np.float64) - exact) / np.maximum(np.abs(exact), 1e-30)


def _run():
    rng = np.random.default_rng(2020)
    logits = rng.uniform(-10, 10, size=20000).astype(np.float32)
    norms = rng.uniform(1e-3, 1e3, size=20000).astype(np.float32)
    recovery = calibrate_exp_recovery()

    rows = []
    exp_exact = exact_exp(logits)
    rows.append(
        ["exp (Eq. 14)", float(np.mean(_relative_error(approx_exp(logits), exp_exact))),
         float(np.max(_relative_error(approx_exp(logits), exp_exact)))]
    )
    recovered = recovery.apply(approx_exp(logits))
    rows.append(
        ["exp + recovery", float(np.mean(_relative_error(recovered, exp_exact))),
         float(np.max(_relative_error(recovered, exp_exact)))]
    )
    for steps in (0, 1, 2):
        err = _relative_error(approx_inv_sqrt(norms, newton_steps=steps), exact_inv_sqrt(norms))
        rows.append([f"inv_sqrt ({steps} Newton)", float(np.mean(err)), float(np.max(err))])
    for steps in (0, 1, 2):
        err = _relative_error(approx_reciprocal(norms, newton_steps=steps), exact_reciprocal(norms))
        rows.append([f"reciprocal ({steps} Newton)", float(np.mean(err)), float(np.max(err))])
    return rows


def test_ablation_approximation(save_report):
    rows = _run()
    table = format_table(
        ["Operation", "mean rel. error", "max rel. error"],
        rows,
        title="Ablation -- PE special-function approximation quality",
    )
    save_report("ablation_approximation", table)

    results = {row[0]: row for row in rows}
    # The exponential approximation stays within a few percent and the
    # recovery multiplier reduces (or at least does not increase) the mean error.
    assert results["exp (Eq. 14)"][1] < 0.03
    assert results["exp + recovery"][1] <= results["exp (Eq. 14)"][1] + 1e-4
    # One Newton step is what the PE flow implements: errors well below 1%.
    assert results["inv_sqrt (1 Newton)"][2] < 0.01
    assert results["reciprocal (1 Newton)"][2] < 0.01
    # Newton refinement monotonically improves the seed approximations.
    assert results["inv_sqrt (1 Newton)"][2] < results["inv_sqrt (0 Newton)"][2]
    assert results["reciprocal (2 Newton)"][2] < results["reciprocal (1 Newton)"][2]
