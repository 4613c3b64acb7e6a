"""Acceptance suite: the bundled verification experiments at full scale.

Each test runs one experiment of the bundled default suite (fixed seeds,
full sample counts, stated tolerances) and prints one pass/fail line; run
with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Target runtime is a few minutes on one core.
"""

import pytest

from condmoments import cli

SUITE = {e.experiment_id: e for e in cli.default_suite()}


def run_and_report(experiment_id):
    exp = SUITE[experiment_id]
    comp = cli.run_experiment(exp)
    status = "PASS" if comp.passed else "FAIL"
    print(
        f"[acceptance] {experiment_id}: mean={comp.estimate.mean:.6g} "
        f"ref={comp.reference_value:.6g} z={comp.z_score:+.3f} "
        f"tol={comp.tolerance_sigmas:g} ({comp.estimate.method}) {status}"
    )
    return comp


@pytest.mark.parametrize("exp_id", ["pinv-r1m3", "pinv-r2m4", "pinv-r3m5", "pinv-r2m5"])
def test_criterion_01_pseudoinverse_moments(exp_id):
    comp = run_and_report(exp_id)
    assert comp.passed, comp.z_score


@pytest.mark.parametrize(
    "exp_id, value",
    [
        ("invnor2mdet-r1k1", 1.0),
        ("invnor2mdet-r2k1", 4.0),
        ("invnor2mdet-r2k2", 12.0),
        ("invnor2mdet-r3k1", 18.0),
    ],
)
def test_criterion_02_inverse_norm_determinant_weights(exp_id, value):
    comp = run_and_report(exp_id)
    assert comp.reference_value == pytest.approx(value, rel=1e-12)
    assert comp.passed, comp.z_score


@pytest.mark.parametrize("exp_id", ["rect-identity-frobenius", "rect-identity-operator"])
def test_criterion_03_rectangular_fibration_identity(exp_id):
    comp = run_and_report(exp_id)
    assert comp.passed, comp.z_score


def test_criterion_04_kernel_fibration_identity():
    comp = run_and_report("kernel-identity-r2n3")
    assert comp.passed, comp.z_score


@pytest.mark.parametrize(
    "exp_id, value",
    [
        ("theorem-determined-d1", 1.0),
        ("theorem-determined-d2", 2.0),
        ("theorem-determined-d3", 3.0),
    ],
)
def test_criterion_05_determined_slice_end_to_end(exp_id, value):
    comp = run_and_report(exp_id)
    assert comp.reference_value == pytest.approx(value)
    assert comp.estimate.method.startswith("median-of-means")
    assert comp.passed, comp.z_score


def test_criterion_06_underdetermined_slice_end_to_end():
    comp = run_and_report("theorem-underdetermined-n2d2")
    assert comp.reference_value == pytest.approx(2.5)
    assert comp.estimate.method == "plain-mean"
    assert comp.passed, comp.z_score


def test_criterion_07_relative_moment_matches_matrix_side():
    comp = run_and_report("relative-vs-matrix-n2d2")
    # the matrix side estimates E||M^+||_F^2 over 1x3, closed form 1/2
    assert comp.reference_value == pytest.approx(0.5, abs=0.02)
    assert comp.passed, comp.z_score


def test_criterion_08_scaling_identity():
    comp = run_and_report("scaling-identity-d2")
    assert comp.passed, comp.z_score


@pytest.mark.parametrize(
    "exp_id, value",
    [
        ("espnorm-n3a4", 12.0),
        ("espnorm-n2a-2", 1.0),
        ("espnorm-n4a2", 4.0),
    ],
)
def test_criterion_09_gaussian_norm_moments(exp_id, value):
    comp = run_and_report(exp_id)
    assert comp.reference_value == pytest.approx(value, rel=1e-12)
    assert comp.passed, comp.z_score


@pytest.mark.parametrize(
    "exp_id, value",
    [("espnormrest-n3a1", 8.0), ("espnormrest-n4a2", 90.0)],
)
def test_criterion_10_projected_norm_moments(exp_id, value):
    comp = run_and_report(exp_id)
    assert comp.reference_value == pytest.approx(value, rel=1e-12)
    assert comp.passed, comp.z_score


def test_criterion_10_probe_flags_closed_form_discrepancy():
    sum_comp = run_and_report("espnormrest-probe-sum")
    closed_comp = run_and_report("espnormrest-probe-closed")
    assert SUITE["espnormrest-probe-sum"].probe
    assert SUITE["espnormrest-probe-closed"].probe
    # matches the binomial-sum value 3 ...
    assert sum_comp.reference_value == pytest.approx(3.0, rel=1e-12)
    assert abs(sum_comp.z_score) <= 3.0
    # ... and sits more than five sigmas from the closed-form value 2
    assert closed_comp.reference_value == pytest.approx(2.0, rel=1e-12)
    assert abs(closed_comp.z_score) > 5.0


def test_criterion_11_property_selftest(capsys):
    ok = cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    print(out)
    assert ok, out
    assert out.count("PASS") == len(cli._SELFTEST_SUITES)


def test_probe_rows_do_not_block_overall_pass():
    # the report machinery must mark both probe rows and keep overall pass
    # driven by the non-probe experiments only
    probes = [e for e in cli.default_suite() if e.probe]
    assert {e.experiment_id for e in probes} == {
        "espnormrest-probe-sum",
        "espnormrest-probe-closed",
    }


def test_suite_seeds_are_fixed_and_distinct():
    exps = cli.default_suite()
    seeds = [e.seed for e in exps]
    assert len(set(seeds)) == len(seeds)
    again = cli.default_suite()
    assert [e.seed for e in again] == seeds
