import pytest

from tensorwave.verify import (
    _SUITES,
    invariants_suite,
    maxwell_suite,
    ortho_suite,
    run_suite,
)

EXPECTED_CHECK_KEYS = {"check", "max_error", "tolerance", "pass"}


def assert_clean_report(report):
    assert len(report) > 0
    for entry in report:
        assert set(entry) == EXPECTED_CHECK_KEYS
        assert entry["max_error"] <= entry["tolerance"]
        assert entry["pass"] is True


def test_ortho_suite_passes_at_small_lmax():
    report = ortho_suite(lmax=2)
    assert_clean_report(report)
    names = {entry["check"] for entry in report}
    assert "f_gram_identity" in names
    assert "quadrature_convergence" in names


def test_invariants_suite_passes_at_small_lmax():
    report = invariants_suite(lmax=2)
    assert_clean_report(report)
    names = {entry["check"] for entry in report}
    assert {"trace_identity", "det_identity", "l_squared_eigenrelation"} <= names


def test_invariants_suite_builds_one_harmonic_row_per_degree_and_check(
    monkeypatch,
):
    # the four eigenrelation checks and flm_explicit take a whole degree:
    # 5 rows a degree, not 5 a mode
    from tensorwave import harmonics

    calls = []
    exact = harmonics.ylm
    monkeypatch.setattr(harmonics, "ylm", lambda l, *a: calls.append(l) or exact(l, *a))
    assert_clean_report(invariants_suite(lmax=4))
    assert sorted(calls) == [l for l in range(5) for _ in range(5)]


def test_invariants_suite_runs_one_recurrence_per_row_and_one_for_all_modes(
    monkeypatch,
):
    # 5 (lmax + 1) harmonic rows and one table of every mode l <= lmax for
    # the tensor identities, where each mode once ran three of its own
    from tensorwave import specfun

    calls = []
    exact = specfun._norm_legendre
    monkeypatch.setattr(specfun, "_norm_legendre",
                        lambda *a: calls.append(a[:3]) or exact(*a))
    assert_clean_report(invariants_suite(lmax=4))
    assert len(calls) == 5 * (4 + 1) + 1


def test_maxwell_suite_passes():
    report = maxwell_suite(lmax=2)
    assert_clean_report(report)
    names = {entry["check"] for entry in report}
    assert names == {
        "curl_equations",
        "wtheta_ode_residual",
        "propagate_vs_closed_form",
    }


def test_run_suite_dispatch_and_overrides():
    lmax, report = run_suite("ortho", lmax=1)
    assert lmax == 1
    assert_clean_report(report)
    # an absurdly tight tolerance flips checks to failing without raising
    _, strict = run_suite("invariants", lmax=1, tol=1e-30)
    assert any(entry["pass"] is False for entry in strict)
    by_name = {entry["check"]: entry for entry in strict}
    assert by_name["trace_identity"]["tolerance"] == 1e-30
    assert by_name["trace_identity"]["pass"] is False


def test_run_suite_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")
    with pytest.raises(ValueError, match="lmax"):
        run_suite("ortho", lmax=0)
    with pytest.raises(ValueError, match="positive"):
        run_suite("ortho", tol=-1.0)
    with pytest.raises(ValueError, match="positive"):
        run_suite("ortho", tol=float("inf"))


@pytest.mark.parametrize("name", sorted(_SUITES))
def test_every_suite_passes_at_its_cap(name):
    # maxwell's difference steps once stayed fixed while the fields vary on
    # the scale r / l: wtheta_ode_residual failed from lmax 12 on and
    # curl_equations from lmax 20
    cap = _SUITES[name][1]
    lmax, report = run_suite(name, lmax=cap)
    assert lmax == cap
    assert_clean_report(report)
