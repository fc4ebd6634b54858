"""Acceptance gate: every numbered criterion, exact arithmetic, one pass/fail
line per criterion (run with ``pytest -v -s`` to see the lines).

These call the same check functions the ``verify`` CLI subcommand runs, so a
green suite here is exactly a clean ``hurwitzlab verify --suite all``.  All
tolerances are exact rational equality; nothing is deferred to calibration.
Observed runtimes are a few seconds per criterion, well under the stated
ceilings (2 minutes for the engine-agreement sweep, 5 minutes for the
round-trip sweep).
"""

import pytest

from hurwitzlab import verify


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance-cache"))


def _criterion(number, name, results):
    passed = all(r.passed for r in results)
    print(f"criterion {number:>2} [{'PASS' if passed else 'FAIL'}] {name}")
    if not passed:
        for r in results:
            if not r.passed:
                print(f"    {r.line()}")
    assert passed, f"criterion {number} failed: " + "; ".join(
        r.line() for r in results if not r.passed
    )


def test_criterion_01_engine_agreement(cache_dir):
    """Three-way exact agreement (direct count / convolution+transform /
    character-sum+transform) for every |mu| <= 5 and admissible r <= 6."""
    results = verify.engine_agreement_checks(cache_dir=cache_dir)
    assert len(results) >= 18  # every partition of size 1..5 is covered
    _criterion(1, "engine agreement, |mu| <= 5, r <= 6", results)


def test_criterion_02_disconnected_agreement(cache_dir):
    """Convolution equals character sum for all |mu| <= 6, r <= 10, plus the
    two hand-countable anchors 1/2 and 81."""
    results = verify.disconnected_agreement_checks(cache_dir=cache_dir)
    assert len(results) == 29 + 2  # every partition of size 1..6, plus anchors
    _criterion(2, "disconnected agreement, |mu| <= 6, r <= 10", results)


def test_criterion_03_seed_reproduction(cache_dir):
    """The three-marked-point sphere inversion returns exactly the seed 1."""
    _criterion(3, "seed reproduction at (0,3)", verify.seed_checks(cache_dir=cache_dir))


def test_criterion_04_genus_one_forcing(cache_dir):
    """H(1,(1)) = 0 and H(1,(2)) = 1/2 force both genus-one brackets to 1/24,
    and the forward evaluation then reproduces the character-engine values at
    (1,(3)) and (1,(2,1)) exactly."""
    _criterion(4, "genus-one forcing", verify.genus_one_checks(cache_dir=cache_dir))


def test_criterion_05_round_trip(cache_dir):
    """For each inverted (g,h) pair the forward evaluation matches the engine
    on 5 fresh profiles that took no part in the interpolation."""
    results = verify.round_trip_checks(cache_dir=cache_dir)
    assert len(results) == len(verify.ROUND_TRIP_PAIRS)
    _criterion(5, "forward/backward round trip on fresh profiles", results)


def test_criterion_06_grading_convention(cache_dir):
    """The character-sum series in its textbook exponential form does NOT carry the
    Euler-characteristic grading: the degree-one probe shows the lambda^(-d)
    shift, and matching coefficients takes an explicit r!.  The artifact
    verifies the coefficient-level identity instead (see criterion 2); this
    check documents the discrepancy."""
    _criterion(
        6, "grading-convention probe (coefficient-level substitute)",
        verify.grading_convention_checks(cache_dir=cache_dir),
    )


def test_criterion_07_grr_identities(cache_dir):
    """Fixed-point character identities for all (k,a) in [-5,5]x[-3,3] at
    degree 1 and for all degrees d <= 4, plus the known weight lists."""
    results = verify.grr_grid_checks(cache_dir=cache_dir)
    _criterion(7, "pushforward character identities", results)


def test_criterion_08_point_class_integration(cache_dir):
    """The equivariant point class integrates to exactly 1 for all r <= 8."""
    _criterion(
        8, "point-class integration", verify.point_class_checks(cache_dir=cache_dir)
    )


def test_criterion_09_localization_rederivation(cache_dir):
    """The symbolic localization chain equals the direct table evaluation on
    every profile of the round-trip grid, the selected top-degree expression
    is constant in the equivariant parameter, and substituting any nonzero
    rational for it beforehand gives the same answer."""
    results = verify.localization_rederivation_checks(cache_dir=cache_dir)
    assert len(results) == len(verify.ROUND_TRIP_PAIRS)
    _criterion(9, "localization re-derivation", results)


def test_criterion_10_string_equation(cache_dir):
    """Every applicable string-equation identity holds exactly on the
    inverted tables through (1,2) and (0,5)."""
    _criterion(
        10, "string equation suite", verify.string_equation_checks(cache_dir=cache_dir)
    )
