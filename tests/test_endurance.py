import math

import pytest

from conftest import golden_section_argmax
from flybat.endurance import (
    OPTIMAL_PHI,
    EnduranceError,
    EnduranceInputs,
    design_comparison,
    flight_time,
    normalized_curve,
    normalized_flight_time,
    shape_factor,
)

# the reference vehicle: 190 g battery on an 820 g vehicle
PHI_REF = 190.0 / 820.0
M0_REF = 0.63
GAMMA_REF = 24.42 / 0.190  # Wh/kg of the 3S 2.2 Ah pack
KP_REF = 122.1 / 0.82**1.5


def test_flight_time_zero_battery():
    r = flight_time(EnduranceInputs(m0=0.63, phi=0.0, gamma=128.0, k_p=160.0))
    assert r.flight_time == 0.0
    assert r.battery_mass == 0.0


def test_flight_time_optimal_design_masses():
    r = flight_time(EnduranceInputs(m0=0.63, phi=2.0 / 3.0, gamma=128.0, k_p=160.0))
    assert r.battery_mass == pytest.approx(1.26, abs=1e-12)
    assert r.total_mass == pytest.approx(1.89, abs=1e-12)
    assert r.normalized_time == pytest.approx(1.0, abs=1e-12)


def test_flight_time_calibration_closure():
    # gamma and k_p taken from the pack spec and the 12 min solo hover
    r = flight_time(EnduranceInputs(m0=M0_REF, phi=PHI_REF, gamma=GAMMA_REF, k_p=KP_REF))
    assert r.total_mass == pytest.approx(0.820, abs=1e-12)
    assert r.battery_mass == pytest.approx(0.190, abs=1e-12)
    assert r.flight_time == pytest.approx(720.0, rel=0.01)


def test_flight_time_rejects_bad_phi():
    with pytest.raises(EnduranceError):
        EnduranceInputs(m0=0.63, phi=1.0, gamma=128.0, k_p=160.0)
    with pytest.raises(EnduranceError):
        EnduranceInputs(m0=0.63, phi=-0.1, gamma=128.0, k_p=160.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["m0", "phi", "gamma", "k_p"])
def test_inputs_reject_non_finite(field, bad):
    good = dict(m0=M0_REF, phi=PHI_REF, gamma=GAMMA_REF, k_p=KP_REF)
    with pytest.raises(EnduranceError, match=field):
        EnduranceInputs(**{**good, field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_design_comparison_rejects_bad_observed_time(bad):
    solo = EnduranceInputs(m0=M0_REF, phi=PHI_REF, gamma=GAMMA_REF, k_p=KP_REF)
    with pytest.raises(EnduranceError, match="observed time"):
        design_comparison(solo, bad)


def test_normalized_curve_values():
    assert normalized_flight_time(2.0 / 3.0) == pytest.approx(1.0, abs=1e-15)
    assert normalized_flight_time(0.0) == 0.0
    # direct evaluation of phi*sqrt(1-phi) normalized by the optimum
    oracle = (PHI_REF * math.sqrt(1.0 - PHI_REF)) / ((2.0 / 3.0) * math.sqrt(1.0 / 3.0))
    assert oracle == pytest.approx(0.5277, abs=1e-3)
    assert normalized_flight_time(PHI_REF) == pytest.approx(oracle, rel=1e-12)


def test_normalized_curve_grid():
    curve = normalized_curve()
    assert len(curve) == 512
    phis = [p for p, _ in curve]
    assert phis[0] == 0.0 and phis[-1] == pytest.approx(0.999)
    values = [v for _, v in curve]
    assert max(values) <= 1.0 + 1e-12
    best_phi = phis[values.index(max(values))]
    assert best_phi == pytest.approx(2.0 / 3.0, abs=0.002)


def test_optimal_phi_analytic_and_numeric():
    assert OPTIMAL_PHI == pytest.approx(2.0 / 3.0, abs=1e-9)
    numeric = golden_section_argmax(shape_factor, 0.0, 0.999999, tol=1e-12)
    assert numeric == pytest.approx(2.0 / 3.0, abs=1e-6)
    # stationarity by central finite difference
    h = 1e-7
    deriv = (shape_factor(2.0 / 3.0 + h) - shape_factor(2.0 / 3.0 - h)) / (2 * h)
    assert abs(deriv) < 1e-6


def test_shape_factor_unimodal():
    grid = [i / 2000.0 for i in range(2000)]
    vals = [shape_factor(p) for p in grid]
    peak = min(range(len(grid)), key=lambda i: abs(grid[i] - 2.0 / 3.0))
    for i in range(peak):
        assert vals[i] < vals[i + 1] + 1e-15
    for i in range(peak, len(vals) - 1):
        assert vals[i] > vals[i + 1] - 1e-15


def test_normalized_curve_independent_of_scale(rng):
    # the normalized curve is a pure function of phi: rescaling gamma,
    # k_p, and m0 must reproduce it bit for bit
    grid = [i / 97.0 * 0.99 for i in range(98)]
    base = [flight_time(EnduranceInputs(0.63, p, 128.0, 160.0)).normalized_time for p in grid]
    for _ in range(10):
        g = float(rng.uniform(0.1, 10.0))
        k = float(rng.uniform(0.1, 10.0))
        m = float(rng.uniform(0.1, 10.0))
        scaled = [
            flight_time(EnduranceInputs(0.63 * m, p, 128.0 * g, 160.0 * k)).normalized_time
            for p in grid
        ]
        assert scaled == base


def test_flight_time_scales_inverse_sqrt_m0(rng):
    for _ in range(50):
        m0a = float(rng.uniform(0.1, 5.0))
        m0b = float(rng.uniform(0.1, 5.0))
        phi = float(rng.uniform(0.05, 0.9))
        ta = flight_time(EnduranceInputs(m0a, phi, 128.0, 160.0)).flight_time
        tb = flight_time(EnduranceInputs(m0b, phi, 128.0, 160.0)).flight_time
        assert ta / tb == pytest.approx(math.sqrt(m0b / m0a), rel=1e-9)


def test_design_comparison_reference_configuration():
    solo = EnduranceInputs(m0=M0_REF, phi=PHI_REF, gamma=GAMMA_REF, k_p=KP_REF)
    cmp = design_comparison(solo, 720.0)
    # ratio oracle through the normalized curve
    expected = 720.0 / normalized_flight_time(PHI_REF)
    assert cmp.optimal_time == pytest.approx(expected, rel=1e-12)
    assert cmp.optimal_time == pytest.approx(1364.6, abs=1.0)
    assert cmp.optimal_battery_mass == pytest.approx(1.26, abs=1e-9)
    assert cmp.optimal_total_mass == pytest.approx(1.89, abs=1e-9)


def test_design_comparison_linearity_and_fixed_point():
    solo = EnduranceInputs(m0=M0_REF, phi=PHI_REF, gamma=GAMMA_REF, k_p=KP_REF)
    one = design_comparison(solo, 500.0)
    two = design_comparison(solo, 1000.0)
    assert two.optimal_time == pytest.approx(2.0 * one.optimal_time, rel=1e-12)

    at_opt = EnduranceInputs(m0=M0_REF, phi=2.0 / 3.0, gamma=GAMMA_REF, k_p=KP_REF)
    fixed = design_comparison(at_opt, 900.0)
    assert fixed.optimal_time == pytest.approx(900.0, rel=1e-12)
