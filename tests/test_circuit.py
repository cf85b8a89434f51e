import math

import numpy as np
import pytest

from dickelab import (
    CircuitParams,
    ConfigError,
    ValidationError,
    derive_model_params,
    flux_radians_from_weber,
    parse_device_text,
    validate_regime,
)
from dickelab.circuit import FLUX_QUANTUM, HBAR

HALF_PI = math.pi / 2


def make_circuit(**overrides) -> CircuitParams:
    base = dict(
        E_c=2 * math.pi * 5e9,
        E_J=2 * math.pi * 1e9,
        n_g=0.5,
        Phi_x=HALF_PI,
        Phi_e=HALF_PI,
        L=10e-9,
        I_c=3.64e-9,
        omega=2 * math.pi * 6e9,
        g=2 * math.pi * 5.8e6,
        N=3,
    )
    base.update(overrides)
    return CircuitParams(**base)


def test_epsilon_zero_at_optimal_point():
    _, derived = derive_model_params(make_circuit(n_g=0.5))
    assert derived.epsilon == 0.0


def test_epsilon_linear_with_root_at_half():
    eps = {}
    for n_g in (0.4, 0.45, 0.55, 0.6):
        _, derived = derive_model_params(make_circuit(n_g=n_g))
        eps[n_g] = derived.epsilon
    E_c = make_circuit().E_c
    for n_g, value in eps.items():
        assert value == pytest.approx(2 * E_c * (2 * n_g - 1), rel=1e-14)
    assert eps[0.4] < 0 < eps[0.6]
    assert eps[0.4] == pytest.approx(-eps[0.6], rel=1e-12)


def test_eta_vanishes_when_local_flux_kills_tunneling():
    rng = np.random.default_rng(3)
    E_J = make_circuit().E_J
    for phi_e in rng.uniform(0, 2 * math.pi, size=20):
        _, derived = derive_model_params(make_circuit(Phi_x=HALF_PI, Phi_e=float(phi_e)))
        # cos(pi/2) is ~6e-17 in floats, so eta only vanishes to that scale
        assert abs(derived.eta) < 1e-15 * E_J


def test_eta_formula_away_from_node():
    c = make_circuit(Phi_x=0.3, Phi_e=1.1)
    _, derived = derive_model_params(c)
    kappa = math.pi * c.L * c.I_c / FLUX_QUANTUM
    expected = -c.E_J * math.cos(0.3) * math.cos(1.1) * (1 - 2 * kappa**2 * math.sin(1.1) ** 2)
    assert derived.eta == pytest.approx(expected, rel=1e-14)
    assert derived.kappa == pytest.approx(kappa, rel=1e-14)


def test_interaction_strength_si_arithmetic():
    # L = 10 nH, I_c = 3.64 nA, sin(Phi_e) = 1: v = L I_c^2 / (2 hbar)
    model, _ = derive_model_params(make_circuit())
    expected = 10e-9 * (3.64e-9) ** 2 / (2 * HBAR)
    assert model.v == pytest.approx(expected, rel=1e-14)
    # lands at the 2 pi x 100 MHz scale
    assert model.v / (2 * math.pi) == pytest.approx(1e8, rel=0.01)


def test_interaction_invariant_under_flux_mirror():
    for phi_e in (0.3, 1.0, 2.2):
        v1 = derive_model_params(make_circuit(Phi_e=phi_e))[0].v
        v2 = derive_model_params(make_circuit(Phi_e=math.pi - phi_e))[0].v
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_u_from_typical_operating_values():
    # omega = 2 pi x 6 GHz, g = 2 pi x 5.8 MHz: u / 2 pi ~= 5.607e-3 MHz
    model, _ = derive_model_params(make_circuit())
    direct = model.g**2 / model.omega
    assert model.u == pytest.approx(direct, rel=1e-6)
    assert model.u / (2 * math.pi) / 1e6 == pytest.approx(5.6067e-3, rel=1e-3)


def test_regime_report_typical_point():
    model, derived = derive_model_params(make_circuit())
    report = validate_regime(model, derived)
    assert report.u_lt_v and report.optimal_point and report.eta_zero
    assert report.messages == ()
    # u < v holds under the linear-frequency reading of v as well
    assert model.u < model.v / (2 * math.pi)


def test_regime_boundary_u_equals_v():
    model, derived = derive_model_params(make_circuit())
    boundary = type(model)(N=model.N, omega=model.omega, g=math.sqrt(model.v * model.omega), v=model.v)
    report = validate_regime(boundary, derived)
    assert not report.u_lt_v


def test_regime_names_offending_condition():
    model, derived = derive_model_params(make_circuit(n_g=0.6))
    report = validate_regime(model, derived)
    assert not report.optimal_point
    assert any("optimal point" in msg and "n_g" in msg for msg in report.messages)


def test_flux_conversion_from_weber():
    assert flux_radians_from_weber(FLUX_QUANTUM) == pytest.approx(2 * math.pi, rel=1e-15)


DEVICE_TEXT = """
# device parameters
units = angular
E_c = 3.0e10
E_J = 5.0e9
n_g = 0.5
Phi_x = 1.5707963267948966
Phi_e = 1.5707963267948966
L = 1.0e-8
I_c = 3.64e-9
omega = 3.7699111843077517e10
g = 3.6442474781615398e7
N = 3
"""


def test_device_file_round_trip():
    c = parse_device_text(DEVICE_TEXT)
    assert c.N == 3
    assert c.L == pytest.approx(1e-8)
    model, derived = derive_model_params(c)
    assert validate_regime(model, derived).u_lt_v


def test_device_file_linear_units():
    linear = DEVICE_TEXT.replace("units = angular", "units = linear")
    c_lin = parse_device_text(linear)
    c_ang = parse_device_text(DEVICE_TEXT)
    assert c_lin.omega == pytest.approx(2 * math.pi * c_ang.omega, rel=1e-14)
    assert c_lin.L == c_ang.L  # SI values untouched


def test_device_file_unknown_key_names_line():
    bad = DEVICE_TEXT + "foo = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_device_text(bad)
    assert "foo" in str(err.value)
    assert err.value.line == len(DEVICE_TEXT.splitlines()) + 1


def test_device_file_missing_keys():
    with pytest.raises(ConfigError) as err:
        parse_device_text("E_c = 1.0\n")
    assert "missing" in str(err.value)


def test_device_file_malformed_number():
    bad = DEVICE_TEXT.replace("L = 1.0e-8", "L = ten")
    with pytest.raises(ConfigError) as err:
        parse_device_text(bad)
    assert "L" in str(err.value)
    # so is a value that is not finite, integer N included, and an N that is not an integer
    for key, value in [("N", "inf"), ("N", "nan"), ("E_c", "nan"), ("L", "nan"), ("g", "-inf"), ("I_c", "1e400"),
                       ("N", "3.5")]:
        old = next(line for line in DEVICE_TEXT.splitlines() if line.startswith(f"{key} ="))
        bad = DEVICE_TEXT.replace(old, f"{key} = {value}")
        with pytest.raises(ConfigError) as err:
            parse_device_text(bad)
        assert f"malformed number for {key!r}" in str(err.value)
        assert err.value.line == bad.splitlines().index(f"{key} = {value}") + 1


def test_device_file_section_header_names_line():
    bad = DEVICE_TEXT + "[device]\n"
    with pytest.raises(ConfigError) as err:
        parse_device_text(bad)
    assert "[device]" in str(err.value)
    assert err.value.line == len(DEVICE_TEXT.splitlines()) + 1


def test_device_file_duplicate_key():
    with pytest.raises(ConfigError):
        parse_device_text(DEVICE_TEXT + "N = 4\n")


def test_circuit_params_validation():
    with pytest.raises(ValidationError):
        make_circuit(L=0.0)
    with pytest.raises(ValidationError):
        make_circuit(I_c=-1e-9)
    with pytest.raises(ValidationError):
        make_circuit(n_g=1.2)
    with pytest.raises(ValidationError):
        make_circuit(N=0)
