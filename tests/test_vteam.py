"""Unit tests for the VTEAM device model (repro.device.vteam)."""

from __future__ import annotations

import pytest

from repro.device.vteam import VTEAMModel, VTEAMParameters, default_parameters
from repro.errors import ConfigurationError, DeviceError
from repro.units import NS


class TestParameters:
    def test_paper_resistances(self):
        params = default_parameters()
        assert params.r_on == pytest.approx(10e3)
        assert params.r_off == pytest.approx(10e6)

    def test_validate_default_ok(self):
        default_parameters().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_on": -1},
            {"r_off": 0},
            {"r_on": 1e8, "r_off": 1e6},
            {"v_on": -0.1},
            {"v_off": 0.1},
            {"k_on": -1.0},
            {"k_off": 1.0},
            {"alpha_on": -1},
            {"window": "unknown"},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            VTEAMParameters(**kwargs).validate()


class TestStaticCharacteristics:
    def test_resistance_endpoints(self, vteam):
        assert vteam.resistance(1.0) == pytest.approx(10e3)
        assert vteam.resistance(0.0) == pytest.approx(10e6)

    def test_resistance_monotone_decreasing_in_state(self, vteam):
        resistances = [vteam.resistance(s / 10) for s in range(11)]
        assert resistances == sorted(resistances, reverse=True)

    def test_current_is_ohmic(self, vteam):
        assert vteam.current(1.0, 1.0) == pytest.approx(1.0 / 10e3)

    def test_state_out_of_range_rejected(self, vteam):
        with pytest.raises(DeviceError):
            vteam.resistance(1.5)
        with pytest.raises(DeviceError):
            vteam.resistance(-0.1)


class TestDynamics:
    def test_no_motion_inside_threshold_window(self, vteam):
        for v in (-0.5, 0.0, 0.3, 0.69):
            assert vteam.derivative(0.5, v) == 0.0

    def test_positive_voltage_drives_on(self, vteam):
        assert vteam.derivative(0.5, 1.0) > 0

    def test_negative_voltage_drives_off(self, vteam):
        assert vteam.derivative(0.5, -1.0) < 0

    def test_rectangular_window_blocks_at_rails(self, vteam):
        assert vteam.derivative(1.0, 1.0) == 0.0
        assert vteam.derivative(0.0, -1.0) == 0.0

    def test_joglekar_window_smooth(self):
        model = VTEAMModel(VTEAMParameters(window="joglekar"))
        mid = model.derivative(0.5, 1.0)
        near_rail = model.derivative(0.95, 1.0)
        assert 0 < near_rail < mid

    def test_step_clamps_state(self, vteam):
        assert vteam.step(0.99, 2.0, 1e-6) == 1.0
        assert vteam.step(0.01, -2.0, 1e-6) == 0.0

    def test_step_rejects_negative_dt(self, vteam):
        with pytest.raises(DeviceError):
            vteam.step(0.5, 1.0, -1e-9)

    def test_nonlinearity_in_voltage(self, vteam):
        # alpha = 3: doubling the threshold excess should much more than
        # double the switching rate.
        slow = vteam.derivative(0.5, 0.8)
        fast = vteam.derivative(0.5, 0.9)
        assert fast > 2 * slow



class TestPulseSimulation:
    """The calibration claim: a full SET or RESET fits in one 1.1 ns cycle
    (with the rectangular window ``ds/dt`` is constant between the bounds)."""

    def test_full_set_within_one_cycle(self, vteam):
        assert 1.0 / vteam.derivative(0.5, 1.4) < 1.1 * NS

    def test_full_reset_within_one_cycle(self, vteam):
        assert 1.0 / -vteam.derivative(0.5, -1.4) < 1.1 * NS
