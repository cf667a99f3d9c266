import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.rotor import RotationalConstants
from ctlsim.scenario import (
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    ScenarioError,
    bundled_scenario_path,
    scenario_from_mapping,
)
from ctlsim.thermal import K_PER_GHZ, Temperatures
from ctlsim.transfer import (
    CtlsConfig,
    default_sweep_grid,
    enantiomeric_excess,
    excess_sweep,
    final_states,
    make_level,
    population_sweep,
    yield_sweep,
)

from .conftest import OH_STRETCH, PROPANEDIOL, paper_grid

EPS_10K = 0.029170639714099413  # direct arithmetic at 10 K, tau labeling


def triple(p1, p2, p3) -> np.ndarray:
    return np.array([p1, p2, p3])


def triples_strategy():
    weights = st.tuples(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    return weights.map(lambda w: np.array([x / sum(w) for x in w]))


class TestLevelLabeling:
    def test_tau_reading(self):
        # |1_01| digits read as (tau, M) = (0, 1): second level of the J=1 block
        level = make_level(PROPANEDIOL, (), 0, 1, 0, 1, "tau").rot
        assert level.tau == 0
        assert level.energy_ghz == pytest.approx(11.3131, abs=1e-9)  # A + C

    def test_ka_kc_reading(self):
        # same digits read as (K_a, K_c) = (0, 1): tau = -1, the B + C level
        level = make_level(PROPANEDIOL, (), 0, 1, 0, 1, "ka_kc").rot
        assert level.tau == -1
        assert level.energy_ghz == pytest.approx(6.4241, abs=1e-9)

    def test_highest_level_same_in_both(self):
        # |1_10|: tau reading gives tau=1, ka_kc reading gives tau = 1 - 0 = 1
        for labeling in ("tau", "ka_kc"):
            level = make_level(PROPANEDIOL, (), 0, 1, 1, 0, labeling).rot
            assert level.energy_ghz == pytest.approx(12.1598, abs=1e-9)  # A + B

    def test_invalid_ka_kc_rejected(self):
        # K_a + K_c must equal J or J + 1
        with pytest.raises(ValueError):
            make_level(PROPANEDIOL, (), 0, 1, 0, 0, "ka_kc")

    def test_ka_kc_middle_level(self):
        level = make_level(PROPANEDIOL, (), 0, 1, 1, 1, "ka_kc").rot
        assert level.tau == 0
        assert level.energy_ghz == pytest.approx(11.3131, abs=1e-9)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            make_level(PROPANEDIOL, (), 0, 1, 0, 2, "tau")

    @pytest.mark.parametrize("j, tau", [(1, -3), (1, 2), (10**7, 10**8)])
    def test_tau_out_of_range_rejected_before_lookup(self, j, tau):
        # tau = -3 would wrap to a valid negative index, and J = 10**7 would
        # need a petabyte block if the labels were checked after the lookup
        with pytest.raises(ValueError, match=rf"tau must lie in \[-J, J\], got tau={tau} for J={j}"):
            make_level(PROPANEDIOL, (), 0, j, tau, 0, "tau")

    @pytest.mark.parametrize("labeling", ["tau", "ka_kc"])
    def test_negative_j_named_before_the_digits(self, labeling):
        # read as digits first, J = -1 would fail on M or on (K_a, K_c)
        with pytest.raises(ValueError, match=r"^J must be non-negative, got -1$"):
            make_level(PROPANEDIOL, (), 0, -1, 0, 0, labeling)

    def test_unknown_labeling_rejected(self):
        with pytest.raises(ValueError):
            make_level(PROPANEDIOL, (), 0, 1, 0, 0, "other")

    def test_excited_level_requires_mode(self):
        with pytest.raises(ValueError):
            make_level(PROPANEDIOL, (), 1, 1, 0, 1, "tau")

    def test_quantum_above_max_quanta_rejected(self):
        assert make_level(PROPANEDIOL, (OH_STRETCH,), 5, 1, 0, 1, "tau").vib_quantum == 5
        with pytest.raises(
            ValueError, match="^vib quantum 6 exceeds max_quanta 5 of mode 'OH-stretch'$"
        ):
            make_level(PROPANEDIOL, (OH_STRETCH,), 6, 1, 0, 1, "tau")


def bundled_loop(mode, quanta):
    """The bundled scenario with ``mode`` and its levels' vib quanta set to
    ``quanta``, as a raw mapping."""
    data = yaml.safe_load(bundled_scenario_path().read_text(encoding="utf-8"))
    data["ctls"]["mode"] = mode
    for level, vib in zip(data["ctls"]["levels"], quanta):
        level["vib"] = vib
    return data


def assert_loop_rejected(data, message):
    with pytest.raises(ScenarioError) as err:
        scenario_from_mapping(data)
    assert err.value.field == "ctls.levels"
    assert str(err.value) == f"ctls.levels: {message}"


class TestCtlsConfig:
    # the loop's kind is the scenario's: its quanta rule is checked there
    def test_rovib_pattern_enforced(self):
        message = "ro_vibrational loop needs vib quanta (0, >0, >0), got (0, 0, 1)"
        assert_loop_rejected(bundled_loop(RO_VIBRATIONAL, (0, 0, 1)), message)

    @pytest.mark.parametrize("quanta", [(0, 0, 1), (0, 1, 0), (1, 1, 1)])
    def test_rovib_quanta_rule_names_the_quanta(self, quanta):
        # the ground level unexcited and both others excited, whatever the labels
        message = f"ro_vibrational loop needs vib quanta (0, >0, >0), got {quanta}"
        assert_loop_rejected(bundled_loop(RO_VIBRATIONAL, quanta), message)

    def test_purely_rotational_pattern_enforced(self):
        message = "purely_rotational loop needs vib quanta (0, 0, 0), got (0, 1, 1)"
        assert_loop_rejected(bundled_loop(PURELY_ROTATIONAL, (0, 1, 1)), message)

    @pytest.mark.parametrize("quanta", [(0, 0, 1), (1, 0, 2), (2, 1, 0)])
    def test_any_three_distinct_levels_build(self, quanta):
        # neither loop kind: the config and its sweeps take them as they are
        modes = (OH_STRETCH,)
        labels = ((0, 0, 0), (1, 0, 1), (1, 1, 0))
        levels = tuple(
            make_level(PROPANEDIOL, modes, v, *l, "tau") for v, l in zip(quanta, labels)
        )
        config = CtlsConfig(PROPANEDIOL, modes, levels)
        assert [lv.vib_quantum for lv in config.levels] == list(quanta)
        grid = [1.0, 10.0, 300.0]
        assert np.isfinite(excess_sweep(config, grid, 300.0)).all()
        assert population_sweep(config, grid, 300.0).sum(axis=1) == pytest.approx(1.0)
        assert yield_sweep(config, grid, 300.0).shape == (3, 4)

    def test_valid_configs_build(self, rovib_config, rotational_config):
        assert rovib_config.levels[0].vib_quantum == 0
        assert rovib_config.levels[1].vib_quantum == 1
        assert rotational_config.levels[2].vib_quantum == 0
        # vibrational ladder energy is quantum * mode frequency
        assert rovib_config.levels[1].vib_energy_thz == pytest.approx(100.95)
        level = rovib_config.levels[1]
        assert level.vib_energy_ghz + level.rot.energy_ghz == pytest.approx(
            100950.0 + 11.3131, abs=1e-6
        )


class TestFinalStates:
    def test_ground_state_transfer(self):
        rho_left, rho_right = final_states(triple(1.0, 0.0, 0.0))
        assert np.diag(rho_left).real == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
        assert np.diag(rho_right).real == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)

    def test_maximally_mixed_fixed_point(self):
        rho_left, rho_right = final_states(triple(1 / 3, 1 / 3, 1 / 3))
        assert np.diag(rho_left).real == pytest.approx([1 / 3] * 3, abs=1e-14)
        assert np.diag(rho_right).real == pytest.approx([1 / 3] * 3, abs=1e-14)

    def test_thermal_triple_permutations(self):
        p = triple(0.346, 0.328, 0.326)
        rho_left, rho_right = final_states(p)
        assert np.diag(rho_left).real == pytest.approx([0.346, 0.326, 0.328], abs=1e-14)
        assert np.diag(rho_right).real == pytest.approx([0.328, 0.346, 0.326], abs=1e-14)

    def test_numeric_matches_analytic_for_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = rng.uniform(1e-3, 1.0, size=3)
            p = w / w.sum()
            analytic_left, analytic_right = final_states(p, method="analytic")
            numeric_left, numeric_right = final_states(p, method="numeric")
            assert np.abs(numeric_left - analytic_left).max() < 1e-8
            assert np.abs(numeric_right - analytic_right).max() < 1e-8

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            final_states(triple(1.0, 0.0, 0.0), method="magic")

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            final_states(triple(0.5, 0.4, 0.2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            final_states(triple(1.2, -0.1, -0.1))

    def test_rejects_wrong_shape(self):
        # the (1, 3) grid that loop_populations returns for one temperature
        with pytest.raises(ValueError, match=r"shape \(3,\), got \(1, 3\)"):
            final_states(np.array([[1.0, 0.0, 0.0]]))


class TestEnantiomericExcess:
    def test_balanced_is_zero(self):
        assert enantiomeric_excess(triple(0.4, 0.2, 0.4)) == 0.0

    def test_perfect_transfer(self):
        assert enantiomeric_excess(triple(1.0, 0.0, 0.0)) == 1.0
        assert enantiomeric_excess(triple(0.0, 0.4, 0.6)) == 1.0

    def test_propanediol_10k(self, rotational_config):
        p = rotational_config.populations(Temperatures(10.0, 300.0))
        assert enantiomeric_excess(p) == pytest.approx(EPS_10K, abs=1e-12)

    def test_undefined_for_empty_pair(self):
        with pytest.raises(ValueError):
            enantiomeric_excess(triple(0.0, 1.0, 0.0))

    @given(triples_strategy())
    @settings(deadline=None, max_examples=60)
    def test_matches_final_occupation_definition(self, populations):
        # |rho_L_22 - rho_R_22| / (rho_L_22 + rho_R_22) equals the direct form
        rho_left, rho_right = final_states(populations)
        left_2 = np.diag(rho_left).real[1]
        right_2 = np.diag(rho_right).real[1]
        from_final = abs(left_2 - right_2) / (left_2 + right_2)
        assert from_final == pytest.approx(
            enantiomeric_excess(populations), abs=1e-12
        )
        # and the ratio form |1 - 2/(1 + p1/p3)|
        from_ratio = abs(1.0 - 2.0 / (1.0 + populations[0] / populations[2]))
        assert from_ratio == pytest.approx(enantiomeric_excess(populations), abs=1e-9)

    def test_invariance_under_energy_shift_and_rescaling(self, rotational_config):
        # shifting all level energies or scaling (energies, temperatures)
        # together leaves the Boltzmann exponents, hence the excess, unchanged
        base = enantiomeric_excess(
            rotational_config.populations(Temperatures(10.0, 300.0))
        )
        scaled = RotationalConstants(
            A=2 * PROPANEDIOL.A, B=2 * PROPANEDIOL.B, C=2 * PROPANEDIOL.C
        )
        scaled_config = CtlsConfig(
            constants=scaled,
            modes=(OH_STRETCH,),
            levels=tuple(
                make_level(scaled, (OH_STRETCH,), 0, lv.rot.j, lv.rot.tau, 0, "tau")
                for lv in rotational_config.levels
            ),
        )
        rescaled = enantiomeric_excess(
            scaled_config.populations(Temperatures(20.0, 300.0))
        )
        assert rescaled == pytest.approx(base, rel=1e-12)


class TestSweeps:
    def test_rovib_excess_stays_near_one(self, rovib_config):
        grid = np.array([0.001, 0.1, 1.0, 10.0, 100.0, 300.0])
        eps = excess_sweep(rovib_config, grid, 300.0)
        assert np.all(eps > 0.9999)

    def test_rotational_excess_low_temperature_limit(self, rotational_config):
        eps = excess_sweep(rotational_config, [0.001], 300.0)
        assert eps[0] > 0.999

    def test_rotational_excess_monotone(self, rotational_config):
        grid = paper_grid()
        eps = excess_sweep(rotational_config, grid, 300.0)
        above = grid >= 0.01
        assert np.all(np.diff(eps[above]) <= 0.0)
        well_resolved = grid >= 0.1
        assert np.all(np.diff(eps[well_resolved]) < 0.0)

    def test_rovib_dominates_rotational(self, rovib_config, rotational_config):
        grid = paper_grid(points=40)
        eps_rovib = excess_sweep(rovib_config, grid, 300.0)
        eps_rot = excess_sweep(rotational_config, grid, 300.0)
        assert np.all(eps_rovib >= eps_rot - 1e-15)

    def test_population_sweep_rovib_ground_dominates(self, rovib_config):
        grid = paper_grid(points=30)
        table = population_sweep(rovib_config, grid, 300.0)
        assert table.shape == (30, 3)
        assert np.all(table[:, 0] > 1.0 - 1e-6)

    def test_population_sweep_rotational_values(self, rotational_config):
        table = population_sweep(rotational_config, [10.0, 1e7], 300.0)
        assert table[0] == pytest.approx([0.346, 0.328, 0.326], abs=5e-4)
        assert table[0, 1] > 0.3 and table[0, 2] > 0.3
        assert table[1] == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_yield_sweep_structure(self, rovib_config):
        table = yield_sweep(rovib_config, [0.01, 10.0], 300.0)
        assert table.shape == (2, 4)
        p1_cold, p1_warm = table[0, 0], table[1, 0]
        assert p1_cold > 0.99
        assert 5e-4 < p1_warm < 3e-3
        # eta is exactly half of P1
        assert table[0, 3] == p1_cold / 2.0
        assert table[1, 3] == p1_warm / 2.0
        assert table[1, 1] + table[1, 2] < 1e-7

    @pytest.mark.parametrize("sweep", [excess_sweep, population_sweep, yield_sweep])
    def test_t_vib_is_one_temperature(self, rovib_config, sweep):
        with pytest.raises(ValueError, match=r"^t_vib_k must be a float, got shape \(2,\)$"):
            sweep(rovib_config, [1.0, 10.0], np.array([300.0, 310.0]))

    def test_default_grid_bounds(self):
        grid = paper_grid()
        assert len(grid) == 200
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(300.0)
        with pytest.raises(ValueError):
            default_sweep_grid(0.0, 300.0, 200, True)


def test_boltzmann_exponent_difference_drives_excess(rotational_config):
    # the excess equals tanh(dx/2) with dx the (3,1) exponent difference
    p = rotational_config.populations(Temperatures(10.0, 300.0))
    dx = (12.1598 - 0.0) * K_PER_GHZ / 10.0
    assert enantiomeric_excess(p) == pytest.approx(np.tanh(dx / 2.0), rel=1e-12)
