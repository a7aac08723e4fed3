"""Tests for repro.common.validation."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_power_of_two,
    check_probability,
)
from repro.nexus.nexuspp import NexusPlusPlusConfig
from repro.nexus.nexussharp import NexusSharpConfig
from repro.system.machine import MachineConfig


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -1.5)


    def test_rejects_infinity(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", math.inf)

    def test_accepts_huge_int(self):
        assert check_positive("x", 10**400) == 10**400


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -0.001)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", math.nan)


class TestCheckPositiveInt:
    def test_accepts_positive_int(self):
        assert check_positive_int("n", 7) == 7

    @pytest.mark.parametrize("value", [0, -3, 2.0, 2.5, True, math.inf, "4"])
    def test_rejects_non_positive_and_non_integers(self, value):
        with pytest.raises(ConfigurationError):
            check_positive_int("n", value)


class TestClosedConfigDomains:
    """The count and frequency fields of the configs on the simulation
    hot path reject values outside their domain."""

    @pytest.mark.parametrize("num_cores", [math.inf, 2.5, True])
    def test_machine_config_num_cores(self, num_cores):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=num_cores)

    def test_nexus_sharp_infinite_frequency(self):
        with pytest.raises(ConfigurationError):
            NexusSharpConfig(frequency_mhz=math.inf)

    def test_nexus_sharp_bool_task_graph_count(self):
        with pytest.raises(ConfigurationError):
            NexusSharpConfig(num_task_graphs=True)

    def test_nexus_sharp_float_table_sets(self):
        with pytest.raises(ConfigurationError):
            NexusSharpConfig(table_sets=2.0)

    def test_nexus_plus_plus_infinite_frequency(self):
        with pytest.raises(ConfigurationError):
            NexusPlusPlusConfig(frequency_mhz=math.inf)

    @pytest.mark.parametrize("field", ["table_sets", "table_ways", "kickoff_capacity"])
    @pytest.mark.parametrize("config", [NexusSharpConfig, NexusPlusPlusConfig])
    def test_nexus_count_fields_reject_floats(self, config, field):
        with pytest.raises(ConfigurationError):
            config(**{field: 4.0})

    @pytest.mark.parametrize("config", [NexusSharpConfig, NexusPlusPlusConfig])
    def test_nexus_configs_have_no_task_pool_size(self, config):
        """No timing layer models a task pool, so no config sizes one."""
        with pytest.raises(TypeError):
            config(task_pool_entries=64)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ConfigurationError):
            check_probability("p", value)


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 256, 1024])
    def test_accepts_powers(self, value):
        assert check_power_of_two("n", value) == value

    @pytest.mark.parametrize("value", [0, 3, 6, -4, 255])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ConfigurationError):
            check_power_of_two("n", value)


class TestErrorMessages:
    def test_message_contains_name_and_value(self):
        with pytest.raises(ConfigurationError, match="num_cores.*-3"):
            check_positive("num_cores", -3)
