"""The model-validation module."""

import pytest

from repro.errors import SimulationError
from repro.validation import ValidationPoint, ValidationReport, validate_model


class TestValidationPoint:
    def test_relative_error(self):
        point = ValidationPoint("x", 512, analytic_gbps=10.0, simulated_gbps=10.5)
        assert point.relative_error == pytest.approx(0.05)

    def test_zero_analytic_rejected(self):
        point = ValidationPoint("x", 512, analytic_gbps=0.0, simulated_gbps=1.0)
        with pytest.raises(SimulationError):
            _ = point.relative_error


class TestValidationReport:
    def make_report(self):
        return ValidationReport(points=(
            ValidationPoint("a", 512, 10.0, 10.1),
            ValidationPoint("b", 512, 10.0, 10.5),
            ValidationPoint("c", 512, 10.0, 10.0),
        ))

    def test_max_error(self):
        assert self.make_report().max_relative_error == pytest.approx(0.05)

    def test_mean_error(self):
        assert self.make_report().mean_relative_error == pytest.approx(0.02)

    def test_worst(self):
        assert self.make_report().worst().label == "b"

    def test_describe(self):
        text = self.make_report().describe()
        assert "max error" in text
        assert "a" in text and "b" in text


class TestValidateModel:
    def test_small_sweep_agrees(self, system_config):
        report = validate_model(
            system_config, sizes=(512, 1024), max_requests=32_768
        )
        assert len(report.points) == 6
        assert report.max_relative_error < 0.05
        assert report.mean_relative_error < 0.02
        assert report.worst().relative_error == report.max_relative_error

    def test_gen2_stack_agrees(self):
        from repro.core.config import KernelConfig, SystemConfig
        from repro.memory3d.config import hmc_gen2_config

        config = SystemConfig(
            memory=hmc_gen2_config(), kernel=KernelConfig(), column_streams=16
        )
        report = validate_model(config, sizes=(1024,), max_requests=32_768)
        assert report.max_relative_error < 0.05

    def test_point_labels_cover_phases(self, system_config):
        report = validate_model(system_config, sizes=(512,), max_requests=16_384)
        labels = [p.label for p in report.points]
        assert any("baseline column" in label for label in labels)
        assert any("optimized column" in label for label in labels)
        assert any("row phase" in label for label in labels)
