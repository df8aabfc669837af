"""Tests for the ITU wavelength grid."""

import pytest

from repro.errors import ConfigurationError
from repro.optical.wavelength import WavelengthGrid


class TestGridBasics:
    def test_default_size(self):
        assert len(WavelengthGrid()) == 80

    def test_custom_size(self):
        assert WavelengthGrid(40).size == 40

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            WavelengthGrid(0)

    def test_channels_iterates_all(self):
        assert list(WavelengthGrid(4).channels()) == [0, 1, 2, 3]

    def test_contains(self):
        grid = WavelengthGrid(10)
        assert 0 in grid
        assert 9 in grid
        assert 10 not in grid
        assert -1 not in grid
        assert "ch0" not in grid

    def test_validate_passes_through(self):
        assert WavelengthGrid(10).validate(5) == 5

    def test_validate_rejects_off_grid(self):
        grid = WavelengthGrid(10)
        with pytest.raises(ConfigurationError):
            grid.validate(10)
        with pytest.raises(ConfigurationError):
            grid.validate(-1)

