"""Shared fixtures: the broadside reference link at several grid densities."""

import numpy as np
import pytest
from hypothesis import settings

from edof.geometry import discretize, make_surface
from edof.kernel import WaveConfig, assemble_operator
from edof.spectrum import coupling_spectrum

WAVELENGTH = 0.01
APERTURE = 0.5
DISTANCE = 10.0

# property tests draw the same examples on every run and keep no database,
# so the suite stays deterministic and its time bounded
settings.register_profile("edof", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("edof")

# closed-form paraxial values for the reference link
PARAXIAL_BANDWIDTH = (2.0 * np.pi / WAVELENGTH * APERTURE / DISTANCE) ** 2
PARAXIAL_EDOF = APERTURE ** 2 * PARAXIAL_BANDWIDTH / (4.0 * np.pi ** 2)


@pytest.fixture
def perpendicular_scene():
    """A receiver turned edge-on whose corner sits 0.5 mm (0.05 wavelengths)
    above a transmit node, while its center stays clear of the aperture."""
    return {
        "wave": {"wavelength_m": 0.01},
        "tx": {"center_m": [0, 0, 0], "size_m": [0.5, 0.5], "grid": [16, 16]},
        "rx": {"center_m": [0.234375, 0, 0.2505], "size_m": [0.5, 0.46875],
               "grid": [8, 8],
               "rotation": {"axis": [0, 1, 0], "angle_rad": 1.5707963267948966}},
    }


@pytest.fixture(scope="session")
def wave():
    return WaveConfig(wavelength=WAVELENGTH)


@pytest.fixture(scope="session")
def anchor_surfaces():
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    return tx, rx


@pytest.fixture(scope="session")
def anchor_grids(anchor_surfaces):
    tx, rx = anchor_surfaces
    return discretize(tx, 40, 40), discretize(rx, 40, 40)


@pytest.fixture(scope="session")
def anchor_operator(anchor_grids, wave):
    return assemble_operator(*anchor_grids, wave)


@pytest.fixture(scope="session")
def anchor_spectrum(anchor_operator):
    return coupling_spectrum(anchor_operator)


@pytest.fixture(scope="session")
def small_grids(anchor_surfaces):
    tx, rx = anchor_surfaces
    return discretize(tx, 16, 16), discretize(rx, 16, 16)


@pytest.fixture(scope="session")
def small_operator(small_grids, wave):
    return assemble_operator(*small_grids, wave)
