"""Communication modes of a square-aperture link.

Builds the discrete coupling operator for two 0.5 m apertures facing each
other 10 m apart at lambda = 1 cm, then walks through its singular value
decomposition: the mode staircase, threshold counting, and the pairing of
transmit patterns with receive patterns.

Usage:
    python3 demos/communication_modes.py
"""

import numpy as np

from edof.geometry import discretize, make_surface
from edof.kernel import WaveConfig, assemble_operator, hilbert_schmidt_norm
from edof.spectrum import count_edof, coupling_spectrum, extract_modes, kolmogorov_width

WAVELENGTH = 0.01
APERTURE = 0.5
DISTANCE = 10.0
GRID = 40


def main():
    wave = WaveConfig(wavelength=WAVELENGTH)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    tx_grid = discretize(tx, GRID, GRID)
    rx_grid = discretize(rx, GRID, GRID)

    print(f"scene: {APERTURE} m apertures, {DISTANCE} m apart, "
          f"lambda {WAVELENGTH} m, {GRID}x{GRID} quadrature")
    operator = assemble_operator(tx_grid, rx_grid, wave)
    print(f"operator matrix: {operator.matrix.shape[0]} x {operator.matrix.shape[1]}")

    spectrum = coupling_spectrum(operator)
    s0 = spectrum.values[0]
    print(f"\nleading squared couplings (normalized to the strongest):")
    for n in range(10):
        bar = "#" * int(round(40 * spectrum.values[n] / s0))
        print(f"  mode {n}: {spectrum.values[n] / s0:8.5f} {bar}")

    # the paraxial estimate for this scene is (L^2 / (lambda d))^2 = 6.25
    print(f"\nmode counts above a relative threshold:")
    for gamma in (0.01, 0.1, 0.5, 0.9):
        print(f"  gamma = {gamma:4}: {count_edof(spectrum, gamma, 'relative')} modes")

    print(f"\nKolmogorov widths d_n = s_n (best n-dimensional approximation "
          f"error of the received field set):")
    for n in (0, 4, 8, 16):
        print(f"  d_{n} = {kolmogorov_width(spectrum, n):.6g}")

    total = hilbert_schmidt_norm(operator)
    print(f"\nsum of all squared couplings: {spectrum.values.sum():.6g}")
    print(f"squared Frobenius norm:       {total:.6g}")

    basis = extract_modes(operator, 4)
    gram = basis.tx_modes.conj().T @ (tx_grid.weights[:, None] * basis.tx_modes)
    print(f"\nfirst 4 transmit modes, worst orthonormality defect: "
          f"{np.max(np.abs(gram - np.eye(4))):.2e}")
    print("each transmit mode couples to exactly one receive mode; driving "
          "mode n delivers a fraction s_n^2 / s_0^2 of the best mode's power")


if __name__ == "__main__":
    main()
