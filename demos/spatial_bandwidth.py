"""Cut-set estimate from the local spatial bandwidth.

Every transmit point seen from a receive point contributes an in-plane
wavenumber; the transmit aperture sweeps out a bounded wavenumber set whose
area W(r) is the local bandwidth. Integrating W over the receive aperture
and dividing by (2 pi)^2 counts the degrees of freedom without ever
assembling a matrix.

Usage:
    python3 demos/spatial_bandwidth.py
"""

import numpy as np

from edof.cutset import (
    bandwidth_field,
    cutset_edof,
    isotropic_bandwidth,
    jacobian_det,
    local_bandwidth,
    set_measure_bandwidth,
    wavenumber_component,
)
from edof.geometry import discretize, make_surface
from edof.kernel import WaveConfig

WAVELENGTH = 0.01
APERTURE = 0.5
DISTANCE = 10.0


def main():
    wave = WaveConfig(wavelength=WAVELENGTH)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    tx_grid = discretize(tx, 40, 40)
    rx_grid = discretize(rx, 40, 40)

    print("wavenumber of single rays arriving at the receive center:")
    for label, point in (("tx center ", tx.center),
                         ("tx corner ", tx.center + [0.25, 0.25, 0.0])):
        k = wavenumber_component(rx.center, point, rx, wave)
        print(f"  from {label}: ({k[0]:8.3f}, {k[1]:8.3f}) rad/m")
    print(f"  (propagating rays never exceed k0 = {wave.k0:.1f} rad/m)")

    det = jacobian_det(rx.center, (0.0, 0.0), tx, rx, wave)
    print(f"\nJacobian of the wavenumber map at broadside: {det:.4f}")
    print(f"closed form (k0 / d)^2:                      "
          f"{(wave.k0 / DISTANCE) ** 2:.4f}")

    w_jac = local_bandwidth(rx.center, tx_grid, rx, wave)
    dense = discretize(tx, 192, 192)
    k = wavenumber_component(rx.center, dense.points, rx, wave)
    res = float(np.max(np.ptp(k, axis=0))) / 64.0
    w_set = set_measure_bandwidth(rx.center, dense, rx, wave, res)
    print(f"\nlocal bandwidth at the receive center:")
    print(f"  Jacobian integral: {w_jac:10.3f} rad^2/m^2")
    print(f"  rasterized set:    {w_set:10.3f} rad^2/m^2")
    print(f"  isotropic ceiling: {isotropic_bandwidth(wave):10.3e} rad^2/m^2")

    field = bandwidth_field(tx_grid, rx_grid, wave)
    print(f"\nW across the receive aperture: min {field.values.min():.2f}, "
          f"max {field.values.max():.2f}")
    report = cutset_edof(field)
    print(f"cut-set degrees of freedom: {report.n_edof:.4f}")
    print(f"paraxial closed form (L^2 / (lambda d))^2 = 6.25")

    print("\nhalving and doubling the distance (expect 1/d^2):")
    for d in (5.0, 10.0, 20.0):
        rx_d = make_surface((0.0, 0.0, d), np.eye(3), APERTURE, APERTURE)
        n = cutset_edof(bandwidth_field(tx_grid, discretize(rx_d, 40, 40), wave)).n_edof
        print(f"  d = {d:4} m: n = {n:8.4f}")


if __name__ == "__main__":
    main()
