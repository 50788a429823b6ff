"""Oscillatory wave-packet data and the pressure-curvature pairing.

The packet n^{-5/2} curl(chi(x - x0) sin(n xi . (x - x0)) eta) has H^1
norm shrinking like n^{-1/2} while its H^2 norm grows like n^{1/2}; paired
quadratically against the triple-derivative inverse-Laplacian kernel of a
mass-one test bump, it produces a functional growing linearly in n.  All
integrals are realised on large tori, which only need to be faithful for
growth ratios in n, never for absolute constants.

The norm sweep and the pairing use different boxes: Sobolev weights on the
integer mode lattice resolve the carrier/envelope scale separation best on
a tight box around the packet, while the pairing kernel needs a wide box
so that periodic images of the x^{-4} falloff stay below a percent.  The
pairing box is large, so that leg runs in single precision through real
FFTs; a cross-check against the double-precision path is in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import spectral as sp
from .bumps import radial_bump
from .spaces import sobolev_norm
from .spectral import ScalarField, SpectralGrid, VectorField

__all__ = [
    "WavePacketSpec",
    "wave_packet",
    "leading_order",
    "mass_one_bump",
    "x0_pairing",
    "pairing_from_spec",
    "check_study",
    "growth_study",
    "GrowthTable",
]

_SQ2 = 1.0 / np.sqrt(2.0)
# the index pairs i <= j of the symmetric pairing sum
_PAIRS = tuple((i, j) for i in range(3) for j in range(i, 3))


@dataclass(frozen=True)
class WavePacketSpec:
    """Parameters of the oscillatory packet and its paired test bump.

    component selects which entry of the vector kernel grad^3 Lap^{-1} psi
    the pairing contracts against; it is part of the test-function choice,
    as are the bump center and radius.  The radial envelope chi is fixed
    (see _chi).
    """

    n: int
    x0: tuple = (1.8, 0.0, 0.0)
    xi: tuple = (1.35, 1.35, 1.35)
    eta_dir: tuple = (_SQ2, -_SQ2, 0.0)
    psi_center: tuple = (0.0, 0.0, 0.0)
    psi_radius: float = 0.7
    component: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("frequency integer n must be positive")
        if np.linalg.norm(self.xi) == 0 or np.linalg.norm(self.eta_dir) == 0:
            raise ValueError("frequency and direction must be nonzero")
        if not 0 <= self.component <= 2:
            raise ValueError("component must index a spatial direction")
        if not self.psi_radius > 0:
            raise ValueError(
                f"test-bump radius {self.psi_radius} must be positive")

    @property
    def cross(self) -> np.ndarray:
        return np.cross(np.asarray(self.xi, float),
                        np.asarray(self.eta_dir, float))

    def with_n(self, n: int) -> "WavePacketSpec":
        return WavePacketSpec(
            n=int(n), x0=self.x0, xi=self.xi, eta_dir=self.eta_dir,
            psi_center=self.psi_center,
            psi_radius=self.psi_radius, component=self.component,
        )


def _chi(rad):
    """The packet's radial envelope, radial_bump(rad, flat=0).  It vanishes
    from radius 1 on, which the packet's evaluation on the nodes around the
    unit ball at x0 relies on."""
    return radial_bump(rad, flat=0.0)


def _check_resolution(spec: WavePacketSpec, grid: SpectralGrid):
    """Each axis of the carrier must be sampled with >= 4 points per
    wavelength; the unit-ball support needs a margin inside the box."""
    h = grid.spacing
    for ax, xi_ax in enumerate(spec.xi):
        if xi_ax == 0.0:
            continue
        wavelength = 2.0 * np.pi / (spec.n * abs(xi_ax))
        if h > wavelength / 4.0:
            raise ValueError(
                f"axis {ax}: grid spacing {h:.4g} cannot resolve the packet "
                f"wavelength {wavelength:.4g} (need >= 4 points per "
                "wavelength)"
            )
    if grid.L < 4.0:
        raise ValueError("box too small for the unit-ball support with margin")


def _check_pairing_box(grid: SpectralGrid):
    if grid.L < 8.0:
        raise ValueError(
            "support overflow: pairing box must be at least 8 units wide"
        )


def _check_test_bump(template: WavePacketSpec, grid: SpectralGrid):
    if 2.0 * template.psi_radius >= grid.L:
        raise ValueError(
            f"test-bump ball of radius {template.psi_radius} does not fit in "
            f"the pairing box of width {grid.L}"
        )


def _check_frequencies(n_list):
    """The scaling verdicts compare neighbouring entries as a doubling of n,
    and the fitted slope needs two frequencies."""
    ns = list(n_list)
    if len(ns) < 2 or any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise ValueError(
            f"frequency list {', '.join(map(str, ns))} must hold at least "
            "two entries, each twice the one before"
        )


def _check_leading_term(template: WavePacketSpec):
    if np.linalg.norm(template.cross) < 1e-12:
        raise ValueError(
            "degenerate packet: the frequency and direction are parallel, "
            "so the leading term vanishes"
        )


def _centered_offsets(grid: SpectralGrid, center):
    """Minimum-image displacements x - center at the grid nodes, as one
    broadcastable array per axis."""
    x = np.arange(grid.N) * grid.spacing
    shapes = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    return [((x - c + grid.L / 2.0) % grid.L - grid.L / 2.0).reshape(shape)
            for c, shape in zip(center, shapes)]


def _ball_offsets(grid: SpectralGrid, center, radius):
    """The nodes within radius of center along every axis, as an np.ix_
    index of the grid, and their minimum-image displacements x - center,
    one broadcastable array per axis; a profile that vanishes from radius
    on is zero at every other node."""
    dx = _centered_offsets(grid, center)
    box = np.ix_(*[np.nonzero(np.abs(d.ravel()) < radius)[0] for d in dx])
    return box, [d.ravel()[i] for d, i in zip(dx, box)]


def _stream_samples(spec: WavePacketSpec, grid: SpectralGrid, dtype=float):
    """Samples of the scalar part chi(x - x0) sin(n xi . (x - x0))."""
    box, dx = _ball_offsets(grid, spec.x0, 1.0)
    near = _chi(np.sqrt(sum(d * d for d in dx)))
    phase = spec.n * sum(x * d for x, d in zip(spec.xi, dx))
    np.sin(phase, out=phase)
    near *= phase
    scal = np.zeros(grid.shape, dtype)
    scal[box] = near
    return scal


def wave_packet(spec: WavePacketSpec, grid: SpectralGrid) -> VectorField:
    """The divergence-free packet n^{-5/2} curl(chi sin(n xi . x) eta)."""
    _check_resolution(spec, grid)
    scal = _stream_samples(spec, grid)
    stream = np.stack([scal * e for e in spec.eta_dir])
    del scal
    packet = sp.curl(sp.vector_from_samples(grid, stream))
    return VectorField(grid, float(spec.n) ** -2.5 * packet.coeffs)


def leading_order(spec: WavePacketSpec, grid: SpectralGrid) -> VectorField:
    """The explicit principal term n^{-3/2} cos(n xi.(x-x0)) chi (xi x eta);
    the packet minus this is O(n^{-5/2}) in L^2."""
    dx = _centered_offsets(grid, spec.x0)
    rad = np.sqrt(sum(d * d for d in dx))
    amp = _chi(rad) * np.cos(
        spec.n * sum(x * d for x, d in zip(spec.xi, dx))
    )
    samples = np.stack([float(spec.n) ** -1.5 * amp * v for v in spec.cross])
    return sp.vector_from_samples(grid, samples)


def mass_one_bump(grid: SpectralGrid, center=(0.0, 0.0, 0.0),
                  radius: float = 0.7) -> ScalarField:
    """Smooth bump supported in B(center, radius), normalised to unit mass."""
    raw = _bump_samples(grid, center, radius)
    return sp.scalar_from_samples(grid, raw)


def _bump_samples(grid: SpectralGrid, center, radius):
    box, dx = _ball_offsets(grid, center, radius)
    raw = np.zeros(grid.shape)
    raw[box] = radial_bump(np.sqrt(sum(d * d for d in dx)) / radius)
    raw /= np.sum(raw, dtype=np.float64) * grid.cell_volume
    return raw


def _pairing_kernels(grid, psi_hat, component):
    """The kernels d_i d_j d_l Lap^-1 psi (l = component) in real space for
    i <= j in the order of _PAIRS, given the rfftn transform of psi's
    samples; they come out in the precision of psi_hat.

    Shared by the double-precision x0_pairing and the single-precision
    _bump_kernels of the lean path."""
    L = grid.L
    mods = sp._deriv_modes(grid.N)
    sym = grid.laplace_symbol()
    sym[0, 0, 0] = 1.0
    base = psi_hat / sym.astype(psi_hat.real.dtype)
    del sym, psi_hat
    base[0, 0, 0] = 0.0
    scale = 2.0j * np.pi / L
    base *= (scale * mods[component]).astype(base.dtype)
    kernels = []
    for i, j in _PAIRS:
        mult = ((scale ** 2) * mods[i] * mods[j]).astype(base.dtype)
        if len(kernels) < len(_PAIRS) - 1:
            kernels.append(sp._irfftn_in_place(base * mult))
        else:
            # base is not read again: the last kernel is built in it
            base *= mult
            kernels.append(sp._irfftn_in_place(base))
    return kernels


def _contract(grid, kernels, lap):
    """sum_ij int (d_i d_j d_l Lap^-1 psi) lap_i lap_j dx from the kernels of
    _pairing_kernels and real-space Laplacian samples."""
    total = 0.0
    for (i, j), kern in zip(_PAIRS, kernels):
        w = 1.0 if i == j else 2.0
        total += w * np.einsum("abc,abc,abc->", kern, lap[i], lap[j],
                               dtype=np.float64)
    return float(total) * grid.cell_volume


def _bump_kernels(spec: WavePacketSpec, grid: SpectralGrid):
    """The single-precision pairing kernels of spec's test bump on grid;
    they depend on the bump and the grid, not on the packet."""
    # no reference to the transform is kept here, so _pairing_kernels can
    # free it before the kernels are inverted
    return _pairing_kernels(grid, scipy.fft.rfftn(_bump_samples(
        grid, spec.psi_center, spec.psi_radius).astype(np.float32)),
        spec.component)


def _times_laplace_symbol(u_hat, grid: SpectralGrid):
    """u_hat *= grid.laplace_symbol().astype(np.float32), without a full-size
    copy of the symbol: each x-plane of it comes from the same float64
    expression, cast to float32."""
    kx, ky, kz = sp._axis_modes(grid.N)
    for a in range(grid.N):
        sym = -4.0 * np.pi**2 * (kx[a] * kx[a] + ky[0] * ky[0]
                                 + kz[0] * kz[0]) / grid.L**2
        u_hat[a] *= sym.astype(np.float32)


def _packet_laplacian(spec: WavePacketSpec, grid: SpectralGrid):
    """Single-precision samples of the three components of Lap u for the
    packet u of spec."""
    mods = sp._deriv_modes(grid.N)
    scale = 2.0j * np.pi / grid.L
    shat = scipy.fft.rfftn(_stream_samples(spec, grid, dtype=np.float32))
    eta = spec.eta_dir
    amp = float(spec.n) ** -2.5
    lap = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # curl of the constant-direction stream function eta * scal
        mult = (scale * amp) * (mods[j] * eta[k] - mods[k] * eta[j])
        if i < 2:
            u_hat = shat * mult.astype(np.complex64)
        else:
            # shat is not read again: the last component is built in it
            u_hat, shat = shat, None
            u_hat *= mult.astype(np.complex64)
        _times_laplace_symbol(u_hat, grid)
        lap.append(sp._irfftn_in_place(u_hat))
        del u_hat
    return lap


def x0_pairing(u1: VectorField, psi: ScalarField, component: int = 0) -> float:
    """The functional int (d_i d_j d_l Lap^{-1} psi) (Lap u)_i (Lap u)_j dx.

    Computed spectrally on the shared torus (zero-mean inverse Laplacian);
    the box must dominate the supports so periodic images of the kernel,
    which decay like distance^{-4}, only perturb growth ratios.
    """
    if u1.grid != psi.grid:
        raise ValueError("packet and test bump must share a grid")
    grid = u1.grid
    _check_pairing_box(grid)
    lap = [sp.laplacian(u1.component(i)).samples() for i in range(3)]
    # the rfftn of psi's samples without the 1/N^3 of the stored convention
    psi_hat = psi.coeffs * grid.N**3
    return _contract(grid, _pairing_kernels(grid, psi_hat, component), lap)


def pairing_from_spec(spec: WavePacketSpec, grid: SpectralGrid,
                      kernels=None) -> float:
    """Build the packet and evaluate the pairing in one lean pass.

    Works in single precision through real-input FFTs: the shipped study,
    which holds the six kernels of a 256^3 box while it pairs three
    packets, peaks at about 716 MB (ru_maxrss, 2-core x86-64, numpy 2.4,
    scipy 1.17), about four 256^3 float32 arrays above the kernels while
    a Laplacian component is inverted.  The pairing tolerances are
    percent-level, far above float32 roundoff.  kernels, when given, are
    _bump_kernels(spec, grid), built once for several packets.
    """
    _check_resolution(spec, grid)
    _check_pairing_box(grid)
    if kernels is None:
        kernels = _bump_kernels(spec, grid)
    return _contract(grid, kernels, _packet_laplacian(spec, grid))


@dataclass
class GrowthTable:
    """Growth of the pairing and of the packet norms against n, and the
    relative change of X0 when the pairing box is doubled."""

    n: np.ndarray
    X0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    slope: float
    doubling: float

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.n, self.X0, self.h1, self.h2]),
                   delimiter=",", header="n,X0,H1,H2", comments="")

    def to_gnuplot(self, path):
        with open(path, "w") as fh:
            fh.write(f"# log-log growth data; fitted slope {self.slope:.6f}\n")
            fh.write("# n  abs(X0)  H1  H2\n")
            for row in zip(self.n, np.abs(self.X0), self.h1, self.h2):
                fh.write("  ".join(f"{v:.10e}" for v in row) + "\n")


def growth_study(template: WavePacketSpec, n_list, norm_grid: SpectralGrid,
                 pairing_grid: SpectralGrid, doubling_n: int) -> GrowthTable:
    """Packet norms and pairing across a frequency sweep, with the fitted
    log-log slope of |X0| against n and the box-doubling change at
    doubling_n.

    Norms are evaluated on a tight box around the packet (integer-lattice
    Sobolev weights see the carrier/envelope separation best there); the
    pairing runs on a wide box keeping periodic kernel images small.  The
    doubling change is the relative change of X0 at doubling_n when the
    pairing box is doubled at the same mode count; doubling_n must stay
    resolvable on the doubled (coarser) grid.
    """
    _check_leading_term(template)
    h1s, h2s = [], []
    for n in n_list:
        u1 = wave_packet(template.with_n(n), norm_grid)
        h1s.append(sobolev_norm(u1, 1.0))
        h2s.append(sobolev_norm(u1, 2.0))
        del u1
    # every pairing on the pairing box shares one kernel build, which is
    # freed before the doubled box builds its own: holding both would set
    # the memory peak
    paired = list(n_list)
    if doubling_n not in paired:
        paired.append(doubling_n)
    kernels = _bump_kernels(template, pairing_grid)
    X0s = [pairing_from_spec(template.with_n(n), pairing_grid, kernels)
           for n in paired]
    del kernels
    base = X0s[paired.index(doubling_n)]
    other = pairing_from_spec(template.with_n(doubling_n),
                              sp.make_grid(2.0 * pairing_grid.L,
                                           pairing_grid.N))
    ns = np.array(n_list, dtype=float)
    X0s = np.array(X0s[:len(n_list)])
    slope = float(np.polyfit(np.log(ns), np.log(np.abs(X0s)), 1)[0])
    return GrowthTable(ns, X0s, np.array(h1s), np.array(h2s), slope,
                       abs(other - base) / abs(base))


def check_study(template: WavePacketSpec, n_list, norm_grid: SpectralGrid,
                pairing_grid: SpectralGrid, doubling_n: int):
    """Raise, before any packet is built, the ValueError that growth_study
    would raise part-way through on these inputs, or one for inputs on
    which its table would mean nothing: a frequency list that does not
    double, or a test bump wider than the pairing box."""
    _check_leading_term(template)
    _check_frequencies(n_list)
    _check_test_bump(template, pairing_grid)
    for n in n_list:
        _check_resolution(template.with_n(n), norm_grid)
        _check_resolution(template.with_n(n), pairing_grid)
    for grid in (pairing_grid, sp.make_grid(2.0 * pairing_grid.L,
                                            pairing_grid.N)):
        _check_resolution(template.with_n(doubling_n), grid)
        _check_pairing_box(grid)
