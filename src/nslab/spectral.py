"""Periodic spectral grids, field containers and Fourier-side operators.

Fields live on the torus [0, L)^3 sampled on an N^3 collocation grid and are
stored as DFT coefficients with the convention

    coeff(k) = (1/N^3) sum_x e^{-2 pi i k.x/L} f(x),

so that the symbol of the Laplacian on integer mode k is -4 pi^2 |k|^2 / L^2
and unit-period formulas hold verbatim at L = 1.  Every field is real, so
coeff(-k) = conj(coeff(k)) and only the half spectrum kz = 0..N/2 is stored:
the layout of ``scipy.fft.rfftn(samples) / N**3``, of shape (N, N, N/2+1),
with samples recovered by ``irfftn``.  Sums over all modes weight each
stored mode by ``SpectralGrid.hermitian_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

__all__ = [
    "SpectralGrid",
    "ScalarField",
    "VectorField",
    "make_grid",
    "scalar_from_samples",
    "scalar_from_coeffs",
    "vector_from_samples",
    "vector_from_coeffs",
    "zero_vector",
    "apply_multiplier",
    "derivative",
    "gradient",
    "divergence",
    "curl",
    "laplacian",
    "inverse_laplacian",
    "leray_project",
    "dealias",
    "l2_norm",
    "l2_inner",
    "sup_norm",
    "hermitian_half",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic box of period L with N modes per axis.

    The wavenumber lattice is the integer cube {-N/2+1, ..., N/2}^3 cut to
    its half kz >= 0; the Nyquist planes are labelled +N/2 and are zeroed,
    with every mode beyond the 2/3 rule, after every nonlinear product.
    """

    L: float
    N: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"period L must be positive, got {self.L}")
        if self.N < 4:
            raise ValueError(f"resolution N must be >= 4, got {self.N}")
        if self.N % 2 != 0:
            raise ValueError(f"resolution N must be even, got {self.N}")

    @property
    def shape(self):
        """Shape of the physical samples."""
        return (self.N, self.N, self.N)

    @property
    def spectral_shape(self):
        """Shape of the stored half spectrum."""
        return (self.N, self.N, self.N // 2 + 1)

    @property
    def spacing(self):
        return self.L / self.N

    @property
    def cell_volume(self):
        return (self.L / self.N) ** 3

    def wavenumbers(self):
        """Integer modes (kx, ky, kz) as three read-only arrays of
        spectral_shape."""
        return tuple(np.broadcast_to(k, self.spectral_shape)
                     for k in _axis_modes(self.N))

    def k_squared(self):
        """|k|^2 on the integer lattice."""
        kx, ky, kz = _axis_modes(self.N)
        return kx * kx + ky * ky + kz * kz

    def laplace_symbol(self):
        """Fourier symbol of the Laplacian, -4 pi^2 |k|^2 / L^2."""
        return -4.0 * np.pi**2 * self.k_squared() / self.L**2

    def hermitian_weight(self):
        """Weights along kz that turn a sum over the stored half spectrum
        into the sum over all modes: 1 on the self-conjugate planes kz = 0
        and kz = N/2, 2 on the planes between, which also stand for -kz."""
        return _hermitian_weight(self.N)

    def nodes(self):
        """Physical collocation nodes as three (N,N,N) arrays."""
        x = np.arange(self.N) * self.spacing
        return np.meshgrid(x, x, x, indexing="ij")


def _frozen(a):
    """Mark a cached array read-only so no caller can change it in place."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def _axis_modes(N):
    """Integer modes of the half layout as broadcastable axis arrays of
    shapes (N,1,1), (1,N,1), (1,1,N/2+1); the Nyquist entry is +N/2."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = N // 2
    kz = np.arange(N // 2 + 1, dtype=float)
    return tuple(_frozen(a) for a in
                 (k.reshape(N, 1, 1), k.reshape(1, N, 1), kz.reshape(1, 1, -1)))


@lru_cache(maxsize=32)
def _deriv_modes(N):
    """_axis_modes with the Nyquist entries zeroed, as odd-order
    derivatives need so that real fields stay real."""
    return tuple(_frozen(np.where(k == N // 2, 0.0, k)) for k in _axis_modes(N))


@lru_cache(maxsize=32)
def _band_mask(N, cut):
    """Half-layout mask keeping |k_i| <= cut along each axis."""
    kx, ky, kz = _axis_modes(N)
    return _frozen((np.abs(kx) <= cut) & (np.abs(ky) <= cut) & (kz <= cut))


@lru_cache(maxsize=32)
def _hermitian_weight(N):
    w = np.full(N // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return _frozen(w)


@dataclass(frozen=True)
class ScalarField:
    """Real-valued scalar function on the torus, stored spectrally."""

    grid: SpectralGrid
    coeffs: np.ndarray = field(repr=False)

    def samples(self):
        return _samples(self.coeffs, self.grid)

    def mean(self):
        return float(np.real(self.coeffs[0, 0, 0]))


@dataclass(frozen=True)
class VectorField:
    """3-vector field on the torus; coeffs has shape (3, N, N, N/2+1)."""

    grid: SpectralGrid
    coeffs: np.ndarray = field(repr=False)

    def samples(self):
        return _samples(self.coeffs, self.grid)

    def mean(self):
        return np.real(self.coeffs[:, 0, 0, 0]).copy()

    def component(self, i):
        return ScalarField(self.grid, self.coeffs[i])


def make_grid(L, N):
    """Build a SpectralGrid; rejects odd or tiny N and nonpositive L."""
    return SpectralGrid(float(L), int(N))


def _samples(coeffs, grid):
    return scipy.fft.irfftn(coeffs, s=grid.shape, axes=(-3, -2, -1),
                            norm="forward")


def _spectrum(samples):
    """Half spectrum of real samples whose self-conjugate planes kz = 0 and
    kz = N/2 are exactly Hermitian, as the full complex transform gives
    them: their entries at kx > N/2, and at ky > N/2 on the rows kx = 0
    and N/2, are the conjugates of the mirrored ones, and their four
    self-conjugate entries are real."""
    N = samples.shape[-1]
    h = N // 2
    out = scipy.fft.rfftn(samples, axes=(-3, -2, -1))
    out /= N**3
    planes = out[..., ::h]
    below, above = slice(h - 1, 0, -1), slice(h + 1, None)
    np.conjugate(planes[..., below, :1, :], out=planes[..., above, :1, :])
    np.conjugate(planes[..., below, :0:-1, :], out=planes[..., above, 1:, :])
    for row in (0, h):
        np.conjugate(planes[..., row, below, :], out=planes[..., row, above, :])
        planes[..., row, ::h, :].imag = 0.0
    return out


def _conj_negated(src, out, z_blocks):
    """out[..., kx, ky, :] = conj(src[..., -kx, -ky, z]) for the (dest, src)
    last-axis slice pairs in z_blocks; the first two axes have length N."""
    N = src.shape[-2]
    negated = ((slice(0, 1), slice(0, 1)), (slice(1, N), slice(N - 1, 0, -1)))
    for dx, sx in negated:
        for dy, sy in negated:
            for dz, sz in z_blocks:
                np.conjugate(src[..., sx, sy, sz], out=out[..., dx, dy, dz])


def hermitian_half(coeffs):
    """Stored half spectrum of the real field whose coefficients, in the
    full (..., N, N, N) ``fftn`` layout, have the given Hermitian part.

    Entry for entry this is (c(k) + conj(c(-k)))/2 on the bins kz = 0..N/2,
    so an arbitrary complex array becomes the coefficients of a real field.
    """
    N = coeffs.shape[-1]
    m = N // 2 + 1
    out = np.empty(coeffs.shape[:-1] + (m,), dtype=complex)
    # bins 0..N/2 of the mode -k_z sit at indices 0, N-1, ..., N/2
    _conj_negated(
        coeffs, out,
        ((slice(0, 1), slice(0, 1)), (slice(1, m), slice(N - 1, m - 2, -1))),
    )
    out += coeffs[..., :m]
    out *= 0.5
    return out


def _checked(coeffs, shape):
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != shape:
        raise ValueError(f"coefficient shape {coeffs.shape} does not match "
                         f"the half spectrum {shape} of the grid")
    return coeffs


def scalar_from_samples(grid, samples):
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.shape:
        raise ValueError("sample shape does not match grid")
    return ScalarField(grid, _spectrum(samples))


def scalar_from_coeffs(grid, coeffs):
    return ScalarField(grid, _checked(coeffs, grid.spectral_shape))


def vector_from_samples(grid, samples):
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (3,) + grid.shape:
        raise ValueError("sample shape does not match grid")
    return VectorField(grid, _spectrum(samples))


def vector_from_coeffs(grid, coeffs):
    return VectorField(grid, _checked(coeffs, (3,) + grid.spectral_shape))


def zero_vector(grid):
    return VectorField(grid, np.zeros((3,) + grid.spectral_shape, dtype=complex))


def apply_multiplier(f, mult):
    """f, or each component of f, times the half-spectrum multiplier mult."""
    return type(f)(f.grid, f.coeffs * mult)


def _axis_multiplier(grid, axis):
    """2 pi i k_axis / L with the Nyquist plane zeroed, broadcastable
    against the half spectrum."""
    return 2.0j * np.pi * _deriv_modes(grid.N)[axis] / grid.L


def derivative(f, axis):
    """Spectral first partial derivative along axis 0..2."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    return apply_multiplier(f, _axis_multiplier(f.grid, axis))


def gradient(f):
    """Gradient of a scalar field as a VectorField."""
    comps = [derivative(f, ax).coeffs for ax in range(3)]
    return VectorField(f.grid, np.stack(comps))


def divergence(u):
    """Spectral divergence of a vector field."""
    out = sum(derivative(u.component(i), i).coeffs for i in range(3))
    return ScalarField(u.grid, out)


def curl(u):
    """Spectral curl of a vector field."""
    d = lambda i, ax: derivative(u.component(i), ax).coeffs
    cx = d(2, 1) - d(1, 2)
    cy = d(0, 2) - d(2, 0)
    cz = d(1, 0) - d(0, 1)
    return VectorField(u.grid, np.stack([cx, cy, cz]))


def laplacian(f):
    return apply_multiplier(f, f.grid.laplace_symbol())


@lru_cache(maxsize=32)
def _inverse_laplace_symbol(grid):
    k2 = grid.k_squared()
    mult = np.zeros_like(k2, dtype=float)
    nz = k2 > 0
    mult[nz] = -grid.L**2 / (4.0 * np.pi**2 * k2[nz])
    return _frozen(mult)


def inverse_laplacian(f):
    """Inverse Laplacian: multiplier -L^2/(4 pi^2 |k|^2) for k != 0, zero mean."""
    return apply_multiplier(f, _inverse_laplace_symbol(f.grid))


def _leray(coeffs, kx, ky, kz):
    """I - k k^T/|k|^2 on k != 0 for the modes kx, ky, kz, in place."""
    k2 = kx * kx + ky * ky + kz * kz
    k2safe = np.where(k2 > 0, k2, 1.0)
    kdotu = (kx * coeffs[0] + ky * coeffs[1] + kz * coeffs[2]) / k2safe
    for c, k in zip(coeffs, (kx, ky, kz)):
        c -= k * kdotu
    return coeffs


def leray_project(u):
    """Leray projection I - k k^T/|k|^2 on k != 0; mean mode passes through."""
    return VectorField(u.grid, _leray(np.array(u.coeffs), *_deriv_modes(u.grid.N)))


def _keep_mask(grid):
    """Combined 2/3-rule and Nyquist-free retention mask."""
    cut = int(np.floor(2.0 / 3.0 * grid.N / 2.0))
    return _band_mask(grid.N, min(cut, grid.N // 2 - 1))


def dealias(f):
    """2/3-rule truncation; also zeroes the Nyquist planes."""
    return apply_multiplier(f, _keep_mask(f.grid))


def l2_norm(f):
    """L^2 norm over the box: L^3 * sum |coeff|^2 by Plancherel."""
    w = f.grid.hermitian_weight()
    return float(np.sqrt(f.grid.L**3 * np.sum(w * np.abs(f.coeffs) ** 2)))


def l2_inner(f, g):
    """Real L^2 inner product over the box."""
    w = f.grid.hermitian_weight()
    return float(f.grid.L**3 * np.sum(w * np.real(f.coeffs * np.conj(g.coeffs))))


def _padded_along_x(c, N, M):
    """The part of one component's spectrum, zero-padded from N to M > N
    points per axis, that holds modes: the (M, N+1, N/2+1) block of padded
    x rows, ky rows 0..N/2 then N/2..N-1, and kz = 0..N/2.

    The +N/2 coefficient of each axis is shared evenly between the +-N/2
    bins of the padded spectrum so that Hermitian symmetry is preserved;
    along ky both bins are in the block, as its rows N/2 and N/2+1, and on
    the last axis only the +N/2 bin lies in the padded half.  The
    self-conjugate planes kz = 0 and kz = N/2 are padded as the Hermitian
    parts that ``irfftn`` sees of them at N points; the second becomes an
    interior plane, where any other part would show.
    """
    h = N // 2
    planes = c[:, :, ::h]
    herm = np.empty_like(planes)
    _conj_negated(planes, herm, ((slice(None), slice(None)),))
    herm += planes
    herm *= 0.5
    out = np.zeros((M, N + 1, h + 1), dtype=complex)
    xs = ((slice(0, h + 1), slice(0, h + 1)), (slice(M - h, M), slice(h, N)))
    ys = ((slice(0, h + 1), slice(0, h + 1)), (slice(h + 1, N + 1), slice(h, N)))
    for dx, sx in xs:
        for dy, sy in ys:
            out[dx, dy, 1:h] = c[sx, sy, 1:h]
            out[dx, dy, ::h] = herm[sx, sy, :]
    for nyq in (h, M - h):
        out[nyq, :, :] *= 0.5
    out[:, h : h + 2, :] *= 0.5
    out[:, :, h] *= 0.5
    return out


def _oversampled_samples(c, N, M):
    """Samples on M^3 points of one component's half spectrum c, zero-padded
    from N points per axis, as irfftn(padded, s=(M, M, M)) * M**3 gives them.

    The inverse runs one axis at a time and skips the lines that hold only
    padding: along x on the block of _padded_along_x, along y on the planes
    kz <= N/2, then the real transform along z.  irfftn does the same
    one-axis transforms on every line, so the samples keep its bits; its
    1/M^3 is pocketfft's long-double factor, applied before the M^3.
    """
    h = N // 2
    rows = scipy.fft.ifftn(_padded_along_x(c, N, M), axes=(0,), norm="forward")
    out = np.zeros((M, M, M // 2 + 1), dtype=complex)
    out[:, : h + 1, : h + 1] = rows[:, : h + 1]
    out[:, M - h :, : h + 1] = rows[:, h + 1 :]
    del rows
    out[:, :, : h + 1] = scipy.fft.ifftn(out[:, :, : h + 1], axes=(1,),
                                         norm="forward")
    s = _inverse_along_z(out, M)
    s *= M**3
    return s


def _inverse_along_z(h, N):
    """The last pass of irfftn(., s=(N, N, N)) on a half spectrum h whose x
    and y axes are already inverted: the real transform along z, then
    pocketfft's long-double 1/N^3 rounded to h's precision, so the samples
    keep irfftn's bits."""
    s = scipy.fft.irfftn(h, s=(N,), axes=(-1,), norm="forward")
    s *= s.dtype.type(1 / np.longdouble(N**3))
    return s


def _irfftn_in_place(h):
    """irfftn(h, s=(N, N, N)) of an (N, N, N/2+1) half spectrum, bit for
    bit, using h as the scratch of its x and y passes: h is overwritten,
    and no complex temporary of h's size is allocated (pocketfft's
    multi-axis inverse makes one)."""
    N = h.shape[0]
    h = scipy.fft.ifftn(h, axes=(0, 1), norm="forward", overwrite_x=True)
    return _inverse_along_z(h, N)


def sup_norm(f, factor=2):
    """Sup norm evaluated on a factor-times oversampled physical grid.

    One component at a time is padded and inverted, one axis at a time
    (_oversampled_samples); a vector field keeps only the running sum of
    squared components between them.  The value keeps the bits of the full
    padded irfftn, both scalings included: sqrt is monotone and correctly
    rounded, so taking it after the max gives the max of the pointwise
    lengths.
    """
    N = f.grid.N
    M = factor * N
    if isinstance(f, ScalarField):
        return float(np.max(np.abs(_oversampled_samples(f.coeffs, N, M))))
    total = None
    for c in f.coeffs:
        s = _oversampled_samples(c, N, M)
        s *= s
        if total is None:
            total = s
        else:
            total += s
    return float(np.sqrt(np.max(total)))


# --- field dump format -------------------------------------------------------
#
# Text header (latin-1): "nslab-field", "L=..", "N=..", "components=..",
# "time=..", "data", followed by raw little-endian float64 physical samples in
# x-fastest order, one component after another.


def write_field(path, f, time=0.0):
    ncomp = 3 if isinstance(f, VectorField) else 1
    header = (
        f"nslab-field\nL={f.grid.L!r}\nN={f.grid.N}\n"
        f"components={ncomp}\ntime={float(time)!r}\ndata\n"
    )
    s = f.samples()
    if ncomp == 1:
        s = s[np.newaxis]
    with open(path, "wb") as fh:
        fh.write(header.encode("latin-1"))
        for c in range(ncomp):
            fh.write(np.ravel(s[c], order="F").astype("<f8").tobytes())


def read_field(path):
    """Read a field dump; returns (field, time)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.index(b"data\n") + len(b"data\n")
    lines = raw[:end].decode("latin-1").strip().splitlines()
    if lines[0] != "nslab-field":
        raise ValueError(f"{path}: not an nslab field dump")
    meta = dict(line.split("=", 1) for line in lines[1:-1])
    L, N = float(meta["L"]), int(meta["N"])
    ncomp, time = int(meta["components"]), float(meta["time"])
    grid = make_grid(L, N)
    data = np.frombuffer(raw[end:], dtype="<f8")
    if data.size != ncomp * N**3:
        raise ValueError(f"{path}: truncated field dump")
    comps = data.reshape(ncomp, N**3)
    samples = np.stack([comps[c].reshape((N, N, N), order="F") for c in range(ncomp)])
    if ncomp == 1:
        return scalar_from_samples(grid, samples[0]), time
    return vector_from_samples(grid, samples), time
