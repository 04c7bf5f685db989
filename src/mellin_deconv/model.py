"""Catalog densities, exact samplers, and the multiplicative noise mechanism.

The observation model is Y = X * U with X drawn from a target density, U
from a known error density, X and U independent.  Every fact about a
built-in density is one `CATALOG` record.  Samplers are exact (no
inverse-CDF numerics) and reproducible through counter-style RNG streams:
identical (seed, stream_id) pairs reproduce identical draws, distinct
stream ids give independent streams regardless of execution order.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .special import log_beta, log_gamma

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class CatalogDensity:
    """One built-in density: its ``role`` ("target" or "error"), its
    ``density`` on an array of finite x > 0, its exact ``sampler(generator,
    n)``, its closed-form Mellin transform ``transform(t, c)`` for c in the
    open interval ``c_range``, and the polynomial ``decay`` order of that
    transform in t (None: faster than polynomial)."""

    role: str
    density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    transform: Callable[[np.ndarray, float], np.ndarray]
    c_range: tuple = (-np.inf, np.inf)
    decay: Optional[float] = None


def _loggamma_density(x):
    inside = x > 1.0
    safe = np.where(inside, x, 2.0)
    return np.where(inside, (3125.0 / 24.0) * safe**-6.0 * np.log(safe) ** 4, 0.0)


def _uniform_noise_transform(t, c):
    z = np.asarray(c + 1j * t, dtype=np.complex128)
    small = np.abs(z) < 1e-4  # removable singularity at z = 0
    zs = np.where(small, 1.0, z)
    out = np.asarray((1.5**zs - 0.5**zs) / zs)
    a, b = np.log(1.5), np.log(0.5)
    near = z[small]  # the series only where it is used
    out[small] = np.log(3.0) * (1.0 + near * (a + b) / 2.0 + near**2 * (a * a + a * b + b * b) / 6.0)
    return out


_LOG_B25 = log_beta(2.0, 5.0)
_LOG_24 = np.log(24.0)

#: the built-in densities, one record each
CATALOG = {
    "beta25": CatalogDensity(  # Beta(2, 5)
        "target",
        lambda x: np.where((x > 0.0) & (x < 1.0), 30.0 * x * (1.0 - x) ** 4, 0.0),
        lambda gen, n: gen.beta(2.0, 5.0, size=n),
        lambda t, c: np.exp(log_beta((c + 1.0) + 1j * t, 5.0) - _LOG_B25),
        c_range=(-1.0, np.inf), decay=5.0,
    ),
    "loggamma": CatalogDensity(  # exp(Gamma(5, rate 5))
        "target",
        _loggamma_density,
        lambda gen, n: np.exp(gen.gamma(5.0, 0.2, size=n)),
        lambda t, c: (5.0 / ((6.0 - c) - 1j * t)) ** 5,
        c_range=(-np.inf, 6.0), decay=5.0,
    ),
    "gamma5": CatalogDensity(  # Gamma(5, rate 1)
        "target",
        lambda x: x**4 * np.exp(-x) / 24.0,
        lambda gen, n: gen.gamma(5.0, 1.0, size=n),
        lambda t, c: np.exp(log_gamma((c + 4.0) + 1j * t) - _LOG_24),
        c_range=(-4.0, np.inf),
    ),
    "lognormal": CatalogDensity(  # exp(N(0, 0.04))
        "target",
        lambda x: np.exp(-np.log(x) ** 2 / 0.08) / np.sqrt(0.08 * np.pi * x**2),
        lambda gen, n: gen.lognormal(0.0, 0.2, size=n),
        lambda t, c: np.exp(0.02 * ((c - 1.0) + 1j * t) ** 2),
    ),
    "noise_uniform": CatalogDensity(  # U(0.5, 1.5)
        "error",
        lambda x: np.where((x > 0.5) & (x < 1.5), 1.0, 0.0),
        lambda gen, n: gen.uniform(0.5, 1.5, size=n),
        _uniform_noise_transform,
        decay=1.0,
    ),
    "noise_beta": CatalogDensity(  # density 2x; U(tiny, 1) keeps every draw above 0
        "error",
        lambda x: np.where((x > 0.0) & (x < 1.0), 2.0 * x, 0.0),
        lambda gen, n: np.sqrt(gen.uniform(np.finfo(float).tiny, 1.0, size=n)),
        lambda t, c: 2.0 / ((c + 1.0) + 1j * t),
        c_range=(-1.0, np.inf), decay=1.0,
    ),
}
CATALOG_IDS = tuple(CATALOG)
TARGET_IDS = tuple(name for name in CATALOG if CATALOG[name].role == "target")
ERROR_IDS = tuple(name for name in CATALOG if CATALOG[name].role == "error")


def _record(name: str) -> CatalogDensity:
    if name not in CATALOG:
        raise ValueError(f"unknown density id {name!r}")
    return CATALOG[name]


@dataclass(frozen=True)
class DensitySpec:
    """A catalog density id together with its role (target or error)."""

    id: str
    role: str

    def __post_init__(self):
        expected = _record(self.id).role
        if self.role != expected:
            raise ValueError(f"density {self.id!r} must have role {expected!r}")


def density_spec(name: str) -> DensitySpec:
    """Build the DensitySpec for a catalog id, inferring the role."""
    return DensitySpec(id=name, role=_record(name).role)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & _MASK64, self.stream_id & _MASK64])
        )


def stream_id_for(*parts) -> int:
    """Stable 64-bit stream id from arbitrary hashable labels.

    Used to key replication r of a scenario so that Monte-Carlo draws do not
    depend on execution order.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def whole_count(value, what: str) -> int:
    """``value`` as an int of at least 1; an int, a whole float or a numpy
    integer passes, a bool, a fraction or a value below 1 raises `ValueError`."""
    if isinstance(value, (bool, np.bool_)) or not float(value).is_integer() or value < 1:
        raise ValueError(f"{what} must be a whole number of at least 1, got {value!r}")
    return int(value)


def density_eval(spec: DensitySpec, x) -> np.ndarray:
    """Exact density value at positive x; zero outside the support."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xx = np.atleast_1d(x)
    if np.any(xx <= 0.0) or not np.all(np.isfinite(xx)):
        raise ValueError("density evaluation requires finite x > 0")
    vals = CATALOG[spec.id].density(xx)
    return float(vals[0]) if scalar else vals


def sample(spec: DensitySpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw n independent values from a catalog density with its exact sampler."""
    n = whole_count(n, "sample size")
    return CATALOG[spec.id].sampler(rng.generator(), n)


def contaminate(
    x_sample: np.ndarray, error_spec: DensitySpec, rng: RngStream
) -> np.ndarray:
    """Multiply each observation by a fresh independent error draw."""
    if error_spec.role != "error":
        raise ValueError(f"density {error_spec.id!r} is not an error density")
    x = np.asarray(x_sample, dtype=float)
    u = sample(error_spec, x.size, rng)
    return x * u


def write_sample_csv(path, y: np.ndarray) -> None:
    """Write a sample as single-column CSV with header ``y``."""
    y = np.asarray(y, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"])
        for v in y:
            writer.writerow([repr(float(v))])


def read_sample_csv(path) -> np.ndarray:
    """Read a single-column sample CSV (header ``y``), validating positivity.

    Errors carry the 1-based row number of the offending entry.
    """
    values = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("sample file is empty") from None
        if len(header) != 1 or header[0].strip() != "y":
            raise ValueError("sample file must have the single header column 'y'")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1:
                raise ValueError(f"row {row_no}: expected a single column")
            try:
                v = float(row[0])
            except ValueError:
                raise ValueError(
                    f"row {row_no}: {row[0]!r} is not a decimal number"
                ) from None
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"row {row_no}: sample values must be positive")
            values.append(v)
    if not values:
        raise ValueError("sample file contains no data rows")
    return np.asarray(values, dtype=float)


def write_sample_sidecar(path, target: str, error: str, n: int, seed: int) -> None:
    """Record the provenance of a simulated sample next to its CSV."""
    meta = {"target": target, "error": error, "n": int(n), "seed": int(seed)}
    Path(path).write_text(json.dumps(meta, indent=2) + "\n")
