"""Catalog densities, exact samplers, and the multiplicative noise mechanism.

The observation model is Y = X * U with X drawn from a target density, U
from a known error density, X and U independent.  Samplers are exact (no
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

import numpy as np

from .mellin import CATALOG_IDS, ERROR_IDS

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DensitySpec:
    """A catalog density id together with its role (target or error)."""

    id: str
    role: str

    def __post_init__(self):
        if self.id not in CATALOG_IDS:
            raise ValueError(f"unknown density id {self.id!r}")
        expected = "error" if self.id in ERROR_IDS else "target"
        if self.role != expected:
            raise ValueError(f"density {self.id!r} must have role {expected!r}")


def density_spec(name: str) -> DensitySpec:
    """Build the DensitySpec for a catalog id, inferring the role."""
    role = "error" if name in ERROR_IDS else "target"
    return DensitySpec(id=name, role=role)


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


def density_eval(spec: DensitySpec, x) -> np.ndarray:
    """Exact density value at positive x; zero outside the support."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xx = np.atleast_1d(x)
    if np.any(xx <= 0.0) or not np.all(np.isfinite(xx)):
        raise ValueError("density evaluation requires finite x > 0")
    if spec.id == "beta25":
        inside = (xx > 0.0) & (xx < 1.0)
        vals = np.where(inside, 30.0 * xx * (1.0 - xx) ** 4, 0.0)
    elif spec.id == "loggamma":
        inside = xx > 1.0
        safe = np.where(inside, xx, 2.0)
        vals = np.where(
            inside, (3125.0 / 24.0) * safe**-6.0 * np.log(safe) ** 4, 0.0
        )
    elif spec.id == "gamma5":
        vals = xx**4 * np.exp(-xx) / 24.0
    elif spec.id == "lognormal":
        vals = np.exp(-np.log(xx) ** 2 / 0.08) / np.sqrt(0.08 * np.pi * xx**2)
    elif spec.id == "noise_uniform":
        vals = np.where((xx > 0.5) & (xx < 1.5), 1.0, 0.0)
    else:  # noise_beta
        vals = np.where((xx > 0.0) & (xx < 1.0), 2.0 * xx, 0.0)
    return float(vals[0]) if scalar else vals


def sample(spec: DensitySpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw n independent values from a catalog density.

    Exact samplers: beta25 ~ Beta(2,5); gamma5 ~ Gamma(5, rate 1);
    lognormal = exp(N(0, 0.04)); loggamma = exp(Gamma(5, rate 5));
    noise_uniform ~ U(0.5, 1.5); noise_beta = sqrt(U(tiny, 1)), tiny the
    smallest normal float, so no draw is 0.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    gen = rng.generator()
    if spec.id == "beta25":
        return gen.beta(2.0, 5.0, size=n)
    if spec.id == "gamma5":
        return gen.gamma(5.0, 1.0, size=n)
    if spec.id == "lognormal":
        return gen.lognormal(0.0, 0.2, size=n)
    if spec.id == "loggamma":
        return np.exp(gen.gamma(5.0, 0.2, size=n))
    if spec.id == "noise_uniform":
        return gen.uniform(0.5, 1.5, size=n)
    return np.sqrt(gen.uniform(np.finfo(float).tiny, 1.0, size=n))  # noise_beta


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
