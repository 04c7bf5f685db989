"""The benchmark's three workloads.

Each workload turns a seed into a deterministic stream of operations drawn
from a fixed pool, runs one operation against the package, reduces its
output to a fingerprint, and compares the fingerprint with the golden one
stored for that pool entry in ``golden/<workload>.json``.

Operation streams are built in rounds of fixed composition (the seed picks
targets, pool variants and the order inside a round), so a run that stops
part-way through a round still measures nearly the same mix on every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TARGETS = ("beta25", "loggamma", "gamma5", "lognormal")
NOISES = ("noise_uniform", "noise_beta")
METHODS = ("ridge", "cutoff")
C = 1.0
#: quadrature of the README quick tour; part of every request
T_STEP, T_MAX = 0.01, 150.0
#: every 16th point of the 512-point default x-grid is kept in fingerprints
X_STRIDE = 16
#: Density values must match golden ones to this share of the largest
#: golden value.  Platform round-off is ~1e-13, while shortening the ridge
#: frequency window to 149 or coarsening its step to 0.0125 moves values by
#: 4e-7 to 2e-4 of it.
DENSITY_RTOL = 1e-9
#: MISE rows are printed with six decimals: allow a unit or two in the last one
MISE_ATOL = 2.5e-6
#: per-replication errors of the oracle comparison, relative
ERROR_RTOL = 1e-9

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_INPUT_SEED = 20210803  # fixed: pool inputs never depend on the run seed


@dataclass(frozen=True)
class Op:
    """One operation: its golden key, units of work done, and arguments."""

    key: str
    work: int
    args: tuple


def _close(got, want, atol) -> bool:
    return bool(np.all(np.abs(np.asarray(got, float) - np.asarray(want, float)) <= atol))


class Workload:
    """A workload's operation pool, schedule, execution and output check."""

    name = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def pool(self) -> list:
        """Every operation a seed can select; goldens exist for exactly these."""
        raise NotImplementedError

    def rounds(self, rng: np.random.Generator):
        """Yield lists of operations, one round at a time, forever."""
        raise NotImplementedError

    def cold_op(self, seed: int) -> Op:
        """A fixed-class operation used for set-up timing and warm-up."""
        raise NotImplementedError

    def schedule(self, seed: int, count: int) -> list:
        """The first ``count`` operations of the stream for ``seed``."""
        rng = np.random.default_rng(seed)
        out = []
        for round_ops in self.rounds(rng):
            out.extend(round_ops)
            if len(out) >= count:
                return out[:count]

    def prepare(self, ops) -> None:
        """Materialise inputs for ``ops`` before any timing starts."""

    def run(self, md, op: Op):
        """Execute ``op`` against the package ``md``; return its raw output."""
        raise NotImplementedError

    def fingerprint(self, raw) -> dict:
        """Reduce a raw output to the JSON values stored as golden."""
        raise NotImplementedError

    def compare(self, got: dict, want: dict) -> list:
        """Failure messages for a fingerprint that misses the golden one."""
        raise NotImplementedError

    def probes(self, md) -> list:
        """Extra untimed checks: one entry per check, None or a failure message."""
        return []

    def load_golden(self, golden_dir: Path) -> dict:
        with open(golden_dir / f"{self.name}.json") as fh:
            return json.load(fh)["entries"]


# ---------------------------------------------------------------------------
# serve_estimate
# ---------------------------------------------------------------------------


def draw_sample(target: str, noise: str, n: int, variant: int) -> np.ndarray:
    """Contaminated sample Y = X*U drawn by the benchmark itself (numpy only)."""
    rng = np.random.default_rng(
        [_INPUT_SEED, TARGETS.index(target), NOISES.index(noise), n, variant]
    )
    if target == "beta25":
        x = rng.beta(2.0, 5.0, size=n)
    elif target == "gamma5":
        x = rng.gamma(5.0, 1.0, size=n)
    elif target == "lognormal":
        x = rng.lognormal(0.0, 0.2, size=n)
    else:
        x = np.exp(rng.gamma(5.0, 0.2, size=n))
    if noise == "noise_uniform":
        u = rng.uniform(0.5, 1.5, size=n)
    else:
        u = np.sqrt(rng.uniform(np.finfo(float).tiny, 1.0, size=n))
    return x * u


class ServeEstimate(Workload):
    name = "serve_estimate"
    SIZES = (500, 2000, 10000)
    VARIANTS = 2
    #: (method, n) slots of one round.  Ridge, the CLI default, takes 3/4 of
    #: the traffic; n is 500 for 1/4, 2000 for 1/2 and 10000 for 1/4.  Request
    #: latency clusters by class (cut-off at n <= 2000 ~0.1 s; ridge at n <=
    #: 2000 and cut-off at 10000 ~1 s; ridge at 10000 ~2 s), and this mix puts
    #: the median mid-way into the middle cluster and the 90th percentile
    #: inside the top one, so neither sits on a gap between clusters.
    SLOTS = (
        (("ridge", 500),) * 3
        + (("ridge", 2000),) * 6
        + (("ridge", 10000),) * 3
        + (("cutoff", 500), ("cutoff", 2000), ("cutoff", 2000), ("cutoff", 10000))
    )

    def __init__(self, workdir):
        super().__init__(workdir)
        self.samples = {}

    @staticmethod
    def _op(target, noise, n, variant, method) -> Op:
        return Op(f"{target}|{noise}|{n}|{variant}|{method}", 1, (target, noise, n, variant, method))

    def pool(self):
        return [
            self._op(t, g, n, v, m)
            for t in TARGETS
            for g in NOISES
            for n in self.SIZES
            for v in range(self.VARIANTS)
            for m in METHODS
        ]

    def rounds(self, rng):
        r = 0
        while True:
            ops = []
            for i, (method, n) in enumerate(self.SLOTS):
                noise = NOISES[(i + r) % len(NOISES)]  # alternate within and across rounds
                target = str(rng.choice(TARGETS))
                ops.append(self._op(target, noise, n, int(rng.integers(self.VARIANTS)), method))
            yield [ops[i] for i in rng.permutation(len(ops))]
            r += 1

    def cold_op(self, seed):
        return self._op("gamma5", "noise_uniform", 2000, seed % self.VARIANTS, "ridge")

    def prepare(self, ops):
        for op in ops:
            key = op.args[:4]
            if key not in self.samples:
                self.samples[key] = draw_sample(*key)

    def run(self, md, op):
        target, noise, n, variant, method = op.args
        return estimate_request(md, self.samples[(target, noise, n, variant)], noise, method)

    def fingerprint(self, raw):
        k_hat, values = raw
        return {
            "k_hat": int(k_hat),
            "f": [float(v) for v in values[::X_STRIDE]],
            "l2": float(np.sqrt(np.sum(values * values))),
        }

    def compare(self, got, want):
        errs = []
        if got["k_hat"] != want["k_hat"]:
            errs.append(f"k_hat {got['k_hat']} != golden {want['k_hat']}")
        scale = max(abs(v) for v in want["f"])
        if not _close(got["f"], want["f"], DENSITY_RTOL * scale):
            errs.append("density values differ from golden")
        if not _close(got["l2"], want["l2"], DENSITY_RTOL * want["l2"]):
            errs.append(f"density l2 {got['l2']!r} != golden {want['l2']!r}")
        return errs

    def probes(self, md):
        """An asymmetric Mellin product must be refused, not inverted."""
        y = draw_sample("gamma5", "noise_beta", 500, 0)
        g = md.catalog_mellin("noise_beta", C)

        def lopsided(t):
            return np.where(np.asarray(t) > 0.0, 2.0, 1.0).astype(complex)

        mult = md.MellinMultiplier(spec=md.RidgeSpec(k=1.0, c=C), g_mellin=g, eval_fn=lopsided)
        q = md.QuadratureConfig(t_step=T_STEP, t_max=T_MAX)
        try:
            md.estimate_density(mult, md.EmpiricalMellin(C, y), md.default_x_grid(), q)
        except md.HermitianSymmetryError:
            return [None]
        return ["estimate_density accepted a product without conjugate symmetry"]


def estimate_request(md, y, noise: str, method: str):
    """One request as in the README quick tour: select k, then estimate."""
    q = md.QuadratureConfig(t_step=T_STEP, t_max=T_MAX)
    em = md.EmpiricalMellin(C, y)
    g = md.catalog_mellin(noise, C)
    sel = md.table1_selection_config(noise, C)
    if method == "ridge":
        res = md.select_ridge(em, g, sel, q)
        mult = md.ridge_multiplier(md.RidgeSpec(k=float(res.k_hat), c=C, xi=sel.xi, r=sel.r), g)
    else:
        res = md.select_cutoff(em, g, sel, q)
        mult = md.cutoff_multiplier(md.CutoffSpec(k=float(res.k_hat), c=C), g, q)
    est = md.estimate_density(mult, em, md.default_x_grid(), q)
    return res.k_hat, est.values


# ---------------------------------------------------------------------------
# mc_table
# ---------------------------------------------------------------------------


class McTable(Workload):
    name = "mc_table"
    CELLS = (("noise_uniform", 500), ("noise_uniform", 2000), ("noise_beta", 500), ("noise_beta", 2000))
    SEEDS = (1, 2, 3, 4)
    REPS = 4

    def _op(self, target, error, n, seed) -> Op:
        return Op(f"{target}|{error}|{n}|{seed}", self.REPS, (target, error, n, seed))

    def pool(self):
        return [
            self._op(t, e, n, s) for t in TARGETS for e, n in self.CELLS for s in self.SEEDS
        ]

    def rounds(self, rng):
        while True:
            targets = rng.permutation(TARGETS)
            ops = [
                self._op(str(t), e, n, int(rng.choice(self.SEEDS)))
                for t, (e, n) in zip(targets, self.CELLS)
            ]
            yield [ops[i] for i in rng.permutation(len(ops))]

    def cold_op(self, seed):
        return self._op("gamma5", "noise_uniform", 2000, self.SEEDS[seed % len(self.SEEDS)])

    def _config_path(self, op) -> Path:
        return self.workdir / ("mc-" + op.key.replace("|", "-") + ".ini")

    def prepare(self, ops):
        for op in ops:
            path = self._config_path(op)
            if path.exists():
                continue
            target, error, n, seed = op.args
            path.write_text(
                "[experiment]\n"
                f"targets = {target}\nerrors = {error}\nsample_sizes = {n}\n"
                f"methods = ridge, cutoff\nreplications = {self.REPS}\nseed = {seed}\nc = {C}\n"
                f"[quadrature]\nt_step = {T_STEP}\nt_max = {T_MAX}\n"
                "[grid]\nx_min = 0.01\nx_max = 30\nx_points = 512\n"
            )

    def run(self, md, op):
        out = self.workdir / "mc-out.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = md.cli.main(["mise", "--config", str(self._config_path(op)), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"mise exited with {code}")
        with open(out, newline="") as fh:
            return list(csv.reader(fh))

    def fingerprint(self, raw):
        return {"header": raw[0], "rows": raw[1:]}

    def compare(self, got, want):
        if got["header"] != want["header"] or len(got["rows"]) != len(want["rows"]):
            return ["CSV layout differs from golden"]
        errs = []
        for g, w in zip(got["rows"], want["rows"]):
            if g[:5] != w[:5]:
                errs.append(f"row {g[:5]} != golden {w[:5]}")
            elif not _close([float(v) for v in g[5:]], [float(v) for v in w[5:]], MISE_ATOL):
                errs.append(f"{g[0]} {g[1]}: mise/se {g[5:]} != golden {w[5:]}")
        return errs


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------


class OracleSweep(Workload):
    name = "oracle_sweep"
    #: (error, n) cells; admissible ridge levels are 6, 10, 6, 9 and 16
    CELLS = (
        ("noise_uniform", 500),
        ("noise_uniform", 2000),
        ("noise_beta", 500),
        ("noise_beta", 2000),
        ("noise_beta", 10000),
    )
    SEEDS = (1, 2, 3, 4)
    REPS = 2

    def _op(self, target, error, n, seed) -> Op:
        return Op(f"{target}|{error}|{n}|{seed}", self.REPS, (target, error, n, seed))

    def pool(self):
        return [
            self._op(t, e, n, s) for t in TARGETS for e, n in self.CELLS for s in self.SEEDS
        ]

    def rounds(self, rng):
        while True:
            ops = [
                self._op(str(rng.choice(TARGETS)), e, n, int(rng.choice(self.SEEDS)))
                for e, n in self.CELLS
            ]
            yield [ops[i] for i in rng.permutation(len(ops))]

    def cold_op(self, seed):
        return self._op("gamma5", "noise_uniform", 2000, self.SEEDS[seed % len(self.SEEDS)])

    def run(self, md, op):
        target, error, n, seed = op.args
        cfg = md.ExperimentConfig(
            target=target,
            error=error,
            n=n,
            c=C,
            method="ridge",
            selection=md.table1_selection_config(error, C),
            replications=self.REPS,
            seed=seed,
            x_grid=md.XGridSpec(),
            quadrature=md.QuadratureConfig(t_step=T_STEP, t_max=T_MAX),
        )
        return md.run_selection_oracle_comparison(cfg)

    def fingerprint(self, raw):
        return {
            "k_values": [int(k) for k in raw["k_values"]],
            "selected": [float(v) for v in raw["selected"]],
            "oracle": [float(v) for v in raw["oracle"]],
        }

    def compare(self, got, want):
        errs = []
        if got["k_values"] != want["k_values"]:
            errs.append(f"admissible levels {got['k_values']} != golden {want['k_values']}")
        for field in ("selected", "oracle"):
            w = np.asarray(want[field])
            if len(got[field]) != w.size or not _close(got[field], w, ERROR_RTOL * np.abs(w)):
                errs.append(f"{field} errors {got[field]} != golden {want[field]}")
        return errs


WORKLOADS = {cls.name: cls for cls in (ServeEstimate, McTable, OracleSweep)}
