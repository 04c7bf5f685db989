"""Command-line interface: simulate samples, estimate densities, run the
benchmark MISE grid, and emit bias/variance diagnostics.

All outputs are plain CSV ('.' decimal separator, header row) so figures can
be produced by any plotting tool.  Every command is deterministic given its
arguments; config-file values are overridden by flags.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import os
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .estimators import write_estimate_csv
from .grids import QuadratureConfig
from .mellin import EmpiricalMellin, catalog_mellin
from .model import (
    RngStream,
    contaminate,
    density_spec,
    read_sample_csv,
    sample,
    stream_id_for,
    write_sample_csv,
    write_sample_sidecar,
)
from .risk import (
    TABLE1_ERRORS,
    TABLE1_TARGETS,
    XGridSpec,
    bias_variance_profile,
    run_table_grid,
    table1_selection_config,
    write_mise_csv,
    write_profile_csv,
)
from .selection import Pipeline, write_diagnostics_csv


def _add_common_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, default=1.0, help="development point")
    p.add_argument("--r", type=float, default=2.0, help="ridge power r")
    p.add_argument("--t-step", type=float, default=0.01)
    p.add_argument("--t-max", type=float, default=150.0)


def _selection_for(args, error: str):
    cfg = table1_selection_config(error, args.c)
    overrides = {
        name: getattr(args, name)
        for name in ("chi1", "chi2", "chi", "r")
        if getattr(args, name, None) is not None
    }
    return replace(cfg, **overrides) if overrides else cfg


def cmd_simulate(args) -> int:
    target = density_spec(args.target)
    error = density_spec(args.error)
    x = sample(target, args.n, RngStream(args.seed, stream_id_for("x", args.target, args.error, args.n)))
    y = contaminate(x, error, RngStream(args.seed, stream_id_for("u", args.target, args.error, args.n)))
    out = Path(args.out)
    write_sample_csv(out, y)
    write_sample_sidecar(out.with_suffix(out.suffix + ".json"), args.target, args.error, args.n, args.seed)
    print(f"wrote {args.n} observations to {out}")
    return 0


def cmd_estimate(args) -> int:
    y = read_sample_csv(args.sample)
    em = EmpiricalMellin(args.c, y)
    g = catalog_mellin(args.error, args.c)
    q = QuadratureConfig(t_step=args.t_step, t_max=args.t_max)
    pipeline = Pipeline(g, _selection_for(args, args.error), q, XGridSpec().build())
    result, est = pipeline.fit(args.method, em)
    out = Path(args.out)
    write_estimate_csv(out, est)
    diag_path = out.with_name(out.stem + "_selection" + out.suffix)
    write_diagnostics_csv(diag_path, result)
    print(
        f"k_hat={result.k_hat} sigma_hat={result.sigma_hat:.6g} "
        f"admissible={len(result.admissible)}"
    )
    print(f"wrote estimate to {out} and diagnostics to {diag_path}")
    return 0


def _names(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


#: section -> {INI key: (`run_table_grid` argument, parser)} of a `mise` config
_MISE_KEYS = {
    "experiment": {
        "targets": ("targets", _names),
        "errors": ("errors", _names),
        "methods": ("methods", _names),
        "sample_sizes": ("sizes", lambda text: tuple(int(v) for v in _names(text))),
        "replications": ("reps", int),
        "seed": ("seed", int),
        "c": ("c", float),
    },
    **{f"selection.{error}": {k: (k, float) for k in ("chi1", "chi2", "chi")}
       for error in TABLE1_ERRORS},
    "quadrature": {k: (k, float) for k in ("t_step", "t_max")},
    "grid": {"x_min": ("x_min", float), "x_max": ("x_max", float), "x_points": ("points", int)},
}


def _read_mise_config(path) -> dict:
    """`run_table_grid` arguments for the keys an INI file sets; a section or
    key outside `_MISE_KEYS`, or a value its parser refuses, raises
    `ValueError` naming it."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from None
    if not read:
        raise ValueError(f"config file {path} not found")
    if parser.defaults():
        raise ValueError("config section [DEFAULT] is not read; set its keys in their own sections")
    sections = {}
    for section in parser.sections():
        if section not in _MISE_KEYS:
            raise ValueError(f"unknown config section [{section}]; known: {', '.join(_MISE_KEYS)}")
        sections[section] = {}
        for key, text in parser[section].items():
            if key not in _MISE_KEYS[section]:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            name, conv = _MISE_KEYS[section][key]
            try:
                sections[section][name] = conv(text)
            except ValueError as exc:
                raise ValueError(f"config key {key!r} in [{section}]: {exc}") from None
    out = sections.pop("experiment", {})
    if "quadrature" in sections:
        out["quadrature"] = QuadratureConfig(**sections.pop("quadrature"))
    if "grid" in sections:
        out["x_grid"] = XGridSpec(**sections.pop("grid"))
    if sections:  # only selection.<error> sections are left
        out["chi_overrides"] = {s.split(".", 1)[1]: chi for s, chi in sections.items()}
    return out


def cmd_mise(args) -> int:
    params = {"reps": 100, "seed": 1}
    params.update(_read_mise_config(args.config) if args.config else {})
    for name in ("reps", "seed"):
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    rows = run_table_grid(**params)
    write_mise_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    sel = _selection_for(args, args.error)
    rows = bias_variance_profile(
        target=args.target,
        error=args.error,
        c=args.c,
        n=args.n,
        k_grid=list(range(1, args.k_max + 1)),
        reps=args.reps,
        seed=args.seed,
        quadrature=QuadratureConfig(t_step=args.t_step, t_max=args.t_max),
        selection=sel,
    )
    write_profile_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mellin-deconv",
        description="Density estimation under multiplicative noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a contaminated sample to CSV")
    p.add_argument("--target", required=True, choices=TABLE1_TARGETS)
    p.add_argument("--error", required=True, choices=TABLE1_ERRORS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate a density from a sample CSV")
    p.add_argument("--sample", required=True, help="input CSV with header 'y'")
    p.add_argument("--error", required=True, choices=TABLE1_ERRORS)
    p.add_argument("--method", choices=("ridge", "cutoff"), default="ridge")
    p.add_argument("--out", required=True, help="output estimate CSV path")
    p.add_argument("--chi1", type=float, default=None, help="ridge constant chi1")
    p.add_argument("--chi2", type=float, default=None, help="ridge constant chi2")
    p.add_argument("--chi", type=float, default=None, help="cut-off constant chi")
    _add_common_selection_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mise", help="run the benchmark MISE scenario grid")
    p.add_argument("--config", default=None, help="INI-style config file")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mise)

    p = sub.add_parser("diagnose", help="bias/variance profile vs risk bound")
    p.add_argument("--target", required=True, choices=TABLE1_TARGETS)
    p.add_argument("--error", required=True, choices=TABLE1_ERRORS)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_common_selection_flags(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; `parse_args` returns a
    fresh namespace per call, so nothing carries over between calls."""
    return build_parser()


#: glibc `mallopt` parameters (malloc.h) and the values the CLI's process sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20


@cache
def _keep_freed_heap() -> None:
    """Serve blocks up to `MMAP_THRESHOLD` from the heap, and keep up to
    `TRIM_THRESHOLD` of it free rather than return it to the kernel.

    numpy's FFT allocates a working copy of 0.5-0.9 MB on every call, even
    with ``out=``; at glibc's defaults each copy is mapped and zero-filled
    afresh, about 2 200 minor faults per `mise` scenario.  Set once per
    process by `main` only, so importing the package never changes the
    allocator; does nothing off glibc."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
