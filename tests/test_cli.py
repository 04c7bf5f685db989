import ctypes
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mellin_deconv import MellinFunction, QuadratureConfig, cli, mellin, risk
from mellin_deconv.cli import main
from mellin_deconv.grids import MAX_X_POINTS
from mellin_deconv.model import read_sample_csv


def _run(*argv):
    return main(list(argv))


def test_simulate_writes_sample_and_sidecar(tmp_path):
    out = tmp_path / "s.csv"
    rc = _run("simulate", "--target", "gamma5", "--error", "noise_uniform",
              "--n", "200", "--seed", "7", "--out", str(out))
    assert rc == 0
    y = read_sample_csv(out)
    assert y.size == 200 and np.all(y > 0.0)
    meta = json.loads((tmp_path / "s.csv.json").read_text())
    assert meta == {"target": "gamma5", "error": "noise_uniform", "n": 200, "seed": 7}


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        _run("simulate", "--target", "beta25", "--error", "noise_beta",
             "--n", "50", "--seed", "3", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_estimate_round_trip(tmp_path, capsys):
    s = tmp_path / "s.csv"
    _run("simulate", "--target", "beta25", "--error", "noise_uniform",
         "--n", "2000", "--seed", "1", "--out", str(s))
    est = tmp_path / "est.csv"
    rc = _run("estimate", "--sample", str(s), "--error", "noise_uniform",
              "--method", "ridge", "--out", str(est))
    assert rc == 0
    printed = capsys.readouterr().out
    assert "k_hat=" in printed and "sigma_hat=" in printed and "admissible=" in printed
    lines = est.read_text().strip().splitlines()
    assert lines[0] == "x,f_hat"
    assert len(lines) == 1 + 512
    diag = tmp_path / "est_selection.csv"
    assert diag.exists()
    rc = _run("estimate", "--sample", str(s), "--error", "noise_uniform",
              "--method", "cutoff", "--out", str(tmp_path / "estc.csv"))
    assert rc == 0


def test_estimate_rejects_bad_sample(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y\n1.0\n-1\n")
    rc = _run("estimate", "--sample", str(bad), "--error", "noise_beta",
              "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "row 3" in capsys.readouterr().err


def test_estimate_rejects_empty_sample(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    rc = _run("estimate", "--sample", str(bad), "--error", "noise_beta",
              "--out", str(tmp_path / "x.csv"))
    assert rc == 1


def test_estimate_at_degenerate_point_self_protects(tmp_path, capsys):
    # the uniform noise transform has zeros at c=0; the admissibility bound
    # inflates across them, so the data-driven window stays short of the
    # first zero near t=5.72 and the command still succeeds
    s = tmp_path / "s.csv"
    _run("simulate", "--target", "gamma5", "--error", "noise_uniform",
         "--n", "100", "--seed", "2", "--out", str(s))
    rc = _run("estimate", "--sample", str(s), "--error", "noise_uniform",
              "--method", "cutoff", "--c", "0.0", "--out", str(tmp_path / "x.csv"))
    assert rc == 0
    out = capsys.readouterr().out
    k_hat = int(out.split("k_hat=")[1].split()[0])
    assert k_hat <= 5


def test_estimate_unwritable_output(tmp_path, capsys):
    s = tmp_path / "s.csv"
    _run("simulate", "--target", "gamma5", "--error", "noise_beta",
         "--n", "50", "--seed", "2", "--out", str(s))
    rc = _run("estimate", "--sample", str(s), "--error", "noise_beta",
              "--out", str(tmp_path / "missing_dir" / "x.csv"))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_mise_grid_row_count(tmp_path):
    out = tmp_path / "mise.csv"
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(
        "[experiment]\n"
        "replications = 1\n"
        "seed = 5\n"
        "sample_sizes = 200, 400\n"
        "[quadrature]\n"
        "t_step = 0.01\n"
        "t_max = 100\n"
    )
    rc = _run("mise", "--config", str(cfgfile), "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scenario,method,n,c,reps,mise_x100,se_x100"
    assert len(lines) == 1 + 32  # 4 targets x 2 errors x 2 sizes x 2 methods
    # reps=1 reports zero standard error
    assert all(line.rsplit(",", 1)[1] == "0.000000" for line in lines[1:])


def test_mise_missing_config(tmp_path, capsys):
    rc = _run("mise", "--config", str(tmp_path / "none.ini"),
              "--out", str(tmp_path / "o.csv"))
    assert rc == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, named",
    [
        ("[experiment]\nreplication = 5\n", "replication"),
        ("[experiment]\nseed = 5\n[quadrature]\nt_stp = 0.02\n", "t_stp"),
        ("[selection.noise_beta]\nchi3 = 1.0\n", "chi3"),
        ("[selection.noise_bta]\nchi = 1.0\n", "selection.noise_bta"),
        ("[grids]\nx_min = 0.1\n", "grids"),
        ("[DEFAULT]\nseed = 5\n", "DEFAULT"),
        ("[quadrature]\nrel_tail_tol = 1e-3\n", "rel_tail_tol"),
    ],
)
def test_mise_refuses_unknown_config_keys(tmp_path, capsys, body, named):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(body)
    out = tmp_path / "mise.csv"
    assert _run("mise", "--config", str(cfgfile), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, named",
    [
        ("[experiment]\nreplications = 2.0\n", "config key 'replications' in [experiment]: "),
        ("[experiment]\nsample_sizes = 500, x\n", "config key 'sample_sizes' in [experiment]: "),
        ("[quadrature]\nt_step = fine\n", "config key 't_step' in [quadrature]: "),
        ("[grid]\nx_points = 1e3\n", "config key 'x_points' in [grid]: "),
    ],
)
def test_mise_config_value_errors_name_the_key(tmp_path, capsys, body, named):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(body)
    assert _run("mise", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")) == 1
    assert capsys.readouterr().err.startswith("error: " + named)


#: one small scenario per noise on a coarse grid
_SMALL_MISE = (
    "[experiment]\nreplications = 1\nseed = 5\ntargets = gamma5,\n"
    "sample_sizes = {sizes}\n[quadrature]\nt_step = 0.02\nt_max = 60\n"
)


def test_mise_sample_sizes_take_a_trailing_comma_like_the_names(tmp_path):
    outputs = []
    for i, sizes in enumerate(("300, 600,", "300, 600")):
        cfgfile, out = tmp_path / f"cfg{i}.ini", tmp_path / f"mise{i}.csv"
        cfgfile.write_text(_SMALL_MISE.format(sizes=sizes))
        assert _run("mise", "--config", str(cfgfile), "--out", str(out)) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].strip().splitlines()) == 1 + 8  # 2 errors x 2 sizes x 2 methods


def test_mise_refuses_an_x_grid_past_the_point_bound_by_name(tmp_path, capsys):
    cfgfile, out = tmp_path / "cfg.ini", tmp_path / "mise.csv"
    cfgfile.write_text(_SMALL_MISE.format(sizes="300") + f"[grid]\nx_points = {MAX_X_POINTS + 1}\n")
    assert _run("mise", "--config", str(cfgfile), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"MAX_X_POINTS={MAX_X_POINTS}, got points={MAX_X_POINTS + 1}" in err
    assert not out.exists()


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    cfgfile, out = tmp_path / "cfg.ini", tmp_path / "mise.csv"
    cfgfile.write_text(_SMALL_MISE.format(sizes="300"))
    calls = (
        ["mise", "--config", str(cfgfile), "--out", str(out)],
        ["estimate", "--sample", str(tmp_path / "none.csv"), "--error", "noise_beta",
         "--out", str(tmp_path / "e.csv")],
    )

    def outcome(argv):
        code = main(list(argv))
        printed = capsys.readouterr()
        return code, printed.out, printed.err, out.read_bytes()

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        shared = [outcome(argv) for argv in calls]
        assert built == [1]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()  # a parser per call, as before
            fresh.append(outcome(argv))
    finally:
        cli._parser.cache_clear()
    assert [got[0] for got in shared] == [0, 1]
    assert shared == fresh


_GLIBC = os.name == "posix" and hasattr(ctypes.CDLL(None), "gnu_get_libc_version")


def _python(script, *args):
    """stdout of ``script`` run in a fresh interpreter that imports this
    checkout's package, so its allocator is not the test process's."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=env, check=True)
    return done.stdout


@pytest.mark.skipif(not _GLIBC, reason="the CLI sets the allocator on glibc only")
def test_warm_mise_calls_map_no_fresh_pages(tmp_path):
    # numpy's FFT allocates a 0.5-0.9 MB working copy per call; with glibc's
    # default thresholds every copy is mapped and zero-filled afresh.  Before
    # `main` kept the freed heap this test read 178.0 minor faults per warm
    # call (304.0 run from a script file, so the count follows the heap's
    # history); now it reads about 2.
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(_SMALL_MISE.format(sizes="300"))
    out = _python(
        "import resource, sys\n"
        "from mellin_deconv.cli import main\n"
        "argv = ['mise', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "for _ in range(2): assert main(argv) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5): assert main(argv) == 0\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n",
        cfgfile, tmp_path / "mise.csv",
    )
    assert float(out.splitlines()[-1]) < 50


class _FakeLibc:
    def __init__(self, calls, glibc=True):
        self.mallopt = lambda param, value: calls.append((param, value)) or 1
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.99"


def test_only_main_sets_the_allocator_once_per_process(tmp_path, monkeypatch):
    cfgfile, out = tmp_path / "cfg.ini", tmp_path / "mise.csv"
    cfgfile.write_text(_SMALL_MISE.format(sizes="300"))
    argv = ["mise", "--config", str(cfgfile), "--out", str(out)]
    # a fresh process that imports the package and runs the MISE grid itself
    assert _python(
        "import mellin_deconv\n"
        "from mellin_deconv import QuadratureConfig, cli, risk\n"
        "risk.run_table_grid(targets=('gamma5',), errors=('noise_beta',), sizes=(300,), reps=1,\n"
        "                    seed=5, quadrature=QuadratureConfig(t_step=0.02, t_max=60.0))\n"
        "print(cli._keep_freed_heap.cache_info().misses)\n"
    ).split() == ["0"]

    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _FakeLibc(calls))
    cli._keep_freed_heap.cache_clear()
    try:
        for _ in range(3):
            assert main(argv) == 0
        assert calls == [(cli.M_MMAP_THRESHOLD, 4 << 20), (cli.M_TRIM_THRESHOLD, 64 << 20)]
        written = out.read_bytes()

        calls.clear()
        out.unlink()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: _FakeLibc(calls, glibc=False))
        cli._keep_freed_heap.cache_clear()
        assert main(argv) == 0
        assert calls == [] and out.read_bytes() == written
    finally:
        cli._keep_freed_heap.cache_clear()


def test_mise_calls_tabulate_each_noise_once(tmp_path, monkeypatch):
    # repeated `mise` calls share one pipeline per noise configuration, so
    # M_g is evaluated on the frequency grid once per configuration
    grid = QuadratureConfig(t_step=0.02, t_max=60.0).t
    tabulated = []

    def counting(name, c):
        g = mellin.catalog_mellin(name, c)

        def eval_fn(t):
            if np.array_equal(t, grid):
                tabulated.append(name)
            return g.eval_fn(t)

        return MellinFunction(g.c, eval_fn, g.decay_exponent, g.decay_upper)

    monkeypatch.setattr(risk, "catalog_mellin", counting)
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(_SMALL_MISE.format(sizes="300, 600").replace("gamma5,", "gamma5, beta25"))
    for _ in range(3):
        assert _run("mise", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")) == 0
    assert sorted(tabulated) == ["noise_beta", "noise_uniform"]


def test_mise_chi_override_section(tmp_path):
    out = tmp_path / "mise.csv"
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(
        "[experiment]\n"
        "replications = 1\n"
        "seed = 5\n"
        "targets = gamma5\n"
        "errors = noise_beta\n"
        "sample_sizes = 300\n"
        "[selection.noise_beta]\n"
        "chi1 = 0.5\n"
        "chi2 = 0.5\n"
        "chi = 2.0\n"
    )
    rc = _run("mise", "--config", str(cfgfile), "--out", str(out))
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 2


def test_diagnose_profile(tmp_path):
    out = tmp_path / "prof.csv"
    rc = _run("diagnose", "--target", "gamma5", "--error", "noise_beta",
              "--n", "300", "--k-max", "3", "--reps", "3", "--seed", "1",
              "--t-max", "100", "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,bias_sq,variance,bound_bias,bound_var"
    assert len(lines) == 4


def test_diagnose_single_k(tmp_path):
    out = tmp_path / "prof.csv"
    rc = _run("diagnose", "--target", "gamma5", "--error", "noise_beta",
              "--n", "300", "--k-max", "1", "--reps", "2", "--seed", "1",
              "--t-max", "100", "--out", str(out))
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_diagnose_refuses_non_finite_profile_inputs(tmp_path, capsys):
    # at c = 190 lognormal's transform overflows: an error, not a row of inf and nan
    out = tmp_path / "p.csv"
    with np.errstate(over="ignore"):
        rc = _run("diagnose", "--target", "lognormal", "--error", "noise_uniform",
                  "--c", "190", "--n", "500", "--k-max", "2", "--reps", "2", "--out", str(out))
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("c, message", [
    ("190", "error: lognormal transform takes non-finite values on the grid at c=190\n"),
    ("100", "error: sigma_c of lognormal * noise_uniform is not finite at c=100.0\n"),
], ids=["transform", "sigma_c"])
def test_diagnose_names_an_overflowing_input_without_a_warning(tmp_path, capsys, c, message):
    # lognormal's transform overflows at c = 190 and sigma_c at c = 100:
    # one error line on stderr, naming the density and c, and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run("diagnose", "--target", "lognormal", "--error", "noise_uniform", "--c", c,
                  "--n", "500", "--k-max", "2", "--reps", "2", "--out", str(tmp_path / "p.csv"))
    assert rc == 1 and [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == message


def test_diagnose_refuses_the_penalty_constants_estimate_takes(tmp_path, capsys):
    # the profile reads only c, r and xi, so diagnose has no chi flags
    for flag in ("--chi1", "--chi2", "--chi"):
        with pytest.raises(SystemExit) as exc:
            _run("diagnose", "--target", "gamma5", "--error", "noise_beta",
                 flag, "0.5", "--out", str(tmp_path / "prof.csv"))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    s = tmp_path / "s.csv"
    _run("simulate", "--target", "gamma5", "--error", "noise_beta",
         "--n", "500", "--seed", "2", "--out", str(s))
    rc = _run("estimate", "--sample", str(s), "--error", "noise_beta", "--chi1", "0.1",
              "--chi2", "0.2", "--chi", "2.0", "--out", str(tmp_path / "est.csv"))
    assert rc == 0
    rc = _run("estimate", "--sample", str(s), "--error", "noise_beta", "--chi1", "0.5",
              "--out", str(tmp_path / "est.csv"))
    assert rc == 1 and "need finite chi2 >= chi1 > 0" in capsys.readouterr().err


def test_estimate_refuses_a_grid_past_the_node_bound(tmp_path, capsys):
    s = tmp_path / "s.csv"
    s.write_text("y\n0.5\n1.2\n2.0\n3.1\n")
    rc = _run("estimate", "--sample", str(s), "--error", "noise_beta",
              "--t-step", "1e-9", "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "300000000001 nodes" in err


def test_a_ridge_power_past_the_float_range_exits_with_one_error_line(tmp_path, capsys):
    s = tmp_path / "s.csv"
    _run("simulate", "--target", "gamma5", "--error", "noise_beta",
         "--n", "500", "--seed", "2", "--out", str(s))
    capsys.readouterr()
    for command in (("estimate", "--sample", str(s)),
                    ("diagnose", "--target", "gamma5", "--k-max", "12", "--n", "200", "--reps", "2")):
        rc = _run(*command, "--error", "noise_beta", "--r", "200", "--out", str(tmp_path / "x.csv"))
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and len(err.splitlines()) == 1
        assert "r=200, level k=" in err
    assert not (tmp_path / "x.csv").exists()


def test_estimate_refuses_a_negative_ridge_power(tmp_path, capsys):
    s = tmp_path / "s.csv"
    _run("simulate", "--target", "gamma5", "--error", "noise_beta",
         "--n", "500", "--seed", "2", "--out", str(s))
    rc = _run("estimate", "--sample", str(s), "--error", "noise_beta",
              "--r", "-1", "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()
