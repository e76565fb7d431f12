import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wignermoments
from wignermoments import cli, moments

PI = math.pi


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_json_report(capsys):
    code, out, err = run(capsys, ["analyze", "--state", "spssv", "--r", "0.5"])
    assert code == 0 and err == ""
    report = moments.read_report(out)
    assert report.state == "spssv(r=0.5,parity=1)"
    assert report.verdict == "NegativityCertified"
    assert report.moments[2] == pytest.approx(1.0 / (4.0 * PI**2), rel=1e-10)


def test_analyze_vacuum_inconclusive(capsys):
    code, out, _ = run(capsys, ["analyze", "--state", "vacuum"])
    assert code == 0
    assert moments.read_report(out).verdict == "Inconclusive"


def test_analyze_csv_format(capsys):
    code, out, _ = run(
        capsys, ["analyze", "--state", "fock", "--n", "1", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,w2,w3,delta,verdict"
    cells = lines[1].split(",")
    assert cells[0] == "fock(n=1)"
    assert float(cells[1]) == pytest.approx(1.0 / (2.0 * PI), rel=1e-12)
    assert cells[4] == "NegativityCertified"


def test_analyze_missing_state_flag(capsys):
    code, out, err = run(capsys, ["analyze"])
    assert code == 2
    assert out == ""
    assert err.startswith("error (invalid-argument):")


def test_analyze_missing_parameter(capsys):
    code, _, err = run(capsys, ["analyze", "--state", "fock"])
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--state", "fock"], "--n"),
        (["--state", "noon", "--phi", "0.5"], "--N"),
        (["--state", "tmsv"], "--r"),
        (["--state", "spssv", "--parity", "0"], "--r"),
        (["--state", "mixed01", "--n", "1"], "--lam"),
    ],
)
def test_analyze_required_flag_messages(capsys, argv, flag):
    code, out, err = run(capsys, ["analyze", *argv])
    assert code == 2 and out == ""
    assert err == f"error (invalid-argument): --state {argv[1]} requires {flag}\n"


def test_analyze_optional_flags_reach_the_spec(capsys):
    _, out, _ = run(capsys, ["analyze", "--state", "noon", "--N", "1", "--phi", "0.5"])
    assert moments.read_report(out).state == "noon(N=1,phi=0.5)"
    _, out, _ = run(capsys, ["analyze", "--state", "spssv", "--r", "0.5", "--parity", "0"])
    assert moments.read_report(out).state == "spssv(r=0.5,parity=0)"


def test_analyze_non_finite_result_exit_code(capsys):
    # Fock(300) overflows the Laguerre recurrence: no bare NaN on stdout
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, ["analyze", "--state", "fock", "--n", "300"])
    assert code == 3
    assert out == ""
    assert err.startswith("error (non-finite-result):")


def test_non_finite_exit_writes_one_stderr_line():
    # no numpy RuntimeWarning from the overflow ahead of the taxonomy line
    src = str(Path(wignermoments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wignermoments", "analyze", "--state", "fock", "--n", "300"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error (non-finite-result):")


def test_analyze_strong_squeezing_takes_the_exact_core(capsys):
    # the default route integrates vacuum x vacuum: w_m = 1/(m^2 pi^(2(m-1)))
    code, out, err = run(capsys, ["analyze", "--state", "tmsv", "--r", "9.5"])
    assert code == 0 and err == ""
    report = moments.read_report(out)
    assert report.quadrature.scheme == "gauss_laguerre_polar"
    for m in (1, 2, 3):
        exact = 1.0 / (m * m * PI ** (2 * (m - 1)))
        assert report.moments[m] == pytest.approx(exact, rel=1e-14, abs=0), m
    assert report.verdict == "Inconclusive"


@pytest.mark.parametrize("state", ["tmsv", "spssv"])
def test_analyze_saturated_squeezing_with_cutoff_exit_code(capsys, state):
    # tanh(20) rounds to 1: no cutoff holds the state, a precondition failure
    code, out, err = run(
        capsys, ["analyze", "--state", state, "--r", "20", "--cutoff", "5"]
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error (cutoff-too-small):")


def test_analyze_dense_matrix_over_cap_exit_code(capsys):
    # cutoff 1857 holds tmsv(r=3), but its density matrix would have side
    # 1858^2: refused as a resource limit instead of a numpy allocation error
    code, out, err = run(
        capsys, ["analyze", "--state", "tmsv", "--r", "3", "--cutoff", "1857"]
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error (size-limit):")


def test_analyze_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["analyze", "--state", "mixed01", "--lam", "0.2", "--out", str(path)]
    )
    assert code == 0 and out == ""
    report = moments.read_report(path.read_text())
    assert report.verdict == "NegativityCertified"


# ---------------------------------------------------------------------------
# table and figure


def test_table2_values(capsys):
    code, out, _ = run(capsys, ["table", "table2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,w2,w3,delta"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.159155, abs=1e-5)
    assert float(first[2]) == pytest.approx(0.033774, abs=1e-5)
    # only the vacuum row has nonpositive delta
    deltas = [float(line.split(",")[3]) for line in lines[1:]]
    assert deltas[0] < 0.0
    assert all(d > 0.0 for d in deltas[1:])


def test_table1_values(capsys):
    code, out, _ = run(capsys, ["table", "table1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    row1 = lines[1].split(",")
    assert row1[0] == "1"
    assert float(row1[1]) == pytest.approx(1.0 / (4.0 * PI**2), rel=1e-9)
    assert float(row1[2]) == pytest.approx(1.0 / (81.0 * PI**4), rel=1e-8)


def test_figure_mixed_sweep_footer(capsys):
    code, out, _ = run(
        capsys,
        ["figure", "mixed-sweep", "--start", "0.25", "--stop", "0.35", "--steps", "3"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,delta,verdict"
    assert len(lines) == 5
    footer = lines[-1].split(",")
    assert footer[0] == "lambda_star"
    assert float(footer[1]) == pytest.approx(0.3092336695367241, abs=1e-9)


# ---------------------------------------------------------------------------
# grid and multicopy


def test_grid_output_shape(capsys):
    code, out, _ = run(
        capsys,
        ["grid", "--state", "fock", "--n", "1", "--half-width", "3", "--points", "20"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,p,w"
    assert len(lines) == 1 + 20 * 20
    # origin is not on the midpoint grid, but the most negative sample of
    # the one-photon state sits near it
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert min(values) < -0.25


def test_grid_past_the_factorial_overflow(capsys):
    # 171! leaves the float range; the kernel couplings must not
    code, out, err = run(
        capsys, ["grid", "--state", "fock", "--n", "1", "--cutoff", "171"]
    )
    assert code == 0 and err == ""
    rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
    u = rows[:, 0] ** 2 + rows[:, 1] ** 2
    want = -np.exp(-u) / PI * np.polynomial.laguerre.lagval(2.0 * u, [0.0, 1.0])
    assert rows.shape == (64 * 64, 3)
    assert np.max(np.abs(rows[:, 2] - want)) <= 1e-9


def test_grid_size_limit_exit_code(capsys):
    # 10^10 points would need tens of GiB; the cap refuses before allocating
    code, out, err = run(capsys, ["grid", "--state", "fock", "--n", "1", "--points", "100000"])
    assert code == 4 and out == ""
    assert err.startswith("error (size-limit):") and "Traceback" not in err


@pytest.mark.parametrize(
    "state",
    [["tmsv", "--r", "0.5"], ["tmsv", "--r", "400"], ["spssv", "--r", "356"], ["noon", "--N", "1"]],
    ids=" ".join,
)
def test_grid_refuses_two_mode_states_before_building_them(capsys, state):
    # from r ~ 355 the squeezed field's build overflowed cosh 2r: exit 1 and a traceback
    code, out, err = run(capsys, ["grid", "--state", *state])
    assert code == 2 and out == ""
    assert err == "error (unsupported): grid export supports single-mode fields\n"


@pytest.mark.parametrize("half_width", ["8e307", "1e154"])
def test_grid_non_finite_values_exit_code(capsys, half_width):
    # |z|^2 overflows at the outer points: no nan rows and no numpy warning
    argv = ["grid", "--state", "fock", "--n", "1", "--points", "16", "--half-width", half_width]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error (non-finite-result):") and err.count("\n") == 1


def test_grid_output_matches_per_value_formatting(capsys):
    from wignermoments import states, wigner
    from wignermoments.quadrature import GridSpec

    argv = ["grid", "--state", "fock", "--n", "3", "--half-width", "4", "--points", "37"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    xs, ps, values = wigner.wigner_grid(
        wigner.wigner_analytic(states.Fock(3)), GridSpec(4.0, 37)
    )
    lines = ["x,p,w"]
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            lines.append(f"{cli._fmt(float(x))},{cli._fmt(float(p))},{cli._fmt(float(values[i, j]))}")
    assert out == "\n".join(lines) + "\n"


def test_noon_past_the_factorial_overflow_exit_code(capsys):
    # its density matrix, of side 172^2, is over the state cap
    code, out, err = run(capsys, ["analyze", "--state", "noon", "--N", "171"])
    assert code == 4 and out == ""
    assert err.startswith("error (size-limit):")


def test_multicopy_report(capsys):
    code, out, _ = run(
        capsys, ["multicopy", "--state", "fock", "--n", "1", "--cutoff", "6"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["state"] == "fock(n=1)"
    assert data["cutoff"] == 6
    assert data["w2_deviation"] < 1e-10
    assert data["w3_deviation"] < 1e-10
    assert data["trace_rho2"] == pytest.approx(1.0, abs=1e-12)


def test_multicopy_rejects_two_mode_state(capsys):
    code, _, err = run(capsys, ["multicopy", "--state", "noon", "--N", "1"])
    assert code == 2
    assert err.startswith("error (unsupported):")


def test_multicopy_size_limit_exit_code(capsys):
    code, _, err = run(capsys, ["multicopy", "--state", "vacuum", "--cutoff", "20"])
    assert code == 4
    assert err.startswith("error (size-limit):")


def test_multicopy_max_side_is_no_option(capsys):
    # the side cap is multicopy.MAX_SIDE, 4096, the one value the flag ever took
    with pytest.raises(SystemExit) as exc:
        cli.main(["multicopy", "--state", "vacuum", "--cutoff", "3", "--max-side", "4096"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-side 4096" in capsys.readouterr().err


def test_multicopy_bad_alpha_order_exit_code(capsys):
    # O_m always takes its exact radial order, m*cutoff//2 + 1: no flag sets it
    with pytest.raises(SystemExit) as exc:
        cli.main(["multicopy", "--state", "vacuum", "--cutoff", "3", "--alpha-order", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha-order 4" in capsys.readouterr().err


def test_multicopy_dump_operator(tmp_path, capsys):
    path = tmp_path / "o2.csv"
    code, _, _ = run(
        capsys,
        [
            "multicopy",
            "--state",
            "vacuum",
            "--cutoff",
            "3",
            "--dump-operator",
            str(path),
            "--dump-m",
            "2",
        ],
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "# side=16"
    assert lines[2] == "row,col,re,im"


# ---------------------------------------------------------------------------
# selftest


def test_selftest_small_run(capsys):
    code, out, _ = run(capsys, ["selftest", "--count", "10", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "selftest passed: 10 positive states, 0 false certification(s)"
    assert sum(1 for line in lines if line.startswith("gaussian-k1-")) == 6
    assert sum(1 for line in lines if line.startswith("gaussian-k2-")) == 2
    assert sum(1 for line in lines if line.startswith("coherent-mixture-")) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "mixed-sweep", "--steps", "-1"],
        ["figure", "mixed-sweep", "--steps", "0"],
        ["selftest", "--count", "-5"],
        ["selftest", "--count", "0"],
    ],
)
def test_count_flags_below_one_exit_code(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error (invalid-argument): {argv[-2]} must be an int >= 1, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "body, argv", [("steps=-1\n", ["figure", "mixed-sweep"]), ("count=0\n", ["selftest"])]
)
def test_count_flags_below_one_from_config(tmp_path, capsys, body, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    code, out, err = run(capsys, ["--config", str(cfg), *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error (invalid-argument):")


@pytest.mark.parametrize(
    "argv",
    [
        # a negative seed used to end in a numpy ValueError traceback (exit 1)
        ["selftest", "--seed", "-1"],
        # an infinite box, or one whose span 2L overflows, used to exit 0
        # with inf/nan rows
        ["grid", "--state", "fock", "--n", "1", "--points", "16", "--half-width", "inf"],
        ["grid", "--state", "fock", "--n", "1", "--points", "16", "--half-width", "1e308"],
    ],
    ids=["negative-seed", "infinite-half-width", "overflowing-half-width"],
)
def test_out_of_domain_flags_exit_code(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error (invalid-argument):")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "body, argv",
    [
        # the first two used to exit 0 (JSON output, an O_3 dump); the flags refuse them
        ("format=xml\n", ["analyze", "--state", "fock", "--n", "1"]),
        ("dump_m=5\n", ["multicopy", "--state", "fock", "--n", "1", "--cutoff", "2"]),
        ("parity=2\n", ["analyze", "--state", "spssv", "--r", "0.5"]),
    ],
    ids=["format", "dump-m", "parity"],
)
def test_config_values_are_choice_checked_as_their_flags(tmp_path, capsys, body, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    code, out, err = run(capsys, ["--config", str(cfg), *argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error (invalid-argument): {cfg}:1: bad value for ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# config files


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nstate=fock\nn=2\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "analyze"])
    assert code == 0
    assert moments.read_report(out).state == "fock(n=2)"


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state=fock\nn=2\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "analyze", "--n", "3"])
    assert code == 0
    assert moments.read_report(out).state == "fock(n=3)"


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("states=fock\n")
    code, _, err = run(capsys, ["--config", str(cfg), "analyze"])
    assert code == 2
    assert "unknown key" in err


def test_config_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=two\n")
    code, _, err = run(capsys, ["--config", str(cfg), "analyze"])
    assert code == 2
    assert "bad value" in err


@pytest.mark.parametrize(
    "argv", [["--scheme", "gauss_hermite_tensor"], ["--order", "8"]], ids=["scheme", "order"]
)
def test_analyze_has_no_rule_flags(capsys, argv):
    # analyze always runs the exact rule for the field
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--state", "fock", "--n", "1", *argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["scheme=gauss_laguerre_polar\n", "order=8\n"])
def test_config_has_no_rule_keys(tmp_path, capsys, body):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    code, out, err = run(capsys, ["--config", str(cfg), "analyze", "--state", "fock", "--n", "1"])
    assert code == 2 and out == ""
    key = body.partition("=")[0]
    assert err == f"error (invalid-argument): {cfg}:1: unknown key {key!r}\n"


def test_config_missing_file(capsys):
    code, _, err = run(capsys, ["--config", "/nonexistent/run.cfg", "analyze"])
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "table1", "--out"],
        ["analyze", "--state", "fock", "--n", "1", "--out"],
        ["multicopy", "--state", "fock", "--n", "1", "--cutoff", "3", "--dump-operator"],
    ],
    ids=["table-out", "analyze-out", "dump-operator"],
)
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    # used to end in a FileNotFoundError traceback and exit 1
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error (invalid-argument): cannot write {path}: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# determinism and the module entry point


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, ["analyze", "--state", "spssv", "--r", "0.5"])
    _, second, _ = run(capsys, ["analyze", "--state", "spssv", "--r", "0.5"])
    assert first == second
    _, t1, _ = run(capsys, ["table", "table2"])
    _, t2, _ = run(capsys, ["table", "table2"])
    assert t1 == t2


def test_module_entry_point():
    # the child imports the package under test, installed or not
    src = str(Path(wignermoments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wignermoments", "analyze", "--state", "vacuum"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Inconclusive"


def test_cli_and_library_import_no_scipy_special_or_integrate():
    src = str(Path(wignermoments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    names = ("cli", "moments", "multicopy", "oracle", "soundness", "wigner")
    code = (
        "import sys\n"
        + "".join(f"import wignermoments.{name}\n" for name in names)
        + "print(sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'special'], ['scipy', 'integrate'])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_default_routes_never_import_scipy():
    # every module, the default routes, the tensor rule, marginals,
    # the Hoelder norms and the midpoint oracle run on numpy alone
    src = str(Path(wignermoments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from wignermoments import cli, moments, multicopy, oracle, soundness, states, wigner\n"
        "from wignermoments.quadrature import QuadratureSpec\n"
        "moments.analyze(states.Spssv(0.5))\n"
        "moments.analyze(states.Noon(2))\n"
        "moments.moment(wigner.wigner_analytic(states.Tmsv(0.5)), 3, QuadratureSpec(order=8))\n"
        "multicopy.multicopy_observable(3, 4)\n"
        "gauss = wigner.wigner_gaussian(states.tmsv_gaussian(0.5))\n"
        "wigner.marginal_x(gauss, 0, [0.0, 0.5])\n"
        "moments.holder_chain_check(gauss)\n"
        "oracle.riemann_moment(wigner.wigner_analytic(states.Fock(1)), 2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', block) == ["numpy"]


def test_thread_env_is_applied(monkeypatch, capsys):
    import os

    monkeypatch.setenv(cli.THREAD_ENV, "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code, out, _ = run(capsys, ["analyze", "--state", "vacuum"])
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"
