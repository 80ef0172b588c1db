import json
import re
import subprocess
import sys

import numpy as np
import pytest

from cubesos.cli import main
from cubesos.config import SolverError
from cubesos.cube_fourier import write_polynomial_json
from cubesos.instances import maxcut_instance, random_poly


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.json"
    write_polynomial_json(maxcut_instance([[0, 1], [1, 0]]), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_table(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--dmax", "10", "--quiet")
    assert code == 0
    gammas = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert gammas == [1, 2, 4, 8, 20, 48, 112, 256, 576, 1280]


def test_gamma_extends_past_table(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--dmax", "12", "--quiet")
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 12
    for d, g, c in ((int(a), int(b), int(cc)) for a, b, cc in rows):
        assert g <= (1 + 2**0.5) ** d
        assert c == d * (d + 1) * g


def test_bounds_maxcut(capsys, k2_file):
    code, out, _ = run_cli(capsys, "bounds", "--poly", k2_file, "--r", "2", "--quiet")
    assert code == 0
    report = json.loads(out)
    assert report["brute"]["value"] == -1.0
    assert report["outer"]["value"] == pytest.approx(-1.0, abs=1e-6)
    assert report["inner"]["value"] >= -1.0 - 1e-9
    assert report["sandwich_ok"] is True


def test_bounds_which_subset(capsys, k2_file):
    code, out, _ = run_cli(capsys, "bounds", "--poly", k2_file, "--r", "1",
                           "--which", "brute", "--quiet")
    report = json.loads(out)
    assert "outer" not in report and "inner" not in report
    assert report["brute"]["argmin"] == "01"


@pytest.mark.parametrize("which, bad", [("outre", "'outre'"), ("inner,brut", "'brut'"),
                                        ("inner,", "''")])
def test_bounds_which_rejects_unknown(capsys, k2_file, which, bad):
    code, out, err = run_cli(capsys, "bounds", "--poly", k2_file, "--r", "1",
                             "--which", which, "--quiet")
    assert code == 2
    assert out == ""
    assert bad in err


def test_bounds_missing_file(capsys):
    code, _, err = run_cli(capsys, "bounds", "--poly", "/nonexistent.json",
                           "--r", "1", "--quiet")
    assert code == 2


def test_bounds_deterministic_modulo_timestamp(capsys, k2_file):
    _, out1, _ = run_cli(capsys, "bounds", "--poly", k2_file, "--r", "2", "--quiet")
    _, out2, _ = run_cli(capsys, "bounds", "--poly", k2_file, "--r", "2", "--quiet")
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize("instance, r, size, product", [
    ("random:n=13,d=3,seed=1", 5, 2380, "transforms"),
    ("maxcut:G16", 4, 2517, "gather"),
    ("random:n=16,d=2,seed=1", 4, 2517, "gather"),
    ("random:n=9,d=2,seed=1", 3, 130, "dense"),
])
def test_bounds_reports_inner_product(capsys, tmp_path, instance, r, size, product):
    # the benchmark's inner_eig shapes, and the n = 9, r = 3 shape of outer_sdp
    if instance == "maxcut:G16":
        rng = np.random.default_rng(16)
        edges = [[i, j] for i in range(1, 17) for j in range(i + 1, 17) if rng.random() < 0.5]
        path = tmp_path / "g16.json"
        path.write_text(json.dumps({"n": 16, "edges": edges,
                                    "weights": rng.integers(1, 4, len(edges)).tolist()}))
        instance = f"maxcut:{path}"
    code, out, _ = run_cli(capsys, "bounds", "--instance", instance, "--r", str(r),
                           "--which", "inner", "--quiet")
    assert code == 0
    inner = json.loads(out)["inner"]
    assert (inner["matrix_size"], inner["product"]) == (size, product)


@pytest.mark.parametrize("r,schur", [(2, "pairs"), (3, "transforms")])
def test_bounds_reports_outer_schur(capsys, r, schur):
    # the two random shapes of the outer_sdp benchmark
    code, out, _ = run_cli(capsys, "bounds", "--instance", "random:n=9,d=2,seed=1",
                           "--r", str(r), "--which", "outer", "--quiet")
    assert code == 0
    outer = json.loads(out)["outer"]
    assert (outer["status"], outer["schur"]) == ("optimal", schur)


def test_certify_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, err = run_cli(capsys, "certify", "--instance", "random:n=8,d=2,seed=5",
                           "--r", "4", "--verify", "--out", str(out_path))
    assert code == 0
    cert = json.loads(out_path.read_text())
    assert set(cert) == {"delta", "r", "u_coeffs", "weights", "translate", "scale", "residual"}
    assert cert["residual"] <= 1e-7
    assert all(w["w"] >= 0.0 for w in cert["weights"])
    assert "residual" in err


def test_certify_out_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    argv = ("certify", "--instance", "random:n=7,d=2,seed=3", "--r", "3", "--verify", "--quiet")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, nothing, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and nothing == ""
    assert out_path.read_text() == out
    assert len(json.loads(out)["weights"]) == 1 << 7


@pytest.mark.parametrize("argv", [
    ["certify", "--verify"],
    ["bounds", "--which", "inner,brute"],
    ["bounds", "--which", "inner"],
], ids=["certify", "bounds-inner,brute", "bounds-inner"])
def test_certify_non_finite_value_table_exits_2(capsys, recwarn, tmp_path, argv):
    # the value table overflows (1e308 + 1e308 at x = 1100); brute force and
    # the inner bound's F table refuse it as certify does, and no numpy
    # warning is raised on the way
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 4, "terms": [{"vars": [1], "coef": 1e308},
                                                  {"vars": [2], "coef": 1e308},
                                                  {"vars": [3], "coef": -1e308}]}))
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv, "--poly", str(path), "--r", "2",
                             "--out", str(out_path), "--quiet")
    assert code == 2
    assert err == "error: value table of f is not finite at n=4: f(1100) = inf\n"
    assert [str(w.message) for w in recwarn] == []
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("tamper, message", [
    ("reconstruction", "verification failed: max residual 1.000e-03 > 1e-07"),
    ("verify", "verification failed: min weight -1.000e-03 < 0"),
])
def test_certify_verify_fails_closed(capsys, monkeypatch, tmp_path, tamper, message):
    from cubesos.kernel_certifier import SosCubeCertificate

    if tamper == "reconstruction":
        recon = SosCubeCertificate.reconstruction
        monkeypatch.setattr(SosCubeCertificate, "reconstruction",
                            lambda self: recon(self) + 1e-3)
    else:
        verify = SosCubeCertificate.verify
        monkeypatch.setattr(SosCubeCertificate, "verify",
                            lambda self, f: {**verify(self, f), "min_weight": -1e-3})
    out_path = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, "certify", "--instance", "random:n=6,d=2,seed=1",
                             "--r", "3", "--verify", "--out", str(out_path), "--quiet")
    assert code == 3
    assert message in err
    assert out == "" and not out_path.exists()


def test_fourier_form_file_keeps_its_degree(capsys, tmp_path):
    p = random_poly(10, 2, seed=3)
    deltas = []
    for form in ("terms", "fourier"):
        path = tmp_path / f"{form}.json"
        write_polynomial_json(p, path, form=form)
        code, out, _ = run_cli(capsys, "certify", "--poly", str(path), "--r", "3", "--quiet")
        assert code == 0
        deltas.append(json.loads(out)["delta"])
    assert deltas[0] == deltas[1]
    code, out, _ = run_cli(capsys, "bounds", "--poly", str(path), "--r", "1",
                           "--which", "brute", "--quiet")
    assert code == 0 and json.loads(out)["degree"] == 2


def test_fourier_form_non_binary_bitstring_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "fourier": [{"a": "1x0", "coef": 1.0}]}))
    code, _, err = run_cli(capsys, "certify", "--poly", str(path), "--r", "2", "--quiet")
    assert code == 2
    assert "'1x0'" in err


def test_certify_infeasible_order_exits_4(capsys):
    code, _, err = run_cli(capsys, "certify", "--instance", "random:n=6,d=2,seed=1",
                           "--r", "1", "--quiet")
    assert code == 4
    assert "lambda_tilde" in err


def test_sweep_roots_row_count(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--mode", "roots", "--n", "100",
                           "--q", "2", "--quiet")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,q,r,xi,xi_over_n,phi_q(r/n)"
    assert len(lines) == 51  # header + r = 1..50


@pytest.mark.parametrize("q, top", [("2", 5), ("3", 6)])
def test_sweep_roots_caps_r_where_phi_ends(capsys, q, top):
    # phi_q(r/n) is defined for r/n <= (q-1)/q only, so an --r-max past
    # floor((q-1) n / q) stops there instead of failing
    code, out, _ = run_cli(capsys, "sweep", "--mode", "roots", "--n", "10", "--q", q,
                           "--r-max", "20", "--quiet")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == list(range(1, top + 1))


def test_certify_gamma_and_dense_bounds_run_without_scipy(tmp_path):
    # certify, gamma, brute force and the dense inner product run on numpy
    # alone; the outer interior-point method imports scipy at its first call
    out = {name: str(tmp_path / name) for name in ("cert.json", "gamma.txt", "inner.json",
                                                   "outer.json")}
    instance = ["--instance", "random:n=9,d=2,seed=1", "--r", "3"]
    light = [["certify", *instance, "--verify", "--out", out["cert.json"]],
             ["gamma", "--dmax", "3", "--out", out["gamma.txt"]],
             ["bounds", *instance, "--which", "inner,brute", "--out", out["inner.json"]]]
    outer = ["bounds", *instance, "--which", "outer", "--out", out["outer.json"]]
    code = ("import json, sys\n"
            "from cubesos.cli import main\n"
            "light, outer = json.loads(sys.argv[1])\n"
            "codes = [main(argv + ['--quiet']) for argv in light]\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "codes.append(main(outer + ['--quiet']))\n"
            "print(json.dumps({'codes': codes, 'scipy': scipy}))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps([light, outer])],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "scipy": []}
    with open(out["inner.json"]) as fh:
        assert json.load(fh)["inner"]["product"] == "dense"
    with open(out["outer.json"]) as fh:
        assert json.load(fh)["outer"]["status"] == "optimal"


def test_sweep_phi_reproduces_curves(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--mode", "phi", "--q", "2,3,4,5",
                           "--t-points", "200", "--quiet")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4 * 200
    first = lines[1].split(",")
    assert float(first[2]) == 0.5  # phi_2(0)


def test_sweep_errors(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--mode", "errors", "--d", "2",
                           "--n", "8", "--r-fractions", "0.5",
                           "--samples", "2", "--quiet")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["max_outer_gap"]) <= float(row["bound_2Cd_xi_over_n"]) + 1e-6


def test_gamma_csv(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--dmax", "2", "--n-sweep", "6",
                           "--csv", "--quiet")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,k,n,rho_finite,rho_infinity,gamma_d,C_d"
    assert len(lines) > 5


def test_gamma_table_qary_matches_csv(capsys):
    _, table, echo = run_cli(capsys, "gamma", "--dmax", "3", "--q", "3")
    code, out, _ = run_cli(capsys, "gamma", "--dmax", "3", "--q", "3", "--csv", "--quiet")
    assert code == 0
    header, *lines = out.strip().splitlines()
    csv_rows = {}
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        csv_rows[int(row["d"])] = (float(row["gamma_d"]), float(row["C_d"]))
    rows = [line.split() for line in table.strip().splitlines()]
    assert {int(d): (float(g), float(c)) for d, g, c in rows} == csv_rows
    assert echo.strip().splitlines() == ["d gamma_d C_d"] + table.strip().splitlines()
    assert csv_rows[1][0] != 1.0  # the binary gamma_1 = 1 is not the q = 3 value


@pytest.mark.parametrize("module, name, command", [
    ("outer_hierarchy", "outer_cube", "bounds"),
    ("kernel_certifier", "certify", "certify"),
])
def test_out_of_memory_exits_3(capsys, monkeypatch, module, name, command):
    import importlib

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module(f"cubesos.{module}"), name, exhausted)
    code, _, err = run_cli(capsys, command, "--instance", "random:n=6,d=2,seed=1",
                           "--r", "2", "--quiet")
    assert code == 3
    assert "n=6" in err and "r=2" in err


def test_inner_solver_failure_exits_3(capsys, monkeypatch):
    from cubesos import inner_hierarchy

    monkeypatch.setattr(inner_hierarchy, "_smallest_eigenpair",
                        lambda A: (float("nan"), np.full(A.shape[0], np.nan)))
    code, out, err = run_cli(capsys, "bounds", "--instance", "random:n=6,d=2,seed=1",
                             "--r", "2", "--which", "inner", "--quiet")
    assert code == 3
    assert err.startswith("solver failure:")
    assert out == ""


@pytest.mark.parametrize("edges, line", [
    ([[0, 2], [1, 2]], "error: edge [0, 2]: endpoints must be integers 1..3"),
    ([[1, 4]], "error: edge [1, 4]: endpoints must be integers 1..3"),
], ids=["vertex-0", "vertex-above-n"])
def test_graph_endpoint_out_of_range_exits_2(capsys, tmp_path, edges, line):
    # vertices are 1..n; vertex 0 would wrap to vertex n through W[i - 1, j - 1]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": edges}))
    assert run_cli(capsys, "bounds", "--instance", f"maxcut:{path}", "--r", "1",
                   "--which", "brute", "--quiet") == (2, "", line + "\n")


def test_max_n_flag_enforces_cap(capsys, monkeypatch):
    monkeypatch.setenv("CUBESOS_MAX_N", "24")  # snapshot so teardown restores
    code, _, err = run_cli(capsys, "bounds", "--instance", "random:n=6,d=2,seed=1",
                           "--r", "2", "--quiet", "--max-n", "4")
    assert code == 2
    assert "cap" in err


def test_outer_bound_of_near_overflow_coefficients(capsys, recwarn, tmp_path):
    # the file of test_certify_non_finite_value_table_exits_2: the outer bound
    # needs no value table, and the IPM solves it at unit scale
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 4, "terms": [{"vars": [1], "coef": 1e308},
                                                  {"vars": [2], "coef": 1e308},
                                                  {"vars": [3], "coef": -1e308}]}))
    code, out, err = run_cli(capsys, "bounds", "--which", "outer", "--poly", str(path),
                             "--r", "2", "--quiet")
    assert (code, err) == (0, "")
    assert [str(w.message) for w in recwarn] == []
    outer = json.loads(out)["outer"]
    assert outer["status"] == "optimal"
    assert outer["value"] == pytest.approx(-1e308, rel=1e-7)


def _nan_eigenpair(A):
    return float("nan"), np.full(A.shape[0], np.nan)


def _infeasible_lp(*args, **kwargs):
    from cubesos.gamma_constants import LpSolution

    return LpSolution("infeasible", None, None)


def _unconverged_outer(f, r):
    raise SolverError("SDP did not converge: status=max_iter")


# argv, (module, attribute, replacement) patched for the call, exit code, the
# one stderr line; a dict in argv is written to a JSON file whose path takes
# its place
EXIT_CODES = [
    pytest.param(["sweep", "--mode", "roots", "--n", "x"], None, 2,
                 "error: invalid literal for int() with base 10: 'x'", id="sweep-roots-bad-n"),
    pytest.param(["sweep", "--mode", "errors", "--n", "3", "--d", "5"], None, 2,
                 "error: d must be <= n", id="sweep-errors-d-above-n"),
    pytest.param(["sweep", "--mode", "errors", "--d", "5", "--n", "8", "--r-fractions", "0.2",
                  "--samples", "1"], None, 2,
                 "error: r=2 too small for degree 5", id="sweep-errors-order-too-small"),
    pytest.param(["sweep", "--mode", "errors", "--d", "2", "--n", "8", "--r-fractions", "0.5",
                  "--samples", "2"], ("outer_hierarchy", "outer_cube", _unconverged_outer), 3,
                 "solver failure: SDP did not converge: status=max_iter",
                 id="sweep-errors-solve-fails"),
    pytest.param(["sweep", "--mode", "errors", "--d", "2", "--n", "8", "--samples", "0"], None, 2,
                 "error: samples must be >= 1, got samples=0", id="sweep-errors-no-samples"),
    pytest.param(["sweep", "--mode", "errors", "--d", "2", "--n", "8", "--samples", "-3"], None, 2,
                 "error: samples must be >= 1, got samples=-3", id="sweep-errors-negative-samples"),
    pytest.param(["sweep", "--mode", "roots", "--q", "1"], None, 2,
                 "error: q must be >= 2", id="sweep-roots-q1"),
    pytest.param(["sweep", "--mode", "phi", "--q", "1", "--t-points", "2"], None, 2,
                 "error: q must be >= 2", id="sweep-phi-q1"),
    pytest.param(["sweep", "--mode", "phi", "--q", "0", "--t-points", "2"], None, 2,
                 "error: q must be >= 2", id="sweep-phi-q0"),
    pytest.param(["gamma", "--dmax", "3", "--q", "1"], None, 2,
                 "error: q must be >= 2", id="gamma-q1"),
    pytest.param(["gamma", "--dmax", "0"], None, 2,
                 "error: --dmax 0 must be >= 1", id="gamma-dmax0"),
    pytest.param(["gamma", "--dmax", "2", "--threads", "0"], None, 2,
                 "error: --threads 0 must be >= 1", id="gamma-threads0"),
    pytest.param(["gamma", "--dmax", "2", "--threads", "-2"], None, 2,
                 "error: --threads -2 must be >= 1", id="gamma-negative-threads"),
    pytest.param(["bounds", "--instance", "random:n=6,d=2,seed=1", "--r", "-1", "--which", "brute"],
                 None, 2, "error: --r -1 must be >= 0", id="bounds-negative-r"),
    pytest.param(["certify", "--instance", "random:n=6,d=2,seed=1", "--r", "-1"], None, 2,
                 "error: --r -1 must be >= 0", id="certify-negative-r"),
    pytest.param(["bounds", "--instance", "random:n=4", "--r", "1"], None, 2,
                 "error: instance 'random:n=4' lacks d= (use random:n=..,d=..,seed=..)",
                 id="bounds-random-without-d"),
    pytest.param(["bounds", "--instance", "random:n=5,d=2,sed=7", "--r", "1", "--which", "brute"],
                 None, 2, "error: instance 'random:n=5,d=2,sed=7' has unknown key 'sed' "
                 "(use random:n=..,d=..,seed=..)", id="bounds-random-unknown-key"),
    pytest.param(["bounds", "--instance", "random:n=5,d=2,seed=1,n=7", "--r", "1",
                  "--which", "brute"],
                 None, 2, "error: instance 'random:n=5,d=2,seed=1,n=7' repeats key 'n' "
                 "(use random:n=..,d=..,seed=..)", id="bounds-random-repeated-key"),
    pytest.param(["bounds", "--poly", {"n": 2, "terms": [{"vars": [1], "coef": 1}],
                                       "fourier": [{"a": "11", "coef": 5}]},
                  "--r", "1", "--which", "brute"], None, 2,
                 "error: polynomial JSON has both a 'terms' and a 'fourier' field; give one",
                 id="bounds-poly-both-forms"),
    pytest.param(["bounds", "--poly", {"n": 2.7, "terms": [{"vars": [1], "coef": 1}]},
                  "--r", "1", "--which", "brute"], None, 2,
                 "error: polynomial JSON field 'n' must be an integer, got 2.7",
                 id="bounds-poly-fractional-n"),
    pytest.param(["bounds", "--instance", "random:n=5,d=-1,seed=1", "--r", "3", "--which", "brute"],
                 None, 2, "error: d must be >= 0, got d=-1", id="bounds-random-negative-d"),
    pytest.param(["bounds", "--instance", ("maxcut:", {"n": 3.5, "edges": [[1, 2], [2, 3]]}),
                  "--r", "1", "--which", "brute"], None, 2,
                 "error: graph JSON field 'n' must be an integer, got 3.5",
                 id="bounds-graph-fractional-n"),
    pytest.param(["bounds", "--instance", ("maxcut:", {"n": 0, "edges": []}),
                  "--r", "1", "--which", "all"], None, 2,
                 "error: graph JSON field 'n' must be >= 1, got 0", id="bounds-graph-zero-n"),
    pytest.param(["bounds", "--instance", ("maxcut:", {"n": -1, "edges": []}),
                  "--r", "1", "--which", "all"], None, 2,
                 "error: graph JSON field 'n' must be >= 1, got -1", id="bounds-graph-negative-n"),
    pytest.param(["certify", "--instance", "random:n=6,d=2,seed=1", "--r", "3"],
                 ("inner_hierarchy", "_smallest_eigenpair", _nan_eigenpair), 3,
                 "solver failure: eigenvalue solve failed: eigenvalue=nan, "
                 "density integral=nan, residual=nan", id="certify-eigen-solve-fails"),
    pytest.param(["gamma", "--dmax", "2", "--q", "3"],
                 ("gamma_constants", "solve_lp", _infeasible_lp), 3,
                 "solver failure: grid LP unexpectedly infeasible", id="gamma-lp-fails"),
    pytest.param(["certify", "--instance", "random:n=6,d=2,seed=1", "--r", "1"], None, 4,
                 "certification failed: lambda_tilde=1.392375 >= 1 at order r=1; "
                 "no certificate at this order", id="certify-no-certificate"),
]


def _as_file(tmp_path, arg):
    """A JSON argument written to a file: a dict becomes its path, and a
    (prefix, dict) pair the prefix and the path."""
    if isinstance(arg, tuple):
        return arg[0] + _as_file(tmp_path, arg[1])
    if not isinstance(arg, dict):
        return arg
    path = tmp_path / "input.json"
    path.write_text(json.dumps(arg))
    return str(path)


@pytest.mark.parametrize("argv, patch, code, line", EXIT_CODES)
def test_exit_code_table(capsys, monkeypatch, tmp_path, argv, patch, code, line):
    import importlib

    if patch is not None:
        module, name, replacement = patch
        monkeypatch.setattr(importlib.import_module(f"cubesos.{module}"), name, replacement)
    argv = [_as_file(tmp_path, arg) for arg in argv]
    assert run_cli(capsys, *argv, "--quiet") == (code, "", line + "\n")
    out_path = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(out_path), "--quiet") == (code, "", line + "\n")
    assert not out_path.exists()
