import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import radon_hgf
from radon_hgf.cli import build_parser, main
from radon_hgf.io import (
    element_to_json,
    matrix_from_json,
    matrix_to_json,
)
from radon_hgf.normal_form import pattern


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_matrix_json_round_trip():
    m = np.array([[1.0 + 2.0j, 0.5], [-0.25j, 3.0]])
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(m, back)


def test_theta_command(capsys):
    code, report = run_cli(capsys, "theta", "--p", "4")
    assert code == 0
    assert report["results"]["theta"]["2"] == "-1/2 h1^2 + h2"
    assert report["pass"] is True


def test_theta_latex(capsys):
    code, report = run_cli(capsys, "theta", "--p", "3", "--latex")
    assert code == 0
    assert report["results"]["theta"]["2"] == r"-\frac{1}{2} h_{1}^{2} + h_{2}"


def test_chi_command(tmp_path, capsys):
    from radon_hgf.characters import GroupElement
    from radon_hgf.jordan import TruncPoly

    h = GroupElement((
        TruncPoly.from_list([[[1.7]], [[0.4]]]),
        TruncPoly.from_list([[[2.3]]]),
    ))
    el_file = tmp_path / "el.json"
    el_file.write_text(json.dumps(element_to_json(h)))
    code, report = run_cli(
        capsys, "chi", "--partition", "2,1", "--r", "1",
        "--alpha=-1.6,-1.0,-0.4", "--element-json", str(el_file),
    )
    assert code == 0
    re, im = report["results"]["value"]
    ref = 1.7 ** (-1.6) * np.exp(-0.4 / 1.7) * 2.3 ** (-0.4)
    assert abs(complex(re, im) - ref) < 1e-12


def test_zcheck_command(tmp_path, capsys):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(pattern((2, 1), 1))))
    code, report = run_cli(
        capsys, "zcheck", "--partition", "2,1", "--r", "1", "--z-json", str(z_file)
    )
    assert code == 0
    assert report["results"]["member"] is True


def test_zcheck_failing_witness(tmp_path, capsys):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    )))
    code, report = run_cli(
        capsys, "zcheck", "--partition", "1,1,1", "--r", "1", "--z-json", str(z_file)
    )
    assert code == 0
    assert report["results"]["member"] is False
    assert [1, 0, 1] in report["results"]["failing"]


def test_normal_form_command(tmp_path, capsys):
    # the command picks the reducer by partition; --variant reaches reduce4
    g = np.array([[1.2, 0.3], [0.1, 0.9]])
    z_file = tmp_path / "z.json"
    for lam, variant, xs, form_id in [
        ((1, 1, 1, 1), 1, (0.4,), "(1,1,1,1)/x1"),
        ((2, 1), 1, (), "(2,1)/x"),
        ((3,), 1, (), "(3)/x"),
        ((3, 1), 2, (0.4,), "(3,1)/x2"),
        ((1,) * 5, 1, (0.4, -1.3), "(1^5)/x"),
    ]:
        z = g @ pattern(lam, 1, tuple(np.array([[x]]) for x in xs), variant)
        z_file.write_text(json.dumps(matrix_to_json(z)))
        code, report = run_cli(
            capsys, "normal-form", "--partition", ",".join(map(str, lam)), "--r", "1",
            "--variant", str(variant), "--z-json", str(z_file),
        )
        assert code == 0
        res = report["results"]
        assert res["form_id"] == form_id
        assert res["residual"] < 1e-10
        assert len(res["x"]) == len(xs)
        assert all(abs(x["data"][0][0] - v) < 1e-9 for x, v in zip(res["x"], xs))
    # a partition with no reducer is malformed input
    z_file.write_text(json.dumps(matrix_to_json(np.array([[1.0, 0, 0.5, 2, 0.3],
                                                          [0, 1, 1.5, 1, -0.7]]))))
    code, report = run_cli(capsys, "normal-form", "--partition", "2,1,1,1",
                           "--z-json", str(z_file))
    assert code == 2
    assert report["error"] == "UnsupportedPartition: no reduction for partition (2, 1, 1, 1)"


@pytest.mark.parametrize("lam, xs, variant", [((2, 1), (), 3), ((1,) * 5, (0.4, -1.3), 2)])
def test_normal_form_variant_the_table_lacks_exits_2(tmp_path, capsys, lam, xs, variant):
    # reduce3 and reduce_ones take no variant, but the table still has to
    # hold the one asked for
    z = np.array([[1.2, 0.3], [0.1, 0.9]]) @ pattern(lam, 1, tuple(np.array([[x]]) for x in xs))
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(z)))
    code, report = run_cli(capsys, "normal-form", "--partition", ",".join(map(str, lam)),
                           "--variant", str(variant), "--z-json", str(z_file))
    assert code == 2
    assert report["error"] == (f"ShapeMismatch: no table pattern for partition {lam} "
                               f"variant {variant}")


def test_eval_deterministic_seed(capsys):
    argv = ["eval", "--family", "gamma_r", "--r", "2", "--a", "3",
            "--method", "haar-mc", "--samples", "2e4", "--seed", "11"]
    code1, rep1 = run_cli(capsys, *argv)
    code2, rep2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert rep1["results"]["estimate"]["value"] == rep2["results"]["estimate"]["value"]
    assert rep1["results"]["estimate"]["seed"] == 11


def test_eval_eigen_tensor(capsys):
    code, report = run_cli(
        capsys, "eval", "--family", "gamma_r", "--r", "2", "--a", "3",
        "--method", "eigen-tensor",
    )
    assert code == 0
    val = complex(*report["results"]["estimate"]["value"])
    assert abs(val - 2 * np.pi) < 1e-8


def test_eval_eigen_tensor_refuses_another_chain(capsys):
    # the eigen-tensor rule integrates over the family's default chain only
    code, report = run_cli(
        capsys, "eval", "--family", "gamma_r", "--r", "2", "--a", "3",
        "--chain", "interval-0-1", "--method", "eigen-tensor",
    )
    assert code == 2
    assert report["error"].startswith("IncompatibleChain")


@pytest.mark.parametrize("extra, error", [
    (("--r", "0", "--method", "eigen-tensor"), "ShapeMismatch"),
    (("--r", "0", "--method", "haar-mc"), "ShapeMismatch"),
    (("--r", "2", "--method", "haar-mc", "--samples", "0"), "UnsupportedCount"),
    # one sample has no error estimate
    (("--r", "2", "--method", "haar-mc", "--samples", "1"), "UnsupportedCount"),
])
def test_eval_out_of_range_counts_exit_2(capsys, extra, error):
    code, report = run_cli(capsys, "eval", "--family", "gamma_r", "--a", "3", *extra)
    assert code == 2
    assert report["error"].startswith(error)


# the arguments are parsed before any file is read
_MC_ARGV = {
    "eval": ["eval", "--family", "gamma_r", "--a", "3", "--r", "2", "--method", "haar-mc"],
    "radon": ["radon", "--partition", "2,1", "--alpha=-1.5,-0.5,-2", "--z-json", "z.json",
              "--chain", "half-line", "--method", "haar-mc"],
}


@pytest.mark.parametrize("command", list(_MC_ARGV))
def test_samples_in_float_notation_parse(command):
    args = build_parser().parse_args(_MC_ARGV[command] + ["--samples", "1e6"])
    assert args.samples == 10**6 and isinstance(args.samples, int)


@pytest.mark.parametrize("command", list(_MC_ARGV))
@pytest.mark.parametrize("samples", ["inf", "nan", "2.5", "1e6.5", "many"])
def test_samples_that_are_not_whole_numbers_exit_2(capsys, command, samples):
    # inf used to die with an uncaught OverflowError, and 2.5 ran 2 samples
    with pytest.raises(SystemExit) as exc:
        main(_MC_ARGV[command] + ["--samples", samples])
    assert exc.value.code == 2
    assert "expected a finite whole number" in capsys.readouterr().err


def test_eval_divergent_full_line_exits_2(capsys):
    # |u|^(-c - r) is not integrable at 0; this run used to report
    # 3.68e10 +- 3.68e10 and exit 0
    code, report = run_cli(
        capsys, "eval", "--family", "hermite_weber", "--r", "2", "--c", "0.3",
        "--chain", "full-line", "--method", "haar-mc", "--samples", "1e5",
    )
    assert code == 2
    assert report["error"].startswith("IncompatibleChain")


@pytest.mark.parametrize("method", ["eigen-tensor", "haar-mc"])
def test_eval_non_finite_estimate_exits_2(tmp_path, capsys, method):
    # exp(tr U X) overflows at X = 800 I; this run used to report
    # nan +- nan and exit 0 with "pass": true, and under warnings set to
    # error to die of numpy's overflow warning with exit 1
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps(matrix_to_json(800.0 * np.eye(2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_cli(
            capsys, "eval", "--family", "kummer", "--r", "2", "--a", "2.6", "--c", "5.3",
            "--X-json", str(x_file), "--method", method, "--samples", "4096",
        )
    assert code == 2
    assert report["error"].startswith("NonConvergent")
    assert report["pass"] is False


@pytest.mark.parametrize("method, s", [("haar-mc", 200), ("eigen-tensor", 400)])
def test_eval_estimate_past_the_float_range_exits_2(tmp_path, capsys, method, s):
    # the square of the Monte Carlo mean, or the eigen-tensor error bar,
    # passes the float range: this run used to die of a bare OverflowError
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps(matrix_to_json(s * np.eye(2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_cli(
            capsys, "eval", "--family", "kummer", "--r", "2", "--a", "2.6", "--c", "5.3",
            "--X-json", str(x_file), "--method", method, "--samples", "4096", "--seed", "1",
        )
    assert code == 2
    assert report["error"].startswith("NonConvergent")


def test_eval_family_argument_of_the_wrong_size_exits_2(tmp_path, capsys):
    # a 2 x 2 X at r = 1 used to die with an IndexError traceback and exit 1
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps(matrix_to_json(0.3 * np.eye(2))))
    code, report = run_cli(
        capsys, "eval", "--family", "gauss", "--r", "1", "--a", "2.6", "--b", "1.2",
        "--c", "5.3", "--X-json", str(x_file),
    )
    assert code == 2
    assert report["error"].startswith("ShapeMismatch")


@pytest.mark.parametrize("command", ["radon", "verify-pde"])
def test_missing_weights_exit_2(tmp_path, capsys, command):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        pattern((1, 1, 1, 1), 1, (np.array([[0.4]]),))
    )))
    code, report = run_cli(
        capsys, command, "--partition", "1,1,1,1", "--z-json", str(z_file),
        "--chain", "interval-0-1",
    )
    assert code == 2
    assert "weights required" in report["error"]


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").replace("[", "").replace("]", "").splitlines()
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "radon-hgf"
        parser.parse_args(argv[1:])


def test_radon_command(tmp_path, capsys):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        pattern((1, 1, 1, 1), 1, (np.array([[0.4]]),))
    )))
    code, report = run_cli(
        capsys, "radon", "--partition", "1,1,1,1", "--r", "1",
        "--alpha=-0.8,-0.3,0.4,-1.3", "--z-json", str(z_file),
        "--chain", "interval-0-1", "--relaxed",
    )
    assert code == 0
    assert report["results"]["estimate"]["method"] == "adaptive-1d"


def test_radon_all_ones_form_takes_eigen_tensor(tmp_path, capsys):
    # the (1^5) table form at r = 2 is the matrix Lauricella F_D in x_4, x_5
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        pattern((1,) * 5, 2, (0.3 * np.eye(2), -0.5 * np.eye(2)))
    )))
    code, report = run_cli(
        capsys, "radon", "--partition", "1,1,1,1,1", "--r", "2",
        "--alpha=-4.4,0.5,0.6,-1.1,0.4", "--z-json", str(z_file),
        "--chain", "interval-0-1", "--relaxed", "--method", "eigen-tensor",
    )
    assert code == 0
    est = report["results"]["estimate"]
    assert est["method"] == "eigen-tensor"
    assert abs(complex(*est["value"]) - 0.04269598052533202) <= est["abs_error_est"]


def test_radon_meaningless_tolerance_exits_2(tmp_path, capsys):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        pattern((1, 1, 1, 1), 1, (np.array([[0.4]]),))
    )))
    code, report = run_cli(
        capsys, "radon", "--partition", "1,1,1,1", "--r", "1",
        "--alpha=-0.8,-0.3,0.4,-1.3", "--z-json", str(z_file),
        "--chain", "interval-0-1", "--relaxed", "--tol", "nan",
    )
    assert code == 2
    assert "tolerance must be positive and finite, got nan" in report["error"]


def test_chi_alpha_json(tmp_path, capsys):
    from radon_hgf.characters import GroupElement
    from radon_hgf.jordan import TruncPoly

    h = GroupElement((TruncPoly.from_list([[[2.0]]]),
                      TruncPoly.from_list([[[4.0]]])))
    el_file = tmp_path / "el.json"
    el_file.write_text(json.dumps(element_to_json(h)))
    al_file = tmp_path / "al.json"
    al_file.write_text(json.dumps([[[-1.5, 0.0]], [[-0.5, 0.0]]]))
    code, report = run_cli(
        capsys, "chi", "--partition", "1,1", "--r", "1",
        "--alpha-json", str(al_file), "--element-json", str(el_file),
    )
    assert code == 0
    re, im = report["results"]["value"]
    assert abs(complex(re, im) - 2.0 ** (-1.5) * 4.0 ** (-0.5)) < 1e-12


def test_verify_classical_passes(capsys):
    # the command runs criterion 6
    code, report = run_cli(capsys, "verify-classical")
    assert code == 0 and report["pass"]
    assert report["checks"][0]["name"] == "classical 2F1 reduction"
    assert report["results"]["detail"].startswith("worst relative error over 10 points")


def test_verify_covariance_passes(capsys):
    code, report = run_cli(capsys, "verify-covariance")
    assert code == 0 and report["pass"]


def test_suite_subset(capsys):
    code, report = run_cli(capsys, "suite", "--criteria", "1,13")
    assert code == 0
    assert report["results"]["criteria_run"] == 2
    assert all(c["pass"] for c in report["checks"])


def test_suite_fails_over_budget(capsys, monkeypatch):
    from radon_hgf import acceptance

    monkeypatch.setitem(acceptance.RUNTIME_LIMITS, 1, 0.0)
    code, report = run_cli(capsys, "suite", "--criteria", "1")
    assert code == 1
    assert report["pass"] is False
    assert report["checks"][0]["limit_s"] == 0.0
    assert "over budget" in report["checks"][0]["detail"]


def test_verify_gamma_passes(capsys):
    code, report = run_cli(capsys, "verify-gamma", "--r", "2", "--a", "3")
    assert code == 0
    assert report["pass"] is True
    assert report["results"]["relative_error"] < 1e-8


def test_verify_beta_passes(capsys):
    code, report = run_cli(capsys, "verify-beta", "--r", "2", "--a", "2", "--b", "2")
    assert code == 0 and report["pass"]


def test_verify_pde_command(tmp_path, capsys):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        pattern((1, 1, 1, 1), 1, (np.array([[-0.6]]),))
    )))
    code, report = run_cli(
        capsys, "verify-pde", "--partition", "1,1,1,1", "--r", "1",
        "--alpha=-2.1,0.55,0.8,-1.25", "--z-json", str(z_file),
        "--chain", "interval-0-1", "--h", "1e-3",
    )
    assert code == 0
    assert report["pass"] is True
    assert len(report["results"]["pairs"]) == 6
    assert report["results"]["points"] == 96


def test_check_failure_exits_1(tmp_path, capsys):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        pattern((1, 1, 1, 1), 1, (np.array([[-0.6]]),))
    )))
    code, report = run_cli(
        capsys, "verify-pde", "--partition", "1,1,1,1", "--r", "1",
        "--alpha=-2.1,0.55,0.8,-1.25", "--z-json", str(z_file),
        "--chain", "interval-0-1", "--rel-tol", "1e-30",
    )
    assert code == 1
    assert report["pass"] is False


def test_bad_input_exits_2(capsys):
    code, report = run_cli(
        capsys, "zcheck", "--partition", "1,1,1", "--r", "1",
        "--z-json", "/nonexistent/path.json",
    )
    assert code == 2
    assert "error" in report


def test_invalid_weight_exits_2(tmp_path, capsys):
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(
        pattern((1, 1, 1, 1), 1, (np.array([[0.4]]),))
    )))
    code, report = run_cli(
        capsys, "radon", "--partition", "1,1,1,1", "--r", "1",
        "--alpha=-9,0,0,0", "--z-json", str(z_file), "--chain", "interval-0-1",
        "--relaxed",
    )
    assert code == 2


def test_console_script_installed():
    # the child imports the package these tests import, installed or not
    source = str(Path(radon_hgf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "radon_hgf.cli", "theta", "--p", "3"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    json.loads(out.stdout)
