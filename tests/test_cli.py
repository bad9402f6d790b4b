import json
import subprocess
import sys

import numpy as np

from radon_hgf.cli import main
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
    g = np.array([[1.2, 0.3], [0.1, 0.9]])
    z = g @ pattern((1, 1, 1, 1), 1, (np.array([[0.4]]),))
    z_file = tmp_path / "z.json"
    z_file.write_text(json.dumps(matrix_to_json(z)))
    code, report = run_cli(
        capsys, "normal-form", "--partition", "1,1,1,1", "--r", "1",
        "--z-json", str(z_file),
    )
    assert code == 0
    res = report["results"]
    assert res["form_id"] == "(1,1,1,1)/x1"
    assert res["residual"] < 1e-10
    assert abs(res["x"][0]["data"][0][0] - 0.4) < 1e-9


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
    code, report = run_cli(capsys, "verify-classical")
    assert code == 0 and report["pass"]


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
    out = subprocess.run(
        [sys.executable, "-m", "radon_hgf.cli", "theta", "--p", "3"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    json.loads(out.stdout)
