"""The command-line surface: formats, exit codes, determinism, cache admin."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cmzv.cli import RunConfig, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- single-value subcommands ----


def test_sym_weight_one_is_minus_pi_i(capsys):
    code, out, err = run_cli(["sym", "--N", "1", "--index", "k=1;e=0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "index", "alpha", "N", "value_re", "value_im", "tol",
        "t_poly_coeffs", "t_independence_ok",
    }
    assert doc["value_re"] == 0.0
    assert doc["value_im"] == -math.pi
    assert doc["t_independence_ok"] is True
    manifest = json.loads(err)
    assert manifest["tool"] == "cmzv"
    assert "version" in manifest and "wall_time_s" in manifest
    assert manifest["config"]["seed"] == 0
    assert manifest["invocation"]["index"] == "k=1;e=0"


def test_sym_level_two(capsys):
    code, out, _ = run_cli(
        ["sym", "--N", "2", "--index", "k=1;e=1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value_re"] == pytest.approx(-2 * math.log(2), abs=1e-4)


def test_mtdim_table(capsys):
    code, out, _ = run_cli(["mtdim", "--N", "5", "--wmax", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,mt_dim"
    assert [line.split(",")[1] for line in lines[1:]] == ["2", "6", "18", "54"]


def test_mtdim_json_format(capsys):
    code, out, _ = run_cli(
        ["mtdim", "--N", "2", "--wmax", "3", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["mt_dim"] for row in doc] == [1, 1, 2]


# ---- tables ----


def test_qsum_csv_columns(capsys):
    code, out, _ = run_cli(
        ["qsum", "--N", "1", "--index", "k=2;e=0", "--m", "101,1001"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,re,im,predicted_re,predicted_im,residual_abs"
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(second[5]) < float(first[5])  # residual shrinks along the grid


def test_finite_rows(capsys):
    code, out, _ = run_cli(
        ["finite", "--N", "3", "--index", "k=1,1;e=1,2", "--primes", "3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,residue,field_degree"
    assert lines[1] == "7,6,1"


def test_finite_congruence_syntax(capsys):
    code, out, _ = run_cli(
        ["finite", "--N", "2", "--index", "k=1;f=1", "--primes", "2"], capsys
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "5,3,1"  # 1 + 1/3 = 3 mod 5


def test_dim_csv(tmp_path, capsys):
    code, out, _ = run_cli(
        ["dim", "--N", "1", "--wmax", "3", "--primes", "8", "--verify-primes", "4",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("weight,generators,exact_relation_rank")
    dims = [line.split(",")[4] for line in lines[1:]]
    assert dims == ["0", "0", "1"]


def test_dim_json_ledger(tmp_path, capsys):
    code, out, _ = run_cli(
        ["dim", "--N", "1", "--wmax", "2", "--primes", "8", "--verify-primes", "4",
         "--cache-dir", str(tmp_path), "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["dim"] for row in doc] == [0, 0]
    rels = doc[1]["relations"]
    assert len(rels) == 2
    for rel in rels:
        assert rel["verified_primes"] == 12
        assert rel["coefficients"]  # every relation lists its coefficients


# ---- check suite ----


def test_check_passes_and_is_seeded(tmp_path, capsys):
    argv = ["check", "--count", "4", "--primes", "3", "--seed", "11", "--wmax", "4"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert doc["instances"] == 8
    assert doc["failures"] == []


# ---- exit codes ----


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["dim", "--N", "1", "--wmax", "2", "--bogus"], capsys)[0] == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == 2


@pytest.mark.parametrize("flag", ["--jobs", "--prec", "--N"])
def test_out_of_range_bound_is_usage_error(flag, capsys):
    argv = ["mtdim", "--N", "2", "--wmax", "2"]
    code, out, err = run_cli(argv + [flag, "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_corrupt_cache_residue_is_computation_error(tmp_path, capsys):
    argv = ["dim", "--N", "2", "--wmax", "3", "--cache-dir", str(tmp_path)]
    assert run_cli(argv, capsys)[0] == 0
    (path,) = tmp_path.glob("residues_*.jsonl")
    columns = [json.loads(line) for line in path.read_text().splitlines()]
    (col,) = [col for col in columns if col["p"] == 53]
    at = col["index"].index("k=1,1,1;f=1,0,1")  # d = 1 at level 2
    col["residues"][at] = (col["residues"][at] + 1) % 53
    path.write_text("".join(json.dumps(col) + "\n" for col in columns))
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: exact relation failed at p=53")


def test_bad_index_is_computation_error(capsys):
    code, _, err = run_cli(["sym", "--N", "1", "--index", "k=x;e=0"], capsys)
    assert code == 1
    assert "error:" in err


def test_divergent_index_is_computation_error(capsys):
    # (1, e=0) at the leading slot is admissible only for the symmetric value;
    # a plain divergent request must fail loudly, not silently regularize
    code, _, _ = run_cli(["qsum", "--N", "1", "--index", "k=0;e=0"], capsys)
    assert code in (1, 2)


# ---- output files, manifests, determinism ----


def test_out_file_and_manifest(tmp_path, capsys):
    target = tmp_path / "sym.json"
    code, out, err = run_cli(
        ["sym", "--N", "1", "--index", "k=2;e=0", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["value_re"] == pytest.approx(math.pi**2 / 3, rel=1e-4)
    manifest = json.loads((tmp_path / "sym.json.manifest.json").read_text())
    assert manifest["invocation"]["N"] == 1
    assert manifest["config"]["command"] == "sym"


def test_identical_config_reproduces_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["dim", "--N", "2", "--wmax", "2", "--primes", "8", "--verify-primes", "4",
            "--cache-dir", str(tmp_path / "cache")]
    assert run_cli(base + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(base + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ---- cache admin ----


def test_cache_admin_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CMZV_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(["cache", "stat"], capsys)
    assert code == 0
    assert out.strip() == "N,alpha,p,entries"  # empty cache, header only

    run_cli(["dim", "--N", "1", "--wmax", "2", "--primes", "4", "--verify-primes", "2"],
            capsys)
    code, stat_before, _ = run_cli(["cache", "stat"], capsys)
    rows = stat_before.strip().splitlines()[1:]
    assert len(rows) == 6  # one per prime
    assert all(row.split(",")[3] == "3" for row in rows)  # generators at w<=2

    bundle = tmp_path / "bundle.jsonl"
    assert run_cli(["cache", "export", "--out", str(bundle)], capsys)[0] == 0
    assert run_cli(["cache", "clear"], capsys)[0] == 0
    _, stat_empty, _ = run_cli(["cache", "stat"], capsys)
    assert stat_empty.strip() == "N,alpha,p,entries"
    assert run_cli(["cache", "import", "--file", str(bundle)], capsys)[0] == 0
    _, stat_after, _ = run_cli(["cache", "stat"], capsys)
    assert stat_after == stat_before


def test_cache_import_without_file_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(["cache", "import", "--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_cache_import_skips_non_json_lines(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    run_cli(["dim", "--N", "1", "--wmax", "2", "--primes", "4", "--verify-primes", "2",
             *cache], capsys)
    good = tmp_path / "good.jsonl"
    assert run_cli(["cache", "export", "--out", str(good), *cache], capsys)[0] == 0
    lines = good.read_text().splitlines(keepends=True)
    bundle = tmp_path / "bundle.jsonl"
    bundle.write_text(lines[0] + "not json\n" + "".join(lines[1:]) + "{truncated\n")
    run_cli(["cache", "clear", *cache], capsys)
    code, out, err = run_cli(["cache", "import", "--file", str(bundle), *cache], capsys)
    assert code == 0
    assert json.loads(out) == {"imported": sum(len(json.loads(line)["index"]) for line in lines)}
    warning = err.splitlines()[0]
    assert warning.startswith("warning:") and str(bundle) in warning
    assert "2 non-JSON" in warning and "line 2" in warning
    code, out, err = run_cli(
        ["cache", "import", "--file", str(tmp_path / "missing.jsonl"), *cache], capsys
    )
    assert (code, out) == (1, "") and err.startswith("error:")


def test_cache_import_counts_json_lines_that_are_not_records(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    run_cli(["dim", "--N", "1", "--wmax", "1", "--primes", "4", "--verify-primes", "2",
             *cache], capsys)
    good = tmp_path / "good.jsonl"
    assert run_cli(["cache", "export", "--out", str(good), *cache], capsys)[0] == 0
    bundle = tmp_path / "bundle.jsonl"
    first = good.read_text().splitlines(keepends=True)[0]
    bundle.write_text('{"v":3,"N":2}\n[1,2]\nnot json\n{truncated\n' + first)
    code, out, err = run_cli(["cache", "import", "--file", str(bundle), *cache], capsys)
    # the cells of the one column read, not the lines
    assert code == 0 and json.loads(out) == {"imported": len(json.loads(first)["index"])}
    warning = err.splitlines()[0]
    assert "skipped 4 line(s)" in warning and "2 non-JSON" in warning
    assert warning.endswith("the first at line 1")


# at N = 3 both twists give F_(p^2) the same root image; at N = 5 they give two moduli
@pytest.mark.parametrize("N, alpha, contexts", [(3, 2, 1), (5, 4, 2)])
def test_cache_round_trip_at_field_degree_two_with_two_twists(tmp_path, capsys, N, alpha,
                                                              contexts):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for twist in ("1", "2"):
        dim = ["dim", "--N", str(N), "--alpha", str(alpha), "--wmax", "2", "--twist", twist]
        assert run_cli([*dim, *cache], capsys)[0] == 0
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    stat_before = run_cli(["cache", "stat", *cache], capsys)[1]
    assert run_cli(["cache", "export", "--out", str(first), *cache], capsys)[0] == 0
    columns = [json.loads(line) for line in first.read_text().splitlines()]
    assert all(col["v"] == 3 and len(col["residues"]) == 2 * len(col["index"]) for col in columns)
    p = columns[0]["p"]
    assert len({(*col["modulus"], *col["zeta_image"]) for col in columns if col["p"] == p}) \
        == contexts
    assert run_cli(["cache", "clear", *cache], capsys)[0] == 0
    assert run_cli(["cache", "import", "--file", str(first), *cache], capsys)[0] == 0
    assert run_cli(["cache", "export", "--out", str(second), *cache], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert run_cli(["cache", "stat", *cache], capsys)[1] == stat_before


def test_cache_export_is_the_residue_files_and_import_rewrites_them(tmp_path, capsys):
    # a cache that `cmzv dim` wrote, at alpha = 2 (d = 2) and alpha = 1:
    # the export is its residue files concatenated in name order, and
    # clear + import of it writes the same files again
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for alpha in ("2", "1"):
        assert run_cli(["dim", "--N", "3", "--alpha", alpha, "--wmax", "2", *cache], capsys)[0] == 0
    files = sorted((tmp_path / "cache").glob("residues_*.jsonl"))
    assert [path.name for path in files] == ["residues_N3_a1.jsonl", "residues_N3_a2.jsonl"]
    written = {path: path.read_bytes() for path in files}
    bundle = tmp_path / "bundle.jsonl"
    assert run_cli(["cache", "export", "--out", str(bundle), *cache], capsys)[0] == 0
    assert bundle.read_bytes() == b"".join(written.values())
    assert run_cli(["cache", "clear", *cache], capsys)[0] == 0
    code, out, err = run_cli(["cache", "import", "--file", str(bundle), *cache], capsys)
    assert code == 0 and "warning" not in err
    assert {path: path.read_bytes() for path in files} == written
    assert sorted((tmp_path / "cache").iterdir()) == files


def test_cache_clear_removes_residue_and_relation_files(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path)]
    run_cli(["dim", "--N", "2", "--wmax", "2", "--primes", "4", "--verify-primes", "2", *cache],
            capsys)
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["relations_N2_a1.jsonl", "residues_N2_a1.jsonl"]
    code, out, _ = run_cli(["cache", "clear", *cache], capsys)
    assert (code, json.loads(out)) == (0, {"removed_files": 2})
    assert not any(tmp_path.iterdir())


def test_cache_stat_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CMZV_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(["cache", "stat", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"total": 0, "classes": []}


@pytest.mark.parametrize("bad_line", ['[1,2]', '{"v":1,"N":2}'])
def test_malformed_cache_records_are_skipped(tmp_path, monkeypatch, capsys, bad_line):
    monkeypatch.setenv("CMZV_CACHE_DIR", str(tmp_path))
    dim = ["dim", "--N", "1", "--wmax", "2", "--primes", "4", "--verify-primes", "2"]
    code, dim_clean, _ = run_cli(dim, capsys)
    assert code == 0
    _, stat_clean, _ = run_cli(["cache", "stat"], capsys)
    files = sorted(tmp_path.glob("residues_*.jsonl"))
    assert files
    for path in files:
        with open(path, "a") as fh:
            fh.write(bad_line + "\n")
    assert run_cli(dim, capsys)[:2] == (0, dim_clean)
    assert run_cli(["cache", "stat"], capsys)[:2] == (0, stat_clean)


# ---- config validation and console entry ----


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="dim", N=0)
    with pytest.raises(ValueError):
        RunConfig(command="dim", precision=0)
    with pytest.raises(ValueError):
        RunConfig(command="dim", train_primes=0)


REPO = Path(__file__).resolve().parents[1]


def console_script():
    """The `cmzv` console script as a command prefix and a child environment.

    An installed script on PATH is run as it is. In a checkout without an
    install, the `[project.scripts]` target in pyproject.toml is run the way
    pip's generated wrapper runs it, with the checkout's `src/` on PYTHONPATH.
    """
    installed = shutil.which("cmzv")
    if installed is not None:
        return [installed], None
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
        import tomli as tomllib
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cmzv"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return [sys.executable, "-c", wrapper], env


def test_console_script_help():
    cmzv, env = console_script()
    proc = subprocess.run([*cmzv, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for sub in ("qsum", "finite", "sym", "dim", "check", "mtdim", "cache"):
        assert sub in proc.stdout
    help_dim = subprocess.run(
        [*cmzv, "dim", "--help"], capture_output=True, text=True, env=env
    )
    assert help_dim.returncode == 0
    for flag in ("--format", "--primes", "--verify-primes", "--prec",
                 "--seed", "--jobs"):
        assert flag in help_dim.stdout


# ---- input errors found after parsing ----


@pytest.mark.parametrize("extra", [
    ["--height-bound", "0"],
    ["--height-bound", "-5"],
    ["--primes", "1", "--verify-primes", "0"],
    ["--twist", "2"],
])
def test_dim_budget_and_twist_errors_are_usage_errors(extra, capsys):
    code, out, err = run_cli(["dim", "--N", "2", "--wmax", "2", "--no-cache"] + extra, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["dim", "--N", "3", "--alpha", "3", "--wmax", "2", "--no-cache"],
    ["finite", "--N", "3", "--alpha", "3", "--index", "k=1;e=1"],
    ["sym", "--N", "2", "--alpha", "2", "--index", "k=1;e=1"],
])
def test_non_unit_alpha_is_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_dimension_sweep_checks_every_level_before_its_first_table():
    # level 3 has a class 2, level 4 does not: no table starts, and stderr
    # is one error line naming level 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_dimension_tables.py"),
         "--levels", "3,4", "--alpha", "2", "--no-cache"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: level 4:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["--levels", "3,x"], "error: --levels must be comma-separated integers, got '3,x'\n"),
    (["--wmax", "0"], "error: --wmax must be at least 1\n"),
    (["--height-bound", "0"], "error: height_bound must be at least 1\n"),
    (["--primes", "0"], "error: need at least one training and one held-out prime\n"),
    (["--jobs", "0"], "error: jobs must be at least 1\n"),
])
def test_dimension_sweep_malformed_input_is_usage_error(argv, message):
    # one error line and no table header, before any table is built
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_dimension_tables.py"), *argv, "--no-cache"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_check_without_weights_is_usage_error(capsys):
    code, out, err = run_cli(["check", "--wmax", "0"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["dim", "mtdim"])
@pytest.mark.parametrize("wmax", ["0", "-1"])
def test_wmax_below_one_is_usage_error(command, wmax, capsys):
    code, out, err = run_cli([command, "--N", "2", "--wmax", wmax], capsys)
    assert (code, out, err) == (2, "", "error: --wmax must be at least 1\n")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_count_below_one_is_usage_error(count, capsys):
    # a suite of no instance would pass vacuously
    code, out, err = run_cli(["check", "--count", count], capsys)
    assert (code, out, err) == (2, "", "error: --count must be at least 1\n")


@pytest.mark.parametrize("grid,message", [
    ("10.5", "--m must be comma-separated integers, got '10.5'"),
    (",", "--m must be comma-separated integers, got ','"),
    ("1000,100", "m_grid must be strictly increasing"),
    ("100,100", "m_grid must be strictly increasing"),
    ("100,1001", "grid point 1001 is not 1 mod 3"),
    ("0", "m must be positive"),
])
def test_malformed_qsum_grid_is_usage_error(grid, message, capsys):
    code, out, err = run_cli(["qsum", "--N", "3", "--index", "k=2,1;e=1,2", "--m", grid], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_malformed_congruence_index_is_computation_error(capsys):
    code, out, err = run_cli(["finite", "--N", "2", "--index", "k=1;f=1;x"], capsys)
    assert code == 1
    assert err.startswith("error:")
