"""End-to-end command-line tests.

Subprocess runs stay in 1-d, where each invocation builds its kernel
table in milliseconds; one 3-d run checks that the default table depth
meets the convergence gate from the command line, and one 2-d hardy pair
checks byte-identical reruns.  Formatting helpers (PGM orientation,
config echo) are unit-tested in-process.
"""
from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import regfrac.gagliardo
import regfrac.spectral
from regfrac import cli
from regfrac.cli import (RunConfig, _grid, _init_mask, _pgm_text, echo_text,
                         load_config_file)
from regfrac.spectral import _orbits


@pytest.fixture(scope="session")
def cli_env():
    """Environment for subprocess runs of the command line."""
    return dict(os.environ)


def run_cli(args, env, cwd=None):
    return subprocess.run([sys.executable, "-m", "regfrac.cli"]
                          + [str(a) for a in args],
                          capture_output=True, text=True, env=env, cwd=cwd)


# ------------------------------------------------------------- constants


def test_constants_stdout_json(cli_env):
    proc = run_cli(["constants", "--n", 2, "--sigma", 0.75], cli_env)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert sorted(payload) == ["C_hardy", "dim", "m_prefactor", "p",
                               "sigma", "sphere_area"]
    assert payload["C_hardy"] > 0.0
    assert payload["sphere_area"] == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert payload["m_prefactor"] > 0.0


def test_constants_out_dir_writes_same_payload(cli_env, tmp_path):
    out = tmp_path / "c"
    proc = run_cli(["constants", "--n", 2, "--sigma", 0.75,
                    "--out-dir", out], cli_env)
    assert proc.returncode == 0
    on_disk = (out / "constants.json").read_text()
    assert on_disk == proc.stdout
    assert (out / "config.echo").exists()


def test_constants_sigma_below_loss_sloane_range(cli_env):
    # the Hardy constant itself rejects sigma <= 1/2
    proc = run_cli(["constants", "--n", 2, "--sigma", 0.4], cli_env)
    assert proc.returncode == 2
    assert "sigma" in proc.stderr


# ------------------------------------------------------------ validation


def test_sigma_out_of_range_exit2(cli_env):
    proc = run_cli(["eigen", "--n", 1, "--sigma", 1.5, "--grid", 33,
                    "--out-dir", "/tmp/unused"], cli_env)
    assert proc.returncode == 2
    assert "sigma" in proc.stderr
    assert "1.5" in proc.stderr


def test_resolution_too_small_exit2(cli_env, tmp_path):
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 5,
                    "--out-dir", tmp_path / "r"], cli_env)
    assert proc.returncode == 2
    assert "resolution" in proc.stderr
    assert not (tmp_path / "r").exists()


def test_missing_out_dir_exit2(cli_env):
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25], cli_env)
    assert proc.returncode == 2
    assert "out-dir" in proc.stderr


def test_shape_file_missing_exit2(cli_env, tmp_path):
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--shape", "file",
                    "--shape-file", tmp_path / "nope.pbm",
                    "--out-dir", tmp_path / "s"], cli_env)
    assert proc.returncode == 2
    assert "shape file not found" in proc.stderr


# ----------------------------------------------------------------- eigen


@pytest.fixture(scope="module")
def eigen_run(cli_env, tmp_path_factory):
    out = tmp_path_factory.mktemp("eigen") / "run"
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 33,
                    "--seed", 1, "--pgm", "--matrix", "--out-dir", out],
                   cli_env)
    assert proc.returncode == 0, proc.stderr
    return out


def test_eigen_artifacts_present(eigen_run):
    names = sorted(p.name for p in eigen_run.iterdir())
    assert names == ["config.echo", "eigen.json", "eigen_u.pgm",
                     "matrix.rfrm"]


def test_eigen_json_fields_exact(eigen_run):
    payload = json.loads((eigen_run / "eigen.json").read_text())
    assert sorted(payload) == ["iterations", "lambda", "min_entry",
                               "residual", "volume"]
    assert payload["lambda"] > 0.0
    assert -1e-12 <= payload["min_entry"] <= 0.0
    assert payload["residual"] <= 1e-8
    # 32 interior nodes: one dense eigh, no inverse solves
    assert payload["iterations"] == 0
    config = RunConfig(subcommand="eigen", dim=1, resolution=33)
    assert payload["volume"] == _init_mask(config, _grid(config)).volume


def test_eigen_lanczos_side_counts_inverse_solves(tmp_path, capsys):
    # the 56^2 ball has 1481 interior nodes in 204 orbits of its
    # symmetries, above the dense order: the folded form is factored and
    # solved by Lanczos, whose inverse solves eigen.json counts and whose
    # non-convergence message names them
    config = RunConfig(subcommand="eigen", dim=2, resolution=56)
    mask = _init_mask(config, _grid(config))
    assert len(_orbits(mask)[1]) > regfrac.spectral._DENSE_ORDER
    args = ["eigen", "--n", "2", "--sigma", "0.75", "--grid", "56"]
    assert cli.main(args + ["--out-dir", str(tmp_path / "e")]) == 0
    payload = json.loads((tmp_path / "e" / "eigen.json").read_text())
    assert payload["iterations"] >= 1
    assert payload["volume"] == mask.volume
    capsys.readouterr()
    assert cli.main(args + ["--tol", "1e-20",
                            "--out-dir", str(tmp_path / "bad")]) == 3
    assert "inverse solves" in capsys.readouterr().err


def test_eigen_deterministic_bytes(cli_env, eigen_run, tmp_path):
    out = tmp_path / "again"
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 33,
                    "--seed", 1, "--pgm", "--matrix", "--out-dir", out],
                   cli_env)
    assert proc.returncode == 0, proc.stderr
    for name in ("eigen.json", "eigen_u.pgm", "matrix.rfrm"):
        assert (out / name).read_bytes() == (eigen_run / name).read_bytes()


def test_echo_replay_bit_identical(cli_env, eigen_run, tmp_path):
    out = tmp_path / "replay"
    proc = run_cli(["eigen", "--config", eigen_run / "config.echo",
                    "--out-dir", out], cli_env)
    assert proc.returncode == 0, proc.stderr
    for name in ("eigen.json", "eigen_u.pgm", "matrix.rfrm"):
        assert (out / name).read_bytes() == (eigen_run / name).read_bytes()
    # the echo differs only in out_dir
    ours = dict(l.split("=", 1) for l
                in (out / "config.echo").read_text().splitlines()
                if "=" in l and not l.startswith("#"))
    theirs = dict(l.split("=", 1) for l
                  in (eigen_run / "config.echo").read_text().splitlines()
                  if "=" in l and not l.startswith("#"))
    diff = {k for k in ours if ours[k] != theirs[k]}
    assert diff == {"out_dir"}


def test_overwrite_refused_then_forced(cli_env, eigen_run):
    before = (eigen_run / "eigen.json").read_bytes()
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 33,
                    "--seed", 1, "--out-dir", eigen_run], cli_env)
    assert proc.returncode == 2
    assert "--force" in proc.stderr
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 33,
                    "--seed", 1, "--out-dir", eigen_run, "--force"],
                   cli_env)
    assert proc.returncode == 0, proc.stderr
    assert (eigen_run / "eigen.json").read_bytes() == before


def test_matrix_dump_binary_header(eigen_run):
    blob = (eigen_run / "matrix.rfrm").read_bytes()
    magic, dim = struct.unpack_from("<4si", blob, 0)
    sigma, = struct.unpack_from("<d", blob, 8)
    count, = struct.unpack_from("<q", blob, 16)
    assert magic == b"RFRM"
    assert dim == 1
    assert sigma == 0.25
    assert len(blob) == 24 + 8 * count * count
    A = np.frombuffer(blob, dtype="<f8", offset=24).reshape(count, count)
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) > 0.0)


def test_matrix_dump_too_large_rejected_before_assembly(monkeypatch, tmp_path,
                                                       capsys):
    calls = []

    def no_assembly(*args, **kwargs):
        calls.append(args)
        raise AssertionError("assemble called for a rejected run")

    monkeypatch.setattr(cli, "assemble", no_assembly)
    out = tmp_path / "big"
    code = cli.main(["eigen", "--n", "1", "--sigma", "0.25", "--grid", "4096",
                     "--matrix", "--out-dir", str(out)])
    assert code == 2
    assert "matrix dump limited to 2048" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_legacy_table_cache_key_replays(cli_env, eigen_run, tmp_path):
    # echoes written by older versions carry retired keys (the table
    # cache, the eigensolver's restart cap, the switches of the JSON and
    # CSV outputs); they are accepted, ignored, and not echoed again
    legacy = tmp_path / "legacy.echo"
    legacy.write_text((eigen_run / "config.echo").read_text()
                      + "table_cache=/x\neigen_max_iter=600\n"
                      + "emit_json=true\nemit_csv=true\n")
    out = tmp_path / "replay"
    proc = run_cli(["eigen", "--config", legacy, "--out-dir", out], cli_env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "eigen.json").read_bytes() == \
        (eigen_run / "eigen.json").read_bytes()
    keys = [line.split("=", 1)[0]
            for line in (out / "config.echo").read_text().splitlines()]
    for key in ("table_cache", "eigen_max_iter", "emit_json", "emit_csv"):
        assert key not in keys


def test_eigen_three_dimensional(cli_env, tmp_path):
    # the default 3-d table depth passes the 1e-6 convergence gate
    out = tmp_path / "cube"
    proc = run_cli(["eigen", "--n", 3, "--grid", 8, "--out-dir", out],
                   cli_env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "eigen.json").read_text())["lambda"] > 0.0
    # at sigma 0.5 the discrete ground state of this coarse ball changes
    # sign (a dense generalized eigh agrees), and eigen.json says so
    out = tmp_path / "cube-half"
    proc = run_cli(["eigen", "--n", 3, "--sigma", 0.5, "--grid", 8,
                    "--out-dir", out], cli_env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "eigen.json").read_text())["min_entry"] < -0.5


def test_nonconvergence_exit3_partial(cli_env, tmp_path):
    out = tmp_path / "bad"
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 33,
                    "--tol", "1e-20", "--out-dir", out], cli_env)
    assert proc.returncode == 3
    assert "did not converge" in proc.stderr
    assert "dense eigh" in proc.stderr
    assert (out / "eigen.json.partial").exists()
    assert not (out / "eigen.json").exists()
    # the echo is still written, so the failure is replayable
    assert (out / "config.echo").exists()


def test_shape_file_round_trip(cli_env, tmp_path):
    # asymmetric 1-d support: active cells 3..20 on a 33-cell grid
    (tmp_path / "mask.pbm").write_text(
        "P1\n33 1\n000111111111111111111000000000000\n")
    out = tmp_path / "run"
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 33,
                    "--shape", "file", "--shape-file", tmp_path / "mask.pbm",
                    "--pgm", "--out-dir", out], cli_env)
    assert proc.returncode == 0, proc.stderr
    rows = (out / "eigen_u.pgm").read_text().splitlines()
    values = np.array(rows[3].split(), dtype=int)
    # interior nodes 4..20 carry the eigenfunction; the rest are zero
    assert values[:4].max() == 0 and values[21:].max() == 0
    assert values[4:21].min() > 0


# ---------------------------------------------------------- config files


def test_config_unknown_key_line_precise(cli_env, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma=0.25\nwavelength=3\n")
    proc = run_cli(["eigen", "--config", cfg, "--out-dir", tmp_path / "o"],
                   cli_env)
    assert proc.returncode == 2
    assert f"{cfg}:2" in proc.stderr
    assert "wavelength" in proc.stderr


def test_config_bad_value_line_precise(cli_env, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nresolution=many\n")
    proc = run_cli(["eigen", "--config", cfg, "--out-dir", tmp_path / "o"],
                   cli_env)
    assert proc.returncode == 2
    assert f"{cfg}:3" in proc.stderr
    assert "resolution" in proc.stderr


def test_config_subcommand_mismatch(cli_env, eigen_run, tmp_path):
    proc = run_cli(["optimize", "--config", eigen_run / "config.echo",
                    "--out-dir", tmp_path / "o"], cli_env)
    assert proc.returncode == 2
    assert "eigen" in proc.stderr and "optimize" in proc.stderr


def test_flags_override_config_file(cli_env, eigen_run, tmp_path):
    out = tmp_path / "o"
    proc = run_cli(["eigen", "--config", eigen_run / "config.echo",
                    "--grid", 16, "--out-dir", out], cli_env)
    assert proc.returncode == 0, proc.stderr
    echoed = (out / "config.echo").read_text()
    assert "resolution=16" in echoed
    assert json.loads((out / "eigen.json").read_text())["lambda"] != \
        json.loads((eigen_run / "eigen.json").read_text())["lambda"]


# ----------------------------------------------------------------- hardy


def test_hardy_artifacts(cli_env, tmp_path):
    out = tmp_path / "h"
    proc = run_cli(["hardy", "--n", 1, "--sigma", 0.75, "--grid", 33,
                    "--dirs", 8, "--out-dir", out], cli_env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out / "hardy.json").read_text())
    assert isinstance(payload, list) and len(payload) >= 4
    for entry in payload:
        assert sorted(entry) == ["constant", "dim", "label", "lhs",
                                 "margin", "ratio", "rhs", "sigma"]
        assert entry["ratio"] == pytest.approx(
            entry["lhs"] / entry["rhs"], rel=1e-12)
    lines = (out / "hardy.csv").read_text().splitlines()
    assert lines[0] == "label,dim,sigma,constant,lhs,rhs,ratio,margin"
    assert len(lines) == 1 + len(payload)


def test_hardy_reruns_byte_identical(cli_env, tmp_path):
    # 2-d, so that the exit-distance traversal crosses cells in every
    # direction and through shared vertices
    args = ["hardy", "--n", 2, "--sigma", 0.75, "--grid", 16, "--dirs", 24]
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        proc = run_cli(args + ["--out-dir", out], cli_env)
        assert proc.returncode == 0, proc.stderr
    first, second = [(out / "hardy.json").read_bytes() for out in outs]
    assert first == second
    assert len(json.loads(first)) == 5


def test_hardy_mask_too_small_rejected_before_writing(tmp_path, capsys):
    # a radius-0.2 interval on 8 cells has no deep-interior node, so the
    # corpus would be empty: refused before the out dir is made
    out = tmp_path / "small"
    code = cli.main(["hardy", "--n", "1", "--grid", "8", "--radius", "0.2",
                     "--dirs", "8", "--out-dir", str(out)])
    assert code == 2
    assert "too small for the hardy corpus" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- rearrange


def test_rearrange_artifacts(cli_env, tmp_path):
    out = tmp_path / "r"
    proc = run_cli(["rearrange", "--n", 1, "--sigma", 0.25, "--grid", 24,
                    "--trials", 6, "--seed", 5, "--pgm", "--out-dir", out],
                   cli_env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out / "rearrange.json").read_text())
    assert sorted(payload) == ["descriptor", "full_star", "full_u",
                               "l2_mismatch", "ratio", "regional_star",
                               "regional_u", "violation"]
    assert payload["ratio"] == pytest.approx(
        payload["regional_u"] / payload["regional_star"], rel=1e-12)
    assert payload["violation"] is (payload["ratio"] < 1.0)
    u_img = (out / "rearrange_u.pgm").read_text().splitlines()
    s_img = (out / "rearrange_star.pgm").read_text().splitlines()
    assert u_img[0] == "P2" and s_img[0] == "P2"
    assert u_img[1] == s_img[1]


# -------------------------------------------------------------- optimize


def test_optimize_fixed_artifacts(cli_env, tmp_path):
    out = tmp_path / "of"
    proc = run_cli(["optimize", "--mode", "fixed", "--n", 1, "--sigma",
                    0.75, "--grid", 24, "--max-iter", 3, "--seed", 2,
                    "--out-dir", out], cli_env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out / "state.json").read_text())
    assert sorted(payload) == ["converged", "energy", "iterations",
                               "lambda", "mode", "sigma", "volume"]
    assert payload["converged"] is True
    assert payload["mode"] == "fixed"
    assert payload["energy"] == pytest.approx(
        payload["lambda"] + payload["volume"], rel=1e-12)
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0] == "iter,lambda,volume,energy,accepted"
    assert len(lines) >= 2
    for row in lines[1:]:
        assert row.split(",")[4] == "1"
    img = (out / "mask.pgm").read_text().splitlines()
    assert img[0] == "P2"
    assert img[1] == "24 1"


def test_optimize_modes_and_volume_flag(cli_env, tmp_path):
    conv = run_cli(["optimize", "--mode", "convex", "--n", 1, "--sigma",
                    0.75, "--grid", 24, "--init", "square", "--max-iter",
                    2, "--out-dir", tmp_path / "oc"], cli_env)
    assert conv.returncode == 0, conv.stderr
    pen = run_cli(["optimize", "--mode", "penalized", "--n", 1, "--sigma",
                   0.75, "--grid", 24, "--penalty", 0.5, "--max-iter", 2,
                   "--out-dir", tmp_path / "op"], cli_env)
    assert pen.returncode == 0, pen.stderr
    state = json.loads((tmp_path / "op" / "state.json").read_text())
    assert state["mode"] == "penalized"
    assert state["energy"] == state["lambda"] + 0.5 * state["volume"]
    # volume flag resizes the init: 12 cells of width 1/12
    sized = run_cli(["optimize", "--mode", "fixed", "--n", 1, "--sigma",
                     0.75, "--grid", 24, "--volume", 1.0, "--max-iter", 1,
                     "--out-dir", tmp_path / "ov"], cli_env)
    assert sized.returncode == 0, sized.stderr
    state = json.loads((tmp_path / "ov" / "state.json").read_text())
    assert state["volume"] == pytest.approx(1.0, abs=1e-12)


def test_optimize_requires_sigma_above_one_half(cli_env, tmp_path):
    # the infimum over domains is 0 for sigma <= 1/2, so optimize refuses
    # it before any work, and so does hardy, whose sharp constant needs
    # sigma > 1/2; eigen and rearrange still take all of (0, 1)
    for args in (["optimize", "--mode", "fixed", "--n", 1, "--grid", 24,
                  "--max-iter", 1],
                 ["hardy", "--n", 1, "--grid", 24, "--dirs", 8]):
        low = run_cli(args + ["--sigma", 0.5,
                              "--out-dir", tmp_path / "lo"], cli_env)
        assert low.returncode == 2
        assert "sigma" in low.stderr and "1/2" in low.stderr
        assert args[0] in low.stderr
        assert not (tmp_path / "lo").exists()
        above = run_cli(args + ["--sigma", 0.5000001,
                                "--out-dir", tmp_path / args[0]], cli_env)
        assert above.returncode == 0, above.stderr


def test_penalized_rejects_volume(tmp_path, capsys):
    # penalized mode chooses its own volume; a volume flag would be
    # echoed but not used
    out = tmp_path / "pv"
    code = cli.main(["optimize", "--mode", "penalized", "--n", "1",
                     "--sigma", "0.75", "--grid", "24", "--volume", "0.5",
                     "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "volume" in err and "penalized" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fixed", "convex"])
@pytest.mark.parametrize("volume", ["0.55", "5", "nan"])
def test_bad_volume_rejected_before_writing(mode, volume, tmp_path, capsys):
    # 24 cells of width 1/12: 0.55 is 6.6 cells, 5 is more than the
    # grid's volume of 2; both modes turn a volume into cells by one rule
    out = tmp_path / "bad"
    code = cli.main(["optimize", "--mode", mode, "--n", "1", "--sigma",
                     "0.75", "--grid", "24", "--volume", volume,
                     "--out-dir", str(out)])
    assert code == 2
    assert "volume" in capsys.readouterr().err
    assert not out.exists()


def test_volume_without_interior_node_rejected_before_writing(tmp_path,
                                                              capsys):
    # 0.0625 is one cell of the 8^2 grid: a whole number of cells, but a
    # one-cell start mask has no interior node to solve for
    out = tmp_path / "onecell"
    code = cli.main(["optimize", "--n", "2", "--sigma", "0.75", "--grid",
                     "8", "--volume", "0.0625", "--out-dir", str(out)])
    assert code == 2
    assert "volume" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["eigen", "--n", "1", "--grid", "16", "--radius", "nan"], "radius"),
    (["rearrange", "--n", "2", "--grid", "8", "--extent", "inf"], "extent"),
], ids=["radius-nan", "extent-inf"])
def test_non_finite_grid_inputs_rejected_before_writing(argv, field, tmp_path,
                                                        capsys):
    # a NaN radius would fall back to the default one while the echo
    # records nan, and an infinite extent leaves no finite cell centre
    out = tmp_path / "bad"
    code = cli.main(argv + ["--out-dir", str(out)])
    assert code == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eigen", "--n", "2", "--grid", "12"],
    ["eigen", "--n", "2", "--grid", "24"],
    ["hardy", "--n", "2", "--grid", "16"],
    ["rearrange", "--n", "2", "--grid", "8"],
    ["optimize", "--n", "1", "--sigma", "0.75", "--grid", "16"],
], ids=["eigen-dense", "eigen-lanczos", "hardy", "rearrange", "optimize"])
def test_negative_seed_rejected_before_writing(argv, tmp_path, capsys):
    # the dense eigen path never reads the seed, the others fail only
    # after writing config.echo or assembling: validity must not depend
    # on which path a grid takes
    out = tmp_path / "bad"
    code = cli.main(argv + ["--seed", "-1", "--out-dir", str(out)])
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


_PBM_1D = "P1\n33 1\n" + "0" * 3 + "1" * 18 + "0" * 12 + "\n"
# three cells in an L on 8^2: no node has all four of its cells active
_PBM_L = ("P1\n8 8\n" + "00000000\n" * 3 + "00011000\n00010000\n"
          + "00000000\n" * 3)
_L_START = ["--n", "2", "--grid", "8", "--shape", "file", "--shape-file",
            "@l.pbm"]


@pytest.mark.parametrize("argv, files, field", [
    (["eigen", "--n", "4"], {}, "n must be 1, 2, or 3"),
    (["constants", "--p", "0"], {}, "p must be positive"),
    (["optimize", "--mode", "penalized", "--n", "1", "--grid", "16",
      "--penalty", "0"], {}, "penalty must be positive"),
    (["eigen", "--n", "1", "--grid", "16", "--tol", "0"], {},
     "tol must be positive"),
    (["optimize", "--n", "1", "--grid", "16", "--max-iter", "0"], {},
     "max_iter must be at least 1"),
    (["rearrange", "--n", "1", "--grid", "16", "--trials", "0"], {},
     "trials must be at least 1"),
    (["hardy", "--n", "1", "--grid", "16", "--dirs", "3"], {},
     "dirs must be at least 4"),
    (["eigen", "--n", "3", "--grid", "8", "--pgm"], {},
     "pgm output requires"),
    (["eigen", "--n", "1", "--config", "@run.cfg"],
     {"run.cfg": "shape=hexagon\n"}, "shape must be ball, square, or file"),
    (["optimize", "--n", "1", "--config", "@run.cfg"],
     {"run.cfg": "mode=greedy\n"}, "mode must be fixed, penalized"),
    (["eigen", "--n", "1", "--config", "@run.cfg"],
     {"run.cfg": "shape=file\n"}, "shape_file is required"),
    (["eigen", "--n", "1", "--config", "@run.cfg"],
     {"run.cfg": "sigma=0.25\nforce=maybe\n"}, "run.cfg:2: invalid value for "
     "force"),
    (["eigen", "--n", "1", "--config", "@run.cfg"],
     {"run.cfg": "# a run\nsigma 0.25\n"}, "run.cfg:2: expected key=value"),
    (["eigen", "--n", "1", "--config", "@absent.cfg"], {},
     "config file not found"),
    (["eigen", "--n", "1", "--grid", "33", "--shape", "file", "--shape-file",
      "@m.pbm"], {"m.pbm": "P1\n33\n"}, "malformed PBM header"),
    (["eigen", "--n", "1", "--grid", "33", "--shape", "file", "--shape-file",
      "@m.pbm"], {"m.pbm": "P1\n33 1\n" + "2" * 33 + "\n"},
     "malformed PBM raster"),
    (["eigen", "--n", "1", "--grid", "32", "--shape", "file", "--shape-file",
      "@m.pbm"], {"m.pbm": _PBM_1D}, "bitmap 33x1 does not match"),
    (["eigen", "--n", "3", "--grid", "8", "--shape", "file", "--shape-file",
      "@m.pbm"], {"m.pbm": _PBM_1D}, "bitmap masks are 1-d or 2-d only"),
    (["eigen"] + _L_START, {"l.pbm": _PBM_L},
     "start mask of volume 0.1875 has no"),
    (["optimize", "--mode", "fixed"] + _L_START, {"l.pbm": _PBM_L},
     "start mask of volume 0.1875 has no"),
    (["optimize", "--mode", "convex"] + _L_START, {"l.pbm": _PBM_L},
     "start mask of volume 0.1875 has no"),
    (["optimize", "--mode", "penalized"] + _L_START, {"l.pbm": _PBM_L},
     "start mask of volume 0.1875 has no"),
], ids=["n", "p", "penalty", "tol", "max-iter", "trials", "dirs", "pgm-3d",
        "cfg-shape", "cfg-mode", "cfg-shape-file", "cfg-force", "cfg-no-equals",
        "cfg-missing", "pbm-header", "pbm-raster", "pbm-width", "pbm-3d",
        "pbm-l-eigen", "pbm-l-fixed", "pbm-l-convex", "pbm-l-penalized"])
def test_invalid_run_rejected_before_writing(argv, files, field, tmp_path,
                                             capsys):
    # "@name" names a file written into tmp_path first
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    out = tmp_path / "bad"
    assert cli.main(argv + ["--out-dir", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_penalized_nonconvergence_exit3_partial(tmp_path, capsys):
    out = tmp_path / "pen"
    code = cli.main(["optimize", "--mode", "penalized", "--n", "2", "--grid",
                     "16", "--tol", "1e-30", "--out-dir", str(out)])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    assert (out / "state.json.partial").exists()
    assert (out / "iterations.csv.partial").exists()
    assert not (out / "state.json").exists()


def test_near_field_failure_exit3(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise regfrac.gagliardo.NearFieldError(
            "near-field quadrature failed: relative change 1.0e+00")

    monkeypatch.setattr(regfrac.gagliardo, "build_near_table", failing)
    config = RunConfig(subcommand="eigen", dim=1, resolution=16,
                       out_dir=str(tmp_path / "nf"))
    assert cli.run(config) == 3
    assert "near-field quadrature failed" in capsys.readouterr().err


def test_convex_projection_row_may_be_worse(tmp_path, capsys):
    # the re-solved convex projection of the best mask is appended as the
    # last row even when its energy is higher, and state.json reports it
    out = tmp_path / "cx"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*negativity.*")
        code = cli.main(["optimize", "--mode", "convex", "--n", "2",
                         "--sigma", "0.75", "--grid", "12", "--radius",
                         "0.6", "--max-iter", "4", "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = (out / "iterations.csv").read_text().splitlines()[1:]
    energies = [float(row.split(",")[3]) for row in rows]
    assert energies[-1] > energies[-2]
    assert all(b < a for a, b in zip(energies[:-2], energies[1:-1]))
    state = json.loads((out / "state.json").read_text())
    _, lam, vol, energy, _ = rows[-1].split(",")
    assert (state["lambda"], state["volume"], state["energy"]) == (
        float(lam), float(vol), float(energy))


def test_rearrange_rejects_radius(tmp_path, capsys):
    # the search domain is always the ball of radius 0.4 * extent
    with pytest.raises(SystemExit) as exc:
        cli.main(["rearrange", "--n", "1", "--sigma", "0.25", "--grid", "24",
                  "--radius", "0.3", "--out-dir", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--radius" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["constants", "--n", "2", "--sigma", "0.75"],
    ["eigen", "--n", "1", "--sigma", "0.25", "--grid", "16", "--pgm",
     "--matrix"],
    ["hardy", "--n", "1", "--sigma", "0.75", "--grid", "24", "--dirs", "8"],
    ["rearrange", "--n", "1", "--sigma", "0.25", "--grid", "16", "--trials",
     "3", "--pgm"],
    ["optimize", "--mode", "convex", "--n", "1", "--sigma", "0.75", "--grid",
     "16", "--max-iter", "1"],
], ids=lambda argv: argv[0])
def test_run_writes_its_targets_and_refuses_overwrite(argv, tmp_path, capsys):
    out = tmp_path / "run"
    argv = argv + ["--out-dir", str(out)]
    assert cli.main(argv) == 0
    args = cli.build_parser().parse_args(argv)
    targets = cli._targets(cli.resolve_config(args.subcommand, args))
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written) == sorted(["config.echo"] + targets)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--force" in err
    for name in written:
        assert str(out / name) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


# ---------------------------------------------------------------- report


def test_report_single_run_single_row(cli_env, tmp_path):
    root = tmp_path / "runs"
    proc = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 16,
                    "--out-dir", root / "only"], cli_env)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["report", root], cli_env)
    assert proc.returncode == 0, proc.stderr
    lines = (root / "report.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("run,subcommand,")
    assert lines[1].split(",")[:2] == ["only", "eigen"]


def test_report_mixed_runs_and_missing(cli_env, tmp_path):
    root = tmp_path / "runs"
    assert run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 16,
                    "--out-dir", root / "a"], cli_env).returncode == 0
    assert run_cli(["hardy", "--n", 1, "--sigma", 0.75, "--grid", 33,
                    "--dirs", 8, "--out-dir", root / "b"],
                   cli_env).returncode == 0
    # a failed run: config.echo but no results
    bad = run_cli(["eigen", "--n", 1, "--sigma", 0.25, "--grid", 16,
                   "--tol", "1e-20", "--out-dir", root / "c"], cli_env)
    assert bad.returncode == 3
    proc = run_cli(["report", root], cli_env)
    assert proc.returncode == 0, proc.stderr
    lines = (root / "report.csv").read_text().splitlines()
    tags = sorted(row.split(",")[1] for row in lines[1:])
    assert tags == ["eigen", "hardy"]
    md = (root / "report.md").read_text()
    assert "Missing or unreadable" in md and "c" in md
    # rerun refuses to clobber, --force succeeds
    again = run_cli(["report", root], cli_env)
    assert again.returncode == 2
    assert run_cli(["report", root, "--force"], cli_env).returncode == 0


def test_report_lists_wrong_shape_json_as_unreadable(tmp_path, capsys):
    # valid JSON of the wrong shape is unreadable like malformed JSON:
    # listed with a note, while the finished run is still reported
    root = tmp_path / "runs"
    assert cli.main(["eigen", "--n", "1", "--sigma", "0.25", "--grid", "16",
                     "--out-dir", str(root / "good")]) == 0
    for name, fname, text in (("empty", "hardy.json", "[]"),
                              ("listed", "eigen.json", "[1, 2]")):
        (root / name).mkdir()
        (root / name / fname).write_text(text)
    capsys.readouterr()
    assert cli.run_report(root) == 0
    err = capsys.readouterr().err
    lines = (root / "report.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in lines[1:]] == [["good", "eigen"]]
    md = (root / "report.md").read_text()
    for path in (root / "empty" / "hardy.json", root / "listed" / "eigen.json"):
        assert f"- {path}: unreadable" in md
        assert f"note: {path}: unreadable" in err


def test_report_lists_object_without_headline_as_unreadable(tmp_path,
                                                            capsys):
    # an object lacking its subcommand's headline value holds no result
    # of its run: it is listed with a note, not reported as a blank row
    root = tmp_path / "runs"
    assert cli.main(["eigen", "--n", "1", "--sigma", "0.25", "--grid", "16",
                     "--out-dir", str(root / "good")]) == 0
    (root / "a").mkdir()
    (root / "a" / "eigen.json").write_text("{}")
    (root / "a" / "state.json").write_text('{"mode": "fixed"}')
    capsys.readouterr()
    assert cli.run_report(root) == 0
    err = capsys.readouterr().err
    lines = (root / "report.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in lines[1:]] == [["good", "eigen"]]
    md = (root / "report.md").read_text()
    for path in (root / "a" / "eigen.json", root / "a" / "state.json"):
        assert f"- {path}: unreadable" in md
        assert f"note: {path}: unreadable" in err


def test_report_on_plain_file_exit2(tmp_path, capsys):
    plain = tmp_path / "eigen.json"
    plain.write_text("{}")
    assert cli.main(["report", str(plain)]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_report_empty_dir_exit2(cli_env, tmp_path):
    proc = run_cli(["report", tmp_path], cli_env)
    assert proc.returncode == 2
    assert "no run artifacts" in proc.stderr


# ------------------------------------------------------------ formatting


def test_pgm_orientation_top_row_is_high_y():
    field = np.zeros((3, 4))
    field[1, 3] = 5.0     # brightest at the highest y
    lines = _pgm_text(field).splitlines()
    assert lines[:3] == ["P2", "3 4", "255"]
    assert lines[3] == "0 255 0"      # y index 3 first
    assert lines[6] == "0 0 0"


def test_pgm_constant_field_is_zero():
    lines = _pgm_text(np.full((2, 2), 7.0)).splitlines()
    assert lines[3:] == ["0 0", "0 0"]


def test_echo_round_trips_every_field(tmp_path):
    config = RunConfig(subcommand="optimize", dim=2, sigma=0.6,
                       resolution=48, radius=0.5, mode="penalized",
                       penalty=0.25, tol=1e-9, seed=7,
                       out_dir="/tmp/somewhere", emit_pgm=True,
                       force=True)
    path = tmp_path / "echo.cfg"
    path.write_text(echo_text(config))
    loaded = load_config_file(path)
    assert RunConfig(**loaded) == config


def test_square_matches_ball_measure_1d():
    config = RunConfig(subcommand="eigen", dim=1, resolution=32)
    grid = _grid(config)
    ball = _init_mask(config, grid)
    square = _init_mask(
        RunConfig(subcommand="eigen", dim=1, resolution=32,
                  shape="square"), grid)
    assert ball.cell_count == square.cell_count
