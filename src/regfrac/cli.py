"""Command-line experiment runner with reproducible file artifacts.

Every run resolves a flat key=value configuration (defaults, then an
optional config file, then explicit flags), validates it with
field-precise messages, echoes it next to its outputs, and writes all
results atomically (a ``.partial`` temp file renamed into place).
Numeric outputs contain no timestamps or environment state, so a rerun
with the same configuration is byte-identical and the echoed config
replays the run exactly, at the BLAS thread count of the original run.
The echo does not record that count, and LAPACK's blocked Cholesky
factorization, hence every eigenpair and what is derived from it,
depends on it.

Exit codes: 0 success, 2 invalid configuration or refused overwrite,
3 numerical non-convergence (partial outputs keep the ``.partial``
suffix).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gagliardo import NearFieldError, assemble, build_near_table
from .geometry import Ball, Bitmap, Box, DomainMask, GridSpec, make_mask
from .hardy import hardy_check, standard_test_functions
from .geometry import direction_set
from .rearrange import (regional_violation_search, search_domain,
                        symmetric_decreasing_rearrangement, trial_field)
from .shapeopt import (ShapeState, convexify, optimize_fixed_measure,
                       optimize_penalized, resize_mask)
from .special import exit_scale_prefactor, hardy_constant, sphere_area
from .spectral import smallest_eigenpair


class CliError(Exception):
    """Configuration or filesystem problem: exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Flat, echoable description of one run.

    ``radius`` and ``volume`` treat 0 as "derive from the grid"
    (0.4x the extent, resp. the initial mask volume).
    """

    subcommand: str = ""
    dim: int = 2
    p: float = 2.0
    sigma: float = 0.75
    extent: float = 2.0
    resolution: int = 33
    radius: float = 0.0
    shape: str = "ball"
    shape_file: str = ""
    mode: str = "fixed"
    volume: float = 0.0
    penalty: float = 1.0
    tol: float = 1e-8
    max_iter: int = 20
    trials: int = 100
    dirs: int = 96
    seed: int = 0
    out_dir: str = ""
    emit_json: bool = True
    emit_csv: bool = True
    emit_pgm: bool = False
    emit_matrix: bool = False
    force: bool = False


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


# field annotations are strings under ``from __future__ import annotations``
_TYPE_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}
_PARSERS = {f.name: _TYPE_PARSERS[f.type]
            for f in dataclasses.fields(RunConfig)}
# keys echoed by older versions that select nothing now: a replayed
# echo may carry them, and they are accepted and ignored
_RETIRED_KEYS = frozenset({"eigen_max_iter", "table_cache"})


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_text(config: RunConfig) -> str:
    """The replayable key=value record of a run."""
    lines = ["# regfrac run configuration",
             "# replay: pass this file via --config (flags still override)"]
    for field in sorted(dataclasses.fields(RunConfig), key=lambda f: f.name):
        lines.append(f"{field.name}={_format_value(getattr(config, field.name))}")
    return "\n".join(lines) + "\n"


def load_config_file(path: Path) -> dict:
    """Parse a key=value config file with line-precise errors."""
    if not path.is_file():
        raise CliError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key in _RETIRED_KEYS:
            continue
        if key not in _PARSERS:
            raise CliError(f"{path}:{lineno}: unknown configuration key "
                           f"'{key}'")
        try:
            values[key] = _PARSERS[key](text.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: invalid value for {key}: {exc}")
    return values


def resolve_config(subcommand: str, args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    values = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    values["subcommand"] = subcommand
    if getattr(args, "config", None):
        loaded = load_config_file(Path(args.config))
        echoed_sub = loaded.pop("subcommand", "")
        if echoed_sub and echoed_sub != subcommand:
            raise CliError(
                f"config file was echoed by subcommand '{echoed_sub}', "
                f"invoked as '{subcommand}'")
        values.update(loaded)
    for key in values:
        if hasattr(args, key) and getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return RunConfig(**values)


_NEEDS_OUT_DIR = {"eigen", "hardy", "rearrange", "optimize"}


def validate(config: RunConfig) -> None:
    """Field-precise validation; raises CliError (exit code 2)."""
    c = config
    if c.dim not in (1, 2, 3):
        raise CliError(f"n must be 1, 2, or 3, got {c.dim}")
    if not 0.0 < c.sigma < 1.0:
        raise CliError(
            f"sigma must be in the open interval (0, 1), got {c.sigma}")
    if c.subcommand == "optimize" and not c.sigma > 0.5:
        raise CliError(
            f"sigma must exceed 1/2 for optimize, got {c.sigma}: the "
            "regional eigenvalue's infimum over domains is 0 for "
            "sigma <= 1/2")
    if not c.p > 0.0:
        raise CliError(f"p must be positive, got {c.p}")
    if not c.extent > 0.0:
        raise CliError(f"extent must be positive, got {c.extent}")
    if c.resolution < 8:
        raise CliError(
            f"resolution must be at least 8 per axis, got {c.resolution}")
    if c.radius < 0.0:
        raise CliError(f"radius must be nonnegative, got {c.radius}")
    if c.shape not in ("ball", "square", "file"):
        raise CliError(
            f"init shape must be ball, square, or file, got '{c.shape}'")
    if c.shape == "file":
        if not c.shape_file:
            raise CliError("shape_file is required when shape is 'file'")
        if not Path(c.shape_file).is_file():
            raise CliError(f"shape file not found: {c.shape_file}")
    if c.mode not in ("fixed", "penalized", "convex"):
        raise CliError(
            f"mode must be fixed, penalized, or convex, got '{c.mode}'")
    if c.subcommand == "optimize" and c.mode == "penalized" \
            and not c.penalty > 0.0:
        raise CliError(f"penalty must be positive, got {c.penalty}")
    if c.volume < 0.0:
        raise CliError(f"volume must be nonnegative, got {c.volume}")
    if not c.tol > 0.0:
        raise CliError(f"tol must be positive, got {c.tol}")
    if c.max_iter < 1:
        raise CliError(f"max_iter must be at least 1, got {c.max_iter}")
    if c.trials < 1:
        raise CliError(f"trials must be at least 1, got {c.trials}")
    if c.dirs < 4:
        raise CliError(f"dirs must be at least 4, got {c.dirs}")
    if c.subcommand in _NEEDS_OUT_DIR and not c.out_dir:
        raise CliError(
            "out-dir is required (flag --out-dir or config key out_dir)")
    if c.emit_pgm and c.dim > 2:
        raise CliError("pgm output requires a 1- or 2-d grid")


def _grid(config: RunConfig) -> GridSpec:
    half = config.extent / 2.0
    return GridSpec(cells=(config.resolution,) * config.dim,
                    spacing=config.extent / config.resolution,
                    origin=(-half,) * config.dim)


def _init_mask(config: RunConfig, grid: GridSpec) -> DomainMask:
    radius = config.radius if config.radius > 0.0 else 0.4 * config.extent
    center = (0.0,) * config.dim
    if config.shape == "ball":
        return make_mask(grid, Ball(center=center, radius=radius))
    if config.shape == "square":
        # equal continuum measure as the ball of the same radius setting
        unit_ball = np.pi ** (config.dim / 2.0) / math.gamma(
            config.dim / 2.0 + 1.0)
        half = radius * unit_ball ** (1.0 / config.dim) / 2.0
        return make_mask(grid, Box(lo=(-half,) * config.dim,
                                   hi=(half,) * config.dim))
    return make_mask(grid, Bitmap(path=config.shape_file))


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _refuse_existing(paths, force: bool) -> None:
    if force:
        return
    clashes = [str(p) for p in paths if Path(p).exists()]
    if clashes:
        raise CliError("refusing to overwrite existing artifacts "
                       f"(use --force): {', '.join(clashes)}")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".partial")
    tmp.write_text(text)
    os.replace(tmp, path)


def _pgm_text(field: np.ndarray) -> str:
    """P2 image of an array indexed [ix, iy] (1-d arrays become one
    row); values mapped linearly onto 0..255, top row = highest y."""
    arr = np.asarray(field, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    lo = float(arr.min())
    hi = float(arr.max())
    if hi <= lo:
        scaled = np.zeros(arr.shape, dtype=int)
    else:
        scaled = np.rint((arr - lo) * (255.0 / (hi - lo))).astype(int)
    rows = [" ".join(str(v) for v in scaled[:, j])
            for j in range(arr.shape[1] - 1, -1, -1)]
    return "\n".join(["P2", f"{arr.shape[0]} {arr.shape[1]}", "255"]
                     + rows) + "\n"


def _node_field(mask: DomainMask, u: np.ndarray) -> np.ndarray:
    full = np.zeros(mask.grid.node_shape)
    full[tuple(mask.interior_idx.T)] = u
    return full


def _prepare_out_dir(config: RunConfig, targets) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _refuse_existing([out / "config.echo"] + [out / t for t in targets],
                     config.force)
    _atomic_write(out / "config.echo", echo_text(config))
    return out


def _run_constants(config: RunConfig) -> int:
    constant = hardy_constant(config.dim, config.p, config.sigma)
    alpha = 2.0 * config.sigma
    payload = {
        "C_hardy": constant.value,
        "dim": config.dim,
        "m_prefactor": exit_scale_prefactor(config.dim, alpha)
        ** (1.0 / alpha),
        "p": config.p,
        "sigma": config.sigma,
        "sphere_area": sphere_area(config.dim),
    }
    text = _canonical_json(payload)
    print(text, end="")
    if config.out_dir:
        out = _prepare_out_dir(config, ["constants.json"])
        _atomic_write(out / "constants.json", text)
        print(f"wrote {out / 'constants.json'}", file=sys.stderr)
    return 0


def _run_eigen(config: RunConfig) -> int:
    grid = _grid(config)
    mask = _init_mask(config, grid)
    n_interior = len(mask.interior_idx)
    if config.emit_matrix and n_interior > 2048:
        raise CliError("matrix dump limited to 2048 interior nodes, "
                       f"grid has {n_interior}")
    targets = []
    if config.emit_json:
        targets.append("eigen.json")
    if config.emit_pgm:
        targets.append("eigen_u.pgm")
    if config.emit_matrix:
        targets.append("matrix.rfrm")
    out = _prepare_out_dir(config, targets)
    form = assemble(mask, config.sigma,
                    table=build_near_table(config.dim, config.sigma))
    result = smallest_eigenpair(form, tol=config.tol, seed=config.seed)
    payload = _canonical_json({"iterations": result.iterations,
                               "lambda": result.eigenvalue,
                               "min_entry": result.min_entry,
                               "residual": result.residual})
    if not result.converged:
        partial = out / "eigen.json.partial"
        partial.write_text(payload)
        print(f"error: eigen solver did not converge (residual "
              f"{result.residual:.3e} after {result.iterations} "
              f"iterations); partial result at {partial}", file=sys.stderr)
        return 3
    if config.emit_json:
        _atomic_write(out / "eigen.json", payload)
    if config.emit_pgm:
        _atomic_write(out / "eigen_u.pgm",
                      _pgm_text(_node_field(mask, result.vector)))
    if config.emit_matrix:
        tmp = out / "matrix.rfrm.partial"
        form.dump_matrix(tmp)
        os.replace(tmp, out / "matrix.rfrm")
    print(f"lambda={result.eigenvalue!r} residual={result.residual:.3e} "
          f"iterations={result.iterations}")
    return 0


def _run_hardy(config: RunConfig) -> int:
    grid = _grid(config)
    mask = _init_mask(config, grid)
    targets = []
    if config.emit_json:
        targets.append("hardy.json")
    if config.emit_csv:
        targets.append("hardy.csv")
    out = _prepare_out_dir(config, targets)
    form = assemble(mask, config.sigma,
                    table=build_near_table(config.dim, config.sigma))
    corpus = [(label, u) for label, u
              in standard_test_functions(form, seed=config.seed)
              if np.any(u != 0.0)]
    if not corpus:
        raise CliError("mask too small for the hardy corpus "
                       "(no deep-interior support)")
    rules = direction_set(config.dim, config.dirs)
    reports = [hardy_check(form, u, rules, label=label)
               for label, u in corpus]
    payload = [{"constant": r.constant, "dim": r.dim, "label": r.label,
                "lhs": r.lhs, "margin": r.margin, "ratio": r.ratio,
                "rhs": r.rhs, "sigma": r.sigma} for r in reports]
    if config.emit_json:
        _atomic_write(out / "hardy.json", _canonical_json(payload))
    if config.emit_csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "dim", "sigma", "constant", "lhs", "rhs",
                         "ratio", "margin"])
        for r in reports:
            writer.writerow([r.label, r.dim, r.sigma, r.constant, r.lhs,
                             r.rhs, r.ratio, r.margin])
        _atomic_write(out / "hardy.csv", buf.getvalue())
    worst = min(r.ratio for r in reports)
    print(f"hardy: {len(reports)} test functions, smallest ratio {worst!r}")
    return 0


def _run_rearrange(config: RunConfig) -> int:
    grid = _grid(config)
    targets = []
    if config.emit_json:
        targets.append("rearrange.json")
    if config.emit_pgm:
        targets.extend(["rearrange_u.pgm", "rearrange_star.pgm"])
    out = _prepare_out_dir(config, targets)
    report = regional_violation_search(config.sigma, grid,
                                       trials=config.trials,
                                       seed=config.seed,
                                       table=build_near_table(config.dim,
                                                              config.sigma))
    if config.emit_json:
        _atomic_write(out / "rearrange.json",
                      _canonical_json(dataclasses.asdict(report)))
    if config.emit_pgm:
        mask, radius = search_domain(grid)
        trial = int(re.search(r"trial=(\d+)", report.descriptor).group(1))
        u, _ = trial_field(mask, radius, config.seed, trial)
        star = symmetric_decreasing_rearrangement(u, mask)
        _atomic_write(out / "rearrange_u.pgm",
                      _pgm_text(_node_field(mask, u)))
        _atomic_write(out / "rearrange_star.pgm",
                      _pgm_text(_node_field(mask, star)))
    print(f"rearrange: best ratio {report.ratio!r} "
          f"({'violation' if report.violation else 'no violation'})")
    return 0


def _optimize_state(config: RunConfig, grid: GridSpec, init: DomainMask,
                    table) -> ShapeState:
    common = dict(max_iter=config.max_iter, seed=config.seed, table=table,
                  eigen_tol=config.tol)
    if config.mode == "penalized":
        return optimize_penalized(grid, config.sigma, config.penalty, init,
                                  **common)
    if config.mode == "convex":
        if config.volume > 0.0:
            cell_vol = grid.spacing ** grid.dim
            init = resize_mask(grid, init,
                               int(round(config.volume / cell_vol)))
        start = convexify(init)
        state = optimize_fixed_measure(grid, config.sigma, start.volume,
                                       start, **common)
        final = convexify(state.mask)
        if state.eigen.converged and not final.same_cells(state.mask):
            eig = smallest_eigenpair(assemble(final, config.sigma,
                                              table=table),
                                     tol=config.tol, seed=config.seed)
            history = state.history + ((eig.eigenvalue, final.volume,
                                        eig.eigenvalue + final.volume),)
            state = ShapeState(mask=final, eigen=eig, sigma=config.sigma,
                               volume=final.volume,
                               energy_penalized=eig.eigenvalue + final.volume,
                               iteration=state.iteration, history=history)
        return state
    target = config.volume if config.volume > 0.0 else init.volume
    if abs(target - init.volume) > 1e-9 * target:
        cell_vol = grid.spacing ** grid.dim
        init = resize_mask(grid, init, int(round(target / cell_vol)))
    return optimize_fixed_measure(grid, config.sigma, target, init, **common)


def _run_optimize(config: RunConfig) -> int:
    grid = _grid(config)
    init = _init_mask(config, grid)
    emit_images = config.dim <= 2
    targets = []
    if config.emit_json:
        targets.append("state.json")
    if config.emit_csv:
        targets.append("iterations.csv")
    if emit_images:
        targets.extend(["mask.pgm", "eigen_u.pgm"])
    out = _prepare_out_dir(config, targets)
    state = _optimize_state(config, grid, init,
                            build_near_table(config.dim, config.sigma))
    payload = _canonical_json({
        "converged": state.eigen.converged,
        "energy": state.energy_penalized,
        "iterations": state.iteration,
        "lambda": state.eigen.eigenvalue,
        "mode": config.mode,
        "sigma": config.sigma,
        "volume": state.volume,
    })
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "lambda", "volume", "energy", "accepted"])
    for k, (lam, vol, energy) in enumerate(state.history):
        writer.writerow([k, lam, vol, energy, 1])
    if not state.eigen.converged:
        (out / "state.json.partial").write_text(payload)
        (out / "iterations.csv.partial").write_text(buf.getvalue())
        print(f"error: eigen solver did not converge (residual "
              f"{state.eigen.residual:.3e}); partial results at "
              f"{out / 'state.json.partial'}", file=sys.stderr)
        return 3
    if config.emit_json:
        _atomic_write(out / "state.json", payload)
    if config.emit_csv:
        _atomic_write(out / "iterations.csv", buf.getvalue())
    if emit_images:
        _atomic_write(out / "mask.pgm",
                      _pgm_text(state.mask.active.astype(float)))
        _atomic_write(out / "eigen_u.pgm",
                      _pgm_text(_node_field(state.mask,
                                            state.eigen.vector)))
    print(f"optimize[{config.mode}]: lambda={state.eigen.eigenvalue!r} "
          f"volume={state.volume!r} energy={state.energy_penalized!r}")
    return 0


_SCALARS = (str, int, float, bool)


def _row_scalars(data) -> dict:
    return {k: v for k, v in data.items() if isinstance(v, _SCALARS)}


def _row_hardy(data) -> dict:
    ratios = [entry["ratio"] for entry in data]
    margins = [entry["margin"] for entry in data]
    return {"count": len(data), "min_ratio": min(ratios),
            "mean_ratio": sum(ratios) / len(ratios),
            "min_margin": min(margins)}


_REPORT_SOURCES = (
    ("constants.json", "constants", _row_scalars),
    ("eigen.json", "eigen", _row_scalars),
    ("hardy.json", "hardy", _row_hardy),
    ("rearrange.json", "rearrange", _row_scalars),
    ("state.json", "optimize", _row_scalars),
)


def run_report(directory: Path, force: bool = False) -> int:
    """Merge finished runs under ``directory`` into report.csv/report.md."""
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    candidates = [directory] + sorted(
        p for p in directory.iterdir() if p.is_dir())
    rows = []
    problems = []
    for cand in candidates:
        label = "." if cand == directory else cand.name
        found = False
        for fname, subcommand, extract in _REPORT_SOURCES:
            path = cand / fname
            if not path.exists():
                continue
            try:
                data = json.loads(path.read_text())
                rows.append((label, subcommand, extract(data)))
                found = True
            except (json.JSONDecodeError, KeyError, TypeError,
                    ZeroDivisionError) as exc:
                problems.append(f"{path}: unreadable ({exc})")
        if not found and (cand / "config.echo").exists():
            problems.append(f"{cand}: config.echo but no result files")
    if not rows:
        print(f"error: no run artifacts found in {directory}",
              file=sys.stderr)
        return 2
    keys = sorted(set().union(*(row[2].keys() for row in rows)))
    header = ["run", "subcommand"] + keys
    try:
        _refuse_existing([directory / "report.csv",
                          directory / "report.md"], force)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for label, subcommand, data in rows:
        writer.writerow([label, subcommand]
                        + [_format_value(data[k]) if k in data else ""
                           for k in keys])
    _atomic_write(directory / "report.csv", buf.getvalue())
    md = ["# regfrac report", "",
          "| " + " | ".join(header) + " |",
          "|" + "---|" * len(header)]
    for label, subcommand, data in rows:
        cells = [label, subcommand] + [
            _format_value(data[k]) if k in data else "" for k in keys]
        md.append("| " + " | ".join(cells) + " |")
    if problems:
        md.extend(["", "## Missing or unreadable", ""])
        md.extend(f"- {p}" for p in problems)
    _atomic_write(directory / "report.md", "\n".join(md) + "\n")
    print(f"report: {len(rows)} runs -> {directory / 'report.csv'}")
    if problems:
        for p in problems:
            print(f"note: {p}", file=sys.stderr)
    return 0


_EXECUTORS = {
    "constants": _run_constants,
    "eigen": _run_eigen,
    "hardy": _run_hardy,
    "rearrange": _run_rearrange,
    "optimize": _run_optimize,
}


def run(config: RunConfig) -> int:
    """Validate and execute one configured run; returns the exit code."""
    try:
        validate(config)
        return _EXECUTORS[config.subcommand](config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NearFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_common(parser: argparse.ArgumentParser, *, geometry: bool) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file (flags override)")
    parser.add_argument("--n", dest="dim", type=int, default=None,
                        help="spatial dimension (1, 2, or 3)")
    parser.add_argument("--sigma", type=float, default=None,
                        help="fractional order in (0, 1)")
    parser.add_argument("--out-dir", dest="out_dir", default=None,
                        help="directory for artifacts")
    parser.add_argument("--force", dest="force", action="store_const",
                        const=True, default=None,
                        help="overwrite existing artifacts")
    if geometry:
        parser.add_argument("--grid", dest="resolution", type=int,
                            default=None, help="cells per axis (>= 8)")
        parser.add_argument("--extent", type=float, default=None,
                            help="box side length (grid is centered)")
        parser.add_argument("--radius", type=float, default=None,
                            help="ball radius / square size parameter "
                                 "(default 0.4 * extent)")
        parser.add_argument("--seed", type=int, default=None)
        parser.add_argument("--no-json", dest="emit_json",
                            action="store_const", const=False, default=None,
                            help="skip the JSON artifact")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regfrac",
        description="Regional fractional eigenvalue experiments with "
                    "reproducible file artifacts.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_const = subs.add_parser(
        "constants", help="print the Hardy and pseudo-distance constants")
    _add_common(p_const, geometry=False)
    p_const.add_argument("--p", type=float, default=None,
                         help="integrability exponent (default 2)")

    p_eigen = subs.add_parser(
        "eigen", help="ground eigenpair on a shaped domain")
    _add_common(p_eigen, geometry=True)
    p_eigen.add_argument("--shape", "--init", dest="shape", default=None,
                         choices=("ball", "square", "file"))
    p_eigen.add_argument("--shape-file", dest="shape_file", default=None,
                         metavar="PBM", help="P1 bitmap when --shape file")
    p_eigen.add_argument("--tol", type=float, default=None,
                         help="eigen residual tolerance")
    p_eigen.add_argument("--pgm", dest="emit_pgm", action="store_const",
                         const=True, default=None,
                         help="write the eigenfunction as a P2 image")
    p_eigen.add_argument("--matrix", dest="emit_matrix",
                         action="store_const", const=True, default=None,
                         help="binary dump of the assembled matrix")

    p_hardy = subs.add_parser(
        "hardy", help="Hardy-quotient suite over the standard corpus")
    _add_common(p_hardy, geometry=True)
    p_hardy.add_argument("--shape", "--init", dest="shape", default=None,
                         choices=("ball", "square", "file"))
    p_hardy.add_argument("--shape-file", dest="shape_file", default=None,
                         metavar="PBM")
    p_hardy.add_argument("--dirs", type=int, default=None,
                         help="direction count of the pseudo-distance sphere rule")
    p_hardy.add_argument("--no-csv", dest="emit_csv", action="store_const",
                         const=False, default=None)

    p_re = subs.add_parser(
        "rearrange", help="rearrangement violation search on a ball")
    _add_common(p_re, geometry=True)
    p_re.add_argument("--trials", type=int, default=None,
                      help="number of random trials (trial 0 is radial)")
    p_re.add_argument("--pgm", dest="emit_pgm", action="store_const",
                      const=True, default=None,
                      help="write the best trial and its rearrangement")

    p_opt = subs.add_parser(
        "optimize", help="eigenvalue descent over cell masks")
    _add_common(p_opt, geometry=True)
    p_opt.add_argument("--mode", default=None,
                       choices=("fixed", "penalized", "convex"))
    p_opt.add_argument("--init", "--shape", dest="shape", default=None,
                       choices=("ball", "square", "file"))
    p_opt.add_argument("--shape-file", dest="shape_file", default=None,
                       metavar="PBM")
    p_opt.add_argument("--volume", type=float, default=None,
                       help="target volume (fixed mode; default: init)")
    p_opt.add_argument("--penalty", type=float, default=None,
                       help="volume penalty (penalized mode)")
    p_opt.add_argument("--max-iter", dest="max_iter", type=int,
                       default=None)
    p_opt.add_argument("--tol", type=float, default=None)
    p_opt.add_argument("--no-csv", dest="emit_csv", action="store_const",
                       const=False, default=None)

    p_rep = subs.add_parser(
        "report", help="merge finished runs into CSV + markdown")
    p_rep.add_argument("directory", help="directory holding run folders")
    p_rep.add_argument("--force", action="store_true",
                       help="overwrite an existing report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.subcommand == "report":
        return run_report(Path(args.directory), force=args.force)
    try:
        config = resolve_config(args.subcommand, args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
