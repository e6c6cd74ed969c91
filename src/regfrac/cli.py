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

from .gagliardo import NearFieldError, assemble
from .geometry import (Ball, Bitmap, Box, DomainMask, GridSpec,
                       direction_set, make_mask)
from .hardy import deep_interior, hardy_check, standard_test_functions
from .rearrange import (regional_violation_search, search_domain,
                        symmetric_decreasing_rearrangement, trial_field)
from .shapeopt import cell_count, optimize, resize_mask
from .special import exit_scale_prefactor, hardy_constant, sphere_area
from .spectral import EigenResult, smallest_eigenpair


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
_RETIRED_KEYS = frozenset({"eigen_max_iter", "table_cache", "emit_json",
                           "emit_csv"})


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


# the subcommands that run on a grid; each writes into an out dir
_GRIDDED = ("eigen", "hardy", "rearrange", "optimize")
# subcommands that need sigma > 1/2, and why
_ABOVE_ONE_HALF = {
    "hardy": "the sharp regional Hardy constant exists only for "
             "1/2 < sigma < 1",
    "optimize": "the regional eigenvalue's infimum over domains is 0 for "
                "sigma <= 1/2",
}


def validate(config: RunConfig) -> None:
    """Field-precise validation; raises CliError or ValueError (exit 2)."""
    c = config
    if c.dim not in (1, 2, 3):
        raise CliError(f"n must be 1, 2, or 3, got {c.dim}")
    if not 0.0 < c.sigma < 1.0:
        raise CliError(
            f"sigma must be in the open interval (0, 1), got {c.sigma}")
    if c.subcommand in _ABOVE_ONE_HALF and not c.sigma > 0.5:
        raise CliError(
            f"sigma must exceed 1/2 for {c.subcommand}, got {c.sigma}: "
            + _ABOVE_ONE_HALF[c.subcommand])
    if not c.p > 0.0:
        raise CliError(f"p must be positive, got {c.p}")
    if not (c.extent > 0.0 and math.isfinite(c.extent)):
        raise CliError(f"extent must be positive and finite, got {c.extent}")
    if c.resolution < 8:
        raise CliError(
            f"resolution must be at least 8 per axis, got {c.resolution}")
    if not c.radius >= 0.0:
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
    penalized = c.subcommand == "optimize" and c.mode == "penalized"
    if penalized and not c.penalty > 0.0:
        raise CliError(f"penalty must be positive, got {c.penalty}")
    if not c.volume >= 0.0:
        raise CliError(f"volume must be nonnegative, got {c.volume}")
    if penalized and c.volume > 0.0:
        raise CliError(f"volume applies to fixed and convex modes only, "
                       f"got {c.volume} in penalized mode")
    if c.subcommand in ("eigen", "optimize"):
        grid = _grid(c)
        start = _init_mask(c, grid)
        if c.subcommand == "optimize" and c.volume > 0.0:
            start = resize_mask(start, cell_count(grid, c.volume))
        if not len(start.interior_idx):
            raise CliError(f"start mask of volume {start.volume!r} has no "
                           "interior node")
    if not c.tol > 0.0:
        raise CliError(f"tol must be positive, got {c.tol}")
    if c.max_iter < 1:
        raise CliError(f"max_iter must be at least 1, got {c.max_iter}")
    if c.trials < 1:
        raise CliError(f"trials must be at least 1, got {c.trials}")
    if c.dirs < 4:
        raise CliError(f"dirs must be at least 4, got {c.dirs}")
    if c.seed < 0:
        raise CliError(f"seed must be nonnegative, got {c.seed}")
    if c.subcommand in _GRIDDED and not c.out_dir:
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


def _targets(config: RunConfig) -> list[str]:
    """The result files a run writes into its out dir, in the order in
    which its executor hands back their contents."""
    pgm = config.emit_pgm
    return {
        "constants": ["constants.json"],
        "eigen": (["eigen.json"] + ["eigen_u.pgm"] * pgm
                  + ["matrix.rfrm"] * config.emit_matrix),
        "hardy": ["hardy.json", "hardy.csv"],
        "rearrange": (["rearrange.json"]
                      + ["rearrange_u.pgm", "rearrange_star.pgm"] * pgm),
        "optimize": (["state.json", "iterations.csv"]
                     + ["mask.pgm", "eigen_u.pgm"] * (config.dim <= 2)),
    }[config.subcommand]


@dataclass(frozen=True)
class _Outcome:
    """One content per ``_targets`` name, each a text or a function that
    writes the file at a path, and the line for stdout.  ``unconverged``
    is the eigenpair that did not converge, if one did not; ``contents``
    then holds only the leading texts, kept as ``.partial`` files."""

    contents: tuple
    summary: str = ""
    unconverged: EigenResult | None = None


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _refuse_existing(paths, force: bool) -> None:
    clashes = [] if force else [str(p) for p in paths if Path(p).exists()]
    if clashes:
        raise CliError("refusing to overwrite existing artifacts "
                       f"(use --force): {', '.join(clashes)}")


def _atomic_write(path: Path, content) -> None:
    """Write a text, or call a writer, on ``<path>.partial``, then rename
    it into place."""
    tmp = path.with_name(path.name + ".partial")
    if callable(content):
        content(tmp)
    else:
        tmp.write_text(content)
    os.replace(tmp, path)


def _prepare_out_dir(config: RunConfig) -> None:
    """Refuse to overwrite any file of the run (unless forced), then echo
    its configuration, so that a failed run is still replayable."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _refuse_existing([out / name for name in ["config.echo"]
                      + _targets(config)], config.force)
    _atomic_write(out / "config.echo", echo_text(config))


def _write_outcome(config: RunConfig, outcome: _Outcome) -> int:
    """Rename each result into place, or leave a non-converged run's
    texts as ``.partial`` files and return 3."""
    if not config.out_dir:
        print(outcome.summary)
        return 0
    paths = [Path(config.out_dir) / name for name in _targets(config)]
    eig = outcome.unconverged
    if eig is not None:
        kept = [path.with_name(path.name + ".partial")
                for path, _ in zip(paths, outcome.contents)]
        for path, text in zip(kept, outcome.contents):
            path.write_text(text)
        solver = (f"Lanczos, {eig.iterations} inverse solves"
                  if eig.iterations else "dense eigh")
        print(f"error: eigen solver did not converge (residual "
              f"{eig.residual:.3e}, {solver}); "
              f"partial results at {', '.join(map(str, kept))}",
              file=sys.stderr)
        return 3
    for path, content in zip(paths, outcome.contents, strict=True):
        _atomic_write(path, content)
    print(outcome.summary)
    return 0


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


def _run_constants(config: RunConfig) -> _Outcome:
    constant = hardy_constant(config.dim, config.p, config.sigma)
    alpha = 2.0 * config.sigma
    text = _canonical_json({
        "C_hardy": constant.value,
        "dim": config.dim,
        "m_prefactor": exit_scale_prefactor(config.dim, alpha)
        ** (1.0 / alpha),
        "p": config.p,
        "sigma": config.sigma,
        "sphere_area": sphere_area(config.dim),
    })
    if config.out_dir:
        _prepare_out_dir(config)
    return _Outcome((text,), text.rstrip("\n"))


def _run_eigen(config: RunConfig) -> _Outcome:
    mask = _init_mask(config, _grid(config))
    n_interior = len(mask.interior_idx)
    if config.emit_matrix and n_interior > 2048:
        raise CliError("matrix dump limited to 2048 interior nodes, "
                       f"grid has {n_interior}")
    _prepare_out_dir(config)
    form = assemble(mask, config.sigma)
    result = smallest_eigenpair(form, tol=config.tol, seed=config.seed)
    payload = _canonical_json({"iterations": result.iterations,
                               "lambda": result.eigenvalue,
                               "min_entry": result.min_entry,
                               "residual": result.residual,
                               "volume": mask.volume})
    if not result.converged:
        return _Outcome((payload,), unconverged=result)
    contents = [payload]
    if config.emit_pgm:
        contents.append(_pgm_text(_node_field(mask, result.vector)))
    if config.emit_matrix:
        contents.append(form.dump_matrix)
    return _Outcome(tuple(contents),
                    f"lambda={result.eigenvalue!r} "
                    f"residual={result.residual:.3e} "
                    f"iterations={result.iterations}")


def _run_hardy(config: RunConfig) -> _Outcome:
    mask = _init_mask(config, _grid(config))
    # the sine-product member is nonzero on every deep-interior node
    if not deep_interior(mask).any():
        raise CliError("mask too small for the hardy corpus "
                       "(no deep-interior support)")
    _prepare_out_dir(config)
    form = assemble(mask, config.sigma)
    corpus = [(label, u) for label, u
              in standard_test_functions(form, seed=config.seed)
              if np.any(u != 0.0)]
    rules = direction_set(config.dim, config.dirs)
    reports = [hardy_check(form, u, rules, label=label)
               for label, u in corpus]
    header = ["label", "dim", "sigma", "constant", "lhs", "rhs", "ratio",
              "margin"]
    rows = [[getattr(r, key) for key in header] for r in reports]
    worst = min(r.ratio for r in reports)
    return _Outcome((_canonical_json([dict(zip(header, row))
                                      for row in rows]),
                     _csv_text(header, rows)),
                    f"hardy: {len(reports)} test functions, "
                    f"smallest ratio {worst!r}")


def _run_rearrange(config: RunConfig) -> _Outcome:
    grid = _grid(config)
    _prepare_out_dir(config)
    report = regional_violation_search(config.sigma, grid,
                                       trials=config.trials,
                                       seed=config.seed)
    contents = [_canonical_json(dataclasses.asdict(report))]
    if config.emit_pgm:
        mask, radius = search_domain(grid)
        trial = int(re.search(r"trial=(\d+)", report.descriptor).group(1))
        u, _ = trial_field(mask, radius, config.seed, trial)
        star = symmetric_decreasing_rearrangement(u, mask)
        contents += [_pgm_text(_node_field(mask, u)),
                     _pgm_text(_node_field(mask, star))]
    return _Outcome(tuple(contents),
                    f"rearrange: best ratio {report.ratio!r} "
                    f"({'violation' if report.violation else 'no violation'})")


def _run_optimize(config: RunConfig) -> _Outcome:
    init = _init_mask(config, _grid(config))
    _prepare_out_dir(config)
    state = optimize(config.mode, init, config.sigma,
                     volume=config.volume or None, penalty=config.penalty,
                     max_iter=config.max_iter, seed=config.seed,
                     eigen_tol=config.tol)
    records = (
        _canonical_json({
            "converged": state.eigen.converged,
            "energy": state.energy_penalized,
            "iterations": state.iteration,
            "lambda": state.eigen.eigenvalue,
            "mode": config.mode,
            "sigma": config.sigma,
            "volume": state.volume,
        }),
        _csv_text(["iter", "lambda", "volume", "energy", "accepted"],
                  [[k, lam, vol, energy, 1] for k, (lam, vol, energy)
                   in enumerate(state.history)]),
    )
    if not state.eigen.converged:
        return _Outcome(records, unconverged=state.eigen)
    images = ()
    if config.dim <= 2:
        images = (_pgm_text(state.mask.active.astype(float)),
                  _pgm_text(_node_field(state.mask, state.eigen.vector)))
    return _Outcome(records + images,
                    f"optimize[{config.mode}]: "
                    f"lambda={state.eigen.eigenvalue!r} "
                    f"volume={state.volume!r} "
                    f"energy={state.energy_penalized!r}")


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
    ("constants.json", "constants", _row_scalars, "C_hardy"),
    ("eigen.json", "eigen", _row_scalars, "lambda"),
    ("hardy.json", "hardy", _row_hardy, "min_ratio"),
    ("rearrange.json", "rearrange", _row_scalars, "ratio"),
    ("state.json", "optimize", _row_scalars, "lambda"),
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
        for fname, subcommand, extract, headline in _REPORT_SOURCES:
            path = cand / fname
            if not path.exists():
                continue
            try:
                row = extract(json.loads(path.read_text()))
                if headline not in row:
                    raise ValueError(f"no {headline!r} value")
                rows.append((label, subcommand, row))
                found = True
            # malformed JSON, or the wrong shape, e.g. [], a list row or
            # an object without the headline key, which holds no result
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
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
    cells = [[label, subcommand] + [_format_value(data[k]) if k in data
                                    else "" for k in keys]
             for label, subcommand, data in rows]
    _atomic_write(directory / "report.csv", _csv_text(header, cells))
    md = ["# regfrac report", "",
          "| " + " | ".join(header) + " |",
          "|" + "---|" * len(header)]
    md.extend("| " + " | ".join(row) + " |" for row in cells)
    if problems:
        md.extend(["", "## Missing or unreadable", ""])
        md.extend(f"- {p}" for p in problems)
    _atomic_write(directory / "report.md", "\n".join(md) + "\n")
    print(f"report: {len(rows)} runs -> {directory / 'report.csv'}")
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
        return _write_outcome(config, _EXECUTORS[config.subcommand](config))
    except NearFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_HELP = {
    "constants": "print the Hardy and pseudo-distance constants",
    "eigen": "ground eigenpair on a shaped domain",
    "hardy": "Hardy-quotient suite over the standard corpus",
    "rearrange": "rearrangement violation search on a ball",
    "optimize": "eigenvalue descent over cell masks",
}
_ALL = tuple(_HELP)
_SHAPED = ("eigen", "hardy", "optimize")
_SWITCH = dict(action="store_const", const=True)
# each flag once: its option strings, the subcommands that read it, and
# its argparse keywords (every default is None: resolve_config takes
# only the flags given)
_FLAGS = (
    ("--config", _ALL,
     dict(metavar="FILE", help="key=value config file (flags override)")),
    ("--n", _ALL,
     dict(dest="dim", type=int, help="spatial dimension (1, 2, or 3)")),
    ("--sigma", _ALL, dict(type=float, help="fractional order in (0, 1)")),
    ("--p", ["constants"],
     dict(type=float, help="integrability exponent (default 2)")),
    ("--out-dir", _ALL, dict(help="directory for artifacts")),
    ("--force", _ALL, dict(_SWITCH, help="overwrite existing artifacts")),
    ("--grid", _GRIDDED,
     dict(dest="resolution", type=int, help="cells per axis (>= 8)")),
    ("--extent", _GRIDDED,
     dict(type=float, help="box side length (grid is centered)")),
    ("--seed", _GRIDDED, dict(type=int)),
    ("--radius", _SHAPED,
     dict(type=float, help="ball radius or square size (0.4 * extent)")),
    ("--shape --init", _SHAPED, dict(choices=("ball", "square", "file"))),
    ("--shape-file", _SHAPED,
     dict(metavar="PBM", help="P1 bitmap when --shape file")),
    ("--tol", ["eigen", "optimize"],
     dict(type=float, help="eigen residual tolerance")),
    ("--pgm", ["eigen", "rearrange"],
     dict(_SWITCH, dest="emit_pgm", help="write P2 images: the "
          "eigenfunction, or the best trial and its rearrangement")),
    ("--matrix", ["eigen"],
     dict(_SWITCH, dest="emit_matrix", help="binary dump of the matrix")),
    ("--dirs", ["hardy"],
     dict(type=int, help="direction count of the pseudo-distance rule")),
    ("--trials", ["rearrange"],
     dict(type=int, help="number of random trials (trial 0 is radial)")),
    ("--mode", ["optimize"], dict(choices=("fixed", "penalized", "convex"))),
    ("--volume", ["optimize"],
     dict(type=float, help="target volume (fixed, convex; default: init)")),
    ("--penalty", ["optimize"],
     dict(type=float, help="volume penalty (penalized mode)")),
    ("--max-iter", ["optimize"], dict(type=int)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regfrac",
        description="Regional fractional eigenvalue experiments with "
                    "reproducible file artifacts.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    runs = {name: subs.add_parser(name, help=text)
            for name, text in _HELP.items()}
    for options, readers, keywords in _FLAGS:
        for name in readers:
            runs[name].add_argument(*options.split(), default=None,
                                    **keywords)
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
