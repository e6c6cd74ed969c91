"""The benchmark's three workloads and their correctness gates.

Every workload is 2-d with sigma = 0.75 on grids of extent 2 centred at
the origin.  ``setup`` builds what every regfrac process pays for before
its first result (the near table and the masks); ``run`` is one timed
pass at a pass seed, calling the package only through module attributes
so traced wrappers are seen; ``check`` gates the pass's outputs against
contracts that hold for any seed.  See NOTES.md for why each was chosen.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

DIM = 2
SIGMA = 0.75
# The default 2-d table (depth 8) takes about 53 s to build, more than a
# whole benchmark run may take; depth 5 runs the same code on 256x fewer
# box pairs at the last level in about 0.9 s (convergence indicator 9.7e-3).
TABLE_DEPTH = 5
TABLE_TOL = 2e-2

EIGEN_TOL = 1e-8
LAMBDA_RTOL = 1e-6
STATE_RTOL = 1e-6
HARDY_BAR = 0.9


def grid(rf, cells: int):
    return rf["geometry"].GridSpec(cells=(cells, cells), spacing=2.0 / cells,
                                   origin=(-1.0, -1.0))


def _failure(label: str, exc: BaseException) -> str:
    return f"{label}: raised {type(exc).__name__}: {exc}"


class Workload:
    """One workload: ``run`` returns (operation label, result or the
    exception it raised) pairs; ``check`` returns one verdict per pair,
    None when the operation passed its gate."""

    def close(self) -> None:
        pass


class EigenLadder(Workload):
    """assemble + smallest_eigenpair on three masks whose sizes span 4x."""

    name = "eigen-ladder"

    def __init__(self, rf, refs):
        geo = rf["geometry"]
        self.rf = rf
        self.refs = refs["eigen-ladder"]
        self.cases = [
            ("ball", 24, geo.Ball(center=(0.0, 0.0), radius=0.8)),
            ("annulus", 40, geo.Annulus(center=(0.0, 0.0), r_inner=0.3,
                                        r_outer=0.8)),
            ("box", 48, geo.Box(lo=(-0.7, -0.7), hi=(0.7, 0.7))),
        ]
        self.masks = []

    def setup(self, table) -> None:
        make_mask = self.rf["geometry"].make_mask
        self.masks = [(label, make_mask(grid(self.rf, cells), shape))
                      for label, cells, shape in self.cases]
        self.table = table

    def run(self, seed: int) -> list:
        g, sp = self.rf["gagliardo"], self.rf["spectral"]
        out = []
        for label, mask in self.masks:
            try:
                form = g.assemble(mask, SIGMA, table=self.table)
                out.append((label, sp.smallest_eigenpair(form, tol=EIGEN_TOL,
                                                         seed=seed)))
            except Exception as exc:  # counted as a failed operation
                out.append((label, exc))
        return out

    def check(self, results) -> list[str | None]:
        verdicts = []
        for label, res in results:
            if isinstance(res, Exception):
                verdicts.append(_failure(label, res))
                continue
            ref = self.refs[label]
            rel = abs(res.eigenvalue - ref) / abs(ref)
            if not res.converged:
                verdicts.append(f"{label}: not converged")
            elif not res.residual <= EIGEN_TOL:
                verdicts.append(f"{label}: residual {res.residual:.3e}")
            elif not rel <= LAMBDA_RTOL:
                verdicts.append(f"{label}: lambda {res.eigenvalue!r} is "
                                f"{rel:.2e} from reference {ref!r}")
            else:
                verdicts.append(None)
        return verdicts

    def fingerprint(self, results):
        return [(label, None if isinstance(r, Exception) else
                 (r.eigenvalue, r.iterations, r.residual))
                for label, r in results]


class InequalitySuite(Workload):
    """Hardy and equivalence checks on the standard corpus, then the
    rearrangement violation search, all on one ball."""

    name = "inequality-suite"
    CELLS = 24
    DIRECTIONS = 96
    TRIALS = 400
    CORPUS = ("sine-product", "centered-gaussian", "offset-gaussian-0",
              "offset-gaussian-1", "ground-eigenfunction")

    def __init__(self, rf, refs):
        self.rf = rf

    def setup(self, table) -> None:
        geo = self.rf["geometry"]
        self.grid = grid(self.rf, self.CELLS)
        self.mask = geo.make_mask(self.grid,
                                  geo.Ball(center=(0.0, 0.0), radius=0.8))
        self.table = table

    def run(self, seed: int) -> list:
        g, hd = self.rf["gagliardo"], self.rf["hardy"]
        dirs = self.rf["geometry"].direction_set(DIM, self.DIRECTIONS)
        self.seed = seed
        out = []
        try:
            self.form = g.assemble(self.mask, SIGMA, table=self.table)
            corpus = dict(hd.standard_test_functions(self.form, seed=seed))
        except Exception as exc:
            return [(label, exc) for label in self.CORPUS + ("search",)]
        for label in self.CORPUS:
            try:
                u = corpus[label]
                out.append((label, (hd.hardy_check(self.form, u, dirs, label),
                                    hd.equivalence_check(self.form, u))))
            except Exception as exc:
                out.append((label, exc))
        try:
            out.append(("search", self.rf["rearrange"].regional_violation_search(
                SIGMA, self.grid, trials=self.TRIALS, seed=seed,
                table=self.table)))
        except Exception as exc:
            out.append(("search", exc))
        return out

    def _replay(self, report) -> str | None:
        """The best trial, rebuilt through trial_field, must reproduce its
        ratio bit for bit."""
        ra = self.rf["rearrange"]
        found = re.search(r"seed=(-?\d+) trial=(\d+)", report.descriptor)
        if found is None or int(found.group(1)) != self.seed:
            return f"search: descriptor without this seed: {report.descriptor!r}"
        mask, radius = ra.search_domain(self.grid)
        if not mask.same_cells(self.mask):
            return "search: search domain differs from the workload ball"
        u, _ = ra.trial_field(mask, radius, self.seed, int(found.group(2)))
        star = ra.symmetric_decreasing_rearrangement(u, mask)
        ratio = self.form.energy(u) / self.form.energy(star)
        if ratio != report.ratio:
            return (f"search: replayed ratio {ratio!r} != reported "
                    f"{report.ratio!r}")
        return None

    def check(self, results) -> list[str | None]:
        verdicts = []
        for label, res in results:
            if isinstance(res, Exception):
                verdicts.append(_failure(label, res))
            elif label == "search":
                verdicts.append(self._replay(res))
            elif not res[0].ratio >= HARDY_BAR:
                verdicts.append(f"{label}: Hardy ratio {res[0].ratio!r} "
                                f"< {HARDY_BAR}")
            elif not res[1].satisfied:
                verdicts.append(f"{label}: equivalence bound not satisfied "
                                f"(ratio {res[1].ratio!r})")
            else:
                verdicts.append(None)
        return verdicts

    def fingerprint(self, results):
        return [(label, None if isinstance(r, Exception) else
                 r.ratio if label == "search" else (r[0].ratio, r[1].ratio))
                for label, r in results]


class PenalizedDescent(Workload):
    """``regfrac optimize --mode penalized`` through cli.main, in process."""

    name = "penalized-descent"
    CELLS = 16

    def __init__(self, rf, refs):
        self.rf = rf
        self.refs = refs["penalized-descent"]
        self.scratch = Path(__file__).resolve().parent / ".out"
        self.scratch.mkdir(exist_ok=True)
        self.out_root = Path(tempfile.mkdtemp(prefix="penalized-",
                                              dir=self.scratch))

    def setup(self, table) -> None:
        pass  # the CLI makes its own masks and fetches the shared table

    def run(self, seed: int) -> list:
        out_dir = tempfile.mkdtemp(dir=self.out_root)
        argv = ["optimize", "--mode", "penalized", "--n", str(DIM),
                "--grid", str(self.CELLS), "--sigma", repr(SIGMA),
                "--seed", str(seed), "--out-dir", out_dir]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.rf["cli"].main(argv)
        except Exception as exc:
            return [("optimize", exc)]
        return [("optimize", (code, Path(out_dir)))]

    def check(self, results) -> list[str | None]:
        verdicts = []
        for label, res in results:
            if isinstance(res, Exception):
                verdicts.append(_failure(label, res))
                continue
            code, out_dir = res
            if code != 0:
                verdicts.append(f"{label}: exit code {code}")
                continue
            try:
                state = json.loads((out_dir / "state.json").read_text())
            except (OSError, ValueError) as exc:
                verdicts.append(_failure(label, exc))
                continue
            bad = [f"{key} {state[key]!r} vs reference {ref!r}"
                   for key, ref in self.refs.items()
                   if not abs(state[key] - ref) <= STATE_RTOL * abs(ref)]
            verdicts.append(f"{label}: " + "; ".join(bad) if bad else None)
        return verdicts

    def fingerprint(self, results):
        out = []
        for label, res in results:
            if isinstance(res, Exception) or res[0] != 0:
                out.append((label, None))
            else:
                out.append((label, (res[1] / "state.json").read_text()))
        return out

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by another run
            self.scratch.rmdir()


WORKLOADS = {w.name: w for w in (EigenLadder, InequalitySuite,
                                 PenalizedDescent)}
