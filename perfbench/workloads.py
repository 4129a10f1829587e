"""The workloads: inputs from the seed, one timed round, its checks.

A round runs the same operations every time: one growth certificate
(surgery), 1000 segment plans (plans) or one sweep (sweep).  `build` is the
set-up: it makes the program's inputs from the seed.  `run` times the
certified computation and returns what the checks need.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Round:
    attempted: int
    failed: int
    solve_s: float  # wall time of the whole certified computation
    outputs: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def _inputs_rng(seed: int):
    return np.random.default_rng([seed, 0])


# -- surgery --------------------------------------------------------------------------


class Surgery:
    """Twisted table lambda=1.2 (1024 nodes), golden rotation, grid 1024, eps=0.5."""

    name = "surgery"
    EPS = 0.5
    VERIFY_GRID = 96

    def build(self, seed: int) -> dict:
        from cocyclelab import basedyn, cocycle

        base = basedyn.CircleRotation.golden(grid_size=1024)
        co = cocycle.Cocycle(base, cocycle.twisted_table(1.2, 1024))
        # the verify grid's offset within one spacing is the seeded input
        offset = float(_inputs_rng(seed).random())
        grid = (np.arange(self.VERIFY_GRID) + offset) / self.VERIFY_GRID
        return {"co": co, "grid": grid}

    def run(self, inp: dict) -> Round:
        from cocyclelab import surgery
        from cocyclelab.errors import CocycleLabError

        co, eps = inp["co"], self.EPS
        t0 = time.perf_counter()
        try:
            cfg = surgery.build_config(co, eps)
            pc = surgery.assemble_perturbation(co, cfg)
            n = int(max(cfg.n0, (cfg.N + 1) / eps)) + 1
            cert = surgery.verify_growth(pc, cfg, n, grid=inp["grid"])
        except CocycleLabError as e:
            dt = time.perf_counter() - t0
            return Round(1, 1, dt, sizes={"error": f"{type(e).__name__}: {e}"})
        dt = time.perf_counter() - t0
        sizes = {"N": cfg.N, "towers": len(cfg.castle.towers),
                 "floors": cfg.castle.floor_count(), "plans": len(pc.plans),
                 "regions": int(pc.region_lo.size), "horizon": n,
                 "max_direct": cert.max_direct, "bound": cert.bound}
        return Round(1, 0 if cert.passed else 1, dt,
                     {"co": co, "cfg": cfg, "pc": pc, "cert": cert, "n": n}, sizes)

    def check(self, inp: dict, rnd: Round, rng) -> None:
        import checks

        o = rnd.outputs
        checks.check_surgery(o["co"], o["cfg"], o["pc"], o["cert"], o["n"], rng)


# -- plans ------------------------------------------------------------------------------


class Plans:
    """Schrodinger lambda=1.2, E=0, golden rotation, grid 2048, eps=0.18, 1000 anchors."""

    name = "plans"
    EPS = 0.18
    ENERGY, COUPLING = 0.0, 1.2
    ANCHORS = 1000

    def build(self, seed: int) -> dict:
        from cocyclelab import basedyn, cocycle

        base = basedyn.CircleRotation.golden(grid_size=2048)
        co = cocycle.Cocycle(base, cocycle.SchrodingerGenerator(self.ENERGY, self.COUPLING))
        anchors = _inputs_rng(seed).random(self.ANCHORS)
        return {"co": co, "points": [base.point(float(x)) for x in anchors]}

    def run(self, inp: dict) -> Round:
        from cocyclelab import basedyn, perturb
        from cocyclelab.errors import CocycleLabError

        co, eps, points = inp["co"], self.EPS, inp["points"]
        t0 = time.perf_counter()
        try:
            W, m = perturb.choose_steering_window(co, eps)
        except CocycleLabError as e:
            dt = time.perf_counter() - t0
            return Round(len(points), len(points), dt,
                         sizes={"error": f"{type(e).__name__}: {e}"})
        m1 = max(basedyn.covering_time(co.base, W), m)
        c = math.log(co.sup_norm + eps) + 1e-9
        N = perturb.choose_N(co, eps, c, m1)
        try:
            plans = perturb.plan_segments(co, points, eps, N, W, m1, m)
        except CocycleLabError:
            # one bad anchor fails the batch: plan one at a time to count failures
            plans = []
            for p in points:
                try:
                    plans.append(perturb.plan_segment(co, p, eps, N, W, m1, m))
                except CocycleLabError:
                    plans.append(None)
        passed = [p for p in plans if p is not None and perturb.verify_segment(co, p).passes]
        dt = time.perf_counter() - t0
        steered = sum(isinstance(p.branch, perturb.Steered) for p in passed)
        return Round(len(points), len(points) - len(passed), dt,
                     {"co": co, "plans": passed},
                     {"m": m, "m1": m1, "N": N, "steered": steered, "verified": len(passed)})

    def check(self, inp: dict, rnd: Round, rng) -> None:
        import checks

        checks.check_plans(rnd.outputs["co"], rnd.outputs["plans"], self.ENERGY,
                           self.COUPLING, "golden", rng)


# -- sweep ----------------------------------------------------------------------------------


class Sweep:
    """CLI `exponent --threads 2`: Schrodinger lambda=3, E=0, golden, grid 4096, n=10000."""

    name = "sweep"
    N, GRID, COUPLING, ENERGY = 10_000, 4096, 3.0, 0.0

    def build(self, seed: int) -> dict:
        from cocyclelab import basedyn, cli

        out = OUT / f"sweep-{seed}"
        argv = ["exponent", "--threads", "2", "--out", str(out), "--base.variant=golden",
                f"--base.grid={self.GRID}", "--generator.family=schrodinger",
                f"--generator.coupling={self.COUPLING}", f"--generator.energy={self.ENERGY}",
                f"--n={self.N}"]
        alpha = basedyn.CircleRotation.golden(grid_size=self.GRID).alpha_float
        return {"main": cli.main, "argv": argv, "out": out, "alpha": alpha}

    def run(self, inp: dict) -> Round:
        shutil.rmtree(inp["out"], ignore_errors=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the result line
            code = inp["main"](inp["argv"])
        dt = time.perf_counter() - t0
        return Round(1, 0 if code == 0 else 1, dt, {"out": inp["out"]},
                     {"n": self.N, "grid": self.GRID})

    def check(self, inp: dict, rnd: Round, rng) -> None:
        import checks

        summary, xs, vals = checks.read_sweep(rnd.outputs["out"])
        checks.check_sweep(summary, xs, vals, n=self.N, grid=self.GRID, energy=self.ENERGY,
                           coupling=self.COUPLING, alpha=inp["alpha"], rng=rng)


WORKLOADS = {w.name: w for w in (Surgery(), Plans(), Sweep())}
