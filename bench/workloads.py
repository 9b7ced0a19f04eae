"""Seeded task streams for the three benchmark workloads.

A task is one public library call with its inputs fully drawn here; the
library sees only those inputs.  The mix of families, call kinds and
grading specs follows a fixed round-robin.  Inside each stratum the
continuous inputs (Moebius twist, sector opening, exponents) come from a
randomly shifted Kronecker sequence: the seed draws the shift, and the
sequence spreads every run's draws evenly over the input ranges.  Two
seeds therefore see different inputs but the same input distribution,
which keeps a short run representative (strong twists, which make
isometry checks several times slower, cannot bunch up in one run).  The
same (workload, seed) always gives the same stream.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Iterator

from oracles import MapSpec

WORKLOADS = ("scan-cold", "reports-warm", "patch-newton")
#: length of each stream's round-robin: task i and task i + PERIOD are drawn alike
PERIOD = {"scan-cold": 60, "reports-warm": 5, "patch-newton": 27}
#: wall seconds per task of a run (probes and checks included) on a shared
#: 2-CPU Xeon host, averaged over its fast and slow phases; sets the task count
TASK_S = {"scan-cold": 0.046, "reports-warm": 0.33, "patch-newton": 0.072}

#: GradingSpec overrides drawn by scan-cold: default, deep truncation, wide angular rule
SPECS = ({}, {"eps_min": 1e-12}, {"angular_base": 128})
TWIST_PROB = 0.75
TWIST_MAX = 0.95
P_GRID = (2.5, 3.0, 4.0, 6.0, 10.0)
ISOMETRY_FUNCTIONS = ("harmonic_poly:1", "boundary_power:1.5", "shifted_log")
P_DISTORTION_POINTS = 50
#: p_distortion batches per cycle of three maps, each of P_DISTORTION_POINTS points
P_DISTORTION_BATCHES = 6
#: p_distortion points stay inside |w| <= this radius, away from the boundary
P_DISTORTION_RADIUS = 0.9


@dataclass(frozen=True)
class Task:
    id: int
    kind: str
    map: MapSpec
    params: dict = field(default_factory=dict)
    spec: dict = field(default_factory=dict)

    def describe(self) -> str:
        maps = " + ".join(m.descriptor() for m in self.params.get("maps", (self.map,)))
        shown = {k: v for k, v in self.params.items() if k not in ("maps", "which", "points", "z")}
        return f"{self.kind} {maps} {shown} {self.spec or ''}".rstrip()


def _kronecker_steps(dim: int) -> tuple[float, ...]:
    # g is the positive root of x^(dim+1) = x + 1; its inverse powers are the R_d steps
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return tuple((g ** -(i + 1)) % 1.0 for i in range(dim))


class _Spread:
    """Randomly shifted Kronecker sequence in [0, 1)^DIM, one per stratum.

    Coordinates 0-4 draw the map (twist on/off, twist radius, twist
    angle, rotation, sector opening); 5-7 draw the task's own inputs.
    """

    DIM = 8
    STEPS = _kronecker_steps(DIM)

    def __init__(self, rng: random.Random):
        self.shift = [rng.random() for _ in range(self.DIM)]
        self.k = 0

    def point(self) -> list[float]:
        self.k += 1
        return [(s + self.k * a) % 1.0 for s, a in zip(self.shift, self.STEPS)]


def _map_from(u: list[float], family: str,
              beta_range: tuple[float, float] = (0.3, 2.0)) -> MapSpec:
    beta = _between(*beta_range, u[4]) if family == "sector" else None
    if u[0] >= TWIST_PROB:
        return MapSpec(family, beta)
    a = TWIST_MAX * math.sqrt(u[1]) * cmath.exp(2j * math.pi * u[2])
    return MapSpec(family, beta, a, 2.0 * math.pi * u[3])


def _between(lo: float, hi: float, x: float) -> float:
    return lo + (hi - lo) * x


def s_range(m: MapSpec) -> tuple[float, float]:
    """[lower - 1, upper + 1], with 0 and 4 standing in for a missing threshold.

    Clipped to the library's bisection brackets [-6, 12] so that sector
    openings near 1, whose thresholds run off to infinity, stay in range.
    """
    lower, upper = m.thresholds()
    lo = (0.0 if lower is None else lower) - 1.0
    hi = (4.0 if upper is None else upper) + 1.0
    return max(lo, -6.0), min(hi, 12.0)


def _scan_cold(rng: random.Random) -> Iterator[tuple[str, MapSpec, dict, dict]]:
    # Koebe twice per cycle puts the median task inside the dense Koebe /
    # cardioid band instead of on the boundary between two equal strata.
    families = ("koebe", "sector", "cardioid", "identity", "koebe")
    kinds = ("brennan", "inverse", "kpq", "area")
    spreads = defaultdict(lambda: _Spread(rng))
    for i in count():
        family, kind = families[i % 5], kinds[(i // 5) % 4]
        u = spreads[family, kind].point()
        m = _map_from(u, family)
        lo, hi = s_range(m)
        if kind == "brennan":
            params = {"s": _between(lo, hi, u[5])}
        elif kind == "inverse":
            params = {"r": 2.0 - _between(lo, hi, u[5])}
        elif kind == "kpq":
            # s >= 1 and p > 2 keep q(p, s) in [1, p)
            s = _between(max(lo, 1.0), hi, u[5])
            p = _between(2.5, 10.0, u[6])
            params = {"p": p, "q": p * s / (p + s - 2.0)}
        else:
            params = {"s": 2.0}
        yield kind, m, params, SPECS[(i // 20) % 3]


def _reports_warm(rng: random.Random) -> Iterator[tuple[str, MapSpec, dict, dict]]:
    # Every report runs on a Koebe map, twisted on three maps in four; the
    # twist moves the two singular points together, so both thresholds and
    # clustered singularities are exercised.  Each task draws its own map,
    # so a run sees many maps and map-dependent costs average out.  Sector
    # and cardioid reports are left out: their latencies sit in bands of
    # their own, and with them the median task fell on a gap between bands
    # and jumped from run to run.
    kinds = ("critical-upper", "critical-lower", "equivalence", "duality", "ratio")
    spreads = defaultdict(lambda: _Spread(rng))
    for i in count():
        kind = kinds[i % 5]
        u = spreads[kind].point()
        m = _map_from(u, "koebe")
        if kind.startswith("critical"):
            yield "critical", m, {"side": kind.split("-")[1], "tol": 0.05}, {}
        elif kind == "equivalence":
            # q(p, s) >= 1 on every grid p needs s >= (p-2)/(p-1), i.e. s >= 0.9
            lo, hi = s_range(m)
            yield kind, m, {"s": _between(max(lo, 0.9), hi, u[5]), "p_grid": P_GRID}, {}
        elif kind == "duality":
            p = _between(2.5, 10.0, u[5])
            yield kind, m, {"p": p, "q": _between(1.2, p - 0.2, u[6])}, {}
        else:
            p = _between(2.5, 8.0, u[5])
            yield kind, m, {"p": p, "q": _between(1.0, p - 0.3, u[6])}, {}


def _patch_newton(rng: random.Random) -> Iterator[tuple[str, MapSpec, dict, dict]]:
    # Each cycle draws a Koebe, a sector and a cardioid map and runs one
    # isometry check on each (the three isometry functions rotate, so every
    # family meets every function over three cycles), then p_distortion
    # batches whose 50 points are spread over three maps of their own, one
    # of each family.  Every batch holds the same mix of families, and a
    # batch's cost follows its maps' twists; fresh maps per batch spread
    # the twists over the run's ~130 batches instead of repeating each
    # cycle's maps six times.  With two tasks in three being batches the
    # median task sits among them.
    families = ("koebe", "sector", "cardioid")
    spreads = defaultdict(lambda: _Spread(rng))
    for j in count():
        for i, f in enumerate(families):
            m = _map_from(spreads[f].point(), f)
            yield "isometry", m, {"function": ISOMETRY_FUNCTIONS[(j + i) % 3]}, {}
        for _ in range(P_DISTORTION_BATCHES):
            maps = tuple(_map_from(spreads["batch", f].point(), f) for f in families)
            which = [k % len(maps) for k in range(P_DISTORTION_POINTS)]
            points = []
            for _ in which:
                rad = P_DISTORTION_RADIUS * math.sqrt(rng.random())
                points.append(rad * cmath.exp(2j * math.pi * rng.random()))
            z = [maps[i].psi_dpsi(w)[0] for i, w in zip(which, points)]
            p = _between(1.5, 6.0, spreads["p_distortion"].point()[5])
            yield "p_distortion", maps[0], {"p": p, "maps": maps, "which": which,
                                            "points": points, "z": z}, {}


_STREAMS = {"scan-cold": _scan_cold, "reports-warm": _reports_warm,
            "patch-newton": _patch_newton}


def stream(workload: str, seed: int, salt: str = "run") -> Iterator[Task]:
    """Endless task stream; ``salt`` separates warm-up draws from measured ones."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{salt}:{workload}:{seed}")
    for i, (kind, m, params, spec) in enumerate(_STREAMS[workload](rng)):
        yield Task(i, kind, m, params, spec)


def task_count(workload: str, seconds: float) -> int:
    """Tasks in a run of nominally ``seconds``: whole periods, fixed per workload.

    The count does not depend on how fast the machine happens to be, so
    one seed always runs the same tasks and its failures are reproducible.
    """
    period = PERIOD[workload]
    return period * max(1, round(seconds / (TASK_S[workload] * period)))


def task_list(workload: str, seed: int, n: int) -> list[Task]:
    return list(islice(stream(workload, seed), n))
