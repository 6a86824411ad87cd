"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of (workload seed, index in the cycle), so
the same seed always yields the same YAML configs and Python arguments. A
workload repeats its cycle of inputs for as long as it runs, so the inputs
measured never depend on how fast the code is. Draws are never filtered by
outcome: geographies that make the solver fail stay in the cycle. This
module imports only NumPy and the standard library; the package under test
is imported by the caller.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA = 9.0
BETA = -0.3
DELTA = 2.0
TRADE_TAU = 0.5
MIN_SEPARATION = 0.2

# solve cycles through these regimes; 1/(sigma-1) routes to the all-sites
# knife-edge solver
SOLVE_REGIMES = (("spread", 0.05), ("strong", 0.2),
                 ("knife_edge", 1.0 / (SIGMA - 1.0)))
SOLVE_SITES = range(2, 9)
SOLVE_CYCLE = len(SOLVE_SITES) * len(SOLVE_REGIMES)
SOLVE_RESOLUTION = 256
# 64², not 128²: a call takes ≈3 s instead of ≈5 s, so a run holds eight or
# nine calls instead of four or five, and its median moves less with the
# host. The market block, which this workload stresses, stays its largest
# traced layer (≈35%).
ENUMERATE_RESOLUTION = 64
# a 3x2 lattice; jittered by at most LATTICE_JITTER the sites stay at
# least MIN_SEPARATION apart. At 128², jitter 0.05 moved the work of an
# enumerate call (labelled cells, market iterations) by 9% between seeds
# (IQR over median of ten seeds), 0.02 by 4%.
ENUMERATE_LAYOUT = tuple((x, y) for y in (0.3, 0.7) for x in (0.2, 0.5, 0.8))
ENUMERATE_SITES = len(ENUMERATE_LAYOUT)
LATTICE_JITTER = 0.02
ENUMERATE_AMENITY = {"kind": "bumps", "base": 1.0,
                     "bumps": [{"center": [0.5, 0.5], "height": 1.0,
                                "width": 0.2}]}
ENUMERATE_SIZES = (1, 2, 3)
ENUMERATE_ALPHA = 0.2
ENUMERATE_CYCLE = 1
MULTISTART_RESOLUTION = 64
MULTISTART_STARTS = 16
MULTISTART_ALPHA = 0.2
MULTISTART_DELTA = 10.0
# the triangle of tests/test_acceptance.py, criterion 9. With a square in
# turn, the median of a run fell between the two layouts' latencies (the
# square is 12% faster), which made it noisier than the median of one layout.
MULTISTART_LAYOUT = ((0.15, 0.3), (0.85, 0.3), (0.5, 0.85))
MULTISTART_CYCLE = 1

_STREAM = {"solve": 1, "enumerate": 2, "multistart": 3}


def op_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    """Independent generator for input ``index`` of a seeded cycle."""
    return np.random.default_rng([seed, _STREAM[workload], index])


def draw_sites(rng: np.random.Generator, n: int) -> list[dict]:
    """n sites in [0.05, 0.95]² at least MIN_SEPARATION apart."""
    positions: list[tuple[float, float]] = []
    while len(positions) < n:
        p = tuple(float(v) for v in rng.uniform(0.05, 0.95, size=2))
        if all(math.dist(p, q) >= MIN_SEPARATION for q in positions):
            positions.append(p)
    return [{"position": list(p),
             "productivity": float(rng.uniform(0.9, 1.1))}
            for p in positions]


def jitter_sites(rng: np.random.Generator, layout, jitter: float,
                 productivity: bool = True) -> list[dict]:
    """Sites at ``layout`` moved by up to ``jitter`` along each axis.

    Productivities are drawn from [0.9, 1.1], or left at 1 when
    ``productivity`` is false.
    """
    sites = []
    for p in layout:
        site = {"position": [float(v) for v in
                             np.add(p, rng.uniform(-jitter, jitter, size=2))]}
        if productivity:
            site["productivity"] = float(rng.uniform(0.9, 1.1))
        sites.append(site)
    return sites


def draw_bump(rng: np.random.Generator) -> dict:
    return {"kind": "bumps", "base": 1.0,
            "bumps": [{"center": [float(v) for v in rng.uniform(0.2, 0.8, 2)],
                       "height": float(rng.uniform(0.5, 2.0)),
                       "width": float(rng.uniform(0.1, 0.3))}]}


def _config(sites, amenity, resolution, alpha, delta, extra=None) -> dict:
    config = {
        "geography": {
            "bbox": [0.0, 0.0, 1.0, 1.0],
            "resolution": [resolution, resolution],
            "amenity": amenity,
            "sites": sites,
            "trade": {"kind": "from_metric", "tau": TRADE_TAU},
        },
        "params": {"sigma": SIGMA, "alpha": alpha, "beta": BETA,
                   "delta": delta},
    }
    config.update(extra or {})
    return config


def solve_config(seed: int, index: int) -> dict:
    """Input ``index`` of the cycle: a fresh 2–8-site geography at 256².

    Site count and regime are stratified, so the SOLVE_CYCLE inputs hold
    each (site count, regime) pair once; positions, productivities and the
    amenity bump are drawn.
    """
    rng = op_rng("solve", seed, index)
    n_regimes = len(SOLVE_REGIMES)
    n_sites = SOLVE_SITES[0] + (index // n_regimes) % len(SOLVE_SITES)
    _, alpha = SOLVE_REGIMES[index % n_regimes]
    return _config(draw_sites(rng, n_sites), draw_bump(rng),
                   SOLVE_RESOLUTION, alpha, DELTA)


def enumerate_config(seed: int, index: int) -> dict:
    """Input ``index`` of the cycle: sizes 1–3 over one 6-site geography
    at 64².

    Only the positions are drawn. Drawn productivities or amenity bumps
    move the number of subsets that fail, and with it the time of a call,
    by up to 25% between geographies.
    """
    rng = op_rng("enumerate", seed, index)
    sites = jitter_sites(rng, ENUMERATE_LAYOUT, LATTICE_JITTER,
                         productivity=False)
    return _config(sites, ENUMERATE_AMENITY, ENUMERATE_RESOLUTION,
                   ENUMERATE_ALPHA, DELTA,
                   {"enumerate": {"sizes": list(ENUMERATE_SIZES),
                                  "max_subsets": 256}})


def multistart_inputs(seed: int, index: int) -> tuple[dict, dict]:
    """Input ``index`` of the cycle: the config of a jittered triangle at
    64² with a uniform amenity, and the keyword arguments of the probe
    (number of starts and its seed)."""
    rng = op_rng("multistart", seed, index)
    config = _config(jitter_sites(rng, MULTISTART_LAYOUT, LATTICE_JITTER),
                     {"kind": "uniform"}, MULTISTART_RESOLUTION,
                     MULTISTART_ALPHA, MULTISTART_DELTA)
    return config, {"n_starts": MULTISTART_STARTS,
                    "seed": int(rng.integers(0, 2**31))}
