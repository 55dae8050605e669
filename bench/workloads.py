"""Benchmark workloads: config templates rendered from one workload seed S.

Each workload is a CLI config for `decaylab.cli.main`.  `render(S)` maps the
benchmark seed onto the config's own seeds; the program only ever sees the
rendered text.  `default_seed` reproduces the inputs the reference outputs in
`reference/` were recorded with.  Inputs of a seed-independent workload are
the same on every seed, so the reference check applies in full on all seeds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    seed_independent: bool
    render: Callable[[int], str]


def _base_case(S: int) -> str:
    # configs/base-case.cfg with scale 10 -> 7.  The verbatim file takes ~35 s
    # per run, longer than one benchmark run may last.  At scale 8 and up each
    # per-frequency block of the direct sum is 64 MB; at scale 8 run_s spread
    # 0.23 over ten runs, against 0.03 at scale 7 (16 MB blocks).  Inputs are
    # uniform, so the seed is echoed into the config but changes nothing.
    return f"""\
experiment = base-case
scale = 7
seed = {S}
s = 1.0
t = 1.0
n_samples = 16
input1.kind = uniform
input1.a = 1.0
input1.b = 2.0
input2.kind = uniform
input2.a = 1.0
input2.b = 2.0
"""


def _flatten(S: int) -> str:
    # C02's first Cantor battery (seeds 0 and 100) on every seed.  mul's cost
    # is set by the occupied cells of the two self-differences, and FFT
    # roundoff leaves 1.1-3.0x as many occupied cells as the exact support,
    # varying with the Cantor seed: seeded inputs ran 6.8-27 s over five seeds.
    return f"""\
experiment = flatten
scale = 12
seed = {S}
s = 0.5
t = 0.5
k_max = 4
kappa = 0.1
input1.kind = cantor
input1.d = 2
input1.keep = 2
input1.depth = 6
input1.seed = 0
input2.kind = cantor
input2.d = 2
input2.keep = 2
input2.depth = 6
input2.seed = 100
"""


def _induction(S: int) -> str:
    # configs/induction.cfg's inputs (Cantor seeds 8, 17, 27) on every seed.
    # Peak memory is set by the mul in the difference product of the
    # coarsened inputs, whose pair count includes the FFT-roundoff cells of
    # two `sub` outputs; with seeded inputs it ranged 163-231 MB over five seeds.
    return f"""\
experiment = induction
scale = 10
seed = {S}
exponents = 0.5,0.5,0.5
k = 2
n_samples = 32
input1.kind = cantor
input1.d = 2
input1.keep = 2
input1.depth = 5
input1.seed = 8
input2.kind = cantor
input2.d = 2
input2.keep = 2
input2.depth = 5
input2.seed = 17
input3.kind = cantor
input3.d = 2
input3.keep = 2
input3.depth = 5
input3.seed = 27
"""


def _project(S: int) -> str:
    # acceptance check C08's scan one level finer: depth-6 sets at level 12
    # and the full 4096-direction grid
    return f"""\
experiment = project
scale = 12
seed = {S}
s = 0.5
t = 1.0
input1.kind = cantor
input1.d = 2
input1.keep = 2
input1.depth = 6
input1.seed = {S}
input2.kind = cantor
input2.d = 2
input2.keep = 2
input2.depth = 6
input2.seed = {S + 500}
"""


WORKLOADS = {w.name: w for w in (
    Workload("base-case-s7",
             "dense spectral path: direct sums of uniform x uniform at grid level 10",
             0, True, _base_case),
    Workload("flatten-l12",
             "convolution path: mul of two Cantor self-differences at level 15, then additive powers",
             0, True, _flatten),
    Workload("induction",
             "sparse spectral path: ~2000 small direct sums over <= 64 cells each",
             7, True, _induction),
    Workload("project-l12",
             "dyadic path: projection scan of two 64-cell Cantor sets over 4096 directions",
             1, False, _project),
)}


def input_seeds(config_text: str) -> dict:
    """The seed of each input of a rendered config, e.g. {"input1": 7}."""
    seeds = {}
    for line in config_text.splitlines():
        key, _, val = (p.strip() for p in line.partition("="))
        if key.startswith("input") and key.endswith(".seed"):
            seeds[key[:-len(".seed")]] = int(val)
    return seeds
