"""The fuzz corpus: 300 (config text, mode) pairs drawn jointly.

Every key that moves a design is drawn together from
``random.Random(1)``, in this order for each config:

- M_T from {2, 3, 4, 6, 8, 12, 16}, then M_R from {2, 3, 4, 8, 16};
- K from 0..M_T+1, then the target count from 1..3;
- the target angles, U(-85, 85) deg, then their ranges, U(30, 90) m;
- the noise power, U(-160, -40) dBm, then the budget, U(-20, 50) dBm;
- L from {K + M_T, 2 (K + M_T), 256}, then the Rician factor from
  {0, 0.1, 1, 10};
- the overload from {0, 0.3, 0.7, 0.95, 1.0, U(0, 1)};
- the mode from ``design.MODES``, then the seed from 0..10^6.

Floats are written with ``repr``, so a config text parses back to the
drawn values. ``python tests/fuzz_corpus.py`` runs each config through
``parse_config``, ``build_scenario`` and ``design.run`` and prints the
outcome counts and a sha256 over (index, outcome, ``w`` bytes) of the
corpus.
"""

import hashlib
import random
from collections import Counter

import numpy as np

from isacbeam import design
from isacbeam.config import build_scenario, parse_config
from isacbeam.errors import ConfigError, InfeasibleError, NumericalError

SIZE = 300

TEMPLATE = """
[scenario]
num_tx = {mt}
num_rx = {mr}
num_users = {k}
target_angles_deg = {angles}
target_ranges_m = {ranges}
noise_power_dbm = {noise!r}
power_budget_dbm = {power!r}
snapshots = {snapshots}
rician_k = {rician!r}
overload = {overload!r}
seed = {seed}
"""


def configs():
    """The corpus's (config text, mode) pairs, in draw order."""
    rng = random.Random(1)
    for _ in range(SIZE):
        mt = rng.choice([2, 3, 4, 6, 8, 12, 16])
        mr = rng.choice([2, 3, 4, 8, 16])
        k = rng.randint(0, mt + 1)
        t = rng.randint(1, 3)
        angles = [rng.uniform(-85.0, 85.0) for _ in range(t)]
        ranges = [rng.uniform(30.0, 90.0) for _ in range(t)]
        noise = rng.uniform(-160.0, -40.0)
        power = rng.uniform(-20.0, 50.0)
        snapshots = rng.choice([k + mt, 2 * (k + mt), 256])
        rician = rng.choice([0.0, 0.1, 1.0, 10.0])
        overload = rng.choice([0.0, 0.3, 0.7, 0.95, 1.0, None])
        if overload is None:
            overload = rng.random()
        mode = rng.choice(design.MODES)
        seed = rng.randint(0, 10**6)
        yield TEMPLATE.format(mt=mt, mr=mr, k=k, angles=", ".join(map(repr, angles)),
                              ranges=", ".join(map(repr, ranges)), noise=noise, power=power,
                              snapshots=snapshots, rician=rician, overload=overload,
                              seed=seed), mode


def main():
    counts, digest = Counter(), hashlib.sha256()
    for i, (text, mode) in enumerate(configs()):
        w = b""
        try:
            w = np.ascontiguousarray(design.run(build_scenario(parse_config(text)), mode).w)
            outcome = "design"
        except (ConfigError, InfeasibleError, NumericalError) as exc:
            outcome = type(exc).__name__
        counts[outcome] += 1
        digest.update(f"{i} {outcome} ".encode() + bytes(w))
    print(" / ".join(f"{n} {outcome}" for outcome, n in counts.most_common()))
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
