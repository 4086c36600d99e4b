"""Write mix.json: how often each shape class turns up per task kind.

    PYTHONPATH=src python3 perfbench/calibrate.py > perfbench/mix.json

Counts the classes (``workloads.pair_class``) of 20000 draws of seed 0
per kind.  Rerun it when ExperimentConfig's generator or a kind's config
changes; the benchmark's baseline must be measured again afterwards.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import KINDS, make_ctx, pair_class  # noqa: E402

DRAWS = 20000


def main() -> int:
    from extlab.vanishing import ExperimentConfig, random_pair

    mix = {}
    for name, kind in KINDS.items():
        ctx = make_ctx(kind.ring)
        cfg = ExperimentConfig(seed=0, **kind.config)
        counts = Counter(pair_class(name, *random_pair(cfg, ctx, i)) for i in range(DRAWS))
        mix[name] = dict(sorted(counts.items()))
    json.dump(mix, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
