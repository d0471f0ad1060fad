"""Workload inputs, made from the benchmark's ``--seed``.

The program only ever receives the inputs built here.  Each workload
has a small pool of input variants; variant 0 is the figure's default
input and variant 1 a held-out one.  Every variant's canonical output
is pinned in ``pins.json`` (recorded from the golden timing model by
``pin.py``), so any seed's run is checked.

* The cold workloads run *every* variant in each round, in an order
  drawn from the seed, so that two seeds measure the same work.
* ``serve-warm`` serves the request mix of variant ``seed % 2``, and
  the seed draws the order in which the closed loop sends requests.

A ``profile`` scales the inputs: ``full`` is what the benchmark
measures, ``tiny`` is what ``selftest.py`` runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
from typing import Any, Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"

#: Engine configuration of every workload: the deterministic serial
#: backend and the default (vector) replay kernel.
ENGINE = {"jobs": 1, "fast": "vector"}

#: Cold workload -> (``repro.api`` command, profile -> variants).
COLD: Dict[str, Tuple[str, Dict[str, List[Dict[str, Any]]]]] = {
    "fig13-cold": ("figure13", {
        "full": [{"scale": 144, "seed": 1}, {"scale": 144, "seed": 7}],
        "tiny": [{"scale": 12, "seed": 1}, {"scale": 12, "seed": 7}],
    }),
    "fig12-cold": ("figure12", {
        "full": [{"scale": 0.5, "interval": 1024},
                 {"scale": 0.5, "interval": 256}],
        "tiny": [{"scale": 0.25, "interval": 1024, "sample": "budget:1"},
                 {"scale": 0.25, "interval": 256, "sample": "budget:1"}],
    }),
}

SERVE = "serve-warm"
WORKLOADS = tuple(COLD) + (SERVE,)

#: Microbenchmark text seed and Figure 12 sampling interval of each
#: serve-warm variant.
_SERVE_VARIANTS = ({"seed": 1, "interval": 1024},
                   {"seed": 7, "interval": 256})


def round_order(seed: int, rounds_done: int, variants: int) -> List[int]:
    """The variant order of one cold round, drawn from the seed."""
    rng = random.Random(f"{seed}/{rounds_done}")
    return rng.sample(range(variants), variants)


def serve_variant(seed: int) -> int:
    return seed % len(_SERVE_VARIANTS)


def serve_requests(variant: int, profile: str
                   ) -> List[Tuple[str, Dict[str, Any]]]:
    """The distinct requests of the served mix: Figures 13/14/2 share
    their windows, a sampled Figure 13 selects a subset of them, and
    Figure 12 (sampled to one cell, to keep the pre-warm short),
    Figures 9/10 and the cost table each bring their own."""
    chars = 48 if profile == "full" else 12
    knobs = _SERVE_VARIANTS[variant]
    micro = {"scale": chars, "seed": knobs["seed"]}
    accuracy = {"scale": 0.002 if profile == "full" else 0.001,
                "seed": variant}
    return [
        ("figure13", dict(micro)),
        ("figure14", dict(micro)),
        ("figure2", dict(micro)),
        ("figure13", dict(micro, sample="fraction:0.5")),
        ("figure12", {"scale": 0.25, "interval": knobs["interval"],
                      "sample": "budget:1"}),
        ("figure9", dict(accuracy)),
        ("figure10", dict(accuracy)),
        ("cost", {}),
    ]


def canonical_digest(data: Any) -> str:
    """sha256 of a command's ``data`` in canonical JSON."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def child_env(workdir: pathlib.Path, fast: str = ENGINE["fast"]
              ) -> Dict[str, str]:
    """Environment of every process the benchmark starts: no inherited
    ``REPRO_*`` knob, every store and temp file inside ``workdir``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(workdir / "tmp"),
        "REPRO_CACHE_DIR": str(workdir / "default-cache"),
        "REPRO_JOBS": str(ENGINE["jobs"]),
        "REPRO_FAST": fast,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env
