"""The host-speed reference: a fixed workload, timed between the passes of a run.

This benchmark runs on a shared VM whose speed drifts: identical passes of
capaug ran up to twice as fast ten minutes apart. The reference is a small,
frozen mix of the kinds of work capaug does, with no capaug code in it:

- caption normalisation in pure Python (``unicodedata`` per character, split,
  join, a JSON dump), as in ``filtering`` and ``corpus``;
- the same string work on a 4-thread pool, as ``harness.run_augmentation``
  does, because a thread pool under the interpreter lock slows down more on a
  busy host than one thread does;
- real FFTs and a dot product in NumPy, as in ``audio`` and ``metrics``;
- one ``sh`` process spawn, as in the ``external`` separator.

``run.py`` scales each run's throughput by the reference's mean time over the
run relative to ``REFERENCE_S``, about its median time on the reference
machine (see ``README.md``).
"""

from __future__ import annotations

import json
import subprocess
import time
import unicodedata
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import workloads as wl

# The time the adjusted throughput is scaled to: about the median of
# reference_s() on the 2-core reference machine (0.048-0.059 s over an hour).
REFERENCE_S = 0.050
_POOL_WORKERS = 4
_CAPTIONS = [c for e in wl.manifest_doc(12345, 200)["entries"]
             for c in e["original_captions"]]
_SIGNAL = np.random.default_rng(0).standard_normal(64_000)


def _strings(captions: list[str]) -> str:
    keys = []
    for caption in captions:
        text = "".join(ch for ch in caption.lower()
                       if not unicodedata.category(ch).startswith("P"))
        keys.append(" ".join(text.split()))
    return json.dumps(sorted(set(keys)), ensure_ascii=False)


def reference_s() -> float:
    """Wall time of one fixed reference workload."""
    start = time.perf_counter()
    _strings(_CAPTIONS)
    _strings(_CAPTIONS)
    for _ in range(5):
        np.fft.irfft(np.fft.rfft(_SIGNAL) * 0.5)
        float(np.dot(_SIGNAL, _SIGNAL))
    subprocess.run(["sh", "-c", ":"], check=True)
    with ThreadPoolExecutor(max_workers=_POOL_WORKERS) as pool:
        list(pool.map(_strings, [_CAPTIONS[i::8] for i in range(16)]))
    return time.perf_counter() - start
