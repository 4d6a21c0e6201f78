"""Per-layer timing for the traced run, from the benchmark's own code.

Two instruments, both installed only in a traced child process:

* ``Spans`` wraps public entry points of the program with wall-clock
  spans and keeps, per span name, total time, self time (the time no
  nested span covers) and call count.
* ``StackSampler`` is a sampling profiler: a thread that looks at the
  main thread's stack every few milliseconds and charges the elapsed
  time to the innermost frame that belongs to ``repro``, grouped by
  package.  The event loop inlines the memory fast paths, so wrappers
  alone cannot separate the simulator's layers; the sampler can, and at
  a cost far below a deterministic profiler's, which would charge every
  one of the event loop's small calls.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple


class Spans:
    """Wall-clock spans around wrapped callables."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: One slot per open span: time covered by its child spans.
        self._stack: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a timed wrapper until
        :meth:`uninstall`."""
        original = getattr(owner, attr)
        stack = self._stack

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                covered = stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - covered
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        # Methods are wrapped on the class; keep the plain function so
        # the wrapper binds like the original.
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, timed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def package_of(path: str, root: str) -> str:
    """Layer name of a source file under ``root`` (``src/repro``)."""
    rel = Path(path).relative_to(root).with_suffix("").parts
    if rel[:2] == ("trace", "compile"):
        return "compile"
    if len(rel) == 1:
        return "other"
    return rel[0]


class StackSampler:
    """Charges wall time to the ``repro`` package running on the main
    thread, sampled every ``interval`` seconds.

    Time spent in the standard library or in C code is charged to the
    innermost ``repro`` frame that called it."""

    def __init__(self, repro_root: Path, interval: float = 0.002) -> None:
        self.root = str(repro_root)
        self.prefix = self.root + "/"
        self.interval = interval
        self.seconds: Dict[str, float] = defaultdict(float)
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._main = threading.main_thread().ident
        self._memo: Dict[str, str] = {}

    def _classify(self, frame) -> str:
        while frame is not None:
            path = frame.f_code.co_filename
            if path.startswith(self.prefix):
                layer = self._memo.get(path)
                if layer is None:
                    layer = self._memo[path] = package_of(path, self.root)
                return layer
            frame = frame.f_back
        return "benchmark"

    def _run(self) -> None:
        last = time.perf_counter()
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._main)
            now = time.perf_counter()
            self.seconds[self._classify(frame)] += now - last
            self.samples += 1
            last = now
        self.seconds["benchmark"] += time.perf_counter() - last

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
