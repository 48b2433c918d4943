"""In-memory span recorder for the traced benchmark run.

The recorder wraps ristrack's public functions from outside the package: each
function is replaced at every module attribute that is bound to it, so a call
is traced whichever module looks the name up (``acquisition.gp_posterior``,
``bench.build_codebook``, ...).  Spans are kept in memory as
``(span_id, parent_id, slot_id, name, start, end)`` tuples and written out
when the run ends; self times are derived from them afterwards.

Besides spans the recorder keeps a few counters at the same boundaries:
measurements taken per slot, the history length seen by each surrogate fit,
and how many acquisition picks beat the incumbent of their slot.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (home module, function): the span is named "<home module>.<function>".
SPAN_POINTS = (
    ("config", "parse_config_text"),
    ("codebook", "build_codebook"),
    ("codebook", "quantize_codeword"),
    ("channel", "bs_ris_channel"),
    ("channel", "ris_ue_channel"),
    ("tracker", "mobility_step"),
    ("tracker", "build_slot_env"),
    ("tracker", "track_slot"),
    ("tracker", "run_episode"),
    ("surrogate", "gp_fit"),
    ("surrogate", "tpe_fit"),
    ("surrogate", "gp_posterior"),
    ("acquisition", "select_next"),
    ("acquisition", "expected_improvement"),
    ("bench", "scenario_from_config"),
    ("bench", "run_cell"),
    ("bench", "compute_metrics"),
    ("bench", "emit_csv"),
)

NO_PARENT = -1
NO_SLOT = -1


def _ristrack_modules():
    package = importlib.import_module("ristrack")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"ristrack.{info.name}"))
    return modules


class Tracer:
    """Span stack, span list and boundary counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack = [NO_PARENT]
        self._next_id = 0
        self._next_slot = 0
        self.slot_id = NO_SLOT
        self._slot_history = None
        self.reset_counters()

    def reset_counters(self) -> None:
        self.measurements = 0
        self.fits = 0
        self.fit_history_len = 0
        self.picks = 0
        self.improving_picks = 0

    # -- hooks run around the wrapped call --------------------------------

    def _before(self, name: str, args, kwargs) -> None:
        if name == "tracker.mobility_step":  # every slot of an episode starts here
            self.slot_id = self._next_slot
            self._next_slot += 1
            self._slot_history = None
        elif name == "tracker.run_episode":
            self.slot_id = NO_SLOT
        elif name in ("surrogate.gp_fit", "surrogate.tpe_fit"):
            history = args[0] if args else kwargs["history"]
            self.fits += 1
            self.fit_history_len += len(history)
        elif name == "acquisition.select_next":
            self._slot_history = args[2] if len(args) > 2 else kwargs["history"]

    def _after(self, name: str, result) -> None:
        if name == "tracker.track_slot":
            self.measurements += result.measurements_used
            if self._slot_history is not None:
                values = self._slot_history.values()
                # History values are minimised; the first entry is not a pick.
                for i in range(1, len(values)):
                    self.picks += 1
                    self.improving_picks += bool(values[i] < values[:i].min())
                self._slot_history = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._before(name, args, kwargs)
            slot = self.slot_id
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, slot, name, start, end))
            self._after(name, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every module attribute bound to a span point; restore on exit."""
        modules = _ristrack_modules()
        patched = []
        for home, fn_name in SPAN_POINTS:
            original = getattr(importlib.import_module(f"ristrack.{home}"), fn_name)
            wrapper = self.wrap(f"{home}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        try:
            yield self
        finally:
            for module, fn_name, original in patched:
                setattr(module, fn_name, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,slot_id,name,start_ns,end_ns\n")
            for span_id, parent, slot, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{slot},{name},{int(start * 1e9)},{int(end * 1e9)}\n")


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive durations and total self time (s).

    A span's self time is its duration minus the durations of its direct
    children; spans never overlap their siblings (one thread), so that is the
    part of its interval no child covers.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent != NO_PARENT:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, _, _, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "durations": [], "self_s": 0.0})
        entry["calls"] += 1
        entry["durations"].append(end - start)
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
    return out
