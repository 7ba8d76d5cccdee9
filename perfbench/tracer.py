"""Span tracing from outside the package.

The tracer swaps module attributes (``montecarlo.sample_realization``,
``beamform.received_powers``, ...) for timing wrappers.  The package calls
these functions through module globals or module attributes, so every call
is caught without touching its source.  Spans stay in memory as flat lists
and are written out when the run ends; self time is computed afterwards.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, attribute) pairs timed by the tracer, grouped by layer.
TRACED = {
    "cli": ["cmd_plan", "cmd_simulate", "cmd_verify"],
    "planner": ["plan", "validate_plan", "nu_constant", "save_plan",
                "load_plan"],
    "moments": ["var_pl_nopath", "var_pe_nopath", "mean_pl_nopath",
                "mean_pe_nopath", "power_moment_bounds"],
    "montecarlo": ["estimate_outage", "run_trial", "_trial_rng",
                   "sample_realization", "write_trials_csv",
                   "verify_power_bounds", "verify_moments",
                   "_sample_powers_nopath"],
    "beamform": ["stage1_rates", "received_powers", "stage2_rates"],
}


def _note_sample(args, kwargs, result):
    realization, _n_in_bl = result
    return {"relays": realization.n_relays, "eaves": realization.n_eaves}


def _note_powers(args, kwargs, result):
    r = args[0]
    return {"cross": r.n_eaves * r.n_relays}


def _note_trial(args, kwargs, result):
    return {"stage2": int(result.e1)}


def _note_bounds(args, kwargs, result):
    plan, _cfg, n_samples = args[:3]
    return {"elems": n_samples * plan.n_r}


def _note_nopath(args, kwargs, result):
    _mu, n_r, n_samples = args[:3]
    return {"elems": n_r * n_samples}


# Work counts attached to spans, computed from arguments and results.
NOTES = {
    "montecarlo.sample_realization": _note_sample,
    "beamform.received_powers": _note_powers,
    "montecarlo.run_trial": _note_trial,
    "montecarlo.verify_power_bounds": _note_bounds,
    "montecarlo._sample_powers_nopath": _note_nopath,
}


class Tracer:
    """Collects spans as parallel lists: name, start, end (ns), parent
    index (-1 for a root), error class name and work notes."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.error: list[str | None] = []
        self.notes: list[dict | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.error.append(None)
        self.notes.append(None)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                self.error[idx] = type(exc).__name__
                raise
            self._close(idx)
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Swap every attribute in TRACED; ``modules`` maps layer name to
        the imported module object."""
        for layer, attrs in TRACED.items():
            mod = modules[layer]
            for attr in attrs:
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def to_dict(self) -> dict:
        return {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "error": self.error,
                "notes": self.notes}


def self_times(spans: dict) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own
