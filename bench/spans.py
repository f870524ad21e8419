"""In-memory span tracer wrapped around the public calls into each edgesim module.

Every wrapped function records a span; a span's self time is its duration minus
the time of the spans nested inside it. Spans flagged ``merge`` fold into an
enclosing span of the same name, so a nested draw such as
``Lfsr.uniform -> Lfsr.uniforms -> Lfsr.bits`` is one ``stochsyn.lfsr_draw``.

Functions are patched at the name their caller looks them up by: ``qnav``
imports ``drop_mask`` by name, so ``qnav.drop_mask`` is patched, while
``swarmlab`` reaches the energy functions through ``macmodel``'s module
attributes and ``Lfsr``/``LpuMeter`` methods are patched on the class.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _bits_requested(args, kwargs) -> int:
    return int(kwargs["n"] if "n" in kwargs else args[1])


# (owner, attribute, span name, merge nested, counter). A counter is
# (name, source, fn): source "args" counts fn(args, kwargs) on every call,
# nested or not; source "result" counts fn(result) once per recorded span.
def _targets():
    from edgesim import macmodel, qnav, stochsyn, swarmlab

    draw = "stochsyn.lfsr_draw"
    energy = "macmodel.energy"
    energy_elems = ("macmodel.energy.elems", "result", _size)
    return [
        (qnav, "q_forward", "qnav.q_forward", False, None),
        (qnav, "train_step", "qnav.train_step", False, None),
        (qnav, "select_action", "qnav.select_action", False, None),
        (qnav, "apply_action", "qnav.apply_action", False, None),
        (qnav.Scratchpad, "sample", "qnav.scratchpad_sample", False, None),
        (qnav, "run_training", "qnav.run_training", False, None),
        (qnav, "drop_mask", "stochsyn.drop_mask", False, None),
        (stochsyn.Lfsr, "bits", draw, True, ("stochsyn.bits_drawn", "args", _bits_requested)),
        (stochsyn.Lfsr, "uniforms", draw, True, None),
        (stochsyn.Lfsr, "uniform", draw, True, None),
        (stochsyn.Lfsr, "randint", draw, True, None),
        (stochsyn.Lfsr, "randints", draw, True, None),
        (macmodel, "tdms_energy", energy, True, energy_elems),
        (macmodel, "hdms_energy", energy, True, energy_elems),
        (macmodel, "digital_energy", energy, True, energy_elems),
        (macmodel, "default_params", "macmodel.default_params", False, None),
        (swarmlab, "apf_force", "swarmlab.apf_force", False, None),
        (swarmlab.LpuMeter, "mul", "swarmlab.lpu_mul", False,
         ("swarmlab.lpu_mul.elems", "result", _size)),
        (swarmlab.LpuMeter, "nfe", "swarmlab.lpu_nfe", False, None),
        (swarmlab, "workload_step", "swarmlab.workload_step", False, None),
        (swarmlab, "run_workload", "swarmlab.run_workload", False, None),
    ]


SPANS = (
    "qnav.q_forward", "qnav.train_step", "qnav.select_action", "qnav.apply_action",
    "qnav.scratchpad_sample", "qnav.run_training",
    "stochsyn.lfsr_draw", "stochsyn.drop_mask",
    "macmodel.energy", "macmodel.default_params",
    "swarmlab.apf_force", "swarmlab.lpu_mul", "swarmlab.lpu_nfe",
    "swarmlab.workload_step", "swarmlab.run_workload",
)
COUNTERS = ("stochsyn.bits_drawn", "macmodel.energy.elems", "swarmlab.lpu_mul.elems")


class Tracer:
    """Accumulates per-span call counts and self time, and named counters."""

    def __init__(self):
        self._stack = []  # open frames: [span name, time of nested spans]
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.total_s = dict.fromkeys(SPANS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counters": dict(self.counters)}

    def wrap(self, fn, span: str, merge: bool, counter):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None and counter[1] == "args":
                self.counters[counter[0]] += counter[2](args, kwargs)
            if merge and stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[span] += 1
                self.self_s[span] += elapsed - frame[1]
                self.total_s[span] += elapsed
            if counter is not None and counter[1] == "result":
                self.counters[counter[0]] += counter[2](result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, span, merge, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, span, merge, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()
