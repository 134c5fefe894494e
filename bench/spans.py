"""Span tracer that times calls into uwocnet from outside the package.

The tracer rebinds public functions of the package modules to timing
wrappers while an op runs, and restores the originals afterwards, so code
outside an op (set-up, output checks, the benchmark loop) runs untraced.  A
name bound with ``from ... import`` has a second binding in the importing
module (``sim.Substream``, ``sim.attenuate``, ``cli.parse_config``); every
binding of the same function object inside the package is rebound.

Each span records (name, start, end, parent, op id) in flat arrays kept in
memory; ``save`` writes them out once, at the end of a run.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  Class attributes are given as
# "Class.method"; the span name's first component is the layer.
TARGETS = (
    ("sim", "sweep", "sim.sweep"),
    ("sim", "run_scenario", "sim.run_scenario"),
    ("sim", "transmit_over_link", "sim.transmit_over_link"),
    ("sim", "scenario_seed", "sim.scenario_seed"),
    ("node", "step", "node.step"),
    ("node", "sample_sensor", "node.sample_sensor"),
    ("node", "schedule", "node.schedule"),
    ("node", "min_slot_duration", "node.min_slot_duration"),
    ("frame", "encode_frame", "frame.encode_frame"),
    ("frame", "decode_frame", "frame.decode_frame"),
    ("frame", "append_hop", "frame.append_hop"),
    ("rng", "Substream", "rng.Substream"),
    ("rng", "derive_seed", "rng.derive_seed"),
    ("rng", "Substream.uniform", "rng.Substream.uniform"),
    ("rng", "Substream.binomial", "rng.Substream.binomial"),
    ("rng", "Substream.gauss", "rng.Substream.gauss"),
    ("rng", "Substream.distinct_below", "rng.Substream.distinct_below"),
    ("channel", "calibrate", "channel.calibrate"),
    ("channel", "model_cumulative_psr", "channel.model_cumulative_psr"),
    ("channel", "attenuate", "channel.attenuate"),
    ("channel", "ook_ber", "channel.ook_ber"),
    ("config", "parse_config", "config.parse_config"),
    ("config", "emit_config", "config.emit_config"),
    ("config", "ScenarioConfig.topology", "config.ScenarioConfig.topology"),
    ("cli", "main", "cli.main"),
    ("cli", "render_psr_csv", "cli.render_psr_csv"),
    ("cli", "render_monitor_csv", "cli.render_monitor_csv"),
)

LAYERS = ("sim", "node", "frame", "rng", "channel", "config", "cli")


class Counters:
    """Counts taken where the work happens, from wrapped calls' results."""

    def __init__(self) -> None:
        self.reports = []  # PsrReport objects returned by run_scenario
        self.frame_bytes = 0  # encoded frame bytes
        self.payload_bytes = 0  # raw record bytes before escaping
        self.escaped_bytes = 0  # escape bytes the codec inserted
        self.discarded_words = 0  # flip-position words from distinct_below
        self.csv_bytes = 0  # rendered CSV bytes

    def after(self, span: str):
        """Hook run on (args, result) of a wrapped call, or None."""
        if span == "sim.run_scenario":
            return lambda args, result: self.reports.append(result)
        if span == "frame.encode_frame":
            return self._encoded
        if span == "rng.Substream.distinct_below":
            return self._flip_positions
        if span.startswith("cli.render_"):
            return self._rendered
        return None

    def _encoded(self, args, data) -> None:
        frame = args[0]
        payload = 3 * len(frame.records)
        self.frame_bytes += len(data)
        self.payload_bytes += payload
        self.escaped_bytes += len(data) - 3 - len(frame.key_chain) - payload

    def _flip_positions(self, args, _result) -> None:
        _stream, bound, count = args
        if count < bound:  # Floyd's sampling draws one word per position
            self.discarded_words += count

    def _rendered(self, _args, text) -> None:
        self.csv_bytes += len(text.encode())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counters()
        self._stack = [-1]
        self._op = [-1]
        self._patches = self._plan("uwocnet")

    def _plan(self, package: str):
        """Every (owner, attribute, original, wrapper) binding to swap."""
        modules = [
            m for n, m in sys.modules.items()
            if n == package or n.startswith(package + ".")
        ]
        patches = []
        for mod_name, attr, span in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                patches.append((cls, meth, fn, self._wrap(span, fn)))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(span, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, key, fn, wrapper))
        return patches

    def _wrap(self, span: str, fn):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        after = self.counters.after(span)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, op = self.start, self.end, self._stack, self._op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self, op_id: int):
        """Trace calls made inside the block, tagged with op_id."""
        self._op[0] = op_id
        for owner, key, _fn, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, fn, _wrapper in self._patches:
                setattr(owner, key, fn)
            self._op[0] = -1

    def arrays(self):
        """Spans as numpy arrays plus each span's self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": parent,
            "dur": dur,
            "self": dur - child,
        }

    def totals(self, ops=None, scale=None):
        """Per span name: calls, inclusive seconds, self seconds.

        ops restricts the spans to the given op ids (None means all).  scale
        maps every op id to a factor on its spans' times (None means 1), as
        when the times are rescaled to reference seconds.
        """
        a = self.arrays()
        dur, own_s = a["dur"], a["self"]
        if scale is not None:
            ids, inverse = np.unique(a["op"], return_inverse=True)
            factor = np.array([scale[int(i)] for i in ids])[inverse]
            dur, own_s = dur * factor, own_s * factor
        keep = np.ones(len(dur), bool) if ops is None else np.isin(a["op"], list(ops))
        k = len(self.names)
        calls = np.bincount(a["name"][keep], minlength=k)
        incl = np.bincount(a["name"][keep], weights=dur[keep], minlength=k)
        own = np.bincount(a["name"][keep], weights=own_s[keep], minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=a["name"],
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=a["parent"],
            op=a["op"],
        )
