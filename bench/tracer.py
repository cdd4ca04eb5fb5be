"""Span tracer for the benchmark's traced run.

The tracer wraps public callables of the `vem` modules from outside; the
package itself is never edited. `install()` replaces every binding of each
target with a timing wrapper and `restore()` puts the originals back. A
binding is any name, in any loaded `vem` module or in the owning class, that
refers to the same function object, which covers two cases a plain
`setattr` would miss:

- class-level aliases bound when the class body ran (`Var.__matmul__` is
  `Var.matmul`, so patching `matmul` alone misses every `@`);
- names imported by value (`training` imports `logmel`, `sample`, ... with
  `from .x import y`, so patching `audiofeat.logmel` alone misses its calls).

Spans nest on a stack. A span's self time is its duration minus the time
covered by its children; both self and inclusive totals are aggregated per
metric key as spans close, and the raw spans stay in memory until `write()`.
Post-call hooks that compute per-layer counters run inside a `trace.hook`
span, so their cost counts as tracer overhead and not as any layer's time.
"""

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

_clock = time.perf_counter

OP = "op"
HOOK = "trace.hook"


# -- counters computed after a traced call returns ---------------------------


def _tape_hook(tr, args, kwargs, out):
    """Walk the graph that backward() just replayed: count and bytes of the
    activations on it. Leaves (parameters, empty `_prev`) are not counted."""
    root = args[0]
    seen, stack, nodes, nbytes = set(), [root], 0, 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._prev:
            continue
        seen.add(id(node))
        nodes += 1
        nbytes += node.data.nbytes
        stack.extend(node._prev)
    tr.add("autograd.tape_nodes", nodes)
    tr.add("autograd.tape_bytes", nbytes)


def _pad_hook(tr, args, kwargs, out):
    net, z = args[0], args[1]
    length = z.shape[1]
    mult = 2 ** (net.levels - 1)
    padded = -(-length // mult) * mult
    tr.add("tunet.pad_frames", padded - length)
    tr.add("tunet.padded_frames", padded)


def _mask_hook(tr, args, kwargs, out):
    mask = args[3] if len(args) > 3 else kwargs["mask"]
    tr.add("sgcatt.mask_rows", mask.grid.shape[0])
    tr.add("sgcatt.mask_live_rows", int(mask.grid.any(axis=1).sum()))


def _decode_hook(tr, args, kwargs, out):
    vals = out.values
    tr.maximum("diffusion.mel_abs_max", float(np.max(np.abs(vals))) if vals.size else 0.0)
    lo, hi = tr.ref_mel_range if tr.ref_mel_range is not None else (-np.inf, np.inf)
    tr.add("diffusion.mel_values", vals.size)
    tr.add("diffusion.mel_out_of_range", int(np.count_nonzero((vals < lo) | (vals > hi))))


def _saved_bytes_hook(tr, args, kwargs, out):
    tr.add("container.bytes_written", os.path.getsize(args[0]))


def _read_bytes_hook(tr, args, kwargs, out):
    tr.add("container.bytes_read", os.path.getsize(args[0]))


def _resample_hook(tr, args, kwargs, out):
    target = args[1] if len(args) > 1 else kwargs["target_hz"]
    if target != args[0].sample_rate_hz:
        tr.add("audiofeat.resampled", 1)


def _gate_hook(tr, args, kwargs, out):
    tr.add("curation.passed", 1 if out[0] else 0)


# (metric key, owner inside the vem package, attribute, post-call hook)
TARGETS = [
    ("autograd.backward", "autograd.Var", "backward", _tape_hook),
    ("autograd.adam_step", "autograd.Adam", "step", None),
    ("autograd.conv1d", "autograd", "conv1d", None),
    ("autograd.matmul", "autograd.Var", "matmul", None),
    ("autograd.silu", "autograd.Var", "silu", None),
    ("autograd.layer_norm", "autograd.Var", "layer_norm", None),
    ("autograd.softmax", "autograd.Var", "softmax", None),
    ("tunet.forward", "tunet.TUNet", "__call__", _pad_hook),
    ("tunet.resblock", "tunet.ResBlock", "__call__", None),
    ("tunet.selfattn", "tunet.SelfAttnBlock", "__call__", None),
    ("tunet.sgcatt_block", "tunet.SGCAttBlock", "__call__", None),
    ("tunet.ffn", "tunet.FeedForward", "__call__", None),
    ("tunet.channelnorm", "tunet.ChannelNorm", "__call__", None),
    ("sgcatt.cross_attention", "sgcatt", "sg_cross_attention", _mask_hook),
    ("sgcatt.assemble_conditions", "sgcatt", "assemble_conditions", None),
    ("sgcatt.build_mask", "sgcatt", "build_mask", None),
    ("diffusion.training_loss", "diffusion", "training_loss", None),
    ("diffusion.sample", "diffusion", "sample", None),
    ("diffusion.latent_encode", "diffusion", "latent_encode", None),
    ("diffusion.latent_decode", "diffusion", "latent_decode", _decode_hook),
    ("training.stage_aligner", "training", "train_stage_aligner", None),
    ("training.stage_diffusion", "training", "train_stage_diffusion", None),
    ("training.stage_adapter", "training", "train_stage_adapter", None),
    ("training.checkpoint_save", "training", "save_diffusion", None),
    ("training.checkpoint_load", "training", "load_diffusion", None),
    ("container.save_tensors", "container", "save_tensors", _saved_bytes_hook),
    ("container.load_tensors", "container", "load_tensors", _read_bytes_hook),
    ("tbalign.aligner_features", "tbalign", "aligner_features", None),
    ("tbalign.apply_adapter", "tbalign", "apply_adapter", None),
    ("parsing.time_embed", "parsing.TimeEmbedder", "embed", None),
    ("parsing.load_manifest", "parsing", "load_manifest", None),
    ("audiofeat.load_wav", "audiofeat", "load_wav", None),
    ("audiofeat.resample", "audiofeat", "resample", _resample_hook),
    ("audiofeat.logmel", "audiofeat", "logmel", None),
    ("audiofeat.estimate_snr", "audiofeat", "estimate_snr", None),
    ("audiofeat.griffin_lim", "audiofeat", "griffin_lim", None),
    ("beatdet.detect_beats", "beatdet", "detect_beats", None),
    ("curation.gate", "curation", "gate", _gate_hook),
    ("timeline.metrics", "timeline", "beats_iou", None),
    ("timeline.metrics", "timeline", "transitions_beats_iou", None),
    ("timeline.metrics", "timeline", "f_measure", None),
    ("timeline.metrics", "evalsuite", "tw_score", None),
]

# Keys whose metric is the inclusive time per call (a whole stage or a
# checkpoint write); every other `_ms` metric is self time per op.
INCLUSIVE_PER_CALL = {
    "training.stage_aligner": ("training.stage_aligner_s", 1.0, "s"),
    "training.stage_diffusion": ("training.stage_diffusion_s", 1.0, "s"),
    "training.stage_adapter": ("training.stage_adapter_s", 1.0, "s"),
    "training.checkpoint_save": ("training.checkpoint_save_ms", 1000.0, "ms"),
    "training.checkpoint_load": ("training.checkpoint_load_ms", 1000.0, "ms"),
}

# Keys traced for their counters or inclusive time only.
NO_SELF_METRIC = set(INCLUSIVE_PER_CALL) | {"container.save_tensors", "container.load_tensors"}


def _resolve(owner):
    mod, _, cls = owner.partition(".")
    obj = importlib.import_module(f"vem.{mod}")
    return getattr(obj, cls) if cls else obj


def _vem_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vem" or name.startswith("vem."))]


class Tracer:
    """Span stack, per-key aggregates and the patch table of one traced run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []          # [key, t0, t1, parent index, op index]
        self._stack = []         # [span index, child seconds]
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.failed = {}
        self.counters = {}
        self.ref_mel_range = None
        self.op_index = -1
        self.missing = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def begin(self, key):
        """Open a span; returns its index for `end`."""
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([key, 0.0, 0.0, parent, self.op_index])
        self._stack.append([idx, 0.0])
        self.spans[idx][1] = _clock()
        return idx

    def end(self, idx, failed=False):
        """Close span `idx`. Spans opened inside it and still open (an op
        span cut short by an exception) close with it, as failed. A span
        that is no longer open is ignored."""
        t1 = _clock()
        if all(frame[0] != idx for frame in self._stack):
            return
        while True:
            top, child = self._stack.pop()
            span = self.spans[top]
            span[2] = t1
            key, dur = span[0], t1 - span[1]
            self.self_s[key] = self.self_s.get(key, 0.0) + dur - child
            self.incl_s[key] = self.incl_s.get(key, 0.0) + dur
            self.calls[key] = self.calls.get(key, 0) + 1
            if failed or top != idx:
                self.failed[key] = self.failed.get(key, 0) + 1
            if self._stack:
                self._stack[-1][1] += dur
            if top == idx:
                return

    def begin_op(self):
        """Open the root span of the next op; returns its index."""
        self.op_index += 1
        return self.begin(OP)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- patching -----------------------------------------------------------

    def _wrap(self, key, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(key)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.end(span, failed)
            if hook is not None:
                span = tracer.begin(HOOK)
                try:
                    hook(tracer, args, kwargs, out)
                finally:
                    tracer.end(span)
            return out

        return traced

    def install(self):
        """Patch every binding of every target; missing targets are listed in
        `self.missing` and skipped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = _vem_modules()
        for key, owner_name, attr, hook in self.targets:
            try:
                owner = _resolve(owner_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_name}.{attr}")
                continue
            orig = vars(owner).get(attr)
            if orig is None:
                self.missing.append(f"{owner_name}.{attr}")
                continue
            wrapped = self._wrap(key, orig, hook)
            namespaces = modules if isinstance(owner, type(sys)) else [owner]
            for ns in namespaces:
                for name, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, name, wrapped)
                        self._patches.append((ns, name, orig))

    def restore(self):
        for ns, name, orig in reversed(self._patches):
            setattr(ns, name, orig)
        self._patches = []

    @property
    def installed(self):
        return bool(self._patches)

    def patched_bindings(self):
        return [(ns, name) for ns, name, _ in self._patches]

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans as JSON lines: key, start and end (s), parent and op index."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"key": key, "t0": t0, "t1": t1,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, ops, overhead_ratio):
        """Per-layer metrics (name -> (value, unit)) over `ops` traced ops;
        `overhead_ratio` is measured by the caller."""
        ops = max(ops, 1)
        c = self.counters
        out = {}

        def ms_per_op(key):
            return 1000.0 * self.self_s.get(key, 0.0) / ops

        def ratio(num, den):
            return num / den if den else 0.0

        for key, _, _, _ in self.targets:
            if key in NO_SELF_METRIC or f"{key}_ms" in out:
                continue
            out[f"{key}_ms"] = (ms_per_op(key), "ms")
        for key, (name, scale, unit) in INCLUSIVE_PER_CALL.items():
            calls = self.calls.get(key, 0)
            out[name] = (scale * self.incl_s.get(key, 0.0) / calls if calls else 0.0, unit)
        out["autograd.conv1d_calls"] = (self.calls.get("autograd.conv1d", 0) / ops, "count")
        out["autograd.tape_nodes"] = (c.get("autograd.tape_nodes", 0) / ops, "count")
        out["autograd.tape_mb"] = (c.get("autograd.tape_bytes", 0) / 1e6 / ops, "MB")
        out["tunet.forward_calls"] = (self.calls.get("tunet.forward", 0) / ops, "count")
        out["tunet.pad_ratio"] = (ratio(c.get("tunet.pad_frames", 0),
                                        c.get("tunet.padded_frames", 0)), "ratio")
        out["sgcatt.mask_live_ratio"] = (ratio(c.get("sgcatt.mask_live_rows", 0),
                                               c.get("sgcatt.mask_rows", 0)), "ratio")
        out["diffusion.mel_abs_max"] = (c.get("diffusion.mel_abs_max", 0.0), "ln-amp")
        out["diffusion.mel_out_of_range_ratio"] = (ratio(c.get("diffusion.mel_out_of_range", 0),
                                                         c.get("diffusion.mel_values", 0)), "ratio")
        out["container.bytes_written"] = (c.get("container.bytes_written", 0) / ops, "bytes")
        out["container.bytes_read"] = (c.get("container.bytes_read", 0) / ops, "bytes")
        out["audiofeat.resampled_ratio"] = (ratio(c.get("audiofeat.resampled", 0),
                                                  self.calls.get("audiofeat.load_wav", 0)), "ratio")
        out["beatdet.failed_ratio"] = (ratio(self.failed.get("beatdet.detect_beats", 0),
                                             self.calls.get("beatdet.detect_beats", 0)), "ratio")
        out["curation.pass_ratio"] = (ratio(c.get("curation.passed", 0),
                                            self.calls.get("curation.gate", 0)), "ratio")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        out["trace.untraced_ms"] = (ms_per_op(OP), "ms")
        return out

    def summary(self):
        """Every key's calls, failures, self and inclusive seconds."""
        keys = sorted(set(self.calls))
        return {k: {"calls": self.calls[k], "failed": self.failed.get(k, 0),
                    "self_s": self.self_s.get(k, 0.0), "incl_s": self.incl_s.get(k, 0.0)}
                for k in keys}
