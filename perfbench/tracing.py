"""Spans around the calls into each streameb layer, recorded from outside.

A traced run replaces public functions at the attribute their callers
resolve (``streameb.inference.asymptotic_variance`` is what
``credible_interval`` looks up, ``streameb.engine.update_stream`` is what
the CLI and ``evaluation`` call).  Each call becomes a span: name, start,
end, parent span and the id of the benchmark operation it served.  Spans stay
in memory and are written once, when the run ends.  Nothing inside ``src/``
is changed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import streameb.baselines
import streameb.cli
import streameb.engine
import streameb.evaluation
import streameb.gridding
import streameb.inference
import streameb.model
import streameb.multidim

LAYERS = ("gridding", "model", "engine", "multidim", "inference", "cli", "baselines", "evaluation")


def _grew(cache, y):
    return y > cache.max_y


def _cache_bytes(cache) -> int:
    """Log table, shifted table and row maxima of a kernel cache."""
    rows = cache.max_y + 1
    return rows * len(cache.grid) * 8 * 2 + rows * 8


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = defaultdict(float)
        self.op_id = "setup"
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def wrap(self, owner, attr, name, after=None, when=None):
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``when(*args)`` limits recording to calls that do the work of
        interest; ``after(args, kwargs, result)`` updates counters.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self):
        eb = streameb
        c = self.counters

        def stream_counts(args, kwargs, result):
            c["engine.offered"] += len(args[1])
            c["engine.updates"] += result.n - args[0].n

        def multi_counts(args, kwargs, result):
            c["multidim.counts"] += result.n - args[0].n

        def cache_size(args, kwargs, result):
            c["model.cache_bytes"] = max(c["model.cache_bytes"], _cache_bytes(args[0]))

        def cli_exit(args, kwargs, result):
            c["cli.nonzero_exits"] += result != 0

        def vdm(kind):
            def count(args, kwargs, result):
                c[f"baselines.{kind}_iters"] += result.iterations
                c["baselines.converged"] += bool(result.converged)
            return count

        def lockstep_steps(args, kwargs, result):
            c["evaluation.lockstep_steps"] += args[2].shape[1]

        w = self.wrap
        w(eb.gridding, "build_equispaced_grid", "gridding.build")
        w(eb.evaluation, "build_equispaced_grid", "gridding.build")
        w(eb.model.KernelMatrixCache, "ensure", "model.cache_ensure", after=cache_size, when=_grew)
        w(eb.inference, "log_mixture_pmf", "model.mixture_pmf")
        w(eb.engine, "update_stream", "engine.update_stream", after=stream_counts)
        w(eb.engine, "update", "engine.update")
        w(eb.engine, "serialize_state", "engine.serialize")
        w(eb.engine, "deserialize_state", "engine.deserialize")
        w(eb.multidim, "multi_update_stream", "multidim.update_stream", after=multi_counts)
        w(eb.inference, "credible_interval", "inference.credible_interval")
        w(eb.inference, "asymptotic_variance", "inference.asymptotic_variance")
        w(eb.inference, "clt_scale", "inference.clt_scale")
        for module in (eb.inference, eb.baselines, eb.evaluation):
            w(module, "ratio_estimate", "inference.ratio_estimate")
        w(eb.cli, "main", "cli.estimate", after=cli_exit)
        w(eb.baselines, "fit_npmle", "baselines.npmle", after=vdm("npmle"))
        w(eb.baselines, "fit_min_hellinger", "baselines.npmd", after=vdm("npmd"))
        w(eb.baselines, "fit_gamma_hyperprior", "baselines.peb")
        w(eb.evaluation, "run_stream_experiment", "evaluation.stream_experiment")
        w(eb.evaluation, "batched_newton_stream", "evaluation.lockstep", after=lockstep_steps)
        w(eb.evaluation, "regret_decay_diagnostic", "evaluation.regret")
        w(eb.evaluation, "generate_compound", "evaluation.generate")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # -- summary -----------------------------------------------------------

    def self_times(self, ops_only=False):
        """Per span name: [calls, total self seconds], zero for names never seen.

        Self time is a span's duration minus the durations of its direct
        children, so each second is counted once, in the innermost layer.
        ``ops_only`` keeps spans of timed operations and drops set-up.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            if ops_only and not op_id.startswith("op-"):
                continue
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return out

    def layer_metrics(self, op_latencies) -> dict:
        """Every per-layer metric; 0 where the workload skips the layer."""
        ops = len(op_latencies)
        st = self.self_times()
        c = self.counters

        def per_call(name, scale=1.0):
            calls, total = st[name]
            return total / calls * scale if calls else 0.0

        def per(name, denom, scale=1.0):
            return st[name][1] / denom * scale if denom else 0.0

        def iters(kind):
            calls = st[f"baselines.{kind}"][0]
            return c[f"baselines.{kind}_iters"] / calls if calls else 0.0

        fits = st["baselines.npmle"][0] + st["baselines.npmd"][0]
        m = {
            "gridding.build_s": per_call("gridding.build"),
            "model.cache_ensure_s": per_call("model.cache_ensure"),
            "model.cache_mb": c["model.cache_bytes"] / 2**20,
            "model.mixture_pmf_s": per_call("model.mixture_pmf"),
            "engine.update_stream_s": per_call("engine.update_stream"),
            "engine.us_per_count": per("engine.update_stream", c["engine.offered"], 1e6),
            "engine.updates": c["engine.updates"],
            "engine.skipped": c["engine.offered"] - c["engine.updates"],
            "engine.update_us_per_call": per_call("engine.update", 1e6),
            "engine.serialize_s": per_call("engine.serialize"),
            "engine.deserialize_s": per_call("engine.deserialize"),
            "multidim.update_stream_s": per_call("multidim.update_stream"),
            "multidim.us_per_count": per("multidim.update_stream", c["multidim.counts"], 1e6),
            "cli.estimate_s": per_call("cli.estimate"),
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "baselines.npmle_s": per_call("baselines.npmle"),
            "baselines.npmle_iters": iters("npmle"),
            "baselines.npmd_s": per_call("baselines.npmd"),
            "baselines.npmd_iters": iters("npmd"),
            "baselines.converged_ratio": c["baselines.converged"] / fits if fits else 0.0,
            "baselines.peb_s": per_call("baselines.peb"),
            "evaluation.stream_experiment_s": per_call("evaluation.stream_experiment"),
            "evaluation.lockstep_s": per_call("evaluation.lockstep"),
            "evaluation.lockstep_us_per_step": per(
                "evaluation.lockstep", c["evaluation.lockstep_steps"], 1e6
            ),
            "evaluation.regret_s": per_call("evaluation.regret"),
            "evaluation.generate_s": per_call("evaluation.generate"),
        }
        for fn in ("credible_interval", "asymptotic_variance", "ratio_estimate", "clt_scale"):
            m[f"inference.{fn}_s"] = per_call(f"inference.{fn}")
            m[f"inference.{fn}_calls"] = float(st[f"inference.{fn}"][0])
        in_ops = self.self_times(ops_only=True)
        for layer in LAYERS:
            total = sum(v[1] for k, v in in_ops.items() if k.split(".")[0] == layer)
            m[f"{layer}.self_ms_per_op"] = total / ops * 1e3 if ops else 0.0
        # Operation time no span covers: the benchmark's own code and the
        # streameb functions left unwrapped.
        attributed = sum(m[f"{layer}.self_ms_per_op"] for layer in LAYERS)
        m["trace.unattributed_ms_per_op"] = sum(op_latencies) / ops * 1e3 - attributed if ops else 0.0
        return m
