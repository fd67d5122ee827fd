"""Layer spans for the traced benchmark run.

The program is not instrumented. Instead, while a ``Tracer`` is installed,
the public functions each module imports from the layer below are replaced
*at their import sites* by timing wrappers, so a call from ``cli`` into
``renewal.policy_metrics`` opens a ``renewal`` span whose parent is the
``cli`` span of the same operation.

Layers (ROADMAP L0-L4 plus the CLI on top):

    cli        argparse, validation, JSON/CSV formatting (root span per op)
    optimizer  algorithm1 / grid_search / optimize_penalty / feasible
    renewal    policy_metrics
    chain      stationary, transition_matrix
    erlang     erlang_cdf, survival_/penalty_weighted_integral (leaf calls)
    simulator  simulate, minus the kernel: RNG set-up, batch means, antiderivative
    kernel     the simulator's cycle kernel (run_cycles)

A span's self time is its duration minus the time covered by its child
spans. Only the per-layer aggregates and the open-span stack are kept.
Erlang calls are leaves and far too numerous for a span each: they are
counted, timed and charged to their parent as child time.
"""

from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Span stack and per-layer aggregates."""

    def __init__(self):
        self.self_s = defaultdict(float)  # layer -> summed self time
        self.counts = defaultdict(int)  # counter name -> count
        self.eval_us = defaultdict(list)  # battery -> inclusive policy_metrics times (us)
        self.last_op_s = 0.0  # root span duration of the latest operation
        self._stack = []  # [layer, start, child_time]
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, layer):
        frame = [layer, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        dur = perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def root(self, main):
        """Wrap ``main`` so that each call is one operation under a root ``cli`` span."""

        def wrapper(argv):
            frame = self._open("cli")
            try:
                return main(argv)
            finally:
                self.last_op_s = self._close(frame)

        return wrapper

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, fn, counter=None):
        def wrapper(*args, **kwargs):
            frame = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
                if counter is not None:
                    self.counts[counter] += 1

        return wrapper

    def _leaf(self, fn):
        """Erlang leaf: count and time, charge the parent, open no span."""

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.counts["erlang.calls"] += 1
                self.self_s["erlang"] += dt
                self._stack[-1][2] += dt

        return wrapper

    def _policy_metrics(self, site, fn):
        def wrapper(params, *args, **kwargs):
            frame = self._open("renewal")
            try:
                return fn(params, *args, **kwargs)
            finally:
                dur = self._close(frame)
                self.counts["renewal.evals"] += 1
                self.eval_us[params.battery].append(dur * 1e6)
                if site == "optimizer":
                    self.counts["optimizer.evals"] += 1
                    self.counts[f"optimizer.evals.b{params.battery}"] += 1

        return wrapper

    def _run_cycles(self, fn):
        def wrapper(thresholds, mu, n_cycles, *args):
            frame = self._open("kernel")
            try:
                return fn(thresholds, mu, n_cycles, *args)
            finally:
                self._close(frame)
                self.counts["simulator.cycles"] += n_cycles

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Replace the import-site bindings; ``uninstall`` restores them."""
        from aoiharvest import chain, cli, optimizer, renewal, simulator

        for name in ("algorithm1", "grid_search", "optimize_penalty"):
            self._patch(cli, name, self._span("optimizer", getattr(cli, name)))
        self._patch(cli, "simulate", self._span("simulator", cli.simulate))
        self._patch(optimizer, "feasible", self._span("optimizer", optimizer.feasible, "optimizer.feasible_calls"))
        for site, module in (("cli", cli), ("optimizer", optimizer)):
            self._patch(module, "policy_metrics", self._policy_metrics(site, module.policy_metrics))
        for module in (cli, renewal):
            self._patch(module, "stationary", self._span("chain", module.stationary, "chain.calls"))
            self._patch(module, "transition_matrix", self._span("chain", module.transition_matrix))
        for name in ("survival_weighted_integral", "penalty_weighted_integral", "erlang_cdf"):
            self._patch(renewal, name, self._leaf(getattr(renewal, name)))
        self._patch(chain, "erlang_cdf", self._leaf(chain.erlang_cdf))
        kernel = simulator._kernel
        self._patch(simulator, "_kernel", types.SimpleNamespace(run_cycles=self._run_cycles(kernel.run_cycles)))
        return self

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
