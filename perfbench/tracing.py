"""Span tracing from outside the program.

The tracer replaces the public functions the program reaches through
module or class attributes with wrappers that record a span (name, start,
end, parent, job) around each call, and restores them afterwards.  Nothing
under ``src/`` changes.  Kernel calls (``QuantumState.apply_gate``,
``measure``, ``prob_one``) happen up to ~10^5 times a job, so they are not
kept one by one: each adds its duration to the enclosing span's child time
and to per-kernel totals (calls, seconds, support size at the call).

Every span, kernel total and counter is kept per job and per *phase*: inside
``shor.factor`` (order finding, repeated once per round) or outside it (the
report).  A summary can then weight the order-finding phase by one over the
job's rounds, as the end-to-end job times do.

Self time of a span is its duration minus the time of its children.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import time
from collections import defaultdict

from distshor import cli, netsim, partition, qstate, revarith, shor

perf = time.perf_counter

_REVARITH_BUILDERS = ("build_fa", "build_ha", "build_an", "build_xan",
                      "build_adder", "build_mf", "build_m", "build_cm_m")
_PARTITION_BUILDERS = ("build_distributed_modexp_program",
                       "build_distributed_transform_program",
                       "build_distributed_order_program")
PROTOCOL_METHODS = ("establish_epr", "cat_entangle", "cat_disentangle",
                    "teleport", "run_session")
KERNEL_METHODS = ("apply_gate", "measure", "prob_one")
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "job", "child_s",
               "in_factor")


class _Open:
    __slots__ = ("id", "parent", "child")

    def __init__(self, span_id: int, parent: int | None):
        self.id = span_id
        self.parent = parent
        self.child = 0.0  # seconds spent in child spans and kernel calls


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # closed spans, SPAN_FIELDS order
        # (job, in_factor) -> kernel name -> [calls, seconds, summed support]
        self.kernel: dict[tuple[int, bool], dict[str, list]] = {}
        # (job, in_factor) -> counter name -> count
        self.counters: dict[tuple[int, bool], dict[str, int]] = {}
        self.peak_support = 0
        self.job = -1
        self._in_factor = False
        self._stack: list[_Open] = []
        self._ids = itertools.count()
        self._groups: dict[str, int] = defaultdict(int)
        self._executed: list = []  # (phase counters, circuit) per execute
        self._patches: list[tuple[object, str, object]] = []
        self._select_phase()

    def _select_phase(self):
        """Point the kernel totals and counters at the current phase."""
        phase = (self.job, self._in_factor)
        self._kernel_now = self.kernel.setdefault(
            phase, {f"qstate.{m}": [0, 0.0, 0] for m in KERNEL_METHODS})
        self._counters_now = self.counters.setdefault(phase,
                                                      defaultdict(int))

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, *, group: str | None = None,
              on_result=None, factor: bool = False):
        """Wrap ``fn`` in a span.  Calls nested inside an open span of the
        same ``group`` run unwrapped, so a builder that calls sibling
        builders counts as one span.  ``factor`` marks the span that opens
        the order-finding phase."""
        stack, groups, spans, ids = (self._stack, self._groups, self.spans,
                                     self._ids)

        def wrapper(*args, **kwargs):
            if group is not None and groups[group]:
                return fn(*args, **kwargs)
            if factor:
                self._in_factor = True
                self._select_phase()
            span = _Open(next(ids), stack[-1].id if stack else None)
            if group is not None:
                groups[group] += 1
            stack.append(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if group is not None:
                    groups[group] -= 1
                if stack:
                    stack[-1].child += t1 - t0
                spans.append((span.id, name, t0, t1, span.parent, self.job,
                              span.child, self._in_factor))
                if factor:
                    self._in_factor = False
                    self._select_phase()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name: str, fn):
        stack = self._stack

        def wrapper(state, *args, **kwargs):
            amps = len(state.amplitudes)
            t0 = perf()
            try:
                return fn(state, *args, **kwargs)
            finally:
                dt = perf() - t0
                stats = self._kernel_now[name]
                stats[0] += 1
                stats[1] += dt
                stats[2] += amps
                if stack:
                    stack[-1].child += dt
                support = len(state.amplitudes)
                if support > self.peak_support:
                    self.peak_support = support

        wrapper.__wrapped__ = fn
        return wrapper

    # -- bookkeeping hooks (outside the wrapped call's own timing) --------

    def _count_built(self, _args, circ):
        self._counters_now["revarith.insts_built"] += len(circ.instructions)

    def _note_executed(self, args, _result):
        self._executed.append((self._counters_now, args[0]))

    def _count_census(self, _args, census):
        self._counters_now["partition.census.blocks"] += \
            census.total_blocks()

    def _count_session(self, _args, record):
        if record is not None:
            self._counters_now["netsim.sessions"] += 1

    def flush_job(self):
        """Count the instructions the job's executed circuits walked and
        skipped; runs between jobs, outside every span."""
        for counters, circ in self._executed:
            counters["circuit.insts_walked"] += len(circ.instructions)
            counters["circuit.insts_disabled"] += sum(
                1 for inst in circ.instructions
                if inst.classical_constant == 0
                and inst.kind.name not in ("MEASURE", "RESET", "MOVE"))
        self._executed.clear()

    # -- install / remove -------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the program's entry points for the duration of the block."""
        span = self._span
        try:
            self._patch(shor, "factor", span("shor.factor", shor.factor,
                                             factor=True))
            self._patch(shor, "order_circuit_parts",
                        span("shor.order_circuit_parts",
                             shor.order_circuit_parts))
            self._patch(shor, "execute",
                        span("circuit.execute", shor.execute,
                             on_result=self._note_executed))
            self._patch(cli, "_counts_section",
                        span("cli.counts_section", cli._counts_section))
            self._patch(cli, "count_gates",
                        span("circuit.count_gates", cli.count_gates))
            for attr in _REVARITH_BUILDERS:
                name = ("revarith.build_cm_m" if attr == "build_cm_m"
                        else "revarith.build")
                wrapper = span(name, getattr(revarith, attr),
                               group="revarith", on_result=self._count_built)
                self._patch(revarith, attr, wrapper)
                for module in (shor, partition, cli):
                    if getattr(module, attr, None) is wrapper.__wrapped__:
                        self._patch(module, attr, wrapper)
            qft_build = span("qft.build", shor.build_inverse_qft)
            for module in (shor, partition, cli):
                self._patch(module, "build_inverse_qft", qft_build)
            self._patch(partition, "plan_placement",
                        span("partition.plan", partition.plan_placement))
            for attr in _PARTITION_BUILDERS:
                self._patch(partition, attr,
                            span("partition.build_program",
                                 getattr(partition, attr),
                                 group="partition.build"))
            self._patch(partition, "census_from_program",
                        span("partition.census",
                             partition.census_from_program,
                             on_result=self._count_census))
            self._patch(partition, "run_order_program",
                        span("partition.run_order_program",
                             partition.run_order_program))
            self._patch(partition, "execute_distributed",
                        span("netsim.execute_distributed",
                             partition.execute_distributed))
            for method in PROTOCOL_METHODS:
                hook = self._count_session if method == "run_session" else None
                self._patch(netsim.Network, method,
                            span(f"netsim.{method}",
                                 getattr(netsim.Network, method),
                                 on_result=hook))
            for method in KERNEL_METHODS:
                self._patch(qstate.QuantumState, method,
                            self._kernel(f"qstate.{method}",
                                         getattr(qstate.QuantumState,
                                                 method)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def job_span(self, job_index: int, fn):
        """Run one job (``fn``) inside its root span ``cli.run``."""
        self.job = job_index
        self._select_phase()
        try:
            return self._span("cli.run", fn)()
        finally:
            self.flush_job()
            self.job = -1
            self._select_phase()

    # -- summaries --------------------------------------------------------

    def totals(self, weight=lambda job, in_factor: 1.0):
        """Per name: total duration, total self time, call count (spans
        and kernel calls) and counter values, each job's share multiplied
        by ``weight(job, in_factor)``."""
        duration: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for _id, name, start, end, _parent, job, child, in_factor in \
                self.spans:
            w = weight(job, in_factor)
            duration[name] += w * (end - start)
            self_s[name] += w * (end - start - child)
            calls[name] += w
        for (job, in_factor), kernel in self.kernel.items():
            w = weight(job, in_factor)
            for name, (count, seconds, _amps) in kernel.items():
                duration[name] += w * seconds
                self_s[name] += w * seconds
                calls[name] += w * count
        for (job, in_factor), counters in self.counters.items():
            w = weight(job, in_factor)
            for name, count in counters.items():
                counts[name] += w * count
        return duration, self_s, calls, counts

    def kernel_support(self, name: str) -> int:
        """Support size summed over every call of kernel ``name``."""
        return sum(kernel[name][2] for kernel in self.kernel.values())

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line, after
        a header with the field names and the kernel totals per job and
        phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        kernel = [[job, in_factor, stats] for (job, in_factor), stats
                  in self.kernel.items()]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS,
                                 "kernel": kernel}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
