"""In-memory span tracing around demixcs' public functions.

A `Probe` replaces public functions at the names their callers look up
(for example `demixcs.experiments.gen_instance`, not only
`demixcs.models.gen_instance`) with wrappers that record spans and keep
what the benchmark needs to judge outputs.  Untraced jobs run with only
the coarse wrappers that capture solver outcomes installed, so they
measure the program without per-call tracing cost.

A span is a list [name, start, end, parent, job, extra]; `parent` is
the enclosing span object (or None) and `job` the job id current when
the span opened.  Spans opened on a worker thread with no enclosing
span of their own take as parent the innermost open span of the thread
that started the job, which is the sweep waiting on its pool.
"""

import math
import os
import threading
import time

import numpy as np

NAME, START, END, PARENT, JOB, EXTRA = range(6)

_MARK = "__perfbench_original__"


def _restore(patched):
    while patched:
        owner, attr, original = patched.pop()
        setattr(owner, attr, original)


def self_times(spans):
    """Wall-clock self time of each span, in the order given.

    A span's self set is its interval minus the union of its children's
    intervals.  Where the self sets of several spans overlap in time
    (worker threads running side by side) each instant is shared equally
    among them, so the self times of one job's spans add up to the wall
    time the job's spans cover, whatever the number of threads.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent is not None and id(parent) in index:
            children[index[id(parent)]].append(i)

    pieces = []
    for i, s in enumerate(spans):
        cursor = s[START]
        kids = sorted((max(spans[c][START], s[START]), min(spans[c][END], s[END]))
                      for c in children[i])
        for a, b in kids:
            if a > cursor:
                pieces.append((i, cursor, a))
            cursor = max(cursor, b)
        if s[END] > cursor:
            pieces.append((i, cursor, s[END]))

    out = np.zeros(len(spans))
    if not pieces:
        return out
    owner, lo, hi = (np.asarray(col) for col in zip(*pieces))
    points = np.unique(np.concatenate([lo, hi]))
    depth = np.zeros(points.size + 1)
    np.add.at(depth, np.searchsorted(points, lo), 1.0)
    np.add.at(depth, np.searchsorted(points, hi), -1.0)
    depth = np.cumsum(depth)[:-1]
    seg = np.diff(points) / np.maximum(depth[:-1], 1.0)
    seg[depth[:-1] <= 0] = 0.0
    shared = np.concatenate([[0.0], np.cumsum(seg)])
    share = shared[np.searchsorted(points, hi)] - shared[np.searchsorted(points, lo)]
    np.add.at(out, owner, share)
    return out


class Probe:
    """Installs wrappers on demixcs and collects spans and outcomes."""

    def __init__(self):
        self.tracing = False
        self.spans = []
        self.job = None
        self.pdhg = []     # (y batch, SolveResult list), one per PDHG call
        self.irls = []     # (y batch, SolveResult list), one per IRLS call
        self.instances = {}  # y bytes -> ProblemInstance from gen_instance
        self.keep = True     # hold outcomes and instances for verification
        self._local = threading.local()
        self._job_stack = None
        self._captures = []
        self._tracers = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, extra=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._job_stack:
            parent = self._job_stack[-1]
        else:
            parent = None
        span = [name, time.perf_counter(), None, parent, self.job, extra]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()

    def begin_job(self, job):
        """Open the root span of one job on the calling thread."""
        self.job = job
        self._job_stack = self._stack()
        return self.open("bench.job")

    def end_job(self, span):
        self.close(span)
        self._job_stack = None
        self.job = None

    # -- installation -----------------------------------------------------
    def _patch(self, into, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        if hasattr(original, _MARK):
            raise RuntimeError(f"{owner.__name__}.{attr} is already wrapped")
        wrapper = wrapper_factory(original)
        setattr(wrapper, _MARK, original)
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        into.append((owner, attr, original))

    def _timed(self, name, extra_fn=None):
        """Factory for a wrapper that records one span per call."""
        probe = self

        def factory(fn):
            def wrapper(*args, **kwargs):
                span = probe.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    probe.close(span)
                if extra_fn is not None:
                    span[EXTRA] = extra_fn(args, out)
                return out
            return wrapper
        return factory

    def install_capture(self, keep=True):
        """Wrap the coarse calls whose outcomes verification needs.

        These stay installed for the whole run; they record a span only
        while `tracing` is set, so untraced jobs pay one attribute test
        per solver batch or instance draw.  With `keep` false no outcome
        or instance is held, so peak memory does not grow with the number
        of jobs a run completes; traced spans still carry their outcomes.
        """
        from demixcs import cli, experiments

        probe = self
        self.keep = keep

        def solve_factory(name, sink, single):
            def factory(fn):
                def wrapper(model, y, cfg):
                    span = probe.open(name) if probe.tracing else None
                    try:
                        out = fn(model, y, cfg)
                    finally:
                        if span is not None:
                            probe.close(span)
                    results = [out] if single else out
                    if probe.keep:
                        batch = np.asarray(y)
                        sink.append((batch[:, None] if batch.ndim == 1 else batch, results))
                    if span is not None:
                        span[EXTRA] = results
                    return out
                return wrapper
            return factory

        self._patch(self._captures, experiments, "solve_penalized_l1_batch",
                    solve_factory("solvers.pdhg", self.pdhg, False))
        self._patch(self._captures, experiments, "solve_irls_lp_batch",
                    solve_factory("solvers.irls", self.irls, False))
        self._patch(self._captures, cli, "solve_penalized_l1",
                    solve_factory("solvers.pdhg", self.pdhg, True))
        self._patch(self._captures, experiments, "gen_instance", self._gen_factory)

    def _gen_factory(self, fn):
        probe = self

        def wrapper(*args, **kwargs):
            span = probe.open("models.gen") if probe.tracing else None
            try:
                inst = fn(*args, **kwargs)
            finally:
                if span is not None:
                    probe.close(span)
            if probe.keep:
                probe.instances[inst.y.tobytes()] = inst
            return inst
        return wrapper

    def install_spans(self):
        """Wrap every other public function the workloads reach and trace."""
        from demixcs import cli, experiments, io, linop, rip, solvers

        probe = self
        patch = self._patch
        into = self._tracers

        def apply_factory(kind):
            def factory(fn):
                def wrapper(op, x):
                    span = probe.open("linop.apply")
                    try:
                        out = fn(op, x)
                    finally:
                        probe.close(span)
                    width = 1 if np.ndim(x) == 1 else np.shape(x)[1]
                    span[EXTRA] = (kind, isinstance(op, linop.HStacked), width,
                                   np.asarray(x).nbytes + out.nbytes)
                    return out
                return wrapper
            return factory

        def cpu_now():
            c = os.times()
            return c.user + c.system + c.children_user + c.children_system

        def sweep_factory(fn):
            def wrapper(*args, **kwargs):
                cpu0 = cpu_now()
                span = probe.open("experiments.sweep")
                try:
                    table = fn(*args, **kwargs)
                finally:
                    probe.close(span)
                failed = sum(any(isinstance(v, float) and math.isnan(v) for v in row)
                             for row in table.rows)
                span[EXTRA] = (cpu_now() - cpu0, len(table.rows), failed)
                return table
            return wrapper

        def file_size(args, out):
            return os.path.getsize(args[0])

        patch(into, cli, "main", self._timed("cli.main"))
        patch(into, linop.LinearOperator, "apply", apply_factory("forward"))
        patch(into, linop.LinearOperator, "apply_adjoint", apply_factory("adjoint"))
        patch(into, solvers, "power_iteration",
              self._timed("linop.power_iteration", lambda args, out: out.iterations))
        patch(into, cli, "materialize", self._timed("linop.materialize"))
        patch(into, cli, "gen_instance", self._gen_factory)
        for module in (experiments, cli, io):
            patch(into, module, "build_family", self._timed("models.build"))
        patch(into, experiments, "check_success", self._timed("solvers.check_success"))
        for module in (experiments, cli):
            patch(into, module, "emit_csv", self._timed("experiments.emit"))
            patch(into, module, "emit_plot", self._timed("experiments.emit"))
        patch(into, cli, "run_phase_transition", sweep_factory)
        patch(into, experiments, "run_stability", sweep_factory)
        patch(into, rip, "exact_skrip",
              self._timed("rip.enum", lambda args, out: out.supports_enumerated))
        patch(into, io, "save_instance", self._timed("io.save", file_size))
        patch(into, io, "save_result", self._timed("io.save", file_size))
        patch(into, io, "load_instance", self._timed("io.load", file_size))
        self.tracing = True

    def uninstall_spans(self):
        self.tracing = False
        _restore(self._tracers)

    def uninstall(self):
        self.uninstall_spans()
        _restore(self._captures)

    def write(self, path):
        """Spans as CSV: id, name, start, end, parent id, job id."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s[PARENT]), "")
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{parent},{s[JOB]}\n")


def _ancestors(span):
    parent = span[PARENT]
    while parent is not None:
        yield parent
        parent = parent[PARENT]


def layer_metrics(spans, jobs):
    """Per-layer totals over the traced jobs' spans, divided by `jobs`.

    Times are wall-clock self times from `self_times` unless the name
    says otherwise (`power_iter_s`, `materialize_s` and the PDHG cost per
    column-iteration include their children).  The `*.self_s` values of
    all layers, `bench` included, add up to the mean traced job time.
    Counts repeat exactly for a given seed because traced runs repeat
    whole rounds of the same job inputs.
    """
    spans = [s for s in spans if s[JOB] is not None]
    selfs = self_times(spans)
    self_by, incl_by, calls = {}, {}, {}
    for s, own in zip(spans, selfs):
        name = s[NAME]
        self_by[name] = self_by.get(name, 0.0) + own
        incl_by[name] = incl_by.get(name, 0.0) + (s[END] - s[START])
        calls[name] = calls.get(name, 0) + 1

    layer_self = {}
    for name, own in self_by.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def named(kind):
        return [s for s in spans if s[NAME] == kind]

    pdhg = [r for s in named("solvers.pdhg") for r in s[EXTRA]]
    col_iters = sum(r.iterations for r in pdhg)
    irls_spans = named("solvers.irls")
    irls = [r for s in irls_spans for r in s[EXTRA]]
    outer_passes = sum(max(r.iterations for r in s[EXTRA]) for s in irls_spans)
    applies = named("linop.apply")
    irls_stacked_fwd = sum(
        1 for s in applies
        if s[EXTRA][0] == "forward" and s[EXTRA][1]
        and any(a[NAME] == "solvers.irls" for a in _ancestors(s)))
    apply_cols = sum(s[EXTRA][2] for s in applies)
    sweeps = named("experiments.sweep")
    sweep_wall = sum(s[END] - s[START] for s in sweeps)
    pairs = sum(s[EXTRA] for s in named("rip.enum"))

    def ratio(a, b):
        return a / b if b else 0.0

    per_job = {
        "cli.self_s": self_by.get("cli.main", 0.0),
        "experiments.self_s": layer_self.get("experiments", 0.0),
        "experiments.emit_s": self_by.get("experiments.emit", 0.0),
        "models.self_s": layer_self.get("models", 0.0),
        "models.build_calls": calls.get("models.build", 0),
        "models.build_s": self_by.get("models.build", 0.0),
        "models.gen_calls": calls.get("models.gen", 0),
        "models.gen_s": self_by.get("models.gen", 0.0),
        "solvers.self_s": layer_self.get("solvers", 0.0),
        "solvers.pdhg_s": self_by.get("solvers.pdhg", 0.0),
        "solvers.pdhg_col_iters": col_iters,
        "solvers.irls_s": self_by.get("solvers.irls", 0.0),
        "solvers.irls_outer_passes": outer_passes,
        "solvers.irls_cg_steps": irls_stacked_fwd - outer_passes,
        "linop.self_s": layer_self.get("linop", 0.0),
        "linop.apply_calls": len(applies),
        "linop.apply_s": self_by.get("linop.apply", 0.0),
        "linop.apply_cols": apply_cols,
        "linop.apply_bytes": sum(s[EXTRA][3] for s in applies),
        "linop.power_iter_s": incl_by.get("linop.power_iteration", 0.0),
        "linop.power_iter_its": sum(s[EXTRA] for s in named("linop.power_iteration")),
        "linop.materialize_s": incl_by.get("linop.materialize", 0.0),
        "rip.self_s": layer_self.get("rip", 0.0),
        "rip.enum_s": self_by.get("rip.enum", 0.0),
        "rip.pairs": pairs,
        "io.self_s": layer_self.get("io", 0.0),
        "io.save_s": self_by.get("io.save", 0.0),
        "io.load_s": self_by.get("io.load", 0.0),
        "io.bytes": sum(s[EXTRA] for s in spans if s[NAME] in ("io.save", "io.load")),
        "bench.self_s": layer_self.get("bench", 0.0),
        "trace.spans": len(spans),
    }
    out = {name: value / jobs for name, value in per_job.items()}
    out.update({
        "experiments.cells": sum(s[EXTRA][1] for s in sweeps) / jobs,
        "experiments.failed_cells": sum(s[EXTRA][2] for s in sweeps) / jobs,
        "experiments.cpu_per_wall": ratio(sum(s[EXTRA][0] for s in sweeps), sweep_wall),
        "solvers.pdhg_iters_mean": ratio(col_iters, len(pdhg)),
        "solvers.pdhg_iters_max": max((r.iterations for r in pdhg), default=0),
        "solvers.pdhg_maxiter_frac": ratio(sum(r.status == "max_iter" for r in pdhg), len(pdhg)),
        "solvers.pdhg_us_per_col_iter": 1e6 * ratio(incl_by.get("solvers.pdhg", 0.0), col_iters),
        "solvers.irls_converged_frac": ratio(sum(r.status == "converged" for r in irls), len(irls)),
        "linop.apply_us_per_col": 1e6 * ratio(self_by.get("linop.apply", 0.0), apply_cols),
        "rip.pairs_per_s": ratio(pairs, self_by.get("rip.enum", 0.0)),
    })
    return out
