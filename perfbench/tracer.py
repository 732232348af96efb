"""Outside-in span recording for one traced vorlab CLI process.

`install(path)` wraps vorlab's public functions (and the task functions its
process pools map) at the module attributes where their callers look them
up, so the program's own code runs unchanged.  Each wrapped call records a
span: name, start and end on the system-wide monotonic clock, pid, its own
id and the id of the span that was open when it was called.  Pool workers
are forked, so they inherit the wrappers and the parent's open spans; a
worker's top-level span therefore links to the parent span that started
the pool.  Each process keeps its records in memory and appends them as
JSON lines to `path`: a worker when its top-level span ends, the main
process when `flush()` is called.  Counters that need no span (random
draws) are summed per process and written with the records.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from vorlab import cellsim, cli, geometry, moments, sampling, wstat

_state = {
    "path": None,
    "records": [],
    "stack": [],
    "base_depth": None,
    "next_id": 0,
    "pool": None,
    "draws": 0,
}


def _after_fork_in_child():
    _state["records"] = []
    _state["draws"] = 0
    _state["next_id"] = 0
    _state["base_depth"] = len(_state["stack"])


def flush() -> None:
    """Append this process's records to the trace file and clear them."""
    records = _state["records"]
    if _state["draws"]:
        records.append({"kind": "counter", "pid": os.getpid(), "draws": _state["draws"]})
    if not records:
        return
    text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    fd = os.open(_state["path"], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, text.encode())
    finally:
        os.close(fd)
    _state["records"] = []
    _state["draws"] = 0


def _span(name, fn, counts=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pid = os.getpid()
        stack = _state["stack"]
        _state["next_id"] += 1
        sid = f"{pid}:{_state['next_id']}"
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.monotonic_ns()
            stack.pop()
        rec = {"kind": "span", "name": name, "id": sid, "parent": parent,
               "pid": pid, "t0": t0, "t1": t1}
        if _state["pool"] is not None:
            rec["pool"] = _state["pool"]
        if counts is not None:
            rec.update(counts(args, kwargs, result))
        _state["records"].append(rec)
        if len(stack) == _state["base_depth"]:
            flush()  # top-level span of a forked worker: nothing else flushes it
        return result

    return wrapper


def _count_draws(fn):
    @functools.wraps(fn)
    def wrapper(self, size=None):
        _state["draws"] += 1 if size is None else int(np.prod(size))
        return fn(self, size)

    return wrapper


def _pool_class(layer, base):
    class TracedPool(base):
        """The module's process pool, recording when it was created."""

        def __init__(self, *args, **kwargs):
            _state["next_id"] += 1
            pool = f"{os.getpid()}:pool{_state['next_id']}"
            _state["records"].append({"kind": "pool", "layer": layer, "id": pool,
                                      "t0": time.monotonic_ns()})
            # set before the workers fork, so each inherits its pool id
            _state["pool"] = pool
            super().__init__(*args, **kwargs)

    return TracedPool


def _pairs(args, kwargs, result):
    return {"pairs": int(np.size(result))}


def _union_counts(args, kwargs, result):
    nsets, m = result.shape
    k, d = np.shape(args[0])[1:]  # centers, passed positionally by wstat
    # bytes of the float64/int/bool temporaries the estimator allocates per
    # draw, from their shapes: u, the (m, k) comparison, src, g, rad, x,
    # hits, k distance passes (difference, d2, two masks) and the values
    per_draw = 8 + k + 8 + 8 * d + 8 + 8 * d + 4 + k * (8 * d + 8 + 2) + 8
    return {"draws": nsets * m, "bytes_computed": nsets * m * per_draw}


def _rows(key):
    """Count the rows of the result (one per point, draw or configuration)."""
    return lambda args, kwargs, result: {key: int(result.shape[0])}


def _model_points(args, kwargs, result):
    return {"points": int(result.shape[0]) if result.ndim == 2 else 1}


def _query_counts(args, kwargs, result):
    return {"probes": int(result.shape[0]), "hits": int(np.count_nonzero(result == 0))}


def _cone_builds(fn):
    """cone_directions is cached; count the calls that missed the cache."""
    before = []

    def counts(args, kwargs, result):
        return {"builds": fn.cache_info().misses - before.pop()}

    spanned = _span("cellsim.cone_directions", fn, counts)

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        before.append(fn.cache_info().misses)
        return spanned(*args, **kwargs)

    return entry


def install(path: str) -> None:
    """Wrap vorlab's layers for this process and the workers it forks."""
    _state["path"] = path
    os.register_at_fork(after_in_child=_after_fork_in_child)

    bivs = _span("geometry.ball_intersection_volumes",
                 geometry.ball_intersection_volumes, _pairs)
    for mod in (geometry, wstat, sampling):
        mod.ball_intersection_volumes = bivs
    wstat.union_volume_mc_values = _span(
        "geometry.union_volume_mc_values", geometry.union_volume_mc_values, _union_counts)

    subb = _span("sampling.sample_unit_ball_batch", sampling.sample_unit_ball_batch,
                 _rows("points"))
    sampling.sample_unit_ball_batch = subb
    wstat.sample_unit_ball_batch = subb
    sampling.DensityModel.sample = _span(
        "sampling.DensityModel.sample", sampling.DensityModel.sample, _model_points)
    sampling.RandomStream.random = _count_draws(sampling.RandomStream.random)
    sampling.RandomStream.standard_normal = _count_draws(sampling.RandomStream.standard_normal)

    moments.sample_w_batch = _span("wstat.sample_w_batch", wstat.sample_w_batch, _rows("draws"))
    moments.wk_mc_values = _span("wstat.wk_mc_values", wstat.wk_mc_values, _rows("configs"))

    for name in ("estimate_alpha_parallel", "estimate_z_moment_parallel"):
        setattr(moments, name, _span("moments.estimate", getattr(moments, name)))
    # the functions each pool maps: one span per task, in whichever process runs it
    for mod, name in ((moments, "_alpha_sums"), (moments, "_zmoment_sums"),
                      (cellsim, "_cell_block"), (cellsim, "_diam_block")):
        setattr(mod, name, _span(f"{mod.__name__.split('.')[-1]}.task", getattr(mod, name)))
    moments.ProcessPoolExecutor = _pool_class("moments", moments.ProcessPoolExecutor)
    cellsim.ProcessPoolExecutor = _pool_class("cellsim", cellsim.ProcessPoolExecutor)

    cellsim.NNIndex.__init__ = _span("cellsim.NNIndex.build", cellsim.NNIndex.__init__)
    cellsim.NNIndex.query = _span("cellsim.NNIndex.query", cellsim.NNIndex.query, _query_counts)
    cellsim.cone_directions = _cone_builds(cellsim.cone_directions)
    cellsim.cone_nn_radii = _span("cellsim.cone_nn_radii", cellsim.cone_nn_radii)
    cellsim.estimate_cell_diameter = _span(
        "cellsim.estimate_cell_diameter", cellsim.estimate_cell_diameter)

    cellsim.run_cell_experiment = _span("cellsim.run_cell_experiment",
                                        cellsim.run_cell_experiment)
    cellsim.run_diameter_experiment = _span("cellsim.run_diameter_experiment",
                                            cellsim.run_diameter_experiment)
    # the root span: every pool is started below it, so forked workers
    # always start with at least one inherited open span
    cli.run = _span("cli.run", cli.run)
    cli.write_csv = _span("cli.write_csv", cli.write_csv)
