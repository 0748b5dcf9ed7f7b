"""Outside-in tracer for the benchmark's traced runs.

Nothing under ``src/`` is instrumented. The tracer replaces bilip
functions and node methods with timing wrappers from the benchmark's
side, records one span per call (name, start, end, parent span, job
id, counts) in memory, and reduces the spans to per-layer counts and
self times when the run ends. A span's self time is its duration
minus the durations of its child spans.

Rules that keep the numbers honest:

* every module binding of a function is wrapped, because
  ``from .core import largest_singular_values`` binds the same
  function separately in ``core``, ``maps``, ``pl`` and ``verify``;
* the pair-stream generator is timed per ``next()``, so the work the
  consumer does between chunks is not charged to the stream;
* ``_eval``, ``_eval_inverse`` and ``_displacement`` are wrapped on
  every node class that defines them and named after the class of the
  node they run on, so nested compositions get correct self times;
* spans are only recorded while a job is open, so the benchmark's own
  correctness checks are never traced; a job has no span of its own,
  its wall time is the one the runner measures;
* a name that a later version of bilip no longer has is skipped: its
  metrics then read 0, which the smoke test reports.
"""

import functools
import sys
import time

LAYERS = ("estimators", "maps", "profiles", "core", "pl", "verify", "mapformat", "cli")

# verify scenario functions and the names `bilip verify` gives them
_SCENARIOS = {
    "verify_radial_bound": "radial-bound",
    "verify_replication_constant": "replication-constant",
    "verify_replication_drift": "replication-drift",
    "verify_homomorphism": "homomorphism",
    "verify_product_qi": "product-qi",
    "verify_spiral_bound": "spiral-bound",
    "verify_matrix_norms": "matrix-norms",
    "verify_metric_equivalence": "metric-equivalence",
    "default_suite": "suite",
}


def _rows(x):
    return {"points": int(x.shape[0])}


def _family(base):
    """``base`` and all its subclasses, each once."""
    classes = [base]
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    return classes


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install()`` patches bilip, ``uninstall()`` restores every
    original object, so untraced rounds run the unmodified program.
    """

    def __init__(self):
        self.spans = []  # [key, start, end, parent, job, counts]
        self._stack = []
        self._job = None
        self._seen_errors = set()
        self.errors = dict.fromkeys(LAYERS, 0)
        self._patches = []

    # ------------------------------------------------------------ spans

    def _open(self, key):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([key, time.perf_counter(), None, parent, self._job, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, counts=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counts
        # an exception may have skipped the close of inner spans
        while self._stack and self._stack.pop() != idx:
            pass

    def _error(self, key, exc):
        # count an exception once, in the layer it was first seen
        if id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[key.split(".", 1)[0]] += 1

    def begin_job(self, job_id):
        self._job = job_id
        self._stack = []
        self._seen_errors = set()

    def end_job(self):
        self._job = None
        self._stack = []

    # --------------------------------------------------------- wrappers

    def _call(self, fn, key, count, args, kwargs):
        if self._job is None:
            return fn(*args, **kwargs)
        if callable(key):
            key = key(args)
        idx = self._open(key)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(idx)
            self._error(key, exc)
            raise
        counts = None
        if count is not None:
            try:
                counts = count(args, kwargs, out)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                counts = None
        self._close(idx, counts)
        return out

    def _wrapper(self, fn, key, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, key, count, args, kwargs)

        return traced

    def _timed_chunks(self, it, key):
        """Re-yield a pair-stream generator, one span per next()."""
        try:
            while True:
                idx = self._open(key)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(idx)
                    return
                except BaseException as exc:
                    self._close(idx)
                    self._error(key, exc)
                    raise
                x, y = item
                self._close(idx, {"pairs": int(x.shape[0]),
                                  "bytes_computed": int(x.nbytes + y.nbytes)})
                yield item
        finally:
            it.close()

    def _stream_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            return it if tracer._job is None else tracer._timed_chunks(it, key)

        return traced

    # ---------------------------------------------------------- patching

    def _patch_function(self, module, name, key, count=None, stream=False):
        """Wrap ``module.name`` in every bilip module that binds it."""
        fn = getattr(module, name, None)
        if fn is None:
            return
        wrapped = (self._stream_wrapper(fn, key) if stream
                   else self._wrapper(fn, key, count))
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "bilip" and not mod_name.startswith("bilip."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, name, key, count=None):
        if name not in vars(cls):
            return
        fn = vars(cls)[name]
        self._patches.append((cls, name, fn))
        setattr(cls, name, self._wrapper(fn, key, count))

    def install(self, bilip):
        """Wrap the layer boundaries of an imported bilip package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        E, M, P, V = bilip.estimators, bilip.maps, bilip.pl, bilip.verify
        core, mapformat, profiles, cli = (bilip.core, bilip.mapformat,
                                          bilip.profiles, bilip.cli)

        # estimators
        self._patch_function(E, "_pair_chunks", "estimators.pair_stream", stream=True)
        for name in ("bilip_lower_bound", "falsify_bilip_bound"):
            self._patch_function(E, name, "estimators.reduce")
        self._patch_function(E, "qi_embedding_check", "estimators.reduce",
                             lambda a, k, out: {"kept": int(out.n_pairs_used)})
        self._patch_function(E, "_two_point_stats", "estimators.reduce",
                             lambda a, k, out: {"kept": int(out[0])})
        self._patch_function(E, "sphere_bilip_lower_bound", "estimators.sphere_bound",
                             lambda a, k, out: {"pairs": int(out.n_pairs_used)})
        self._patch_function(E, "c_density", "estimators.c_density")
        self._patch_function(E, "_region_grid", "estimators.c_density",
                             lambda a, k, out: {"grid_points": int(out.shape[0])})
        self._patch_function(E, "neighbor_graph", "estimators.graph",
                             lambda a, k, out: {"edges": int(out.nnz // 2)})
        for name in ("metric_equivalence_ratio", "geodesic_estimate"):
            self._patch_function(E, name, "estimators.graph")
        self._patch_function(E, "dijkstra", "estimators.dijkstra",
                             lambda a, k, out: {"sources": int(out.shape[0])})

        # maps: node methods, named after the node they run on
        for cls in _family(M.MapExpr):
            for method, prefix in (("_eval", "maps.eval."),
                                   ("_eval_inverse", "maps.eval_inverse."),
                                   ("_displacement", "maps.displacement.")):
                self._patch_method(
                    cls, method,
                    lambda a, prefix=prefix: prefix + type(a[0]).__name__,
                    lambda a, k, out: _rows(a[1]))
        for base, key in ((M.SphereMap, "maps.sphere_apply"),
                          (M.DiskMap, "maps.disk_apply")):
            for cls in _family(base):
                self._patch_method(cls, "apply", key, lambda a, k, out: _rows(a[1]))

        # profiles
        self._patch_method(profiles.CubicProfile, "__call__", "profiles.cubic",
                           lambda a, k, out: {"points": int(getattr(a[1], "size", 1))})

        # core
        self._patch_function(core, "largest_singular_values", "core.singular_values",
                             lambda a, k, out: {"matrices": int(out.shape[0])})

        # pl
        simplices = lambda a, k, out: {"simplices": int(a[0].triangulation.n_simplices)}  # noqa: E731
        self._patch_function(P, "pl_bilip_constant", "pl.bilip_constant", simplices)
        self._patch_function(P, "pl_eval", "pl.eval", lambda a, k, out: _rows(out))
        self._patch_function(P, "pl_eval_inverse", "pl.eval_inverse",
                             lambda a, k, out: _rows(out))
        self._patch_function(P, "_build_buckets", "pl.buckets", simplices)
        self._patch_function(P, "pl_twist_example", "pl.build",
                             lambda a, k, out: {"simplices":
                                                int(out.triangulation.n_simplices)})

        # verify, mapformat, cli
        for name, scenario in _SCENARIOS.items():
            self._patch_function(V, name, "verify." + scenario)
        for name in ("load_map", "parse_map", "map_to_text", "save_map"):
            self._patch_function(mapformat, name, "mapformat")
        self._patch_function(cli, "run_cli", "cli",
                             lambda a, k, out: {"errors": int(out == 2)})

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -------------------------------------------------------- reduction

    def reduce(self):
        """Per-layer sums over all spans, and the layer time of each job.

        Returns (totals, per_job): ``totals`` maps "<key>.self_s" and
        "<key>.<count>" to sums over all spans and "<layer>.errors" to
        the exceptions seen in each layer; ``per_job`` maps a job id to
        the summed self seconds of its spans.
        """
        child = [0.0] * len(self.spans)
        for key, start, end, parent, job, counts in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        per_job = {}
        for i, (key, start, end, parent, job, counts) in enumerate(self.spans):
            self_s = (end - start) - child[i]
            per_job[job] = per_job.get(job, 0.0) + self_s
            totals[key + ".self_s"] = totals.get(key + ".self_s", 0.0) + self_s
            for name, value in (counts or {}).items():
                totals[f"{key}.{name}"] = totals.get(f"{key}.{name}", 0) + value
        # exceptions seen by the wrappers, plus cli exits with code 2
        for layer, n in self.errors.items():
            totals[layer + ".errors"] = totals.get(layer + ".errors", 0) + n
        return totals, per_job

    def span_records(self):
        """Spans as plain dicts, for the trace file."""
        for i, (key, start, end, parent, job, counts) in enumerate(self.spans):
            yield {"id": i, "name": key, "start": start, "end": end,
                   "parent": parent, "job": job, "counts": counts or {}}
