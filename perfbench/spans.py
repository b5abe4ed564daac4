"""In-memory span tracer wrapped around the public functions of sigembed.

The benchmark never edits the package.  ``Tracer.installed()`` replaces
each traced function with a wrapper on *every* module attribute that names
it, because ``cli`` and ``verify`` import functions by name; leaving the
``with`` block puts the originals back.  A span is (name, start, end,
parent span, op id), appended to flat ``array`` columns so that a
million-span pass stays a few tens of MB.  Spans are timed on the clock the
tracer is given (the run's clock net of reference sampling).
``per_pass_metrics`` turns the spans of each traced pass into the
per-layer metrics of BENCHMARK.json.
"""

import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span layers.  Each traced function belongs to the layer named after its
# module, except the kernel wrappers, which split into inversion and arc.
LAYERS = ("kernels.theta", "kernels.arc", "explicit", "misner", "minkowski",
          "transversality", "metric", "modelfile", "verify", "cli")
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
_TRACED_MODULES = ("_kernels", "explicit", "misner", "minkowski",
                   "transversality", "metric", "modelfile", "verify", "cli")
_KERNEL_LAYER = {
    "theta_root_raw": "kernels.theta", "theta_root_batch": "kernels.theta",
    "arc_integral_raw": "kernels.arc", "arc_integral_batch": "kernels.arc",
}
# Private cli helpers that hold the user-model checks of `verify --model-file`.
_CLI_CHECKS = {"_user_signature_sweep", "_user_lc_regularity", "_user_radical"}
_CLI_USER_MODEL = "_verify_user_model"

# Check names the verify battery and the user-model verifier report; each
# becomes a per-layer metric ``verify.<name>.s``.
BATTERY_CHECKS = (
    "isometry_psi_n2_analytic", "isometry_psi_n2_finite_difference",
    "isometry_psi_n3_analytic", "isometry_psi_n3_finite_difference",
    "signature_sweep_n2", "signature_sweep_n3", "lc_regularity_on_locus",
    "radical_transversality_on_locus", "explicit_ode_residual",
    "inversion_roundtrip", "asymptotic_small_t", "asymptotic_large_negative",
    "quotient_isometry", "boost_identification", "misner_roundtrip",
    "tangency_floor", "orbit_intersection_counts", "composed_images_distinct",
    "pullback_functoriality_explicit", "pullback_functoriality_psi_toy",
    "bulk_lorentzian_brane_signature_change", "region_membership_explicit",
)
USER_CHECKS = ("slice_positive_definite", "user_signature_sweep",
               "user_lc_regularity", "user_radical_transversality")

RAISED_REGION = 1
RAISED_OTHER = 2


def _kernel_count(result):
    """(points, nonconverged) of a kernel wrapper's (values, status) result."""
    status = result[1]
    if np.ndim(status) == 0:
        return 1, int(status != 0)
    return int(np.size(status)), int(np.count_nonzero(status))


def traced_functions(package):
    """[(span name, layer, function)] for every function the tracer wraps."""
    found = []
    for short in _TRACED_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        layer = short
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if short == "_kernels":
                # only the python-facing wrappers: the backends they loop over
                # run once per point, and tracing them would time the tracer
                if attr not in _KERNEL_LAYER:
                    continue
                layer = _KERNEL_LAYER[attr]
            elif attr.startswith("_") and not (
                    short == "cli" and (attr in _CLI_CHECKS or attr == _CLI_USER_MODEL)):
                continue
            found.append((f"{short}.{attr}", layer, obj))
    return found


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        region_error = package.errors.RegionError
        self.names = []
        self.layer_of_name = []
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.top = array("b")        # 1: outermost span of its layer
        self.raised = array("b")
        self.points = array("q")     # kernel points evaluated
        self.bad = array("q")        # kernel points with nonzero status
        self.check_of_span = {}      # span index -> CheckResult.name
        self.pass_bounds = []        # first span index of each traced pass
        self.op_id = -1
        self._stack = [-1]
        self._depth = [0] * len(LAYERS)
        self._wrappers = {}
        for name, layer, func in traced_functions(package):
            self._wrappers[id(func)] = (func, self._wrap(func, name, layer, region_error))

    def _wrap(self, func, name, layer, region_error):
        name_id = len(self.names)
        self.names.append(name)
        layer_id = _LAYER_ID[layer]
        self.layer_of_name.append(layer_id)
        attr = name.split(".", 1)[1]
        counts_points = layer.startswith("kernels.")
        tags_check = name.startswith("verify.check_") or attr in _CLI_CHECKS
        clock = self.clock
        stack, depth = self._stack, self._depth
        span_name, parent, op, start, end = (self.span_name, self.parent, self.op,
                                             self.start, self.end)
        top, raised, points, bad = self.top, self.raised, self.points, self.bad

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            outer = depth[layer_id]
            top.append(outer == 0)
            raised.append(0)
            points.append(0)
            bad.append(0)
            depth[layer_id] = outer + 1
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            except region_error:
                raised[idx] = RAISED_REGION
                raise
            except BaseException:
                raised[idx] = RAISED_OTHER
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                depth[layer_id] = outer
            if counts_points:
                points[idx], bad[idx] = _kernel_count(result)
            elif tags_check:
                self.check_of_span[idx] = result.name
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    @contextmanager
    def installed(self):
        """Swap every module attribute bound to a traced function for its
        wrapper, and record one traced pass, until the block exits."""
        swapped = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package.__name__
                                         or key.startswith(self.package.__name__ + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    swapped.append((module, attr, obj))
        self.pass_bounds.append(len(self.start))
        try:
            yield self
        finally:
            for module, attr, obj in swapped:
                setattr(module, attr, obj)

    def arrays(self):
        """Span columns as numpy arrays (for aggregation and for writing)."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "top": np.frombuffer(self.top, dtype=np.int8).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
            "bad": np.frombuffer(self.bad, dtype=np.int64).copy(),
        }

    def write(self, path):
        """Write all spans (and the name table) to an .npz file."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)
        return len(cols["start"])

    def _ids(self, *span_names):
        """Name ids of those of ``span_names`` the tracer wraps."""
        return [self.names.index(n) for n in span_names if n in self.names]

    def per_pass_metrics(self):
        """One dict of per-layer values for each traced pass."""
        cols = self.arrays()
        bounds = self.pass_bounds + [len(cols["start"])]
        layer_of_name = np.array(self.layer_of_name, dtype=np.int64)
        return [self._layer_metrics(cols, lo, hi, layer_of_name)
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _layer_metrics(self, cols, lo, hi, layer_of_name):
        name = cols["name"][lo:hi]
        parent = cols["parent"][lo:hi] - lo
        dur = cols["end"][lo:hi] - cols["start"][lo:hi]
        top = cols["top"][lo:hi].astype(bool)
        layer = layer_of_name[name] if name.size else np.zeros(0, dtype=np.int64)
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_time = dur - cover

        def layer_sum(layer_name, values, mask=None):
            sel = layer == _LAYER_ID[layer_name]
            if mask is not None:
                sel &= mask
            return float(values[sel].sum())

        def layer_calls(layer_name):
            return int(np.count_nonzero(layer == _LAYER_ID[layer_name]))

        m = {}
        points = cols["points"][lo:hi]
        bad = cols["bad"][lo:hi]
        for short in ("theta", "arc"):
            lname = "kernels." + short
            calls = layer_calls(lname)
            pts = int(layer_sum(lname, points))
            busy = layer_sum(lname, dur, top)
            m[f"kernels.{short}.calls"] = calls
            m[f"kernels.{short}.points"] = pts
            m[f"kernels.{short}.busy_s"] = busy
            m[f"kernels.{short}.us_per_point"] = 1e6 * busy / pts if pts else 0.0
            if short == "theta":
                m["kernels.theta.points_per_call"] = pts / calls if calls else 0.0
        kernel_pts = m["kernels.theta.points"] + m["kernels.arc.points"]
        kernel_bad = int(bad.sum())
        m["kernels.nonconverged"] = kernel_bad / kernel_pts if kernel_pts else 0.0
        m["explicit.calls"] = layer_calls("explicit")
        m["explicit.self_s"] = layer_sum("explicit", self_time)
        for lname in ("misner", "minkowski"):
            m[f"{lname}.calls"] = layer_calls(lname)
            m[f"{lname}.busy_s"] = layer_sum(lname, dur, top)
            m[f"{lname}.self_s"] = layer_sum(lname, self_time)
        raised = cols["raised"][lo:hi]
        m["misner.region_errors"] = int(np.count_nonzero(
            (layer == _LAYER_ID["misner"]) & top & (raised == RAISED_REGION)))
        scans = int(np.count_nonzero(np.isin(name, self._ids(
            "transversality.orbit_intersection_count",
            "transversality.orbit_time_profile"))))
        busy = layer_sum("transversality", dur, top)
        m["transversality.scans"] = scans
        m["transversality.busy_s"] = busy
        m["transversality.ms_per_scan"] = 1e3 * busy / scans if scans else 0.0
        for lname in ("metric", "modelfile"):
            m[f"{lname}.calls"] = layer_calls(lname)
            m[f"{lname}.busy_s"] = layer_sum(lname, dur, top)

        checks = dict.fromkeys(BATTERY_CHECKS + USER_CHECKS, 0.0)
        for idx, check in self.check_of_span.items():
            if lo <= idx < hi:
                checks[check] = checks.get(check, 0.0) + float(dur[idx - lo])
        # the positive-definite check is the user-model verifier's own loop:
        # its span minus the model load and the three helper checks
        inner_ids = self._ids("modelfile.load_model", *(f"cli.{f}" for f in _CLI_CHECKS))
        for idx in np.nonzero(np.isin(name, self._ids(f"cli.{_CLI_USER_MODEL}")))[0]:
            inner = float(dur[(parent == idx) & np.isin(name, inner_ids)].sum())
            checks["slice_positive_definite"] += float(dur[idx]) - inner
        for check, seconds in checks.items():
            m[f"verify.{check}.s"] = seconds
        m["cli.self_s"] = layer_sum("cli", self_time)
        m["kernels_busy_s"] = m["kernels.theta.busy_s"] + m["kernels.arc.busy_s"]
        m["kernel_spans"] = m["kernels.theta.calls"] + m["kernels.arc.calls"]
        return m
