"""In-memory span tracer and the always-on output checker.

Both work by replacing a function at the module (or class) attribute its
caller looks it up through, and both put every original back on exit.
A target that no longer exists raises at install time, so a refactor that
moves a call site breaks the traced run instead of reporting a layer as
0 ms.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from robls import adaptive, icp, mbfit, weighting
from robls.weighting import FIXED_KINDS

_clock = time.perf_counter


def _weights_name(args, _kwargs) -> str:
    return "weighting.weights.fixed" if args[0].kind in FIXED_KINDS else "weighting.weights.adaptive"


def _points(args, _kwargs, _result):
    return len(args[0])


def _not_converged(_args, _kwargs, result):
    return not result.converged


def _mb_flags(_args, _kwargs, result):
    diag = result[1]
    return (diag.fit_fallback, diag.mode_capped)


# (owner, attribute, span name or name function, info function or None)
TRACE_TARGETS = (
    (icp, "associate", "icp.associate", _points),
    (icp, "minimize_pt2plane", "icp.minimize_pt2plane", None),
    (weighting.RobustLoss, "weights", _weights_name, None),
    (weighting, "optimize_alpha", "weighting.optimize_alpha", _not_converged),
    (mbfit, "optimize_alpha", "mbfit.optimize_alpha", _not_converged),
    (mbfit, "fit_mb", "mbfit.fit_mb", None),
    (mbfit, "adaptive_mb_weights", "mbfit.adaptive_mb_weights", _mb_flags),
    (adaptive, "partition_z", "adaptive.partition_z", None),
)


@contextmanager
def patched(replacements):
    """Set ``owner.attr = make(original)`` for each entry; restore on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Spans as ``[name, start, end, parent, op_id, info]`` lists, kept in memory.

    ``parent`` is the index of the enclosing span or -1; the benchmark sets
    ``op_id`` before each op so spans of one op share it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, info=None, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, _clock(), 0.0, stack[-1] if stack else -1, self.op_id, None]
        spans.append(rec)
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = _clock()
            stack.pop()
        if info is not None:
            rec[5] = info(args, kwargs, result)
        return result

    def _wrap(self, name, info):
        def make(original):
            def traced(*args, **kwargs):
                span = name(args, kwargs) if callable(name) else name
                return self.call(span, original, *args, info=info, **kwargs)

            return traced

        return make

    def install(self):
        """Context manager that wraps every entry of :data:`TRACE_TARGETS`."""
        return patched([(o, a, self._wrap(n, i)) for o, a, n, i in TRACE_TARGETS])

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, self seconds, infos."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op, _info in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _parent, _op, info) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "infos": []})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_time[i]
            if info is not None:
                agg["infos"].append(info)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,op_id\n")
            for i, (name, t0, t1, parent, op, _info) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{op}\n")


def _alpha_in_domain(kind: str, alpha: float) -> bool:
    if alpha == -np.inf:
        return kind != "barron"
    domain = adaptive.BARRON_DOMAIN if kind == "barron" else adaptive.CHEBROLU_DOMAIN
    return bool(domain.lo <= alpha <= domain.hi)


class Checker:
    """Validates every ``RobustLoss.weights`` result without raising.

    Violations are collected as messages, so a broken invariant is reported
    at the end of the run rather than being counted as a failed op.
    """

    MAX_MESSAGES = 20

    def __init__(self):
        self.violations = 0
        self.messages: list[str] = []

    def flag(self, message: str) -> None:
        self.violations += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)

    def check_weights(self, loss, result) -> None:
        w = result.weights
        if not (np.all(np.isfinite(w)) and w.min() >= 0.0 and w.max() <= 1.0):
            self.flag(f"{loss.kind}: weights not finite or outside [0, 1]")
        diag = result.diagnostics
        if "alpha_star" in diag and not _alpha_in_domain(loss.kind, diag["alpha_star"]):
            self.flag(f"{loss.kind}: alpha* {diag['alpha_star']!r} outside its domain")
        if diag.get("below_mode_violations", 0) != 0:
            self.flag(f"{loss.kind}: {diag['below_mode_violations']} below-mode weights != 1")

    def check_pose(self, kind: str, pose, diagnostics: dict) -> None:
        r, t = pose.rotation, pose.translation
        finite = np.all(np.isfinite(r)) and np.all(np.isfinite(t))
        if not finite or np.abs(r.T @ r - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
            self.flag(f"{kind}: pose not finite and orthonormal")
        if diagnostics.get("mb_below_mode_violations", 0) != 0:
            self.flag(f"{kind}: mb_below_mode_violations = {diagnostics['mb_below_mode_violations']}")

    def install(self):
        def make(original):
            def checked(loss, *args, **kwargs):
                result = original(loss, *args, **kwargs)
                self.check_weights(loss, result)
                return result

            return checked

        return patched([(weighting.RobustLoss, "weights", make)])
