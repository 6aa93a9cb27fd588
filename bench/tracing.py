"""Layer tracing from outside the program.

`Tracer.install()` replaces every public function of every loaded
`seedmark` module with a timing wrapper, at every place the function is
bound: its own module, every module that imported it by name, and the
package namespace. `Tracer.remove()` puts the originals back. Nothing
under `src/` knows about the tracer.

Each wrapped call is a span. A span's busy time is its wall duration; its
self time is that duration minus the time covered by wrapped calls made
inside it. Spans are accumulated per phase (`setup`, `op`, `check`) so
that per-op figures are not diluted by set-up work.
"""

import functools
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter


def _rows(a):
    shape = getattr(a, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else shape[0]
    return len(a)


def _train_steps(bound, result):
    cfg = bound["cfg"]
    return {"steps": cfg.epochs * math.ceil(_rows(bound["features"]) / cfg.batch_size)}


def _token_label(token):
    """'WP(RET)' -> 'WP-RET', so the label stays a valid metric name."""
    return token.replace("(", "-").replace(")", "")


# Extra counters taken from a call's bound arguments and its result.
EXTRAS = {
    "nnet.train": _train_steps,
    "nnet.forward": lambda b, r: {"rows": _rows(b["inputs"])},
    "bim.bim_batch": lambda b, r: {"rows": _rows(b["inputs"])},
    "watermark.generate_keyset": lambda b, r: {"kept": len(r)},
    "serialize.load_model": lambda b, r: {"bytes": os.path.getsize(b["path"])},
}

# Calls that are also recorded under a per-argument label.
LABELS = {
    "harness.build_attacked_model": lambda b: _token_label(b["token"]),
}


def seedmark_modules():
    """Every loaded `seedmark` module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "seedmark" or name.startswith("seedmark."))]


def public_functions():
    """{function: 'module.name'} for the public functions each module defines."""
    found = {}
    for mod in seedmark_modules():
        short = mod.__name__.split(".", 1)[-1]
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                found[val] = f"{short}.{attr}"
    return found


class Stat:
    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self.phase = "op"
        self.stats = defaultdict(Stat)  # (phase, name) -> Stat
        self._stack = []  # child time accumulated by each open span
        self._patched = []  # (module, attribute, original)

    def stat(self, phase, name) -> Stat:
        return self.stats.get((phase, name)) or Stat()

    def _record(self, name, dt, child_s, extra):
        st = self.stats[(self.phase, name)]
        st.calls += 1
        st.s += dt
        st.self_s += dt - child_s
        for key, val in extra.items():
            st.counts[key] += val

    def _wrap(self, fn, name):
        extra_fn = EXTRAS.get(name)
        label_fn = LABELS.get(name)
        signature = inspect.signature(fn) if extra_fn or label_fn else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                child_s = stack.pop()
                if stack:
                    stack[-1] += dt
                extra = {}
                if signature:
                    bound = signature.bind(*args, **kwargs).arguments
                    if extra_fn and ok:
                        extra = extra_fn(bound, result)
                    if label_fn:
                        self._record(f"{name}.{label_fn(bound)}", dt, child_s, {})
                self._record(name, dt, child_s, extra)

        wrapper.bench_span = name
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in seedmark_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patched.append((mod, attr, val))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def leftover_wrappers():
    """Names of seedmark attributes that are still tracer wrappers."""
    return [f"{mod.__name__}.{attr}"
            for mod in seedmark_modules()
            for attr, val in vars(mod).items()
            if hasattr(val, "bench_span")]
