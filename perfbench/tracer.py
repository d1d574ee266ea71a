"""Run one slcob command in this process with its functions wrapped.

    python perfbench/tracer.py {layers|counts} TRACE_JSON ARGV...

The program under test is not changed: after `import slcob.cli` the public
functions of every slcob module (and the public methods and `__init__` of
its classes) are replaced by timing wrappers, at their home module and at
every module that imported them by name, so `conner_floyd.kernel_basis` is
wrapped as well as `intmat.kernel_basis`.  Then `slcob.cli.main(ARGV)` runs
and the trace is written to TRACE_JSON.

Mode `layers` attributes self time to layers.  Each wrapped function has a
layer: the one named in LAYERS, else its module's default.  A call opens a
span unless the caller's span already has that layer, or the callee is not
named in LAYERS and lives in the caller's module (a helper of the caller).
A layer's self time is the time of its spans minus the time of the spans
they contain.  The functions in HOT run millions of times; wrapping them
would inflate the self time of their callers, so this mode leaves them
alone and their time counts to the caller.

Mode `counts` wraps only the HOT functions and counts their calls.

Only `sys` and `time` are imported before `import slcob.cli` is timed;
everything else is imported later, so that no module this file loads first
makes that import look cheaper than it is in the CLI.
"""

import sys
import time

LAYERS = {
    "cli.fixtures": "cli.fixtures",
    "fgl.FGLContext.boundary_class_m": "fgl.op_class",
    "fgl.FGLContext.delta_class_m": "fgl.op_class",
    "symfun.m_to_e_matrix": "symfun.m_to_e",
    "symfun.e_to_m_matrix": "symfun.m_to_e",
    "mu.reciprocal_class_matrix": "mu.reciprocal",
    "mu.MUBasis.__init__": "mu.generators",
    "mu.MUBasis.to_coordinates": "mu.coords",
    "operations.apply_operation": "operations.apply",
    "intmat.kernel_basis": "intmat.kernel",
    "intmat.HNFSolver.__init__": "intmat.solver",
    "intmat.HNFSolver.solve": "intmat.solver",
    "intmat.HNFSolver.contains": "intmat.solver",
    "intmat.smith_normal_form": "intmat.snf",
    "abelian.cokernel": "abelian.cokernel",
    "conner_floyd.ConnerFloyd.operation_matrix": "conner_floyd.opmat",
    "conner_floyd.ConnerFloyd.w_lattice": "conner_floyd.w_lattice",
    "conner_floyd.ConnerFloyd.delta_matrix": "conner_floyd.differential",
    "conner_floyd.ConnerFloyd.cycles": "conner_floyd.homology",
    "conner_floyd.ConnerFloyd.cycles_in_lattice": "conner_floyd.homology",
    "conner_floyd.ConnerFloyd.boundaries_in_lattice": "conner_floyd.homology",
    "conner_floyd.ConnerFloyd.homology": "conner_floyd.homology",
    "conner_floyd.ConnerFloyd.cf_homology": "conner_floyd.homology",
    "charnum.generator_check_msu": "charnum.verdict",
    "verify.suite_leibniz": "verify.leibniz",
}

MODULE_LAYERS = {
    "fgl": "fgl.context",
    "msl": "msl.table",
    "witt": "witt.data",
    "kq": "kq.table",
    "charnum": "charnum.class",
}

HOT_MODULES = {"bpoly"}
HOT = {"partitions.merge"}

# Largest entry, in bits, of the matrices these functions return.
BITS = {
    "mu.MUBasis.matrix": "mu.basis_bits",
    "conner_floyd.ConnerFloyd.operation_matrix": "conner_floyd.opmat_bits",
    "conner_floyd.ConnerFloyd.w_lattice": "conner_floyd.w_lattice_bits",
}

HOOK_LAYER = "trace.hooks"


def is_hot(key):
    return key in HOT or key.split(".", 1)[0] in HOT_MODULES


class Tracer:
    """Spans, self times, call counts and matrix sizes of one process."""

    def __init__(self):
        self.stack = [["", None, 0.0]]      # [layer, module, child time]
        self.self_s = {}
        self.calls = {}
        self.inclusive = {}                 # key -> [total s, max s]
        self.bits = {name: 0 for name in BITS.values()}
        self._measured = {}

    def layer_of(self, key):
        module = key.split(".", 1)[0]
        return LAYERS.get(key, MODULE_LAYERS.get(module, module + ".other"))

    def timed(self, fn, key):
        from functools import update_wrapper
        from time import perf_counter
        module = key.split(".", 1)[0]
        layer = self.layer_of(key)
        boundary = key in LAYERS
        stack, self_s = self.stack, self.self_s
        calls = self.calls.setdefault(key, [0])
        incl = self.inclusive.setdefault(key, [0.0, 0.0])
        self_s.setdefault(layer, 0.0)
        bits_name = BITS.get(key)

        def wrapper(*args, **kwargs):
            calls[0] += 1
            top = stack[-1]
            if top[0] == layer or (not boundary and top[1] == module):
                result = fn(*args, **kwargs)
            else:
                frame = [layer, module, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[2]
                    stack[-1][2] += dt
                    incl[0] += dt
                    if dt > incl[1]:
                        incl[1] = dt
            if bits_name is not None:
                t0 = perf_counter()
                self._record_bits(bits_name, result)
                dt = perf_counter() - t0
                self_s[HOOK_LAYER] = self_s.get(HOOK_LAYER, 0.0) + dt
                stack[-1][2] += dt
            return result

        return update_wrapper(wrapper, fn)

    def counted(self, fn, key):
        from functools import update_wrapper
        calls = self.calls.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return update_wrapper(wrapper, fn)

    def _record_bits(self, name, mat):
        # Cached methods return the same matrix many times; measure it once.
        # The matrix is kept referenced so that its id is not reused.
        if id(mat) in self._measured:
            return
        self._measured[id(mat)] = mat
        size = max((abs(x).bit_length() for row in mat.entries for x in row),
                   default=0)
        self.bits[name] = max(self.bits[name], size)

    def install(self, mode):
        """Wrap the functions of every slcob module for `mode`."""
        import functools
        import importlib
        import inspect
        import pkgutil
        import slcob

        def wanted(key):
            return is_hot(key) if mode == "counts" else not is_hot(key)

        wrap = self.counted if mode == "counts" else self.timed
        modules = [importlib.import_module("slcob." + info.name)
                   for info in pkgutil.iter_modules(slcob.__path__)]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, short, wanted, wrap)
                elif (not name.startswith("_")
                      and (inspect.isfunction(obj)
                           or isinstance(obj, functools._lru_cache_wrapper))):
                    key = "%s.%s" % (short, name)
                    if wanted(key):
                        replaced[id(obj)] = wrap(obj, key)
        # Rebind every import site: `from .intmat import kernel_basis`.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls, short, wanted, wrap):
        import functools
        import inspect
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            key = "%s.%s.%s" % (short, cls.__name__, name)
            if not wanted(key):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(wrap(attr.__func__, key)))
            elif inspect.isfunction(attr) or isinstance(
                    attr, functools._lru_cache_wrapper):
                setattr(cls, name, wrap(attr, key))

    def report(self, import_s):
        import inspect
        import slcob.symfun
        cached = inspect.unwrap(slcob.symfun.distribute_count,
                                stop=lambda f: hasattr(f, "cache_info"))
        info = cached.cache_info()
        return {
            "import_s": import_s,
            "self_s": self.self_s,
            "calls": {k: v[0] for k, v in self.calls.items() if v[0]},
            "inclusive": {k: v for k, v in self.inclusive.items() if v[0]},
            "bits": self.bits,
            "distribute_count_cache": {"hits": info.hits,
                                       "misses": info.misses},
        }


def main(argv):
    if len(argv) < 2 or argv[0] not in ("layers", "counts"):
        raise SystemExit("usage: tracer.py {layers|counts} TRACE_JSON ARGV...")
    mode, trace_path, cli_argv = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import slcob.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(mode)
    try:
        rc = slcob.cli.main(cli_argv)
    finally:
        import json
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(tracer.report(import_s), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
