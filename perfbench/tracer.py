"""Per-layer span tracer, installed on kbproj from outside the package.

``Tracer.install`` wraps the functions named in ``TRACED`` and rebinds
every module-level alias of them in every loaded ``kbproj`` module (for
example ``complexes.rank``, imported from ``linalg``), then refuses to
run if any reference to an unwrapped original is left.  Each wrapped
call appends one span (name, parent, start, end) to flat arrays kept in
memory; ``write`` dumps them once the pass is over.

Self time is a span's duration minus the durations of its direct child
spans, so nested public calls (``theta_hom`` -> ``build_complex``) are
counted once.  Counting that the tracer itself does (keys for the repeat
shares, row and non-zero counts for ``rank``) runs in a span of its own,
``trace.bookkeeping``, and so is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from array import array
from time import perf_counter

# Layer name -> traced functions, as attribute paths on the layer module.
TRACED = {
    "algebra": ("algebra_product", "hom_basis_proj"),
    "linalg": ("rank", "nullspace", "SpanSolver.add_generator", "SpanSolver.solve"),
    "complexes": (
        "mat_mul",
        "compose_chain_maps",
        "validate_chain_map",
        "is_null_homotopic",
        "hom_space_dimension",
        "hom_space",
        "is_isomorphic_K",
        "minimal_model",
        "mapping_cone",
    ),
    "quadruples": ("build_complex",),
    "basismaps": ("hom_dim", "phi_map", "psi_map"),
    "gamma": ("theta_hom", "theta_vertex", "gamma_compose", "invert_hom"),
    "rigidity": (
        "random_pseudo_identity",
        "construct_conjugation",
        "verify_naturality",
        "standard_triangle",
    ),
}

BOOKKEEPING = "trace.bookkeeping"


def traced_names() -> list[str]:
    return [f"{layer}.{attr}" for layer, attrs in TRACED.items() for attr in attrs]


class Tracer:
    def __init__(self) -> None:
        self.names = traced_names() + [BOOKKEEPING]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._originals: dict[int, object] = {}
        self.rank_rows = 0
        self.rank_nnz = 0
        self.rank_total = 0
        self.null_queries = 0
        self.null_pairs: set = set()
        self.null_shift_pairs: set = set()
        self._shift_memo: dict = {}
        self.build_calls = 0
        self.build_keys: set = set()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) then runs in a bookkeeping span."""
        nid = self.names.index(name)
        book = self.names.index(BOOKKEEPING)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        # Spans are opened and closed inline: the wrapper's own cost is the
        # tracing overhead every traced call pays, so it is kept small.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                idx = len(names)
                names.append(book)
                parents.append(stack[-1])
                ends.append(0.0)
                starts.append(perf_counter())
                after(args, result)
                ends[idx] = perf_counter()
            return result

        self._originals[id(fn)] = fn
        return wrapper

    # The hooks run after the call, when ProjComplex.key() is already cached
    # on the objects the call touched, so they do not take work away from it.

    def _rank_after(self, args, result: int) -> None:
        rows = args[0]  # every caller passes a list
        self.rank_rows += len(rows)
        self.rank_nnz += sum(map(len, rows))
        self.rank_total += result

    def _null_after(self, args, result) -> None:
        source, target = args[0].source, args[0].target
        self.null_queries += 1
        self.null_pairs.add((source.key(), target.key()))
        t = min(source.summands, default=0)
        self.null_shift_pairs.add((self._shifted_key(source, t), self._shifted_key(target, t)))

    def _build_after(self, args, result) -> None:
        self.build_calls += 1
        self.build_keys.add(args)

    def _shifted_key(self, c, t: int) -> tuple:
        """Key of shift(c, t), memoised: shift() also flips differential signs on odd t."""
        memo_key = (c.key(), t)
        key = self._shift_memo.get(memo_key)
        if key is None:
            key = sys.modules["kbproj.complexes"].shift(c, t).key()
            self._shift_memo[memo_key] = key
        return key

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function and rebind all of its aliases."""
        import kbproj

        for info in pkgutil.iter_modules(kbproj.__path__):
            importlib.import_module(f"kbproj.{info.name}")
        hooks = {
            "linalg.rank": self._rank_after,
            "complexes.is_null_homotopic": self._null_after,
            "quadruples.build_complex": self._build_after,
        }
        replacement: dict[int, object] = {}
        for layer, attrs in TRACED.items():
            module = sys.modules[f"kbproj.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[method]
                wrapper = self._wrap(name, original, hooks.get(name))
                setattr(owner, method, wrapper)
                replacement[id(original)] = wrapper
        modules = self._kbproj_modules() + list(extra_modules)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in self._originals:
                    setattr(module, key, replacement[id(value)])
        self.check_coverage(modules)

    @staticmethod
    def _kbproj_modules() -> list:
        return [
            m for n, m in sorted(sys.modules.items()) if n == "kbproj" or n.startswith("kbproj.")
        ]

    def check_coverage(self, modules) -> None:
        """Raise when any module still reaches an unwrapped traced function."""
        left = []

        def scan(where: str, value) -> None:
            if id(value) in self._originals and value is self._originals[id(value)]:
                left.append(where)

        for module in modules:
            for key, value in vars(module).items():
                scan(f"{module.__name__}.{key}", value)
                if isinstance(value, (list, tuple, set, frozenset)):
                    for item in value:
                        scan(f"{module.__name__}.{key}[...]", item)
                elif isinstance(value, dict):
                    for item in value.values():
                        scan(f"{module.__name__}.{key}[...]", item)
                elif isinstance(value, type):
                    for attr, item in vars(value).items():
                        scan(f"{module.__name__}.{key}.{attr}", item)
                fn = getattr(value, "__wrapped__", value)
                for item in (getattr(fn, "__defaults__", None) or ()):
                    scan(f"{module.__name__}.{key} default", item)
                for cell in (getattr(fn, "__closure__", None) or ()):
                    try:
                        scan(f"{module.__name__}.{key} closure", cell.cell_contents)
                    except ValueError:
                        pass
        if left:
            raise RuntimeError(f"unwrapped references to traced functions: {sorted(set(left))}")

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per traced function, plus the counting metrics."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        for idx in range(len(names)):
            duration = self.span_end[idx] - self.span_start[idx]
            calls[names[idx]] += 1
            self_s[names[idx]] += duration
            parent = parents[idx]
            if parent >= 0:
                self_s[names[parent]] -= duration
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name == BOOKKEEPING:
                continue
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out["linalg.rank.rows"] = self.rank_rows
        out["linalg.rank.nnz"] = self.rank_nnz
        out["linalg.rank.pivot_share"] = self.rank_total / self.rank_rows if self.rank_rows else 0.0
        q = self.null_queries
        out["complexes.is_null_homotopic.repeat_share"] = 1 - len(self.null_pairs) / q if q else 0.0
        out["complexes.is_null_homotopic.shift_repeat_share"] = (
            1 - len(self.null_shift_pairs) / q if q else 0.0
        )
        b = self.build_calls
        out["quadruples.build_complex.repeat_share"] = 1 - len(self.build_keys) / b if b else 0.0
        out["trace.bookkeeping_s"] = self_s[self.names.index(BOOKKEEPING)]
        out["trace.spans"] = len(names)
        return out

    def write(self, path) -> None:
        """All spans as tab-separated name, parent index, start and end (seconds)."""
        with open(path, "w") as fh:
            fh.write("name\tparent\tstart\tend\n")
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[idx]]}\t{self.span_parent[idx]}\t"
                    f"{self.span_start[idx]:.9f}\t{self.span_end[idx]:.9f}\n"
                )
