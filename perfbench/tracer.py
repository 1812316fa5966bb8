"""Per-layer tracing of rookdual from outside the package.

The tracer replaces public functions of the rookdual modules with
wrappers, in every module that binds the name (``dualities``, ``cli``
and ``morphisms`` import by name, so patching the defining module alone
would miss their calls).  The package itself is not changed.

Each site is one of three kinds:

* ``span``: timed, and recorded with its cell (taken from the ``space``,
  ``n``, ``k``, ``map_name`` and ``which`` arguments) when no other
  tagged span encloses it.  For the coarse calls.
* ``timed``: timed into totals only, with no record per call.
* ``count``: counted only, for the hot inner calls, so that their
  per-call overhead stays small; their time stays in the caller.

A layer is the module that defines the function; its self time is the
time in its wrapped functions minus the time in wrapped functions they
call.  A group sums the time of its outermost calls, so a group's time
never counts a nested call of the same group twice.  A site whose name a
refactor removed is reported as absent, not as an error.
"""

import inspect
import sys
import time

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, name in module, kind, group)
SITES = (
    ("cli", "main", SPAN, "cli.main"),
    ("dualities", "run_grid", SPAN, "dualities.grid"),
    ("dualities", "run_full_report", SPAN, "dualities.report"),
    ("dualities", "verify_commutation", SPAN, "dualities.commute"),
    ("dualities", "centralizer_data", SPAN, "dualities.centralizer"),
    ("dualities", "verify_centralizer", SPAN, "dualities.centralizer"),
    ("dualities", "verify_semigroup_faithfulness", SPAN, "dualities.faithful"),
    ("dualities", "verify_algebra_faithfulness", SPAN, "dualities.faithful"),
    ("dualities", "left_generator_matrices", SPAN, "dualities.matrices"),
    ("dualities", "left_element_matrices", SPAN, "dualities.matrices"),
    ("dualities", "right_element_matrices", SPAN, "dualities.matrices"),
    ("morphisms", "morphism_report", SPAN, "morphisms.report"),
    ("morphisms", "verify_hat_consistency", SPAN, "morphisms.report"),
    ("morphisms", "verify_tilde_factorization", SPAN, "morphisms.report"),
    ("morphisms", "natural_upper_set", TIMED, "morphisms.deform"),
    ("morphisms", "mobius_merge_drop", TIMED, "morphisms.deform"),
    ("morphisms", "coarsening_sum", TIMED, "morphisms.deform"),
    ("morphisms", "coarsening_sum_inverse", TIMED, "morphisms.deform"),
    ("morphisms", "coarsening_sum_inverse_by_solve", TIMED, "morphisms.deform"),
    ("morphisms", "block_subset_sum", TIMED, "morphisms.deform"),
    ("morphisms", "block_subset_sum_inverse", TIMED, "morphisms.deform"),
    ("morphisms", "extend_linearly", TIMED, "morphisms.deform"),
    ("morphisms", "star_product", TIMED, "morphisms.bilinear"),
    ("morphisms", "pistar_product", TIMED, "morphisms.bilinear"),
    ("morphisms", "bullet_product", TIMED, "morphisms.bilinear"),
    ("exact_linalg", "commutant_basis", SPAN, "exact_linalg.commutant"),
    ("exact_linalg", "span_dimension", TIMED, "exact_linalg.span"),
    ("exact_linalg", "in_span", TIMED, "exact_linalg.span"),
    ("exact_linalg", "rank", TIMED, "exact_linalg.span"),
    ("exact_linalg", "ExactMatrix.__mul__", TIMED, "exact_linalg.matmul"),
    ("exact_linalg", "RowSpace.add", COUNT, "exact_linalg.rowspace_add"),
    ("tensor_actions", "action_matrix_V", TIMED, "tensor_actions.build"),
    ("tensor_actions", "action_matrix_U", TIMED, "tensor_actions.build"),
    ("tensor_actions", "rook_action_matrix", TIMED, "tensor_actions.build"),
    ("tensor_actions", "match_set_c", COUNT, "tensor_actions.match"),
    ("tensor_actions", "match_set_partial", COUNT, "tensor_actions.match"),
    ("tensor_actions", "match_set_hat", COUNT, "tensor_actions.match"),
    ("tensor_actions", "match_set_tilde", COUNT, "tensor_actions.match"),
    ("semigroups", "multiply_composition", TIMED, "semigroups.product"),
    ("semigroups", "multiply_istar", TIMED, "semigroups.product"),
    ("semigroups", "multiply_pistar", TIMED, "semigroups.product"),
    ("semigroups", "star_multiply", TIMED, "semigroups.product"),
    ("semigroups", "bullet_multiply", TIMED, "semigroups.product"),
    ("semigroups", "is_generators", TIMED, "semigroups.generators"),
    ("semigroups", "mulclose", TIMED, "semigroups.closure"),
    ("diagrams", "enumerate_is", TIMED, "diagrams.enumerate"),
    ("diagrams", "enumerate_istar", TIMED, "diagrams.enumerate"),
    ("diagrams", "enumerate_pistar", TIMED, "diagrams.enumerate"),
)

LAYERS = (
    "diagrams",
    "semigroups",
    "tensor_actions",
    "exact_linalg",
    "dualities",
    "morphisms",
    "cli",
)

PACKAGE = "rookdual"

# Arguments that name the cell a span works on.
CELL_PARAMS = ("space", "n", "k", "map_name", "which")


class _Site:
    __slots__ = ("layer", "self_time")

    def __init__(self, layer):
        self.layer = layer
        self.self_time = 0.0


class _Group:
    __slots__ = ("depth", "calls", "total")

    def __init__(self):
        self.depth = 0
        self.calls = 0
        self.total = 0.0


class Tracer:
    """Wraps the sites of an imported rookdual package and collects
    per-layer times and counts in memory until ``summary``."""

    def __init__(self):
        self.stack = []  # one [child time] cell per active timed call
        self.tagged_depth = 0
        self.sites = {}
        self.groups = {}
        self.counts = {}
        self.cells = {}  # "site[cell]" -> seconds in outermost tagged spans
        self.build_keys = set()
        self.nnz = 0
        self.commutant_unknowns = 0
        self.absent = []

    def install(self, sites=SITES):
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, name, kind, group in sites:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            holder, attr = owner, name
            if "." in name:
                cls_name, attr = name.split(".", 1)
                holder = getattr(owner, cls_name, None)
            original = getattr(holder, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{name}")
                continue
            wrapper = self._wrap(original, f"{module_name}.{name}", module_name, kind, group)
            if holder is not owner:
                setattr(holder, attr, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)

    def _wrap(self, fn, site_name, layer, kind, group_name):
        if kind == COUNT:
            counts = self.counts
            counts.setdefault(group_name, 0)

            def counted(*args, **kwargs):
                counts[group_name] += 1
                return fn(*args, **kwargs)

            return counted

        site = self.sites[site_name] = _Site(layer)
        group = self.groups.setdefault(group_name, _Group())
        stack = self.stack
        clock = time.perf_counter
        signature = inspect.signature(fn)
        tag = _cell_tagger(signature) if kind == SPAN else None
        hook = self._hook(group_name, signature)

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            group.depth += 1
            tagged = tag is not None and self.tagged_depth == 0
            if tag is not None:
                self.tagged_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                group.depth -= 1
                if group.depth == 0:
                    group.calls += 1
                    group.total += seconds
                site.self_time += seconds - frame[0]
                if stack:
                    stack[-1][0] += seconds
                if tag is not None:
                    self.tagged_depth -= 1
                    if tagged:
                        key = f"{site_name}[{tag(args, kwargs)}]"
                        self.cells[key] = self.cells.get(key, 0.0) + seconds
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return timed

    def _hook(self, group_name, signature):
        """Extra counts taken from a call's arguments and result."""
        if group_name == "tensor_actions.build":

            def build(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.build_keys.add(
                    tuple(
                        _freeze(v)
                        for name, v in bound.arguments.items()
                        if name != "unguarded"
                    )
                )
                self.nnz += len(getattr(result, "entries", ()))

            return build
        if group_name == "exact_linalg.commutant":

            def commutant(args, kwargs, result):
                d = signature.bind(*args, **kwargs).arguments.get("d", 0)
                self.commutant_unknowns += d * d

            return commutant
        return None

    def summary(self) -> dict:
        """Plain-data result: self time per layer, time and outermost
        calls per group, counts, build statistics and per-cell spans."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for site in self.sites.values():
            layers[site.layer] += site.self_time
        return {
            "layers": layers,
            "groups": {
                name: {"calls": g.calls, "seconds": g.total}
                for name, g in self.groups.items()
            },
            "counts": dict(self.counts),
            "distinct_matrices": len(self.build_keys),
            "nnz": self.nnz,
            "commutant_unknowns": self.commutant_unknowns,
            "cells": self.cells,
            "absent": self.absent,
        }


def _cell_tagger(signature):
    """A function naming the cell of a call, or None when the wrapped
    function takes none of the cell arguments."""
    params = [p for p in CELL_PARAMS if p in signature.parameters]
    if not params:
        return None

    def tag(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        return ",".join(f"{p}={bound[p]}" for p in params if p in bound)

    return tag


def _freeze(value):
    """Hashable identity of an argument; an action space by its shape."""
    if all(hasattr(value, a) for a in ("kind", "n", "k", "dimension")):
        return (value.kind, value.n, value.k)
    return value
