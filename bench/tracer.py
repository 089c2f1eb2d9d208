"""Call spans around the package's public functions, recorded from outside.

While attached, the tracer replaces module attributes (and two methods)
with wrappers that record one span per call: name, start, end, parent span,
unit id and one size figure (a dimension, a flop count or megabytes,
depending on the function).  Spans are kept in flat arrays in memory and
written out once, when the run ends.  Nothing inside the package is modified
on disk; calls made while no unit is open pass straight through, and
``detach`` restores the original functions.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from oneshot import audits, cli, hyptest, mac, qla, tilting, typicality


def _first_dim(args, kwargs, result):
    return float(np.shape(args[0])[0])


def _pgm_dim(args, kwargs, result):
    return float(np.shape(args[0][0])[0])


def _eigh_flops(args, kwargs, result):
    shape = np.shape(args[0])
    return float(shape[-1]) ** 3 * float(np.prod(shape[:-2]))


def _result_mb(args, kwargs, result):
    return result.nbytes / 1e6


def _is_matrix_two_norm(args, kwargs):
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ == 2 and np.ndim(args[0]) == 2


# (owner, attribute, span name, size function or None, record predicate or None)
TARGETS = (
    (mac, "cq_mac_experiment", "mac.cq_mac_experiment", None, None),
    (mac, "pipeline_quantities", "mac.pipeline_quantities", None, None),
    (mac, "pgm", "mac.pgm", _pgm_dim, None),
    (mac.DecodingSet, "povm", "mac.povm", None, None),
    (mac.PerturbedChannel, "rho_prime", "mac.rho_prime", None, None),
    (mac, "build_decoding_povms", "mac.build_decoding_povms", None, None),
    (mac, "hayashi_nagaoka_slack", "mac.hayashi_nagaoka_slack", None, None),
    (typicality, "intersection_lemma", "typicality.intersection_lemma", None, None),
    (typicality, "split_decompose", "typicality.split_decompose", None, None),
    (typicality, "marginal_block_state", "typicality.marginal_block_state", None, None),
    (typicality, "factored_partial_trace", "typicality.factored_partial_trace", None, None),
    (typicality, "build_rho_prime", "typicality.build_rho_prime", None, None),
    (typicality, "global_embed", "typicality.global_embed", _result_mb, None),
    (typicality, "build_construction", "typicality.build_construction", None, None),
    (typicality, "optimal_splitting_tests", "typicality.optimal_splitting_tests", None, None),
    (typicality, "audit_construction", "typicality.audit_construction", None, None),
    (hyptest, "quantum_optimal_test", "hyptest.quantum_optimal_test", _first_dim, None),
    (hyptest, "dh_classical", "hyptest.dh_classical", None, None),
    (hyptest, "ih_mutual", "hyptest.ih_mutual", None, None),
    (tilting, "tilted_span", "tilting.tilted_span", None, None),
    (tilting, "a_tilted_span", "tilting.a_tilted_span", None, None),
    (tilting, "gao_slack", "tilting.gao_slack", None, None),
    (tilting, "orthonormalize", "tilting.orthonormalize", None, None),
    (qla, "hermitian_part", "qla.hermitian_part", None, None),
    (qla, "partial_trace", "qla.partial_trace", None, None),
    (audits, "audit_tilting", "audits.audit_tilting", None, None),
    (audits, "audit_a_tilting", "audits.audit_a_tilting", None, None),
    (audits, "audit_gao", "audits.audit_gao", None, None),
    (audits, "audit_hn", "audits.audit_hn", None, None),
    (audits, "audit_dh", "audits.audit_dh", None, None),
    (audits, "random_instance", "audits.random_instance", None, None),
    (cli, "cmd_mac", "cli.cmd_mac", None, None),
    (np.linalg, "eigh", "linalg.eigh", _eigh_flops, None),
    (np.linalg, "eigvalsh", "linalg.eigvalsh", None, None),
    (np.linalg, "norm", "linalg.norm2", None, _is_matrix_two_norm),
)


class Tracer:
    """Span store plus the wrappers that fill it.

    ``unit`` is the id of the open unit; spans are recorded only while it is
    not None.  A span's self time is its duration minus the durations of its
    direct children, which nest inside it.
    """

    def __init__(self, targets=TARGETS):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit_of = array("q")
        self.size = array("d")
        self.unit: int | None = None
        self._stack: list[int] = []
        # (owner, attribute, original, wrapper); the wrappers are built once
        self._swaps = []
        for owner, attr, name, size_fn, when in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, size_fn, when)
            self._swaps.append((owner, attr, original, wrapper))

    def attach(self) -> None:
        """Put the wrappers in place of the originals."""
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def detach(self) -> None:
        """Restore the originals, so calls run the unwrapped code."""
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def _wrap(self, fn, name, size_fn, when):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.unit is None or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.unit_of.append(self.unit)
            self.start.append(0.0)
            self.end.append(0.0)
            self.size.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if size_fn is not None:
                self.size[idx] = size_fn(args, kwargs, result)
            return result

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.unit_of, dtype=np.int64),
            "size": np.frombuffer(self.size, dtype=np.float64),
        }

    def per_unit(self) -> dict:
        """{unit: {span name: (calls, self seconds, max size, summed size)}}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out: dict = {}
        for unit in np.unique(a["unit"]):
            sel = a["unit"] == unit
            stats = {}
            for name_id in np.unique(a["name"][sel]):
                m = sel & (a["name"] == name_id)
                sizes = a["size"][m]
                stats[self.names[name_id]] = (
                    int(m.sum()),
                    float(own[m].sum()),
                    float(sizes.max()),
                    float(sizes.sum()),
                )
            out[int(unit)] = stats
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
