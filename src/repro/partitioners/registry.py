"""Registry of partitioners by name.

The CLI and the experiment harness look partitioners up by the short names
used in the paper's tables.  Every entry is a
:class:`~repro.partitioners.base.Partitioner`: it runs on a
:class:`~repro.graph.csr.CSRGraph` (in RAM or an opened on-disk store)
through ``partition_array`` / ``run``.

``hash`` / ``modulo``
    Giraph's default placement baselines (Section V-B): ``hash(v) mod k``
    respectively ``v mod k``.
``random``
    Uniformly random assignment (Spinner's own initialization state),
    seeded with ``seed=0`` unless given another seed.
``ldg``
    Linear Deterministic Greedy streaming heuristic (Stanton & Kliot).
``fennel``
    The Fennel streaming objective (Tsourakakis et al.).
``metis``
    Multilevel coarsen/partition/refine in the spirit of METIS, on a
    canonical dictionary copy of the CSR graph.
``wang``
    LPA-coarsening + METIS of Wang et al. (balances vertices, not edges).
``spinner``
    FastSpinner (the vectorized frontier kernel).
``spinner-mmap``
    FastSpinner pinned to the out-of-core storage tier
    (``SpinnerConfig.storage="mmap"``): the CSR arrays live in on-disk
    shard files and the kernels stream them chunk-wise, so peak RSS is
    ``O(chunk + labels)`` instead of ``O(edges)`` — bit-exact with
    ``spinner``.  Accepts ``storage_dir=`` (store/spill directory) and
    ``storage_chunk=`` (half-edges per streamed chunk).
``spinner-pregel``
    Spinner as a Pregel computation on the array-native vector engine
    (:class:`~repro.core.spinner.SpinnerPartitioner`), which shards the
    CSR graph directly; accepts ``num_workers=``.

The Spinner entries accept a ``config=SpinnerConfig(...)`` keyword
(paper defaults: ``c = 1.05``, ``epsilon = 0.001``, ``w = 5``); all
factories forward their keyword arguments to the constructor.  In
particular the streaming baselines take ``stream_order=`` (``ldg``:
``"natural"``/``"random"``/``"bfs"``; ``fennel``:
``"natural"``/``"random"``) and ``seed=``, so sweeps can vary the stream
order through :func:`make_partitioner` or the CLI's ``--stream-order``.

The table below names each implementation by module and class, so
listing the names imports none of them and :func:`make_partitioner`
imports only the one it builds (``spinner`` never loads METIS or the
Pregel runtime).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.partitioners.base import Partitioner

#: Registry name → (module under ``repro.partitioners``, class name).
_CLASSES: dict[str, tuple[str, str]] = {
    "hash": ("hashing", "HashPartitioner"),
    "modulo": ("hashing", "ModuloPartitioner"),
    "random": ("random_part", "RandomPartitioner"),
    "ldg": ("ldg", "LinearDeterministicGreedy"),
    "fennel": ("fennel", "FennelPartitioner"),
    "metis": ("metis", "MetisLikePartitioner"),
    "wang": ("wang", "WangPartitioner"),
    "spinner": ("spinner_adapter", "SpinnerFastAdapter"),
    "spinner-mmap": ("spinner_adapter", "SpinnerFastAdapter"),
    "spinner-pregel": ("spinner_adapter", "SpinnerPregelAdapter"),
}

#: Keyword defaults a registry name adds to its class's own.
_DEFAULTS: dict[str, dict[str, object]] = {"spinner-mmap": {"storage": "mmap"}}

#: Registry names that accept a ``config=SpinnerConfig(...)`` keyword.
SPINNER_PARTITIONERS = frozenset({"spinner", "spinner-mmap", "spinner-pregel"})


def available_partitioners() -> list[str]:
    """Names accepted by :func:`make_partitioner`, sorted alphabetically."""
    return sorted(_CLASSES)


def make_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a partitioner by name, importing only its module.

    ``kwargs`` are forwarded to the constructor; for the Spinner adapters a
    ``config`` keyword accepts a :class:`~repro.core.config.SpinnerConfig`.

    Raises
    ------
    KeyError
        If ``name`` is not a known partitioner.
    """
    try:
        module, class_name = _CLASSES[name]
    except KeyError:
        known = ", ".join(available_partitioners())
        raise KeyError(f"unknown partitioner {name!r}; available: {known}") from None
    factory = getattr(importlib.import_module(f"repro.partitioners.{module}"), class_name)
    return factory(**{**_DEFAULTS.get(name, {}), **kwargs})
