"""Registry of partitioners by name.

The CLI and the experiment harness look partitioners up by the short names
used in the paper's tables:

``hash`` / ``modulo``
    Giraph's default placement baselines (Section V-B): ``hash(v) mod k``
    respectively ``v mod k``.
``random``
    Uniformly random assignment (Spinner's own initialization state).
``ldg``
    Linear Deterministic Greedy streaming heuristic (Stanton & Kliot).
``fennel``
    The Fennel streaming objective (Tsourakakis et al.).
``metis``
    Multilevel coarsen/partition/refine in the spirit of METIS.
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
    (:class:`~repro.core.spinner.SpinnerPartitioner`); accepts
    ``num_workers=``.

The Spinner entries accept a ``config=SpinnerConfig(...)`` keyword
(paper defaults: ``c = 1.05``, ``epsilon = 0.001``, ``w = 5``); all
factories forward their keyword arguments to the constructor.  In
particular the streaming baselines take ``stream_order=`` (``ldg``:
``"natural"``/``"random"``/``"bfs"``; ``fennel``:
``"natural"``/``"random"``) and ``seed=``, so sweeps can vary the stream
order through :func:`make_partitioner` or the CLI's ``--stream-order``.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.config import SpinnerConfig
from repro.partitioners.base import Partitioner
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hashing import HashPartitioner, ModuloPartitioner
from repro.partitioners.ldg import LinearDeterministicGreedy
from repro.partitioners.metis import MetisLikePartitioner
from repro.partitioners.random_part import RandomPartitioner
from repro.partitioners.spinner_adapter import SpinnerFastAdapter, SpinnerPregelAdapter
from repro.partitioners.wang import WangPartitioner

def _spinner_mmap(**kwargs) -> SpinnerFastAdapter:
    """FastSpinner pinned to the out-of-core mmap storage tier."""
    kwargs.setdefault("storage", "mmap")
    return SpinnerFastAdapter(**kwargs)


_FACTORIES: dict[str, Callable[..., Partitioner]] = {
    "hash": HashPartitioner,
    "modulo": ModuloPartitioner,
    "random": RandomPartitioner,
    "ldg": LinearDeterministicGreedy,
    "fennel": FennelPartitioner,
    "metis": MetisLikePartitioner,
    "wang": WangPartitioner,
    "spinner": SpinnerFastAdapter,
    "spinner-mmap": _spinner_mmap,
    "spinner-pregel": SpinnerPregelAdapter,
}

#: Registry names that accept a ``config=SpinnerConfig(...)`` keyword.
SPINNER_PARTITIONERS = frozenset({"spinner", "spinner-mmap", "spinner-pregel"})


def available_partitioners() -> list[str]:
    """Names accepted by :func:`make_partitioner`, sorted alphabetically."""
    return sorted(_FACTORIES)


def make_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a partitioner by name.

    ``kwargs`` are forwarded to the constructor; for the Spinner adapters a
    ``config`` keyword accepts a :class:`~repro.core.config.SpinnerConfig`.

    Raises
    ------
    KeyError
        If ``name`` is not a known partitioner.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(available_partitioners())
        raise KeyError(f"unknown partitioner {name!r}; available: {known}") from None
    return factory(**kwargs)


def default_spinner_config() -> SpinnerConfig:
    """The paper's default Spinner configuration (c=1.05, eps=0.001, w=5)."""
    return SpinnerConfig()
