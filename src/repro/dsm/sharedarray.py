"""Typed shared arrays and scalars over the DSM pool.

Applications never touch raw addresses: they allocate a
:class:`SharedArray` and use its ``get``/``set``/``view`` accessors from a
node context.  Accessors that can fault are generators; ``yield from`` them
inside thread functions.

Performance note (guides: vectorise, views over copies): ``get`` validates
the page range once and returns a zero-copy numpy view of the node-local
pool, so bulk numerics run at numpy speed; protocol costs are charged only
at fault time.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.probe import CAT_AUDIT


def _normalize_shape(shape) -> Tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ValueError(f"invalid shape {shape}")
    return shape


class SharedArray:
    """An ndarray living in distributed shared memory.

    Created via :meth:`allocate`; bound to a node with :meth:`on`, giving a
    :class:`NodeArrayView` whose accessors drive the DSM protocol of that
    node.
    """

    def __init__(self, system, segment, dtype, shape):
        self.system = system
        self.segment = segment
        self.dtype = np.dtype(dtype)
        self.shape = _normalize_shape(shape)
        self.size = int(np.prod(self.shape))
        self.nbytes = self.size * self.dtype.itemsize

    @classmethod
    def allocate(
        cls,
        system,
        name: str,
        shape,
        dtype=np.float64,
        page_align: bool = True,
        object_granularity: bool = False,
    ) -> "SharedArray":
        shape = _normalize_shape(shape)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        seg = system.alloc(
            nbytes,
            name=name,
            align=dtype.itemsize,
            page_align=page_align,
            object_granularity=object_granularity,
        )
        return cls(system, seg, dtype, shape)

    def on(self, node_id: int) -> "NodeArrayView":
        return NodeArrayView(self, self.system.node(node_id))

    def _flat_range(self, start: int, stop: int) -> Tuple[int, int]:
        """Byte range of flat elements [start, stop)."""
        if not (0 <= start <= stop <= self.size):
            raise IndexError(f"flat range [{start}, {stop}) outside array of {self.size}")
        addr = self.segment.addr + start * self.dtype.itemsize
        nbytes = (stop - start) * self.dtype.itemsize
        return addr, nbytes


class NodeArrayView:
    """A shared array as accessed from one node."""

    def __init__(self, array: SharedArray, dsm_node):
        self.array = array
        self.node = dsm_node

    # -- element range helpers -------------------------------------------
    def _resolve(self, start: Optional[int], stop: Optional[int]) -> Tuple[int, int]:
        n = self.array.size
        s = 0 if start is None else int(start)
        e = n if stop is None else int(stop)
        if s < 0 or e > n or s > e:
            raise IndexError(f"range [{s}, {e}) outside array of {n} elements")
        return s, e

    def _np_view(self, s: int, e: int) -> np.ndarray:
        addr, nbytes = self.array._flat_range(s, e)
        raw = self.node.raw_view(addr, nbytes)
        return raw.view(self.array.dtype)

    # -- generator accessors ------------------------------------------------
    # Hot path: when the whole range is already valid for the requested
    # mode (DsmNode.try_fast_access), skip constructing the acquire_*
    # fault-loop generators — the accessor runs to completion without
    # touching the simulator.  Callers still drive these with
    # ``yield from``; a no-fault call simply never yields.
    def get(self, start: Optional[int] = None, stop: Optional[int] = None):
        """Validate + return a read-only flat view of elements [start, stop)."""
        s, e = self._resolve(start, stop)
        if e == s:
            return np.empty(0, dtype=self.array.dtype)
        addr, nbytes = self.array._flat_range(s, e)
        if not self.node.try_fast_access(addr, nbytes, False):
            yield from self.node.acquire_read(addr, nbytes)
        pb = self.node.sim.probe
        if (pb is not None and CAT_AUDIT in pb.heard
                and not self.array.segment.object_granularity):
            pb.instant(CAT_AUDIT, "access", node=self.node.id, addr=addr, nbytes=nbytes,
                       write=False, what=f"{self.array.segment.name}[{s}:{e}]")
        view = self._np_view(s, e)
        view.flags.writeable = False
        return view

    def writable(self, start: Optional[int] = None, stop: Optional[int] = None):
        """Validate-for-write + return a writable flat view."""
        s, e = self._resolve(start, stop)
        if e == s:
            return np.empty(0, dtype=self.array.dtype)
        addr, nbytes = self.array._flat_range(s, e)
        if not self.node.try_fast_access(addr, nbytes, True):
            yield from self.node.acquire_write(addr, nbytes)
        pb = self.node.sim.probe
        if (pb is not None and CAT_AUDIT in pb.heard
                and not self.array.segment.object_granularity):
            pb.instant(CAT_AUDIT, "access", node=self.node.id, addr=addr, nbytes=nbytes,
                       write=True, what=f"{self.array.segment.name}[{s}:{e}]")
        return self._np_view(s, e)

    def set(self, values, start: int = 0):
        """Write *values* at flat offset *start*."""
        values = np.asarray(values, dtype=self.array.dtype).ravel()
        view = yield from self.writable(start, start + values.size)
        view[:] = values

    def get_scalar(self, index: int):
        v = yield from self.get(index, index + 1)
        return self.array.dtype.type(v[0])

    def set_scalar(self, index: int, value):
        yield from self.set(np.asarray([value], dtype=self.array.dtype), start=index)

    # -- raw (no protocol) ---------------------------------------------------
    def raw(self, start: Optional[int] = None, stop: Optional[int] = None) -> np.ndarray:
        """Unchecked view — for object-granularity segments and tests."""
        s, e = self._resolve(start, stop)
        return self._np_view(s, e)


class SharedScalar:
    """A single shared value, usually object-granularity (update protocol)."""

    def __init__(self, system, name: str, dtype=np.float64, object_granularity: bool = True):
        self.array = SharedArray.allocate(
            system,
            name,
            (1,),
            dtype=dtype,
            page_align=False,
            object_granularity=object_granularity,
        )
        self.system = system
        #: node id -> its :class:`NodeScalarView`, made on first use
        self._views: dict = {}

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def on(self, node_id: int) -> "NodeScalarView":
        """The scalar as accessed from *node_id*: one view per node, reused
        (a view holds no state but its binding)."""
        view = self._views.get(node_id)
        if view is None:
            view = self._views[node_id] = NodeScalarView(self, self.array.on(node_id))
        return view


class NodeScalarView:
    def __init__(self, scalar: SharedScalar, view: NodeArrayView):
        self.scalar = scalar
        self._view = view
        #: the node-local copy, for the unchecked raw accessors (the pool
        #: buffer is never reallocated, so the view stays valid)
        self._cell = view.raw(0, 1)
        self._type = scalar.array.dtype.type

    def get(self):
        value = yield from self._view.get_scalar(0)
        return value

    def set(self, value):
        yield from self._view.set_scalar(0, value)

    def raw_get(self):
        return self._type(self._cell[0])

    def raw_set(self, value) -> None:
        self._cell[0] = value
