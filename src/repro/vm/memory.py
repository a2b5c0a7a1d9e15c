"""Physical memory: a flat array of fixed-size frames per node."""

from __future__ import annotations

import mmap

import numpy as np


class PhysicalMemory:
    """Frame-granular physical memory backed by one numpy buffer.

    Frame *i* occupies bytes ``[i*frame_size, (i+1)*frame_size)`` of
    :attr:`buffer`.  Views are zero-copy numpy slices, so DSM "pages" handed
    to applications alias this storage directly.
    """

    def __init__(self, n_frames: int, frame_size: int):
        if n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {n_frames}")
        if frame_size < 1:
            raise ValueError(f"frame_size must be >= 1, got {frame_size}")
        self.n_frames = n_frames
        self.frame_size = frame_size
        # An anonymous mapping rather than np.zeros: numpy advises large
        # allocations for transparent huge pages, and a DSM pool is touched
        # sparsely, one small frame at a time — each first touch would
        # zero-fill 2 MiB.  Lazily zero-filled either way.
        backing = mmap.mmap(-1, n_frames * frame_size)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            backing.madvise(mmap.MADV_NOHUGEPAGE)
        self.buffer = np.frombuffer(backing, dtype=np.uint8)

    def frame_view(self, frame: int) -> np.ndarray:
        """Zero-copy view of one frame."""
        self._check(frame)
        off = frame * self.frame_size
        return self.buffer[off : off + self.frame_size]

    def read_frame(self, frame: int) -> bytes:
        return self.frame_view(frame).tobytes()

    def write_frame(self, frame: int, data) -> None:
        view = self.frame_view(frame)
        arr = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) else data
        if arr.size != self.frame_size:
            raise ValueError(
                f"frame write size {arr.size} != frame size {self.frame_size}"
            )
        view[:] = arr

    def _check(self, frame: int) -> None:
        if not (0 <= frame < self.n_frames):
            raise IndexError(f"frame {frame} out of range [0, {self.n_frames})")
