"""A column of repeated strings kept as small-int codes.

Observer stores (the trace ring's tids, the profiler's interval tids and
phases) hold a handful of distinct strings over tens of thousands of
rows.  :class:`CodedColumn` keeps one code per row in ``array('H')`` —
two bytes, widened to ``array('I')`` once a column has seen more than
65 536 distinct values — and each distinct value once, in its table.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterator, List


class CodedColumn:
    """Rows of hashable values as codes into a per-column table:
    ``values[codes[i]]`` is row *i*.  Indexing and iterating decode."""

    __slots__ = ("codes", "values", "index")

    def __init__(self):
        self.codes = array("H")
        #: the table: ``values[code]`` is the value of that code
        self.values: List[Hashable] = []
        #: value -> its code
        self.index: Dict[Hashable, int] = {}

    def code(self, value: Hashable) -> int:
        """The code of *value*, added to the table on first use."""
        code = self.index.get(value)
        if code is None:
            code = self.index[value] = len(self.values)
            self.values.append(value)
            if code == 0x10000:
                self.codes = array("I", self.codes)
        return code

    def append(self, value: Hashable) -> None:
        code = self.index.get(value)
        if code is None:
            code = self.code(value)  # may widen ``codes``: look it up after
        self.codes.append(code)

    def __getitem__(self, i: int) -> Hashable:
        return self.values[self.codes[i]]

    def __iter__(self) -> Iterator[Hashable]:
        return map(self.values.__getitem__, self.codes)

    def __add__(self, other: "CodedColumn") -> "CodedColumn":
        """Both columns, *self*'s rows first, against one table: *self*'s
        codes stand and *other*'s are remapped into it."""
        out = CodedColumn()
        for value in self.values:
            out.code(value)
        remap = [out.code(value) for value in other.values]
        out.codes.extend(self.codes)
        out.codes.extend(map(remap.__getitem__, other.codes))
        return out
