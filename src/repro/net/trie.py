"""Binary radix trie with longest-prefix-match lookup.

This backs every IP-to-AS mapping structure in the library.  The trie
stores a value per prefix and answers: which is the longest (most
specific) inserted prefix containing a given address, and what value is
attached to it?  That is exactly the semantics of BGP-derived IP2AS
mapping (section 5 of the paper: "longest matching prefix").

Implementation notes: nodes are plain lists ``[zero, one, value, has]``
rather than objects, which roughly halves memory and speeds up the
millions of lookups a full run performs.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.net.prefix import Prefix

_ZERO, _ONE, _VALUE, _HAS = 0, 1, 2, 3


def _new_node() -> list:
    return [None, None, None, False]


class PrefixTrie:
    """Map :class:`Prefix` keys to values with longest-prefix-match."""

    def __init__(self) -> None:
        self._root = _new_node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: Any) -> None:
        """Insert or replace the value at *prefix*."""
        node = self._root
        address, length = prefix.address, prefix.length
        for depth in range(length):
            bit = (address >> (31 - depth)) & 1
            child = node[bit]
            if child is None:
                child = _new_node()
                node[bit] = child
            node = child
        if not node[_HAS]:
            self._size += 1
        node[_VALUE] = value
        node[_HAS] = True

    def remove(self, prefix: Prefix) -> bool:
        """Remove *prefix*; return True when it was present.

        Child nodes are left in place (no path compression), which is
        fine for our workloads where removals are rare.
        """
        node = self._root
        address, length = prefix.address, prefix.length
        for depth in range(length):
            bit = (address >> (31 - depth)) & 1
            node = node[bit]
            if node is None:
                return False
        if not node[_HAS]:
            return False
        node[_HAS] = False
        node[_VALUE] = None
        self._size -= 1
        return True

    def exact(self, prefix: Prefix) -> Optional[Any]:
        """Value stored exactly at *prefix*, or None."""
        node = self._root
        address, length = prefix.address, prefix.length
        for depth in range(length):
            bit = (address >> (31 - depth)) & 1
            node = node[bit]
            if node is None:
                return None
        return node[_VALUE] if node[_HAS] else None

    def lookup(self, address: int) -> Optional[Tuple[Prefix, Any]]:
        """Longest-prefix match for *address*.

        Returns ``(matched_prefix, value)`` or ``None`` when no inserted
        prefix covers the address.
        """
        node = self._root
        best_value = None
        best_length = -1
        if node[_HAS]:
            best_value = node[_VALUE]
            best_length = 0
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            node = node[bit]
            if node is None:
                break
            if node[_HAS]:
                best_value = node[_VALUE]
                best_length = depth + 1
        if best_length < 0:
            return None
        mask = 0 if best_length == 0 else ((1 << best_length) - 1) << (32 - best_length)
        return Prefix(address & mask, best_length), best_value

    def lookup_value(self, address: int) -> Optional[Any]:
        """Value of the longest-prefix match, or None."""
        match = self.lookup(address)
        return match[1] if match is not None else None

    def __contains__(self, address: int) -> bool:
        return self.lookup(address) is not None

    def items(self) -> Iterator[Tuple[Prefix, Any]]:
        """Iterate ``(prefix, value)`` pairs in address order."""
        for address, length, value in self.raw_items():
            yield Prefix(address, length), value

    def raw_items(self) -> Iterator[Tuple[int, int, Any]]:
        """Iterate ``(address, length, value)`` in address order without
        building a :class:`Prefix` per entry (the address table's input)."""
        stack: List[Tuple[list, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, address, depth = stack.pop()
            if node[_HAS]:
                yield address, depth, node[_VALUE]
            if node[_ONE] is not None:
                stack.append(
                    (node[_ONE], address | (1 << (31 - depth)), depth + 1)
                )
            if node[_ZERO] is not None:
                stack.append((node[_ZERO], address, depth + 1))
