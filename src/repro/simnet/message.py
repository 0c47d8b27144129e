"""Message costing for CONGEST-style bandwidth accounting.

Algorithms in this repository exchange plain Python values (ints, floats,
tuples, frozensets, dataclasses with ``__msg_fields__``).  To compare
*bit complexity* between algorithms we need a consistent, model-level cost
for each message — the number of bits an implementation on a real
`B`-bit-per-round channel would need.  :func:`bit_size` defines that cost.
The engine accounts it — every run measures its largest broadcast
(``RunMetrics.max_broadcast_bits``) — but enforces no budget: a
bounded-bandwidth algorithm keeps to its own word budget, and the
measured maximum certifies that it did.

Conventions (documented here once, relied on by the metrics module):

* ``None`` costs 1 bit (a presence flag).
* ``bool`` costs 1 bit.
* ``int`` costs ``max(1, value.bit_length()) + 1`` bits (sign/terminator),
  unless it is tagged as a node id via :class:`NodeId` — then it costs
  exactly :data:`ID_BITS`.
* ``float`` costs 64 bits (IEEE double).
* containers (tuple/list/frozenset/set/dict) cost the sum of their items
  plus 8 bits of framing per container, matching a length-prefixed
  encoding up to constants.
* ``bytes``/``str`` cost 8 bits per byte plus framing.
* objects exposing ``__msg_bits__()`` cost whatever that returns — protocol
  message dataclasses use this to charge their true field widths.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["bit_size", "NodeId", "ID_BITS"]

_CONTAINER_FRAMING_BITS = 8

#: Fixed width charged for a :class:`NodeId`: the ``Θ(log N)`` word of
#: the CONGEST-style model, sized for 32-bit id spaces.
ID_BITS = 32


class NodeId(int):
    """An ``int`` subtype marking a value as a node identifier.

    In the bounded-bandwidth model node ids are charged the fixed width
    :data:`ID_BITS` rather than their numeric bit-length, so that
    complexity accounting matches the ``Θ(log N)`` word size of the
    CONGEST-style model.
    """

    __slots__ = ()


def bit_size(obj: Any) -> int:
    """Return the model-level cost in bits of sending *obj*.

    Parameters
    ----------
    obj:
        The message payload (any composition of the supported types).

    Raises
    ------
    TypeError
        If *obj* (or something nested in it) is of an unsupported type and
        does not provide ``__msg_bits__``.
    """
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, NodeId):
        return ID_BITS
    if isinstance(obj, int):
        return max(1, obj.bit_length()) + 1
    if isinstance(obj, float):
        return 64
    # NumPy scalars cost the same as the Python value they box, so batch
    # kernels that leak an np.int64/np.float32 into a payload (or into
    # node state later re-encoded) charge identical bits to the per-node
    # tiers.  np.float64 is a float subclass and is caught above; np.bool_
    # and the integer scalars are not subclasses of their Python kin.
    if isinstance(obj, np.bool_):
        return 1
    if isinstance(obj, np.integer):
        return max(1, int(obj).bit_length()) + 1
    if isinstance(obj, np.floating):
        return 64
    if isinstance(obj, (bytes, bytearray)):
        return 8 * len(obj) + _CONTAINER_FRAMING_BITS
    if isinstance(obj, str):
        return 8 * len(obj.encode("utf-8")) + _CONTAINER_FRAMING_BITS
    meth = getattr(obj, "__msg_bits__", None)
    if meth is not None:
        bits = meth() if callable(meth) else meth
        if not isinstance(bits, int) or bits < 0:
            raise TypeError(
                f"__msg_bits__ of {type(obj).__name__} must return a "
                f"non-negative int, got {bits!r}"
            )
        return bits
    if isinstance(obj, dict):
        total = _CONTAINER_FRAMING_BITS
        for key, value in obj.items():
            total += bit_size(key) + bit_size(value)
        return total
    if isinstance(obj, (tuple, list, set, frozenset)):
        total = _CONTAINER_FRAMING_BITS
        for item in obj:
            total += bit_size(item)
        return total
    raise TypeError(
        f"unsupported message type {type(obj).__name__!r}; add "
        f"__msg_bits__ to cost it explicitly"
    )
