"""Parsing for the bit-exact text notation of elements.

Partial injections print their target list with ``-`` holes, e.g.
``[2,-,3,5,-]``.  Set partitions print their blocks in canonical order,
``{1,2,1'}|{3,2',3'}``; the empty partition is ``{}``.  The adjoined
zero of the hat deformation prints as ``0``.  Formatting is the
``str()`` of the element types; this module supplies the inverse
direction plus per-family validation.
"""

from .diagrams import (
    HatElement,
    PartialInjection,
    SetPartition,
    canonicalize,
    is_dual_element,
    is_partial_dual_element,
    primed,
    unprimed,
)

FAMILIES = ("is", "istar", "pistar", "hat", "tilde", "composition")


class NotationError(ValueError):
    """Malformed element text; ``position`` is the offending char offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_partial_injection(text: str, n: int | None = None) -> PartialInjection:
    """Parse ``[t1,...,tn]`` with ``-`` holes; n defaults to the length."""
    s = text.strip()
    if not s.startswith("["):
        raise NotationError("expected '['", _offset(text, 0))
    if not s.endswith("]"):
        raise NotationError("expected ']'", len(text) - 1)
    body = s[1:-1].strip()
    targets = []
    if body:
        pos = _offset(text, 1)
        for piece in body.split(","):
            stripped = piece.strip()
            if stripped == "-":
                targets.append(None)
            elif _is_number(stripped):
                targets.append(int(stripped))
            else:
                raise NotationError(f"bad target {stripped!r}", pos)
            pos += len(piece) + 1
    if n is not None and len(targets) != n:
        raise NotationError(f"expected {n} targets, got {len(targets)}", 0)
    try:
        return PartialInjection(targets)
    except ValueError as e:
        raise NotationError(str(e), 0) from e


def parse_set_partition(text: str, k: int) -> SetPartition:
    """Parse ``{...}|{...}`` block notation into a canonical partition."""
    s = text.strip()
    if s == "{}":
        return SetPartition.empty(k)
    blocks = []
    pos = 0
    for chunk in s.split("|"):
        c = chunk.strip()
        if not (c.startswith("{") and c.endswith("}")):
            raise NotationError("block must be brace-delimited", _offset(text, pos))
        inner = c[1:-1].strip()
        if not inner:
            raise NotationError("empty block", _offset(text, pos))
        block = []
        for piece in inner.split(","):
            p = piece.strip()
            if p.endswith("'"):
                digits, maker = p[:-1], primed
            else:
                digits, maker = p, unprimed
            if not _is_number(digits):
                raise NotationError(f"bad point {p!r}", _offset(text, pos))
            block.append(maker(int(digits)))
        blocks.append(block)
        pos += len(chunk) + 1
    try:
        return canonicalize(blocks, k)
    except ValueError as e:
        raise NotationError(str(e), 0) from e


def parse_element(text: str, family: str, ambient: int):
    """Parse element text and validate it against the requested family.

    ``ambient`` is n for the ``is`` family and k otherwise.  Family
    ``hat`` additionally accepts the bare zero ``0``; ``composition``
    accepts any set partition (partial ones embed by completion later).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    s = text.strip()
    if family == "is":
        return parse_partial_injection(s, ambient)
    if family == "hat" and s == "0":
        return HatElement.zero(ambient)
    p = parse_set_partition(s, ambient)
    if family == "istar" and not is_dual_element(p):
        raise NotationError("not a dual element (must cover all points, "
                            "every block meeting both rows)", 0)
    if family in ("pistar", "tilde", "hat") and not is_partial_dual_element(p):
        raise NotationError("not a partial dual element (every block must "
                            "meet both rows)", 0)
    if family == "hat":
        return HatElement.wrap(p)
    return p


def _is_number(text: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also passes '²', which ``int`` refuses."""
    return text.isascii() and text.isdigit()


def _offset(text: str, stripped_pos: int) -> int:
    lead = len(text) - len(text.lstrip())
    return lead + stripped_pos
