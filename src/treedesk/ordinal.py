"""Ordinals below w^w in Cantor normal form.

An ordinal is a sum  c_k * w^e_k + ... + c_0 * w^e_0  with strictly
decreasing natural exponents and positive natural coefficients.  These
serve as node levels; the only arithmetic needed is comparison,
successor / predecessor, the greatest limit ordinal below, and the
finite remainder.  By convention 0 is a limit ordinal.

Text grammar (used by all file formats):

    ordinal := "0" | term ("+" term)*
    term    := "w" ("^" nat)? ("*" nat)? | nat
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from .errors import BadArgument, TreedeskError


class NotASuccessor(TreedeskError, ValueError):
    """Raised when predecessor() is applied to a limit ordinal."""


class OrdinalParseError(TreedeskError, ValueError):
    """Raised on malformed ordinal literals."""


_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    # (exponent, coefficient) pairs, exponents strictly decreasing.
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise BadArgument("bad CNF term (%r, %r)" % (e, c))
            if last is not None and e >= last:
                raise BadArgument("CNF exponents must strictly decrease")
            last = e

    # -- constructors ------------------------------------------------

    @classmethod
    def nat(cls, n: int) -> "Ordinal":
        if n < 0:
            raise BadArgument("natural expected")
        return cls(() if n == 0 else ((0, n),))

    @classmethod
    def omega(cls, exponent: int = 1, coefficient: int = 1) -> "Ordinal":
        return cls(((exponent, coefficient),))

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        s = text.strip()
        if s == "0":
            return cls()
        total: list[tuple[int, int]] = []
        for part in s.split("+"):
            m = _TERM_RE.match(part.strip())
            if m is None:
                raise OrdinalParseError("bad ordinal term %r in %r" % (part, text))
            if m.group(3) is not None:
                e, c = 0, int(m.group(3))
                if c == 0:
                    raise OrdinalParseError("zero term in %r" % (text,))
            else:
                e = int(m.group(1)) if m.group(1) is not None else 1
                c = int(m.group(2)) if m.group(2) is not None else 1
                if c == 0:
                    raise OrdinalParseError("zero coefficient in %r" % (text,))
            total.append((e, c))
        # left-absorption of ordinal addition: drop terms dominated on the right,
        # merge equal neighbours
        out: list[tuple[int, int]] = []
        for e, c in total:
            while out and out[-1][0] < e:
                out.pop()
            if out and out[-1][0] == e:
                out[-1] = (e, out[-1][1] + c)
            else:
                out.append((e, c))
        return cls(tuple(out))

    # -- formatting --------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                t = "w" if e == 1 else "w^%d" % e
                if c != 1:
                    t += "*%d" % c
                parts.append(t)
        return "+".join(parts)

    def __repr__(self) -> str:
        return "Ordinal(%s)" % self

    # -- order -------------------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        # lexicographic on the term list; a proper prefix is smaller
        return self.terms < other.terms

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_limit(self) -> bool:
        return not self.terms or self.terms[-1][0] > 0

    @property
    def is_successor(self) -> bool:
        return not self.is_limit

    def successor(self) -> "Ordinal":
        return self.plus(1)

    def predecessor(self) -> "Ordinal":
        if self.is_limit:
            raise NotASuccessor("%s is a limit ordinal" % self)
        e, c = self.terms[-1]
        if c == 1:
            return _derived(self.terms[:-1])
        return _derived(self.terms[:-1] + ((0, c - 1),))

    def limb(self) -> "Ordinal":
        """The largest limit ordinal <= self."""
        if self.is_limit:
            return self
        return _derived(self.terms[:-1])

    def mod_omega(self) -> int:
        """The finite n with self = limb(self) + n."""
        if self.is_limit:
            return 0
        return self.terms[-1][1]

    def next_limit(self) -> "Ordinal":
        """The least limit ordinal strictly above self."""
        base = self.limb()
        if not base.terms:
            return _derived(((1, 1),))
        e, c = base.terms[-1]
        if e == 1:
            return _derived(base.terms[:-1] + ((1, c + 1),))
        return _derived(base.terms + ((1, 1),))

    def plus(self, n: int) -> "Ordinal":
        if n < 0:
            raise BadArgument("natural expected")
        if n == 0:
            return self
        if self.is_limit:
            return _derived(self.terms + ((0, n),))
        e, c = self.terms[-1]
        return _derived(self.terms[:-1] + ((0, c + n),))


def _derived(terms: tuple[tuple[int, int], ...]) -> Ordinal:
    """An Ordinal on terms computed from a valid ordinal's, so in CNF
    already: it skips the dataclass __init__ and the check in
    __post_init__."""
    o = object.__new__(Ordinal)
    object.__setattr__(o, "terms", terms)
    return o


ZERO = Ordinal()
OMEGA = Ordinal.omega()
