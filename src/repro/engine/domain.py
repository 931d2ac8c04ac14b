"""``dom(R, DB)``: the constants Definition 3 grounds rule variables over.

Every engine grounds over the constants of its rulebase plus those of
the database at hand, in one fixed order (by payload type, then by
text), so that enumeration — and with it every counter and answer
listing — is deterministic.  Scanning a database for its constants
costs a pass over every stored fact, and the engines ask for the
domain of the same database many times in a row (each query, each
goal miss, each materialized model), so :class:`DomainMemo` remembers
the last few databases it was asked about.

Entries are found by identity (``is``), never by ``Database.__eq__``:
two equal databases built apart would cost a full content comparison
to match, which is the very work the memo saves.  A memo holds strong
references to its few databases, so an ``id`` can never be reused
while its entry is live.
"""

from __future__ import annotations

from typing import Iterable

from ..core.database import Database
from ..core.terms import Constant

__all__ = ["DomainMemo"]

#: Databases remembered per memo; enough to cover a query's database,
#: its Delta models and the enlarged database of one hypothesis.
_SLOTS = 4


def _order(constant: Constant) -> tuple[str, str]:
    return (str(type(constant.value)), str(constant.value))


class DomainMemo:
    """``dom(R, DB)`` for one rulebase, remembered per database object."""

    __slots__ = ("_rule_constants", "_recent")

    def __init__(self, rule_constants: Iterable[Constant]) -> None:
        self._rule_constants = frozenset(rule_constants)
        self._recent: list[tuple[Database, list[Constant], frozenset[Constant]]] = []

    def lookup(self, db: Database) -> tuple[list[Constant], frozenset[Constant]]:
        """The ordered domain of ``db`` and the same constants as a set.

        Callers share the returned list and must not mutate it.
        """
        for entry in self._recent:
            if entry[0] is db:
                return entry[1], entry[2]
        members = self._rule_constants | db.constants()
        ordered = sorted(members, key=_order)
        self._recent.insert(0, (db, ordered, members))
        del self._recent[_SLOTS:]
        return ordered, members
