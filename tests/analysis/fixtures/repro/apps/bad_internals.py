"""Fixture: exactly one RA007 violation (slot-tree internals reached)."""


def stored_uids(tree):
    return tree._by_uid
