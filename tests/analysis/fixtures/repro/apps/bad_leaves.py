"""Fixture: exactly one RA007 violation (the sorted leaves reached)."""


def first_start(tree):
    return tree._leaves[0][0]
