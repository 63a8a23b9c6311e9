"""Fixture: near-miss patterns that every rule must leave alone."""


def near_misses(values: list[float], st: float, tau: float) -> float:
    values.pop()  # back pop is O(1)
    values.pop(1)  # not the front
    ordered = sorted(values)  # single sort outside any loop
    q = int(st // tau)
    while q * tau > st:  # ordered comparison against the product, no modulo
        q -= 1
    return ordered[0] + q
