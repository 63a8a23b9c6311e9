"""Property tests for the availability calendar.

The central invariant: for every server, the idle periods always
partition the complement of that server's committed reservations — no
overlaps, no gaps, regardless of the interleaving of allocations,
releases and clock advances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.types import INF, Request

TAU = 10.0
Q = 20
N = 4


@st.composite
def scripts(draw):
    """Interleaved schedule / advance / cancel operations."""
    n = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for i in range(n):
        kind = draw(st.sampled_from(["schedule", "schedule", "schedule", "advance", "release"]))
        if kind == "schedule":
            lead = draw(st.sampled_from([0.0, 0.0, 15.0, 40.0]))
            lr = draw(st.floats(min_value=1.0, max_value=60.0, allow_nan=False, width=32))
            nr = draw(st.integers(min_value=1, max_value=N))
            ops.append(("schedule", lead, lr, nr))
        elif kind == "advance":
            ops.append(("advance", draw(st.floats(min_value=0.0, max_value=25.0, width=32)), 0, 0))
        else:
            ops.append(("release", draw(st.integers(0, 10**6)), 0, 0))
    return ops


def check_partition(cal: AvailabilityCalendar, reservations_by_server: dict[int, list]):
    """Idle periods + live reservations must tile [horizon_start, inf) per server."""
    for server in range(N):
        pieces = []
        for p in cal.idle_periods(server):
            pieces.append((p.st, p.et, "idle"))
        for s, e in reservations_by_server.get(server, []):
            if e > cal.horizon_start:  # history before the horizon is trimmed
                pieces.append((max(s, cal.horizon_start), e, "busy"))
        pieces.sort()
        # pieces must be non-overlapping and contiguous, ending at infinity
        for (s1, e1, _), (s2, e2, _) in zip(pieces, pieces[1:]):
            assert e1 == s2, f"server {server}: gap or overlap between {e1} and {s2}"
        assert pieces, f"server {server} has no coverage at all"
        assert pieces[-1][1] == INF, f"server {server} does not extend to infinity"


class TestPartitionInvariant:
    @given(script=scripts())
    @settings(max_examples=150, deadline=None)
    def test_idle_periods_tile_the_complement(self, script):
        cal = AvailabilityCalendar(N, TAU, Q)
        alloc = OnlineCoAllocator(cal, delta_t=TAU, r_max=6)
        reservations: dict[int, list] = {s: [] for s in range(N)}
        live = []  # (rid, allocation)
        rid = 0
        for kind, a, b, c in script:
            if kind == "schedule":
                req = Request(qr=cal.now, sr=cal.now + a, lr=b, nr=c, rid=rid)
                rid += 1
                result = alloc.schedule(req)
                if result is not None:
                    live.append(result)
                    for server in result.servers:
                        reservations[server].append((result.start, result.end))
            elif kind == "advance":
                cal.advance(cal.now + a)
            else:  # release a still-active allocation in its entirety
                future = [
                    x for x in live if x.start >= cal.now
                ]
                if future:
                    chosen = future[int(a) % len(future)]
                    live.remove(chosen)
                    for server in chosen.servers:
                        cal.release(server, chosen.start, chosen.end)
                        reservations[server].remove((chosen.start, chosen.end))
            cal.validate()
            check_partition(cal, reservations)

    @given(script=scripts())
    @settings(max_examples=75, deadline=None)
    def test_feasibility_never_contradicts_idle_lists(self, script):
        """find_feasible's verdict must match a scan of the idle lists."""
        cal = AvailabilityCalendar(N, TAU, Q)
        alloc = OnlineCoAllocator(cal, delta_t=TAU, r_max=6)
        rid = 0
        for kind, a, b, c in script:
            if kind == "schedule":
                req = Request(qr=cal.now, sr=cal.now + a, lr=b, nr=c, rid=rid)
                rid += 1
                alloc.schedule(req)
            elif kind == "advance":
                cal.advance(cal.now + a)
            # probe a few windows
            for offset, dur in [(0.0, 5.0), (13.0, 30.0), (55.0, 90.0)]:
                sr = cal.now + offset
                er = sr + dur
                if not cal.in_horizon(sr):
                    continue
                for nr in (1, N):
                    found = cal.find_feasible(sr, er, nr)
                    manual = sum(
                        1
                        for s in range(N)
                        if any(p.is_feasible(sr, er) for p in cal.idle_periods(s))
                    )
                    if manual >= nr:
                        assert found is not None and len(found) == nr
                    else:
                        assert found is None


JUMP_Q = 5


@st.composite
def carved_calendars(draw):
    """A small calendar with bounded idle periods carved inside the
    horizon (reservations may *end* far beyond it), some slot trees read
    and some only written."""
    cal = AvailabilityCalendar(
        N, TAU, JUMP_Q, start_time=draw(st.sampled_from([0.0, 7.0, 30.0]))
    )
    for _ in range(draw(st.integers(0, 14))):
        server = draw(st.integers(0, N - 1))
        trailing = cal.idle_periods(server)[-1]
        gap = draw(st.sampled_from([0.0, 3.0, 10.0, 25.0, 70.0]))
        dur = draw(st.sampled_from([2.0, 10.0, 33.0]))
        start = max(trailing.st, cal.now) + gap
        if start < cal.horizon_end:
            cal.allocate([trailing], start, start + dur)
    if draw(st.booleans()):
        cal.drain(draw(st.integers(0, N - 1)))
    reads = draw(st.lists(st.integers(0, JUMP_Q - 1), max_size=3))
    return cal, reads


def _clone(cal: AvailabilityCalendar, reads: list[int]) -> AvailabilityCalendar:
    """Same periods under the same uids; the same slots searched."""
    clone = AvailabilityCalendar.from_state(cal.export_state())
    for offset in reads:
        clone.find_feasible(clone.horizon_start + offset * TAU + 1.0, INF, 1)
    return clone


def _derived_state(cal: AvailabilityCalendar):
    return {
        "base": cal._base_slot,
        "trees": {q: sorted(p.uid for p in t.periods()) for q, t in cal._trees.items()},
        "tail": list(cal._inf_keys),
    }


class TestAdvanceJump:
    @given(built=carved_calendars(), jump=st.integers(1, 3 * JUMP_Q + 1))
    @settings(max_examples=200, deadline=None)
    def test_one_jump_equals_slot_by_slot_stepping(self, built, jump):
        cal, reads = built
        jumped, stepped = _clone(cal, reads), _clone(cal, reads)
        origin = jumped.horizon_start
        jumped.advance(origin + jump * TAU)
        for k in range(1, jump + 1):
            stepped.advance(origin + k * TAU)
        jumped.validate()
        stepped.validate()
        assert jumped.export_state() == stepped.export_state()
        assert _derived_state(jumped) == _derived_state(stepped)
        active = set(range(jumped._base_slot, jumped._base_slot + JUMP_Q))
        assert set(jumped._trees) <= active
