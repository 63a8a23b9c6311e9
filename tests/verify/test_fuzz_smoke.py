"""Differential fuzz smoke: short streams from every profile must run
lock-step against the reference scheduler with zero divergences.

The CI fuzz job runs the long campaigns; this in-suite smoke keeps the
oracle, generator and differ wired together on every test run.
"""

from __future__ import annotations

import random

import pytest

from repro.service.state import accepted_checksum
from repro.verify.differ import OracleDriver, run_stream
from repro.verify.genstream import PROFILES, Stream, generate_stream

SMOKE_OPS = 250
SMOKE_SEEDS = (0, 1)


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_profile_stream_has_no_divergence(profile: str, seed: int) -> None:
    stream = generate_stream(profile, seed, SMOKE_OPS)
    result = run_stream(stream, state_stride=25)
    assert result.divergence is None, result.divergence.describe()
    assert result.ops_run == SMOKE_OPS


def test_generation_is_deterministic() -> None:
    a = generate_stream("dense", 3, 80)
    b = generate_stream("dense", 3, 80)
    assert a.ops == b.ops
    assert a.config == b.config


def test_streams_exercise_every_op_kind() -> None:
    kinds = {op["kind"] for op in generate_stream("dense", 0, 400).ops}
    assert kinds == {"reserve", "probe", "cancel", "restore"}


def test_run_tallies_add_up() -> None:
    stream = generate_stream("sparse", 2, 300)
    result = run_stream(stream, state_stride=50)
    assert result.divergence is None
    reserves = sum(1 for op in stream.ops if op["kind"] == "reserve")
    assert result.accepted + result.rejected == reserves
    assert result.probes == sum(1 for op in stream.ops if op["kind"] == "probe")
    assert result.restores == sum(1 for op in stream.ops if op["kind"] == "restore")


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_scale_event_stream_has_no_divergence(profile: str, seed: int) -> None:
    stream = generate_stream(profile, seed, SMOKE_OPS, scale_events=True)
    assert stream.meta == {"scale_events": True}
    result = run_stream(stream, state_stride=25)
    assert result.divergence is None, result.divergence.describe()
    assert result.scale_ops > 0


def test_scale_events_off_is_bit_identical_to_before() -> None:
    """The flag must not perturb historic streams: every (profile, seed,
    ops) triple generated without scale events is the exact stream the
    corpus and the long-running CI campaigns were built on."""
    assert generate_stream("dense", 3, 80).ops == generate_stream(
        "dense", 3, 80, scale_events=False
    ).ops


def test_scale_event_generation_is_deterministic() -> None:
    a = generate_stream("sparse", 5, 300, scale_events=True)
    b = generate_stream("sparse", 5, 300, scale_events=True)
    assert a.ops == b.ops
    kinds = {op["kind"] for op in a.ops}
    assert {"add_servers", "drain", "remove", "pool_status"} <= kinds


def test_scale_event_streams_exercise_refusals() -> None:
    """The generator must deliberately produce malformed counts and
    out-of-range servers — refusal verdicts are compared against the
    oracle like any other decision, so they need traffic."""
    ops = generate_stream("dense", 0, 1500, scale_events=True).ops
    adds = [op for op in ops if op["kind"] == "add_servers"]
    drains = [op for op in ops if op["kind"] == "drain"]
    assert any(op["count"] <= 0 for op in adds)
    assert any(op["count"] > 0 for op in adds)
    assert drains



def shuffled_in_windows(stream: Stream, window: int = 4, seed: int = 0) -> Stream:
    """``stream`` with its ops shuffled within fixed windows: an
    at-least-once client's retry storm.  A cancel can then arrive before
    the reserve it names, which ``genstream`` alone never sends."""
    rng = random.Random(f"repro-chaos:{seed}")
    ops = list(stream.ops)
    for base in range(0, len(ops), window):
        block = ops[base : base + window]
        rng.shuffle(block)
        ops[base : base + window] = block
    return Stream(stream.config, ops, stream.profile, stream.seed)


def cancels_ahead_of_their_reserve(ops: list[dict]) -> int:
    reserved: set[int] = set()
    early = 0
    for op in ops:
        if op["kind"] == "reserve":
            reserved.add(op["rid"])
        elif op["kind"] == "cancel" and op["rid"] not in reserved:
            early += 1
    return early


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_stream_shuffled_within_windows_has_no_divergence(profile: str) -> None:
    """Verdicts are a function of the op order, so a reordered stream
    still runs lock-step with the oracle; a cancel of a rid not yet
    reserved must leave that rid free to be decided."""
    stream = shuffled_in_windows(generate_stream(profile, 0, 400), window=8)
    assert cancels_ahead_of_their_reserve(stream.ops) > 0
    result = run_stream(stream, state_stride=25)
    assert result.divergence is None, result.divergence.describe()
    assert result.ops_run == 400


@pytest.mark.parametrize(
    ("scale_events", "shuffled", "checksum"),
    [(False, True, "57946e1254dce3e6"), (True, False, "82cdd5f7315ed592")],
    ids=["reorder", "scale-events"],
)
def test_a_retired_chaos_plan_stream_keeps_its_checksum(
    scale_events: bool, shuffled: bool, checksum: str
) -> None:
    """The streams the retired ``reorder`` and ``scale-events`` chaos
    plans sent to a real server (``--ops 400 --seed 0 --profile dense``,
    restores dropped; ``reorder`` shuffled in windows of 4) run
    lock-step in process and accept the set each plan pinned."""
    plain = generate_stream("dense", 0, 400, scale_events=scale_events)
    ops = [op for op in plain.ops if op["kind"] != "restore"]
    stream = Stream(plain.config, ops, "dense", 0)
    if shuffled:
        stream = shuffled_in_windows(stream)
    result = run_stream(stream, state_stride=25)
    assert result.divergence is None, result.divergence.describe()
    driver = OracleDriver(stream.config)
    for op in stream.ops:
        driver.apply(op)
    assert accepted_checksum(driver.decided) == checksum


@pytest.mark.slow
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_long_stream_has_no_divergence(profile: str) -> None:
    stream = generate_stream(profile, 0, 3000)
    result = run_stream(stream, state_stride=200)
    assert result.divergence is None, result.divergence.describe()


@pytest.mark.slow
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_long_scale_event_stream_has_no_divergence(profile: str) -> None:
    stream = generate_stream(profile, 0, 3000, scale_events=True)
    result = run_stream(stream, state_stride=200)
    assert result.divergence is None, result.divergence.describe()
