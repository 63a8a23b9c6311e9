from repro.service.protocol import encode

from streams import WORKLOADS, build_stream


def _bytes(name: str, seed: int, count: int = 400) -> bytes:
    return b"".join(encode(m) for m in build_stream(WORKLOADS[name], seed, count))


def test_same_seed_gives_byte_identical_streams():
    for name in WORKLOADS:
        assert _bytes(name, 7) == _bytes(name, 7)


def test_another_seed_gives_another_stream():
    for name in WORKLOADS:
        assert _bytes(name, 7) != _bytes(name, 8)


def test_a_longer_stream_extends_a_shorter_one():
    w = WORKLOADS["mixed-tcp"]
    assert build_stream(w, 3, 500)[:200] == build_stream(w, 3, 200)


def test_http_workload_replays_the_tcp_stream():
    assert _bytes("mixed-http", 5) == _bytes("mixed-tcp", 5)


def test_mixed_stream_has_all_three_ops():
    ops = {m["op"] for m in build_stream(WORKLOADS["mixed-tcp"], 1, 400)}
    assert ops == {"reserve", "probe", "cancel"}
