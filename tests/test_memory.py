"""Window buffer tests against a naive trailing-slice oracle."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from evdetect.memory import Reading, StreamState

T0 = datetime(2018, 1, 1)


def _reading(i: int) -> Reading:
    return Reading(T0 + timedelta(minutes=i), float(i))


def _push_all(state: StreamState, n: int) -> list[Reading]:
    readings = [_reading(i) for i in range(n)]
    for r in readings:
        state.push(r)
    return readings


def _held(state: StreamState) -> list[Reading]:
    """The readings a stream holds, oldest first: its timestamps with the
    last len(times) entries of its power array."""
    return list(map(Reading, state.times, state.power[state.power.size - len(state.times) :].tolist()))


def test_first_push():
    s = StreamState(lm=2, gm=3)
    assert s.push(_reading(1)) is None
    assert _held(s) == [_reading(1)]


def test_spill_into_global():
    s = StreamState(lm=2, gm=3)
    r = [_reading(i) for i in range(3)]
    assert [s.push(x) for x in r] == [None, None, r[0]]
    assert _held(s) == [r[0], r[1], r[2]]


def test_global_eviction_discards_oldest():
    s = StreamState(lm=2, gm=3)
    r = [_reading(i) for i in range(6)]
    assert [s.push(x) for x in r] == [None, None, r[0], r[1], r[2], r[3]]
    assert _held(s) == [r[1], r[2], r[3], r[4], r[5]]


def test_snapshot_boundary():
    s = StreamState(lm=2, gm=3)
    _push_all(s, 4)  # lm+gm-1
    assert s.snapshot() is None
    s.push(_reading(4))
    snap = s.snapshot()
    assert snap is not None
    lm, gm = snap
    assert [r.power for r in gm + lm] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_default_window_lengths():
    s = StreamState(lm=8, gm=32)
    _push_all(s, 40)
    lm, gm = s.snapshot()
    assert (len(lm), len(gm)) == (8, 32)


def test_lm_must_be_less_than_gm():
    with pytest.raises(ValueError):
        StreamState(lm=8, gm=8)
    with pytest.raises(ValueError):
        StreamState(lm=0, gm=4)


def test_snapshot_matches_slice_oracle_randomized():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        lm = int(rng.integers(1, 6))
        gm = int(rng.integers(lm + 1, 12))
        n = int(rng.integers(0, lm + gm + 20))
        s = StreamState(lm, gm)
        seq = [_reading(i) for i in range(n)]
        spilled = [s.push(r) for r in seq]
        assert spilled == [seq[i - lm] if i >= lm else None for i in range(n)]
        assert _held(s) == seq[-(lm + gm) :]
        assert s.power.size == lm + gm and not s.power[: lm + gm - len(s.times)].any()
        snap = s.snapshot()
        if n < lm + gm:
            assert snap is None
        else:
            lm_win, gm_win = snap
            assert gm_win + lm_win == seq[-(lm + gm) :]
            assert lm_win == seq[-lm:]


def test_restore_matches_push_oracle_randomized():
    rng = np.random.default_rng(4321)
    for _ in range(300):
        lm = int(rng.integers(1, 6))
        gm = int(rng.integers(lm + 1, 12))
        seen = int(rng.integers(0, lm + gm + 20))
        pushed = StreamState(lm, gm)
        _push_all(pushed, seen)
        restored = StreamState(lm, gm)
        restored.restore(list(pushed.times), [r.power for r in _held(pushed)], seen)
        assert restored.times == pushed.times and restored.times.maxlen == lm + gm
        assert restored.power.tobytes() == pushed.power.tobytes()
        assert restored.total_seen == seen and restored.snapshot() == pushed.snapshot()


@pytest.mark.parametrize(
    "n, total_seen",
    [(6, 5), (4, 5), (8, 9), (3, 100), (5, 5.0), (1, True)],
    ids=["more-than-seen", "fewer-than-seen", "more-than-lm-plus-gm", "short-with-many-seen", "float-seen", "bool-seen"],
)
def test_restore_rejects_counts_pushes_cannot_leave(n, total_seen):
    s = StreamState(lm=2, gm=5)
    with pytest.raises(ValueError, match="readings, not min"):
        s.restore([_reading(i).t for i in range(n)], [float(i) for i in range(n)], total_seen)


@pytest.mark.parametrize("n_powers", [2, 4, 1, 0])
def test_restore_rejects_powers_of_another_length_than_times(n_powers):
    s = StreamState(lm=2, gm=5)
    with pytest.raises(ValueError, match=f"has 3 timestamps but {n_powers} powers"):
        s.restore([_reading(i).t for i in range(3)], [float(i) for i in range(n_powers)], 3)
    assert not s.times and s.total_seen == 0


def test_restore_copies_the_powers():
    s = StreamState(lm=2, gm=3)
    powers = np.arange(5.0)
    s.restore([_reading(i).t for i in range(5)], powers, 5)
    powers[:] = -1.0
    assert _held(s) == [_reading(i) for i in range(5)]
