import ctypes

from hypothesis import given
from hypothesis import strategies as st

from benchtop.seeds import (
    MASK64,
    description_seed,
    env_seed,
    mix,
    scene_seed,
    splitmix64,
    trial_seed,
)

_GOLDEN = 0x9E3779B97F4A7C15

# first five outputs of the reference generator seeded with 1234567
_REFERENCE_SEQUENCE = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def _reference_splitmix64(x: int) -> int:
    # independent implementation: ctypes.c_uint64 wraps every result to 64 bits
    def u64(v: int) -> int:
        return ctypes.c_uint64(v).value

    z = u64(x + _GOLDEN)
    z = u64((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9)
    z = u64((z ^ (z >> 27)) * 0x94D049BB133111EB)
    return z ^ (z >> 31)


def test_known_sequence():
    state = 1234567
    outputs = []
    for _ in range(5):
        outputs.append(splitmix64(state))
        state = (state + _GOLDEN) & MASK64
    assert outputs == _REFERENCE_SEQUENCE


@given(st.integers(min_value=0, max_value=MASK64))
def test_matches_independent_implementation(x):
    assert splitmix64(x) == _reference_splitmix64(x)


def test_streams_are_disjoint():
    """The four derivation streams never collide on small indices."""
    seen = set()
    for master in (0, 1, 42, 2**63):
        seen.add(description_seed(master))
        for i in range(50):
            seen.add(scene_seed(master, i))
            seen.add(env_seed(master, i))
            for j in range(5):
                seen.add(trial_seed(master, i, j))
    # 4 masters x (1 + 50 + 50 + 250) distinct derivations
    assert len(seen) == 4 * (1 + 50 + 50 + 250)


def test_mix_depends_on_order():
    assert mix(1, 2) != mix(2, 1)
    assert mix(0) != mix(0, 0)


@given(st.integers(min_value=0, max_value=MASK64))
def test_outputs_stay_in_64_bits(x):
    assert 0 <= splitmix64(x) <= MASK64
