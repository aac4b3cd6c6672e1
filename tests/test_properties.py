"""Metamorphic properties of the information values, over stacks of states.

Each example draws a small stack of seeded Haar-random states and checks an
invariant that no formula in the package states directly.  Hypothesis runs a
fixed number of derandomized examples, so the suite stays fast and repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mqinfo as mq
from mqinfo.measures import info_values
from mqinfo.reduction import subset_purity
from mqinfo.statekit import random_pure_stack

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
TOL = 1e-12

qubits = st.integers(min_value=1, max_value=6)
seeds = st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=6)


def _haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _apply_local(amps, unitaries):
    """(U_1 x ... x U_n) applied to each row of an amplitude stack."""
    n = len(unitaries)
    t = amps.reshape((len(amps),) + (2,) * n)
    for axis, u in enumerate(unitaries, start=1):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
    return t.reshape(len(amps), -1)


@PROPERTY
@given(n=qubits, state_seeds=seeds, unitary_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_local_unitaries_leave_every_value_unchanged(n, state_seeds, unitary_seed):
    amps = random_pure_stack(n, state_seeds)
    rng = np.random.default_rng(unitary_seed)
    turned = _apply_local(amps, [_haar_unitary(rng) for _ in range(n)])
    values, _ = info_values(amps)
    turned_values, _ = info_values(turned)
    np.testing.assert_allclose(turned_values, values, rtol=0, atol=TOL)


@PROPERTY
@given(n=qubits, state_seeds=seeds, data=st.data())
def test_qubit_permutation_permutes_subsets(n, state_seeds, data):
    perm = data.draw(st.permutations(range(n)))
    amps = random_pure_stack(n, state_seeds)
    # new qubit j+1 is old qubit perm[j]+1
    moved = amps.reshape((len(amps),) + (2,) * n).transpose(0, *(1 + a for a in perm))
    values, _ = info_values(amps)
    moved_values, _ = info_values(moved.reshape(len(amps), -1))
    masks = np.arange(1 << n)
    new_masks = sum(((masks >> a) & 1) << j for j, a in enumerate(perm))
    np.testing.assert_allclose(moved_values[:, new_masks], values, rtol=0, atol=TOL)


@PROPERTY
@given(n=st.integers(min_value=2, max_value=6), state_seeds=seeds)
def test_purities_symmetric_under_complement(n, state_seeds):
    amps = random_pure_stack(n, state_seeds)
    _, purities = info_values(amps)
    full = (1 << n) - 1
    np.testing.assert_allclose(purities[:, [0, full]], 1.0, rtol=0, atol=TOL)
    for row, seed in zip(purities, state_seeds):
        psi = mq.random_pure(n, seed)
        for mask in range(1, full):
            subset = [q + 1 for q in range(n) if mask >> q & 1]
            rest = [q + 1 for q in range(n) if not mask >> q & 1]
            # each side's own Schmidt-block gram, computed independently
            assert abs(row[mask] - subset_purity(psi, subset)) <= TOL
            assert abs(row[mask] - subset_purity(psi, rest)) <= TOL
            assert row[mask] == row[full ^ mask]
