"""The sector-layout particle readers against the kron path they replaced.

`apparatus._read_spin` gives `decohere` its cross term <up|sigma_x|dn> and
the external streak each branch's particle <S>; `apparatus._read_shot`
gives the internal streak its shot.  The oracle is the public kron path:
`premeasure` -> `decompose_branches` -> `partial_trace`, a `vdot` with the
particle flip, and the premeasured amplitudes themselves.  Values are
compared bit for bit where the two paths agree exactly, and the one that
does not (the branch <Sz>, a sum in another order) within 1e-15 relative.
"""

import numpy as np
import pytest

import spinledger as sl
from spinledger import apparatus
from spinledger.kernel import partial_trace
from dense_oracle import spin_matrices

R = 2 ** -0.5
LS = [0.5, 1, 4.5, 40, 1000]
SPINORS = [(R, R), (0.6, 0.8j), (1.0, 0.0)]
S = spin_matrices(sl.spin_operators(0.5))[:3]


def flip_particle(v):
    """(sigma_x (x) 1) v over particle (x) apparatus."""
    return v.reshape(2, -1)[::-1].reshape(-1)


@pytest.mark.parametrize("spinor", SPINORS)
@pytest.mark.parametrize("L", LS)
def test_read_spin_matches_the_kron_path(L, spinor):
    sys_m = sl.build_measurement_unitary(L)
    coeffs, present, spins = apparatus._read_spin(*spinor, sys_m.stack)
    decomp = sl.decompose_branches(sl.premeasure(*spinor, sys_m), sys_m)
    branches = {label: (c, state) for c, state, label in decomp.branches}
    assert present.tolist() == [label in branches for label in ("up", "dn")]
    for r, label in enumerate(("up", "dn")):
        if label not in branches:
            assert coeffs[r] == 0.0
            continue
        c, state = branches[label]
        assert coeffs[r] == c
        rho = partial_trace(state, keep=[0])
        sx, sy, sz = (np.trace(rho @ op).real for op in S)
        assert spins[r, :2].real.tolist() == [sx, sy], (label, spins[r])
        assert abs(spins[r, 2].real - sz) <= 1e-15 * abs(sz), (label, spins[r, 2], sz)
    if len(branches) == 2:
        up, dn = branches["up"][1], branches["dn"][1]
        want = complex(np.vdot(up.amplitudes, flip_particle(dn.amplitudes)))
        got = complex(2 * spins[2, 0])
        assert (got.real, got.imag) == (want.real, want.imag)


@pytest.mark.parametrize("L", LS)
def test_read_shot_matches_premeasure(L):
    sys_m = sl.build_measurement_unitary(L)
    shots, slots, jz = apparatus._read_shot(sys_m)
    d = sys_m.dims[1]
    # (row, record, input) over particle (x) apparatus, in the kron layout
    kron = np.stack([sl.premeasure(a, b, sys_m).amplitudes.reshape(2 * d, 2)
                     for a, b in ((1.0, 0.0), (0.0, 1.0))], axis=-1)
    # sector rows (slot, sector) as kron rows (particle, level): the
    # phantoms hold +0 and are dropped
    sectors = shots.reshape(2, 2, d + 1, 2)
    assert not sectors[:, 0, -1].any() and not sectors[:, 1, 0].any()
    assert slots.flags.c_contiguous
    for r in range(2):
        as_kron = np.concatenate([sectors[r, 0, :-1], sectors[r, 1, 1:]])
        assert as_kron.tobytes() == kron[:, r].tobytes()
        assert slots[r].tobytes() == kron[[0, 1, d, d + 1], r].tobytes()
        gram, want = (x.conj().T @ x for x in (shots[r], kron[:, r]))
        assert np.max(np.abs(gram - want)) <= 1e-15 * np.max(np.abs(want))
    assert jz.tolist() == np.add.outer(sys_m.spin_half.m, sys_m.spin_app.m[:2]).ravel().tolist()
