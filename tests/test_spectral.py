import numpy as np
import pytest

from expinstab.conductivity import fourier_degrees
from expinstab.spectral import enumerate_basis


class TestEnumeration:
    def test_full_circle_constant_only(self):
        elems = enumerate_basis(0)
        assert len(elems) == 1 and elems[0].degree == 0.0

    def test_full_circle_n3_has_seven(self):
        elems = enumerate_basis(3)
        assert len(elems) == 7
        assert [e.degree for e in elems] == [0, 1, 1, 2, 2, 3, 3]
        assert [e.parity for e in elems[1:3]] == ["cos", "sin"]

    def test_degrees_nondecreasing_everywhere(self):
        for n_max in (0, 1, 9, 45):
            degrees = [e.degree for e in enumerate_basis(n_max)]
            assert degrees == sorted(degrees)

    @pytest.mark.parametrize("n_max", [0, 1, 3, 12, 32, 45])
    def test_degrees_are_fourier_degrees(self, n_max):
        # the net counts fourier_degrees and the far field projects on this
        # enumeration: both read one order [1, cos 1, sin 1, ...]
        elems = enumerate_basis(n_max)
        assert [e.degree for e in elems] == list(fourier_degrees(n_max))
        assert [e.index for e in elems] == list(range(2 * n_max + 1))


class TestEigenfunctions:
    def test_trace_orthonormality(self):
        # Gram matrix within 1e-8 of the identity at 4096 points
        elems = enumerate_basis(12)
        theta = 2 * np.pi * np.arange(4096) / 4096
        traces = np.stack([e.trace(theta) for e in elems])
        gram = (traces * (2 * np.pi / 4096)) @ traces.T
        assert np.abs(gram - np.eye(len(elems))).max() <= 1e-8
