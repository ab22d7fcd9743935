"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def inexact_fft_34(monkeypatch):
    """Put every transform count over F_3^4 0.3 off an integer.

    The transform takes one FFT per digit axis; 0.3*p is added to the output
    of the fourth and last.  Returns the axes of the calls made.
    """
    fft, calls = np.fft.fft, []

    def fft_off(a, axis=-1):
        calls.append(axis)
        return fft(a, axis=axis) + (0.3 * 3 if len(calls) == 4 else 0)

    monkeypatch.setattr(np.fft, "fft", fft_off)
    return calls
