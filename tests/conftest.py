import pytest

from circulant_qft import _kernels
from circulant_qft.models import build_four_level
from circulant_qft.schedule import PulsePair, Schedule


@pytest.fixture()
def propagated_steps(monkeypatch):
    """Exponentials applied by _kernels.propagate during the test, as [total]."""
    total = [0]
    original = _kernels.propagate

    def counting(h0, h1, a, b, dts, sample_idx, **kwargs):
        total[0] += len(a)
        return original(h0, h1, a, b, dts, sample_idx, **kwargs)

    monkeypatch.setattr(_kernels, "propagate", counting)
    return total


@pytest.fixture(scope="session")
def paper_model():
    """Four-level system at the operating point of the fidelity figure:
    V = E(1 + i/3), E = 10/T, T = 1."""
    energy = 10.0
    return build_four_level(energy, energy * (1 + 1j / 3))


@pytest.fixture(scope="session")
def paper_pulses():
    return PulsePair(T=1.0, tau=1.0)


@pytest.fixture()
def paper_schedule(paper_model, paper_pulses):
    h0, h1 = paper_model
    return Schedule(pulses=paper_pulses, h0=h0, h1=h1)
