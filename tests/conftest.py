import numpy as np
import pytest

from gpgait.pose_io import PoseSequence
from gpgait.synth import CameraSpec, GaitIdentitySpec, template_frame

# filled by the acceptance suite; echoed after the test summary so the
# per-criterion lines survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

DEFAULT_IDENTITY = GaitIdentitySpec(
    identity="fixture",
    limb_ratios={},
    stride_period=18,
    stride_amplitude=0.4,
    arm_amplitude=0.3,
)


def walker_frame(phase=0.7, identity=DEFAULT_IDENTITY) -> np.ndarray:
    """Upright 17x2 frame with all joints distinct; spine exactly vertical."""
    return template_frame(identity, phase)


def sequence_from_coords(frames, seq_id="seq", subject="subj",
                         condition="NM", view="000") -> PoseSequence:
    coords = np.asarray(frames, dtype=np.float64)
    conf = np.ones(coords.shape[:-1] + (1,))
    return PoseSequence(
        seq_id=seq_id, subject=subject, condition=condition, view=view,
        frames=np.concatenate([coords, conf], axis=-1))


def random_frame(rng, spread=60.0) -> np.ndarray:
    """Random non-degenerate frame: jittered walker pose."""
    base = walker_frame(phase=rng.uniform(0, 2 * np.pi))
    return base + rng.normal(0.0, spread * 0.05, size=base.shape)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def toy_camera():
    return CameraSpec(scale=1.0, tx=0.0, ty=0.0, slant=0.0, jitter_sigma=0.5)
