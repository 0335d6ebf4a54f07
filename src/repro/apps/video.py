"""Video streaming model (the ffmpeg-based emulation of Sec. IV-A).

The use case establishes a bidirectional video stream whose frame
update cycle the services must keep up with: 60 FPS video gives a
16.6 ms frame interval ([12], [13]), and the game tolerates at most
20 ms round-trip latency [15].  The model covers frame pacing, codec
latency, and deadline-miss accounting over an RTT sample series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import units

__all__ = ["VideoStreamConfig", "FrameCycleAnalysis"]


@dataclass(frozen=True)
class VideoStreamConfig:
    """One direction of a real-time video stream."""

    fps: float = 60.0
    bitrate_bps: float = units.mbps(25.0)     #: 4K-ish real-time encode
    #: one-way codec latency (encode + decode), seconds
    codec_latency_s: float = 8e-3
    #: mean encoded frame size follows from rate and cadence

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError("frame rate must be positive")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if self.codec_latency_s < 0:
            raise ValueError("codec latency must be non-negative")

    @property
    def frame_interval_s(self) -> float:
        """Frame update cycle (16.6 ms at 60 FPS — the paper's figure)."""
        return 1.0 / self.fps


class FrameCycleAnalysis:
    """Deadline accounting of a frame stream against network RTTs.

    A frame is *late* when codec latency plus its network round trip
    exceeds the motion-to-photon budget; a late-frame burst longer than
    ``freeze_frames`` consecutive frames is a visible freeze.
    """

    def __init__(self, config: VideoStreamConfig, *,
                 budget_s: float = units.ms(20.0),
                 freeze_frames: int = 3):
        if budget_s <= 0:
            raise ValueError("budget must be positive")
        if freeze_frames < 1:
            raise ValueError("freeze threshold must be >= 1")
        self.config = config
        self.budget_s = budget_s
        self.freeze_frames = freeze_frames

    def frame_latencies(self, rtt_samples_s: np.ndarray) -> np.ndarray:
        """Per-frame display latency: codec + network RTT."""
        rtts = np.asarray(rtt_samples_s, dtype=np.float64)
        if rtts.size == 0:
            raise ValueError("no RTT samples supplied")
        return rtts + self.config.codec_latency_s

    def late_fraction(self, rtt_samples_s: np.ndarray) -> float:
        """Fraction of frames missing the motion-to-photon budget."""
        lat = self.frame_latencies(rtt_samples_s)
        return float((lat > self.budget_s).mean())

    def freeze_events(self, rtt_samples_s: np.ndarray) -> int:
        """Number of visible freezes (late-bursts of >= freeze_frames)."""
        late = self.frame_latencies(rtt_samples_s) > self.budget_s
        events = 0
        run = 0
        for is_late in late:
            run = run + 1 if is_late else 0
            if run == self.freeze_frames:
                events += 1
        return events

    def sustainable_fps(self, mean_rtt_s: float) -> float:
        """Highest frame rate whose interval covers the display latency.

        If the mean display latency already exceeds the budget the
        stream cannot meet any cadence and 0 is returned.
        """
        if mean_rtt_s < 0:
            raise ValueError("RTT must be non-negative")
        display = mean_rtt_s + self.config.codec_latency_s
        if display > self.budget_s:
            return 0.0
        return 1.0 / display
