"""Pinhole camera: intrinsics, world-to-camera extrinsics, image size."""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray          # (3, 3) world-to-camera
    translation: np.ndarray       # (3,)
    width: int
    height: int
    near: float = 0.01
    far: float = 1000.0

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidParameterError("focal lengths must be positive")
        if not (np.isfinite([self.fx, self.fy, self.cx, self.cy]).all()
                and np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise InvalidParameterError("intrinsics, rotation and translation must be finite")
        if not (0 < self.near < self.far):
            raise InvalidParameterError("camera requires 0 < near < far")
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n > 0
                   for n in (self.width, self.height)):
            raise InvalidParameterError("image width and height must be positive integers")
        err = np.max(np.abs(self.rotation @ self.rotation.T - np.eye(3)))
        if err > 1e-6:
            raise InvalidParameterError(f"rotation not orthonormal (err={err:.2e})")

    @property
    def center(self):
        """Camera position in world coordinates."""
        return -self.rotation.T @ self.translation


def look_at(position, target):
    """World-to-camera rotation/translation for a camera at `position`
    looking toward `target` (camera +z forward, +x right, +y down), with
    world +z up."""
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    n = np.linalg.norm(right)
    if n < 1e-12:
        right = np.cross(forward, np.array([0.0, 1.0, 0.0]))
        n = np.linalg.norm(right)
    right = right / n
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=0)
    translation = -rotation @ position
    return rotation, translation
