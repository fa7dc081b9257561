"""Seeded synthetic scenes shared by every benchmark workload.

A scene is a population of random 4D Gaussians in the unit cube, four ring
cameras looking at the origin, and target images rendered from a second
population drawn with a different seed. The same (spec, seed) always gives
bit-identical arrays, and the program under test only ever sees these arrays.
"""

from dataclasses import dataclass

import numpy as np

from tgh import hierarchy, renderer, sh
from tgh.camera import Camera, look_at

SPATIAL_SCALE = (0.03, 0.12)       # scene units
TEMPORAL_SCALE = (0.05, 0.3)       # seconds
OPACITY = (0.3, 0.9)
NUM_CAMERAS = 4
CAMERA_RADIUS = 3.5
CAMERA_HEIGHT = 0.6
FIELD_OF_VIEW_DEG = 60.0
ORBIT_RAD_PER_S = 0.5              # playback camera speed around the origin
PLAYBACK_FPS = 30.0


@dataclass(frozen=True)
class SceneSpec:
    duration: float                # seconds of video
    gaussians: int                 # size of the initial and reference populations
    size: int                      # image width and height, pixels
    frames: int = 16               # target frames spread evenly over the clip


class Scene:
    """Posed targets in the form `tgh.optimizer.train` reads."""

    def __init__(self, cameras, frame_rate, targets):
        self.cameras = cameras
        self.frame_rate = frame_rate
        self.targets = targets     # (cameras, frames, H, W, 3)
        self.frames = targets.shape[1]

    def target(self, cam_index, frame):
        return self.targets[cam_index, frame]


def population(rng, n, duration):
    """Random diffuse 4D Gaussians as the keyword arguments of `insert_batch`."""
    def unit_rows(k):
        q = rng.normal(size=(k, 4))
        return q / np.linalg.norm(q, axis=1, keepdims=True)

    mu = np.concatenate([rng.uniform(-0.5, 0.5, (n, 3)),
                         rng.uniform(0.0, duration, (n, 1))], axis=1)
    scale = np.concatenate([rng.uniform(*SPATIAL_SCALE, (n, 3)),
                            rng.uniform(*TEMPORAL_SCALE, (n, 1))], axis=1)
    return dict(mu=mu, scale=scale, rotor_left=unit_rows(n), rotor_right=unit_rows(n),
                opacity=rng.uniform(*OPACITY, n), base_color=rng.uniform(0.0, 1.0, (n, 3)),
                sh_residual=np.zeros((n, sh.RESIDUAL_COEFFS)))


def ring_camera(angle, size):
    """Camera on the ring around the z axis at `angle` radians, facing the origin."""
    position = [CAMERA_RADIUS * np.cos(angle), CAMERA_RADIUS * np.sin(angle), CAMERA_HEIGHT]
    rotation, translation = look_at(position, [0.0, 0.0, 0.0])
    focal = 0.5 * size / np.tan(np.radians(FIELD_OF_VIEW_DEG) / 2.0)
    return Camera(fx=focal, fy=focal, cx=size / 2.0, cy=size / 2.0,
                  rotation=rotation, translation=translation,
                  width=size, height=size, near=0.1, far=50.0)


def build_hierarchy(pop, duration):
    """The set-up step users pay before training or playback."""
    h = hierarchy.build(duration)
    h.insert_batch(**pop)
    return h


def make_scene(spec: SceneSpec, seed):
    """(initial population, Scene) for one seed; targets are rendered here."""
    pop = population(np.random.default_rng([seed, 0]), spec.gaussians, spec.duration)
    reference = build_hierarchy(
        population(np.random.default_rng([seed, 1]), spec.gaussians, spec.duration),
        spec.duration)
    cameras = [ring_camera(2.0 * np.pi * k / NUM_CAMERAS, spec.size)
               for k in range(NUM_CAMERAS)]
    frame_rate = spec.frames / spec.duration
    targets = np.stack([[renderer.render(reference, f / frame_rate, cam).rgb
                         for f in range(spec.frames)] for cam in cameras])
    return pop, Scene(cameras, frame_rate, targets)


def playback_path(spec: SceneSpec, seed):
    """Endless (timestamp, camera) pairs: consecutive frames, orbiting camera."""
    rng = np.random.default_rng([seed, 2])
    t = rng.uniform(0.0, spec.duration / 2.0)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    while True:
        yield t, ring_camera(angle + ORBIT_RAD_PER_S * t, spec.size)
        t = (t + 1.0 / PLAYBACK_FPS) % spec.duration
