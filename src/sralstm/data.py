"""Annotation parsing, regridding, window extraction, and synthetic scenes.

The on-disk annotation format is one observation per line:

    frame_id ped_id x y

whitespace-separated, UTF-8, with ``#`` starting a comment and blank lines
ignored. frame_id and ped_id are integers; x and y are finite floats in
meters. Mixed-rate sources are regridded onto a 0.4 s frame grid by linear
interpolation per pedestrian before windows are built.
"""

from __future__ import annotations

import decimal
import functools
import io
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

GRID_DT = 0.4

# One pedestrian's observations must span less than this many grid steps
# (4,000 s), so a track holds at most this many grid frames. Longer spans
# come from bad frame ids or source timesteps and would size the grid
# without limit.
MAX_TRACK_FRAMES = 10_000

# The longest line, in characters, that ``parse_annotations`` reads. A
# data line is four numbers, some tens of characters, and a long
# comment fits well within this; without a bound a file with no line end
# (a binary or sparse file) would be read whole into one string before its
# first line could be refused.
MAX_LINE_CHARS = 2**16

# The largest magnitude of a frame or pedestrian id, for integer and
# integral-float tokens alike: every id up to it is exact as a float64.
MAX_ID = 2**53

CANONICAL_SCENES = ("ETH-univ", "ETH-hotel", "UCY-zara01", "UCY-zara02", "UCY-univ")


class DataError(ValueError):
    """Malformed or inconsistent trajectory data."""


class AnnotationError(DataError):
    """A bad line in an annotation file; the message carries the line number."""


class RawAnnotation(NamedTuple):
    """One annotation row. A named tuple, not a dataclass: a plaza file has
    thousands of rows, and a tuple is built in half the time."""

    frame: int
    ped: int
    x: float
    y: float


@dataclass
class Track:
    """One pedestrian's contiguous gridded positions starting at a frame index."""

    start: int
    points: np.ndarray  # (L, 2)

    @property
    def end(self) -> int:
        """Exclusive final frame index."""
        return self.start + len(self.points)

    def covers(self, lo: int, hi: int) -> bool:
        return self.start <= lo and hi <= self.end

    def slice(self, lo: int, hi: int) -> np.ndarray:
        return self.points[lo - self.start:hi - self.start]


@dataclass
class Scene:
    """Gridded trajectories for one recording location."""

    name: str
    tracks: dict = field(default_factory=dict)  # ped_id -> Track
    dropped: int = 0  # pedestrians discarded during regridding

    def frame_range(self):
        """(lo, hi) frame indices spanning all tracks, hi exclusive."""
        if not self.tracks:
            raise DataError(f"scene {self.name!r} has no tracks")
        lo = min(t.start for t in self.tracks.values())
        hi = max(t.end for t in self.tracks.values())
        return lo, hi


@dataclass
class TrajectoryWindow:
    """A fixed-length slice of a scene with only pedestrians tracked throughout.

    positions[k] holds 20 (obs + pred) frames for ped_ids[k]; every value
    is finite and every pedestrian spans the whole window.
    """

    scene_name: str
    start_frame: int
    ped_ids: list
    positions: np.ndarray  # (P, obs_len + pred_len, 2)
    obs_len: int
    pred_len: int

    @property
    def n_frames(self) -> int:
        return self.positions.shape[1]

    @property
    def anchor_index(self) -> int:
        return self.obs_len - 1

    def index_of(self, ped) -> int:
        try:
            return self.ped_ids.index(ped)
        except ValueError:
            raise KeyError(f"pedestrian {ped!r} not in window") from None

    def track(self, ped) -> np.ndarray:
        return self.positions[self.index_of(ped)]


def _id(token: str) -> int:
    """A frame or pedestrian id token as an int of magnitude at most
    ``MAX_ID``: an integer, or a float of integral value such as "780.0",
    as ETH/UCY text files commonly write their ids; anything else is a
    ValueError."""
    try:
        value = int(token)
    except ValueError:
        signed = token[:1] in ("+", "-")
        if token[signed:].isdigit():
            # an integer of more digits than the interpreter lets int read
            # (at least 640): read again without its leading zeros; if int
            # still refuses it, it is far over MAX_ID, so the limit never
            # decides
            value = int(token[:signed] + (token[signed:].lstrip("0") or "0"))
        else:
            try:
                d = decimal.Decimal(token)
            except decimal.InvalidOperation:
                raise ValueError(token) from None
            if not (d.is_finite() and -MAX_ID <= d <= MAX_ID and d == d.to_integral_value()):
                raise ValueError(token)
            return int(d)
    # no integer of at most 15 characters is over the bound
    if len(token) > 15 and abs(value) > MAX_ID:
        raise ValueError(token)
    return value


def parse_annotations(source) -> list:
    """Parse annotation text, a string or an open text file.

    A string is read as a text-mode file holding it, so the two parse
    alike: lines end at ``\n``, ``\r\n`` and ``\r`` only, and are read
    a line at a time, each of at most ``MAX_LINE_CHARS`` characters.
    Raises AnnotationError with a 1-based line number for a longer line,
    a malformed line and a duplicate (frame, pedestrian) observation.
    """
    f = io.StringIO(source, newline=None) if isinstance(source, str) else source
    lines = iter(functools.partial(f.readline, MAX_LINE_CHARS), "")
    rows: list[RawAnnotation] = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        if len(raw) == MAX_LINE_CHARS and not raw.endswith("\n"):
            raise AnnotationError(
                f"line {lineno}: longer than {MAX_LINE_CHARS - 1} characters")
        text = raw.split("#", 1)[0]
        line = text.strip(" \t\r\n")
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise AnnotationError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        # int, float and Decimal would also read "1_0" and non-ASCII digits
        if not text.isascii() or "_" in text:
            raise AnnotationError(f"line {lineno}: numbers must be plain ASCII, without '_'")
        # str.split, int and float also take \x0b, \x0c and \x1c-\x1f for
        # spaces, so "1\x1c2 3.0 4.0" would read as frame 1, pedestrian 2
        if not line.isprintable() and not line.replace("\t", " ").isprintable():
            raise AnnotationError(f"line {lineno}: fields must be separated by spaces or "
                                  "tabs, without control characters")
        try:
            frame = _id(parts[0])
            ped = _id(parts[1])
        except ValueError:
            raise AnnotationError(
                f"line {lineno}: frame_id and ped_id must be integers of magnitude at most 2^53"
            ) from None
        try:
            x = float(parts[2])
            y = float(parts[3])
        except ValueError:
            raise AnnotationError(f"line {lineno}: x and y must be numbers") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise AnnotationError(f"line {lineno}: non-finite coordinate")
        key = (frame, ped)
        if key in seen:
            raise AnnotationError(
                f"line {lineno}: duplicate observation for frame {frame}, pedestrian {ped}"
            )
        seen.add(key)
        rows.append(RawAnnotation(frame, ped, x, y))
    return rows


def regrid(annotations: Sequence[RawAnnotation], source_timestep: float,
           name: str = "scene") -> Scene:
    """Interpolate each pedestrian onto the 0.4 s grid.

    Grid frame k sits at time k * 0.4 s; a pedestrian contributes the grid
    frames inside its observed span (no extrapolation). Pedestrians left
    with fewer than two observations are dropped and counted on the scene.
    Observations spanning MAX_TRACK_FRAMES grid steps or more, or beyond
    the grid's exact integer range, are a DataError naming the pedestrian.
    """
    if source_timestep <= 0:
        raise DataError(f"source timestep must be positive, got {source_timestep}")
    by_ped: dict[int, list[RawAnnotation]] = {}
    for row in annotations:
        by_ped.setdefault(row.ped, []).append(row)
    scene = Scene(name=name)
    # tolerance for deciding that a time lands exactly on a grid line
    fuzz = 1e-9
    for ped in sorted(by_ped):
        rows = sorted(by_ped[ped], key=lambda r: r.frame)
        if len(rows) < 2:
            scene.dropped += 1
            continue
        try:
            times = np.array([float(r.frame) * source_timestep for r in rows])
        except OverflowError:  # a frame id beyond the float range
            times = np.array([math.inf])
        lo, hi = float(times[0]) / GRID_DT, float(times[-1]) / GRID_DT
        if not (-2.0 ** 53 <= lo and hi <= 2.0 ** 53 and hi - lo < MAX_TRACK_FRAMES):
            raise DataError(f"scene {name!r}, pedestrian {ped}: frame times do not fit "
                            f"one track of at most {MAX_TRACK_FRAMES} grid frames")
        xs = np.array([r.x for r in rows])
        ys = np.array([r.y for r in rows])
        k_lo = math.ceil(lo - fuzz)
        k_hi = math.floor(hi + fuzz)
        if k_hi < k_lo:
            # observed span crosses no grid line; nothing representable
            scene.dropped += 1
            continue
        ks = np.arange(k_lo, k_hi + 1)
        grid_times = np.minimum(np.maximum(ks * GRID_DT, times[0]), times[-1])
        points = np.stack([np.interp(grid_times, times, xs),
                           np.interp(grid_times, times, ys)], axis=1)
        if not np.all(np.isfinite(points)):
            # finite but huge coordinates can overflow the interpolation slope
            raise DataError(f"scene {name!r}, pedestrian {ped}: interpolated "
                            "positions are not finite (coordinates too large)")
        scene.tracks[ped] = Track(start=int(k_lo), points=points)
    return scene


def build_windows(scene: Scene, obs_len: int = 8, pred_len: int = 12,
                  stride: int = 1) -> list:
    """All fixed-length windows of a scene, keeping pedestrians tracked throughout.

    Starts sit every stride frames from the scene's first frame; only those
    where some pedestrian is tracked throughout are visited. One pass over
    the tracks, in sorted-id order, lists each start's pedestrians.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    total = obs_len + pred_len
    lo, _ = scene.frame_range()
    members = {}  # start -> ids tracked throughout its window, sorted
    for ped in sorted(scene.tracks):
        t = scene.tracks[ped]
        # the first start on the stride lattice at or after the track's start
        for start in range(t.start + (lo - t.start) % stride, t.end - total + 1, stride):
            members.setdefault(start, []).append(ped)
    return [_window(scene, start, ids, obs_len, pred_len)
            for start, ids in sorted(members.items())]


def window_at(scene: Scene, start: int, obs_len: int,
              pred_len: int) -> Optional[TrajectoryWindow]:
    """The window starting at frame start, holding every pedestrian tracked
    throughout it, or None when nobody is."""
    total = obs_len + pred_len
    ids = [p for p, t in sorted(scene.tracks.items()) if t.covers(start, start + total)]
    return _window(scene, start, ids, obs_len, pred_len) if ids else None


def _window(scene: Scene, start: int, ids: list, obs_len: int,
            pred_len: int) -> TrajectoryWindow:
    end = start + obs_len + pred_len
    positions = np.stack([scene.tracks[p].slice(start, end) for p in ids])
    return TrajectoryWindow(scene_name=scene.name, start_frame=start, ped_ids=ids,
                            positions=positions, obs_len=obs_len, pred_len=pred_len)


def rotate_window(window: TrajectoryWindow, angle: float) -> TrajectoryWindow:
    """Rigidly rotate all positions about the scene origin."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return replace(window, ped_ids=list(window.ped_ids),
                   positions=window.positions @ rot.T)


def leave_one_out(scenes: Mapping[str, Scene], held_out: str,
                  obs_len: int = 8, pred_len: int = 12, stride: int = 1):
    """Split scene windows into (train, test) with one scene held out.

    The canonical benchmark uses the five scenes in CANONICAL_SCENES; any
    mapping of at least two named scenes works. Training windows come from
    every scene except held_out, test windows from held_out only, with no
    augmentation applied to either here.
    """
    if held_out not in scenes:
        raise DataError(
            f"unknown scene {held_out!r}; have {sorted(scenes)}"
        )
    if len(scenes) < 2:
        raise DataError("leave-one-out needs at least two scenes")
    train: list[TrajectoryWindow] = []
    for name in sorted(scenes):
        if name == held_out:
            continue
        train.extend(build_windows(scenes[name], obs_len, pred_len, stride))
    test = build_windows(scenes[held_out], obs_len, pred_len, stride)
    return train, test


# ---------------------------------------------------------------------------
# synthetic scenarios

@dataclass(frozen=True)
class SynthParams:
    speed: float = 1.2      # m/s
    spacing: float = 1.0    # lateral or leader-follower gap, meters
    noise: float = 0.0      # per-frame gaussian position noise, meters
    frames: int = 20


def synth_scenario(kind: str, params: Optional[SynthParams] = None,
                   seed: int = 0) -> Scene:
    """Deterministic synthetic interaction scene on the 0.4 s grid."""
    p = params or SynthParams()
    if not 2 <= p.frames <= MAX_TRACK_FRAMES:
        raise DataError(f"a scenario needs 2 to {MAX_TRACK_FRAMES} frames, got {p.frames}")
    if not 0 < p.speed < math.inf:
        raise DataError(f"speed must be finite and greater than 0, got {p.speed!r}")
    for name, value in (("spacing", p.spacing), ("noise", p.noise)):
        if not 0 <= value < math.inf:
            raise DataError(f"{name} must be finite and at least 0, got {value!r}")
    # the following lag, spacing / (speed * GRID_DT) frames, compared without dividing
    if kind == "following" and p.spacing >= GRID_DT * p.speed * (MAX_TRACK_FRAMES - p.frames):
        raise DataError(f"a {p.spacing!r} m gap at {p.speed!r} m/s lags the follower "
                        f"{MAX_TRACK_FRAMES - p.frames} frames or more; frames plus lag "
                        f"must stay under {MAX_TRACK_FRAMES}")
    rng = np.random.default_rng(seed)
    if kind not in _BUILDERS:
        raise DataError(f"unknown scenario kind {kind!r} (options: {', '.join(SCENARIO_KINDS)})")
    # overflow is caught by the finite check below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        tracks = _BUILDERS[kind](p, rng)
        if p.noise > 0:
            tracks = [pts + rng.normal(0.0, p.noise, size=pts.shape) for pts in tracks]
    scene = Scene(name=f"{kind}-{seed}")
    for ped, pts in enumerate(tracks, start=1):
        if not np.isfinite(pts).all():
            raise DataError(f"{kind}: positions overflow at speed {p.speed!r}, "
                            f"spacing {p.spacing!r} and noise {p.noise!r}")
        scene.tracks[ped] = Track(start=0, points=pts)
    return scene


def _times(p: SynthParams) -> np.ndarray:
    return np.arange(p.frames) * GRID_DT


def _heading(rng) -> np.ndarray:
    a = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(a), math.sin(a)])


def _perp(u: np.ndarray) -> np.ndarray:
    return np.array([-u[1], u[0]])


def _line(origin, direction, speed, times) -> np.ndarray:
    return origin[np.newaxis, :] + np.outer(times * speed, direction)


def _synth_parallel(p: SynthParams, rng) -> list:
    """Two walkers sharing a heading at a constant lateral offset."""
    t = _times(p)
    u = _heading(rng)
    origin = rng.uniform(-2.0, 2.0, size=2)
    a = _line(origin, u, p.speed, t)
    b = a + _perp(u) * p.spacing
    return [a, b]


def _synth_merging(p: SynthParams, rng) -> list:
    """Two walkers converge toward a shared point, then continue together."""
    t = _times(p)
    u = _heading(rng)
    merge_frame = p.frames // 2
    meet = rng.uniform(-1.0, 1.0, size=2)
    after = _line(meet, u, p.speed, t[: p.frames - merge_frame])
    tracks = []
    for side in (1.0, -1.0):
        approach_dir = _rot(u, side * rng.uniform(0.5, 1.2))
        start = meet - approach_dir * p.speed * (merge_frame * GRID_DT)
        before = _line(start, approach_dir, p.speed, t[:merge_frame])
        lane = after + _perp(u) * (side * p.spacing / 2.0)
        tracks.append(np.concatenate([before, lane], axis=0))
    return tracks


def _rot(u: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])


def _synth_following(p: SynthParams, rng) -> list:
    """A leader making one seeded turn and a follower replaying its path.

    The follower trails by spacing/speed seconds, so the follower's future
    repeats the leader's recent past: its post-turn motion is knowable only
    from the leader's track.
    """
    lag = max(1, round(p.spacing / (p.speed * GRID_DT)))
    u = _heading(rng)
    turn_frame = int(rng.integers(p.frames // 3, 2 * p.frames // 3))
    turn = rng.uniform(0.6, 1.4) * (1.0 if rng.random() < 0.5 else -1.0)
    origin = rng.uniform(-2.0, 2.0, size=2)
    total = p.frames + lag
    pts = np.empty((total, 2))
    pos = origin.copy()
    direction = u
    for k in range(total):
        pts[k] = pos
        if k == turn_frame + lag:
            direction = _rot(direction, turn)
        pos = pos + direction * p.speed * GRID_DT
    leader = pts[lag:]
    follower = pts[:-lag] if lag > 0 else pts.copy()
    return [leader, follower]


def _head_on(p: SynthParams, rng, dodge_dist: float, amplitude: float):
    """Two walkers meeting head-on who side-step while close.

    Each shifts sideways by amplitude at zero head-on separation, falling
    linearly to nothing at dodge_dist, so the dodge's timing is a function
    of the other walker's approach. Returns the heading and both tracks.
    """
    t = _times(p)
    u = _heading(rng)
    gap0 = rng.uniform(0.75, 1.05) * p.speed * (p.frames - 1) * GRID_DT
    mid = rng.uniform(-1.0, 1.0, size=2)
    a_base = _line(mid - u * gap0 / 2.0, u, p.speed, t)
    b_base = _line(mid + u * gap0 / 2.0, -u, p.speed, t)
    lateral = np.zeros(p.frames)
    for k in range(p.frames):
        along = float((b_base[k] - a_base[k]) @ u)  # signed head-on separation
        if abs(along) < dodge_dist:
            lateral[k] = amplitude * (1.0 - abs(along) / dodge_dist)
    offset = np.outer(lateral, _perp(u))
    return u, a_base + offset, b_base - offset


def _synth_meeting(p: SynthParams, rng) -> list:
    """Two head-on walkers who side-step while close, then fall back in line."""
    _, a, b = _head_on(p, rng, 2.0, p.spacing / 2.0)
    return [a, b]


def _synth_group_avoid(p: SynthParams, rng) -> list:
    """Two walking pairs meet head-on; each pair shifts aside as a unit."""
    u, a, b = _head_on(p, rng, 2.5, p.spacing)
    lane = _perp(u) * (p.spacing / 2.0)
    return [a - lane, a + lane, b - lane, b + lane]


# kind -> builder, in a fixed order: perfbench/gen.py draws kinds by position
_BUILDERS = {"parallel": _synth_parallel, "merging": _synth_merging,
             "following": _synth_following, "meeting": _synth_meeting,
             "group_avoid": _synth_group_avoid}
SCENARIO_KINDS = tuple(_BUILDERS)


def scene_to_annotation_text(scene: Scene) -> str:
    """Render a gridded scene back into the annotation format."""
    lines = ["# frame_id ped_id x y"]
    rows = []
    for ped, track in scene.tracks.items():
        for k, (x, y) in enumerate(track.points):
            rows.append((track.start + k, ped, x, y))
    rows.sort()
    for frame, ped, x, y in rows:
        lines.append(f"{frame} {ped} {float(x)!r} {float(y)!r}")
    return "\n".join(lines) + "\n"
