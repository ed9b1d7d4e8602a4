"""Annotation parsing, regridding, windowing, splits, and synthetic scenes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sralstm.data as data
from sralstm.data import (AnnotationError, DataError, RawAnnotation, Scene,
                          SynthParams, Track, build_windows, leave_one_out,
                          parse_annotations, regrid, rotate_window,
                          scene_to_annotation_text, synth_scenario)


def gridded_scene(tracks, name="scene"):
    """Scene assembled directly from {ped: (start, points)} on the grid."""
    scene = Scene(name=name)
    for ped, (start, pts) in tracks.items():
        scene.tracks[ped] = Track(start=start, points=np.asarray(pts, dtype=np.float64))
    return scene


def straight_track(n, origin=(0.0, 0.0), step=(0.5, 0.0)):
    k = np.arange(n)[:, None]
    return np.asarray(origin) + k * np.asarray(step)


# ---------------------------------------------------------------------------
# parsing

def test_parse_single_line_frozen():
    rows = parse_annotations("1 7 2.5 -3.0")
    assert rows == [RawAnnotation(1, 7, 2.5, -3.0)]


def test_parse_empty_input():
    assert parse_annotations("") == []
    assert parse_annotations("# only a comment\n\n") == []


def test_parse_preserves_order_and_strips_comments():
    text = "# header\n3 1 0 0\n1 2 5 5  # trailing note\n"
    rows = parse_annotations(text)
    assert [(r.frame, r.ped) for r in rows] == [(3, 1), (1, 2)]


def test_parse_accepts_open_file(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("0 1 1.0 2.0\n1 1 1.5 2.0\n")
    with open(p) as f:
        assert len(parse_annotations(f)) == 2


def _parsed(source):
    """The rows parse_annotations gives, or the text of its error."""
    try:
        return parse_annotations(source)
    except AnnotationError as e:
        return str(e)


@pytest.mark.parametrize("text, want", [
    ("0 1 0.0 0.0\x0c1 1 0.5 0.5\n", "line 1: expected 4 fields, got 8"),
    ("0 1 0.0 0.0\x851 1 0.5 0.5\n", "line 1: expected 4 fields, got 8"),
    ("0 1 0.0 0.0\u20281 1 0.5 0.5\n", "line 1: expected 4 fields, got 8"),
    ("0 1 0.0 0.0\r\n1 1 0.5 0.5\r\n", 2),
    ("0 1 0.0 0.0\r1 1 0.5 0.5\r2 1 1.0 1.0", 3),
], ids=["form-feed", "next-line", "line-separator", "crlf", "cr"])
def test_parse_splits_a_string_into_lines_as_a_file_does(tmp_path, text, want):
    # before, str.splitlines() also broke the string at \x0c, \x85 and
    # \u2028, so the string gave rows where the file gave an error
    path = tmp_path / "a.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as f:
        from_file = _parsed(f)
    assert _parsed(text) == from_file
    assert (from_file if isinstance(want, str) else len(from_file)) == want


def test_parse_bad_number_reports_line():
    with pytest.raises(AnnotationError, match="line 1"):
        parse_annotations("1 7 abc 0")


def test_parse_wrong_field_count_reports_line():
    with pytest.raises(AnnotationError, match="line 2"):
        parse_annotations("0 1 0 0\n0 2 0\n")


def test_parse_non_integer_ids_rejected():
    with pytest.raises(AnnotationError, match="integers"):
        parse_annotations("0.5 1 0 0")


@pytest.mark.parametrize("line", [
    "1_0 1 0.0 0.0", "1 1_0 0.0 0.0", "1 1 1_0.5 0.0", "1 1 0.0 1_0",
    "\u0661 1 0.0 0.0", "\uff11 1 0.0 0.0", "1\u00a01 0.0 0.0", "1 1 0.0 0.0\u00a0"],
    ids=["frame-underscore", "ped-underscore", "x-underscore", "y-underscore",
         "arabic-indic-digit", "full-width-digit", "nbsp-separator", "trailing-nbsp"])
def test_parse_number_tokens_outside_ascii_rejected(line):
    # before, int and float read 1_0 as 10 and any Unicode digit or space
    with pytest.raises(AnnotationError, match="line 2: numbers must be plain ASCII"):
        parse_annotations("0 1 0 0\n" + line + "\n")


@pytest.mark.parametrize("line", [
    "1\x1c2 3.0 4.0", "1\x1d2 3.0 4.0", "1\x1e2 3.0 4.0", "1\x1f3\x1d3.0 4.0",
    "1\x0b2 3.0 4.0", "1\x0c2 3.0 4.0", "1 2 3.0 4.0\x0b", "\x0c1 2 3.0 4.0"],
    ids=["x1c", "x1d", "x1e", "x1f-x1d", "x0b", "x0c", "trailing-x0b", "leading-x0c"])
def test_parse_control_characters_between_fields_rejected(line):
    # before, str.split broke fields at these characters and int and float
    # stripped them, so "1\x1c2 3.0 4.0" read as frame 1, pedestrian 2
    with pytest.raises(AnnotationError, match="line 2: fields must be separated by spaces or tabs"):
        parse_annotations("0 1 0 0\n" + line + "\n")


def test_parse_tabs_and_spaces_separate_fields():
    rows = parse_annotations("\t1\t2 \t3.0  4.0 \t\r\n")
    assert [tuple(r) for r in rows] == [(1, 2, 3.0, 4.0)]


def test_parse_non_ascii_comment_accepted():
    rows = parse_annotations("# caf\u00e9 \u0661_\n780.0 1 0.5 0.5  # \u00fcber 1_0\n")
    assert [tuple(r) for r in rows] == [(780, 1, 0.5, 0.5)]


def test_parse_integral_float_ids():
    # ETH/UCY text files commonly write their ids as floats; before, these
    # lines were refused
    rows = parse_annotations("780.0\t1.0\t8.46\t3.59\n"
                             "790 -2.00e0 8.5 3.6\n"
                             "9007199254740992.0 3 0 0\n")
    assert [(r.frame, r.ped) for r in rows] == [(780, 1), (790, -2), (2 ** 53, 3)]
    assert all(type(r.frame) is int and type(r.ped) is int for r in rows)


@pytest.mark.parametrize("token", ["0.5", "nan", "inf", "1e400", "9007199254740993.0",
                                   "4503599627370496.5", "1.0000000000000001", "1e-400"])
def test_parse_ids_of_non_integral_or_unsafe_value_rejected(token):
    for line in (f"{token} 1 0 0", f"1 {token} 0 0"):
        with pytest.raises(AnnotationError, match="line 2: frame_id and ped_id must be integers"):
            parse_annotations("0 1 0 0\n" + line + "\n")


def test_parse_non_finite_coordinate_rejected():
    with pytest.raises(AnnotationError, match="non-finite"):
        parse_annotations("0 1 nan 0")


def test_parse_duplicate_observation_rejected():
    with pytest.raises(AnnotationError, match="line 3.*frame 5.*pedestrian 1"):
        parse_annotations("5 1 0 0\n5 2 0 0\n5 1 1 1\n")


# ---------------------------------------------------------------------------
# regridding

def test_regrid_midpoint_frozen():
    # samples at 0.0 s and 0.8 s straddle one grid line at 0.4 s
    rows = [RawAnnotation(0, 1, 0.0, 0.0), RawAnnotation(2, 1, 2.0, 0.0)]
    scene = regrid(rows, source_timestep=0.4)
    track = scene.tracks[1]
    assert track.start == 0
    assert track.points.tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]


def test_regrid_already_gridded_is_identity():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5.0, 5.0, size=(6, 2))
    rows = [RawAnnotation(3 + k, 9, float(x), float(y))
            for k, (x, y) in enumerate(pts)]
    scene = regrid(rows, source_timestep=0.4)
    track = scene.tracks[9]
    assert track.start == 3
    assert np.array_equal(track.points, pts)


def test_regrid_matches_scripted_interpolation_oracle():
    # piecewise-linear three-point track at a 0.25 s source rate
    rows = [RawAnnotation(0, 1, 0.0, 0.0),
            RawAnnotation(4, 1, 2.0, 1.0),
            RawAnnotation(8, 1, 2.0, 5.0)]
    scene = regrid(rows, source_timestep=0.25)
    track = scene.tracks[1]
    times = [0.0, 1.0, 2.0]
    xs = [0.0, 2.0, 2.0]
    ys = [0.0, 1.0, 5.0]

    def lerp(t, ts, vs):
        for a in range(len(ts) - 1):
            if ts[a] <= t <= ts[a + 1]:
                w = (t - ts[a]) / (ts[a + 1] - ts[a])
                return vs[a] + w * (vs[a + 1] - vs[a])
        raise AssertionError("time outside track")

    assert track.start == 0
    assert len(track.points) == 6   # 0.0, 0.4, ..., 2.0
    for k, (x, y) in enumerate(track.points):
        t = k * 0.4
        assert abs(x - lerp(t, times, xs)) < 1e-12
        assert abs(y - lerp(t, times, ys)) < 1e-12


def test_regrid_endpoints_stay_on_track():
    rows = [RawAnnotation(1, 1, 1.0, 1.0), RawAnnotation(5, 1, 3.0, 2.0)]
    scene = regrid(rows, source_timestep=0.3)   # span 0.3 s .. 1.5 s
    track = scene.tracks[1]
    # grid points 0.4 .. 1.2: all interpolated strictly inside the span
    assert track.start == 1
    assert len(track.points) == 3
    direction = np.array([2.0, 1.0]) / np.linalg.norm([2.0, 1.0])
    for p in track.points:
        d = p - np.array([1.0, 1.0])
        along = float(d @ direction)
        assert -1e-9 <= along <= np.linalg.norm([2.0, 1.0]) + 1e-9
        assert abs(float(d @ np.array([-direction[1], direction[0]]))) < 1e-9


def test_regrid_never_extrapolates():
    rows = [RawAnnotation(1, 1, 0.0, 0.0), RawAnnotation(3, 1, 1.0, 0.0)]
    scene = regrid(rows, source_timestep=0.5)   # span 0.5 s .. 1.5 s
    track = scene.tracks[1]
    # grid indices 2 and 3 (0.8 s, 1.2 s) fall inside; nothing outside
    assert track.start == 2
    assert len(track.points) == 2
    assert np.all(track.points[:, 0] >= 0.0)
    assert np.all(track.points[:, 0] <= 1.0)


def test_regrid_drops_underobserved_pedestrians():
    rows = [RawAnnotation(0, 1, 0.0, 0.0),            # single observation
            RawAnnotation(5, 2, 0.0, 0.0), RawAnnotation(6, 2, 1.0, 1.0),
            RawAnnotation(0, 3, 0.0, 0.0), RawAnnotation(40, 3, 4.0, 0.0)]
    # ped 2's span (0.5..0.6 s) crosses no 0.4 s grid line
    scene = regrid(rows, source_timestep=0.1)
    assert 1 not in scene.tracks
    assert 2 not in scene.tracks
    assert 3 in scene.tracks
    assert scene.dropped == 2


def test_regrid_rejects_bad_timestep():
    with pytest.raises(DataError):
        regrid([], source_timestep=0.0)


def test_regrid_bounds_the_span_of_one_track():
    at_bound = [RawAnnotation(0, 1, 0.0, 0.0),
                RawAnnotation(data.MAX_TRACK_FRAMES - 1, 1, 1.0, 0.0)]
    assert len(regrid(at_bound, 0.4).tracks[1].points) == data.MAX_TRACK_FRAMES
    beyond = [RawAnnotation(0, 1, 0.0, 0.0),
              RawAnnotation(data.MAX_TRACK_FRAMES, 7, 0.0, 0.0),
              RawAnnotation(0, 7, 0.0, 0.0)]
    with pytest.raises(DataError, match="pedestrian 7: frame times do not fit"):
        regrid(beyond, 0.4)


@pytest.mark.parametrize("frame,timestep", [
    (10 ** 400, 0.4),          # beyond the float range
    (10 ** 300, 1e10),         # overflows to infinity once scaled
    (2 ** 60, 0.4),            # past the integers float64 holds exactly
    (-(2 ** 60), 0.4)], ids=["int-overflow", "inf", "inexact", "inexact-negative"])
def test_regrid_rejects_times_off_the_grid(frame, timestep):
    rows = [RawAnnotation(frame, 3, 0.0, 0.0), RawAnnotation(frame + 1, 3, 1.0, 0.0)]
    with pytest.raises(DataError, match="pedestrian 3: frame times do not fit"):
        regrid(rows, timestep)


def test_regrid_rejects_coordinates_that_interpolate_to_non_finite():
    # before, np.interp overflowed the slope and the rollout failed later
    # as a numeric error
    rows = [RawAnnotation(0, 1, -1e308, 0.0), RawAnnotation(19, 1, 1e308, 0.0)]
    with pytest.raises(DataError, match="scene 'huge', pedestrian 1: interpolated"):
        regrid(rows, 0.4, name="huge")


def test_regrid_sorts_out_of_order_observations():
    rows = [RawAnnotation(2, 1, 2.0, 0.0), RawAnnotation(0, 1, 0.0, 0.0)]
    scene = regrid(rows, source_timestep=0.4)
    assert scene.tracks[1].points[:, 0].tolist() == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# windows

def test_build_windows_exact_length_scene():
    scene = gridded_scene({1: (0, straight_track(20))})
    windows = build_windows(scene)
    assert len(windows) == 1
    assert windows[0].start_frame == 0
    assert windows[0].n_frames == 20
    assert windows[0].anchor_index == 7


def test_build_windows_22_frames_gives_three():
    scene = gridded_scene({1: (0, straight_track(22))})
    assert len(build_windows(scene)) == 3


def test_build_windows_stride():
    scene = gridded_scene({1: (0, straight_track(24))})
    assert [w.start_frame for w in build_windows(scene, stride=2)] == [0, 2, 4]


def test_build_windows_requires_full_presence():
    scene = gridded_scene({
        1: (0, straight_track(20)),
        2: (1, straight_track(19, origin=(5.0, 5.0))),   # misses frame 0
    })
    windows = build_windows(scene)
    assert len(windows) == 1
    assert windows[0].ped_ids == [1]


def test_build_windows_drops_empty_windows():
    # two far-apart short tracks: no 20-frame stretch has a full pedestrian
    scene = gridded_scene({
        1: (0, straight_track(10)),
        2: (30, straight_track(10, origin=(8.0, 0.0))),
    })
    assert build_windows(scene) == []


def test_build_windows_sorted_ids_and_track_lookup():
    scene = gridded_scene({
        5: (0, straight_track(20, origin=(1.0, 0.0))),
        2: (0, straight_track(20, origin=(0.0, 2.0))),
    })
    w = build_windows(scene)[0]
    assert w.ped_ids == [2, 5]
    assert np.array_equal(w.track(5), scene.tracks[5].points)
    with pytest.raises(KeyError):
        w.track(99)


def test_build_windows_matches_a_frame_by_frame_scan():
    rng = np.random.default_rng(5)
    scene = gridded_scene({1: (-3, rng.normal(size=(30, 2))),
                           2: (10, rng.normal(size=(25, 2))),
                           4: (70, rng.normal(size=(21, 2)))})
    lo, hi = scene.frame_range()
    for stride in (1, 2, 3, 7):
        got = build_windows(scene, 8, 12, stride)
        want = [s for s in range(lo, hi - 19, stride)
                if any(t.covers(s, s + 20) for t in scene.tracks.values())]
        assert [w.start_frame for w in got] == want
        for w in got:
            assert w.ped_ids == [p for p, t in sorted(scene.tracks.items())
                                 if t.covers(w.start_frame, w.start_frame + 20)]


@settings(max_examples=200, deadline=None)
@given(spans=st.dictionaries(st.integers(-50, 50), st.tuples(st.integers(-40, 40),
                                                            st.integers(1, 45)),
                             min_size=1, max_size=8),
       stride=st.integers(1, 7), obs_len=st.integers(2, 8), pred_len=st.integers(0, 12))
def test_build_windows_equals_a_start_by_start_window_at_scan(spans, stride, obs_len,
                                                              pred_len):
    # ped -> (first frame, track length); each track's points are distinct
    scene = gridded_scene({p: (start, np.arange(2.0 * n).reshape(n, 2) + 1000.0 * p)
                           for p, (start, n) in spans.items()})
    lo, hi = scene.frame_range()
    want = [w for w in (data.window_at(scene, s, obs_len, pred_len)
                        for s in range(lo, hi, stride)) if w is not None]
    got = build_windows(scene, obs_len, pred_len, stride)
    assert [(w.start_frame, w.ped_ids) for w in got] == \
        [(w.start_frame, w.ped_ids) for w in want]
    for g, w in zip(got, want):
        assert g.positions.tobytes() == w.positions.tobytes()
        assert (g.scene_name, g.obs_len, g.pred_len) == (w.scene_name, obs_len, pred_len)


def test_build_windows_skips_the_gap_between_far_apart_tracks():
    far = 10 ** 12
    scene = gridded_scene({1: (0, straight_track(20)), 2: (far, straight_track(21))})
    assert [w.start_frame for w in build_windows(scene)] == [0, far, far + 1]


def test_build_windows_rejects_bad_stride():
    scene = gridded_scene({1: (0, straight_track(20))})
    with pytest.raises(DataError):
        build_windows(scene, stride=0)


def test_frame_range_empty_scene_errors():
    with pytest.raises(DataError):
        Scene(name="void").frame_range()


# ---------------------------------------------------------------------------
# rotation augmentation

def test_rotate_zero_angle_is_identity_bitwise():
    w = build_windows(gridded_scene({1: (0, straight_track(20))}))[0]
    r = rotate_window(w, 0.0)
    assert np.array_equal(r.positions, w.positions)


def test_rotate_pi_twice_restores():
    w = build_windows(gridded_scene({1: (0, straight_track(20, step=(0.3, 0.2)))}))[0]
    r = rotate_window(rotate_window(w, math.pi), math.pi)
    assert np.max(np.abs(r.positions - w.positions)) < 1e-12


def test_rotate_preserves_pairwise_distances():
    scene = gridded_scene({
        1: (0, straight_track(20)),
        2: (0, straight_track(20, origin=(2.0, 1.0), step=(0.1, 0.4))),
        3: (0, straight_track(20, origin=(-3.0, 2.0), step=(0.4, -0.1))),
    })
    w = build_windows(scene)[0]
    rng = np.random.default_rng(1)
    for angle in rng.uniform(0.0, 2.0 * math.pi, size=5):
        r = rotate_window(w, float(angle))
        for t in range(w.n_frames):
            before = w.positions[:, t]
            after = r.positions[:, t]
            d0 = np.linalg.norm(before[:, None] - before[None, :], axis=-1)
            d1 = np.linalg.norm(after[:, None] - after[None, :], axis=-1)
            assert np.max(np.abs(d0 - d1)) < 1e-12


def test_rotate_does_not_share_position_storage():
    w = build_windows(gridded_scene({1: (0, straight_track(20))}))[0]
    r = rotate_window(w, 0.5)
    r.positions[0, 0, 0] = 99.0
    assert w.positions[0, 0, 0] != 99.0


# ---------------------------------------------------------------------------
# leave-one-out split

def five_scene_corpus():
    scenes = {}
    for k, name in enumerate(data.CANONICAL_SCENES):
        scenes[name] = gridded_scene(
            {1: (0, straight_track(21, origin=(float(k), 0.0)))}, name=name)
    return scenes


def test_leave_one_out_partitions_scenes():
    scenes = five_scene_corpus()
    train, test = leave_one_out(scenes, "ETH-hotel")
    train_names = {w.scene_name for w in train}
    test_names = {w.scene_name for w in test}
    assert test_names == {"ETH-hotel"}
    assert train_names == set(data.CANONICAL_SCENES) - {"ETH-hotel"}
    assert len(train_names) == 4


def test_leave_one_out_no_window_in_both_splits():
    scenes = five_scene_corpus()
    train, test = leave_one_out(scenes, "UCY-univ")
    train_keys = {(w.scene_name, w.start_frame) for w in train}
    test_keys = {(w.scene_name, w.start_frame) for w in test}
    assert not (train_keys & test_keys)


def test_leave_one_out_unknown_scene():
    with pytest.raises(DataError, match="ETH-atrium"):
        leave_one_out(five_scene_corpus(), "ETH-atrium")


def test_leave_one_out_needs_two_scenes():
    only = {"A": gridded_scene({1: (0, straight_track(20))}, name="A")}
    with pytest.raises(DataError):
        leave_one_out(only, "A")


# ---------------------------------------------------------------------------
# synthetic scenarios

def test_synth_same_seed_bit_identical():
    for kind in data.SCENARIO_KINDS:
        a = synth_scenario(kind, seed=3)
        b = synth_scenario(kind, seed=3)
        assert a.tracks.keys() == b.tracks.keys()
        for ped in a.tracks:
            assert np.array_equal(a.tracks[ped].points, b.tracks[ped].points)


def test_synth_seed_changes_geometry():
    a = synth_scenario("parallel", seed=1)
    b = synth_scenario("parallel", seed=2)
    assert not np.array_equal(a.tracks[1].points, b.tracks[1].points)


def test_synth_unknown_kind():
    with pytest.raises(DataError, match="group_avoid"):
        synth_scenario("loitering")


def test_synth_frame_count_and_naming():
    scene = synth_scenario("meeting", SynthParams(frames=24), seed=5)
    assert scene.name == "meeting-5"
    for track in scene.tracks.values():
        assert len(track.points) == 24
        assert track.start == 0


def test_parallel_keeps_constant_lateral_offset():
    scene = synth_scenario("parallel", SynthParams(spacing=0.8), seed=7)
    a = scene.tracks[1].points
    b = scene.tracks[2].points
    gaps = np.linalg.norm(a - b, axis=1)
    assert np.max(np.abs(gaps - 0.8)) < 1e-9
    # both walk at constant velocity
    for t in (a, b):
        steps = np.diff(t, axis=0)
        assert np.max(np.abs(steps - steps[0])) < 1e-9


def test_meeting_distance_dips_then_recovers():
    scene = synth_scenario("meeting", seed=11)
    a = scene.tracks[1].points
    b = scene.tracks[2].points
    gap = np.linalg.norm(a - b, axis=1)
    closest = int(np.argmin(gap))
    assert 0 < closest < len(gap) - 1
    assert gap[0] > gap[closest]
    assert gap[-1] > gap[closest]


def test_following_future_replays_leader_past():
    p = SynthParams(speed=1.2, spacing=1.0)
    scene = synth_scenario("following", p, seed=13)
    leader = scene.tracks[1].points
    follower = scene.tracks[2].points
    lag = max(1, round(p.spacing / (p.speed * data.GRID_DT)))
    assert np.max(np.abs(follower[lag:] - leader[:-lag])) < 1e-9


def test_group_avoid_has_two_cohesive_pairs():
    scene = synth_scenario("group_avoid", SynthParams(spacing=0.9), seed=17)
    assert sorted(scene.tracks) == [1, 2, 3, 4]
    a = scene.tracks[1].points
    b = scene.tracks[2].points
    inner = np.linalg.norm(a - b, axis=1)
    assert np.max(np.abs(inner - 0.9)) < 1e-9


def test_merging_converges_to_shared_lane():
    scene = synth_scenario("merging", SynthParams(spacing=0.6), seed=19)
    a = scene.tracks[1].points
    b = scene.tracks[2].points
    gap = np.linalg.norm(a - b, axis=1)
    assert gap[0] > gap[-1]
    assert abs(gap[-1] - 0.6) < 1e-9


def test_synth_noise_perturbs_but_seed_pins_it():
    noisy = SynthParams(noise=0.05)
    a = synth_scenario("parallel", noisy, seed=23)
    b = synth_scenario("parallel", noisy, seed=23)
    clean = synth_scenario("parallel", SynthParams(), seed=23)
    assert np.array_equal(a.tracks[1].points, b.tracks[1].points)
    assert not np.array_equal(a.tracks[1].points, clean.tracks[1].points)


def test_synth_rejects_too_few_frames():
    with pytest.raises(DataError):
        synth_scenario("parallel", SynthParams(frames=1))


def test_scenarios_make_valid_windows():
    for kind in data.SCENARIO_KINDS:
        scene = synth_scenario(kind, seed=29)
        windows = build_windows(scene)
        assert len(windows) == 1
        n_peds = 4 if kind == "group_avoid" else 2
        assert len(windows[0].ped_ids) == n_peds


# ---------------------------------------------------------------------------
# annotation round trip

def test_annotation_text_round_trip_exact():
    scene = synth_scenario("meeting", seed=31)
    text = scene_to_annotation_text(scene)
    back = regrid(parse_annotations(text), source_timestep=data.GRID_DT,
                  name=scene.name)
    assert back.tracks.keys() == scene.tracks.keys()
    for ped in scene.tracks:
        assert back.tracks[ped].start == scene.tracks[ped].start
        assert np.array_equal(back.tracks[ped].points, scene.tracks[ped].points)


def test_annotation_text_has_header_and_sorted_rows():
    scene = gridded_scene({
        2: (1, [[1.0, 2.0], [1.5, 2.0]]),
        1: (0, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]),
    })
    lines = scene_to_annotation_text(scene).splitlines()
    assert lines[0].startswith("#")
    body = [tuple(int(v) for v in ln.split()[:2]) for ln in lines[1:]]
    assert body == sorted(body)
