import math

import numpy as np
import pytest

from oracles import (
    all_points_project_boxes,
    dense_projection_hull,
    scalar_detections,
    unoccluded_fraction,
)

from beamsight import scene
from beamsight.config import ScenarioConfig
from beamsight.pipeline import read_trace, read_trace_rows, write_trace
from beamsight.scene import (
    OCCLUSION_GRID,
    Camera,
    DetectorNoiseModel,
    SceneObject,
    VehicleClass,
    World,
    build_world,
    detect,
    project_boxes,
    project_object,
    project_objects,
    step_world,
)


def make_object(object_id=0, cls=VehicleClass.CAR, center=(0.0, 0.0, 0.75),
                dims=None, velocity=(0.0, 0.0, 0.0), lane=0):
    if dims is None:
        dims = {VehicleClass.CAR: (4.6, 1.8, 1.5),
                VehicleClass.BUS: (12.0, 2.55, 3.2),
                VehicleClass.TRUCK: (9.5, 2.5, 3.6)}[cls]
    return SceneObject(object_id=object_id, object_class=cls,
                       center=np.array(center, dtype=float),
                       dims=np.array(dims, dtype=float),
                       velocity=np.array(velocity, dtype=float), lane=lane)


def make_world(objects, length=200.0):
    return World(objects=objects, street_length=length, lanes=6, lane_width=3.5,
                 basestations=[], wall_south=-10.0, wall_north=31.0)


def make_camera(position=(0.0, 0.0, 2.0), yaw=0.0, pitch=0.0,
                hfov=math.radians(70.0), vfov=math.radians(42.0),
                width=1280, height=720, camera_id=1):
    return Camera(camera_id=camera_id, position=np.array(position, dtype=float),
                  yaw=yaw, pitch=pitch, hfov=hfov, vfov=vfov,
                  image_width=width, image_height=height)


class TestStepWorld:
    def test_linear_kinematics(self):
        world = make_world([make_object(center=(0.0, 1.0, 0.75), velocity=(10.0, 0, 0))])
        stepped = step_world(world, 0.1)
        assert stepped.objects[0].center[0] == pytest.approx(1.0)

    def test_zero_velocity_is_identity(self):
        world = make_world([make_object(center=(12.0, 5.0, 0.75))])
        stepped = step_world(world, 3.7)
        assert np.allclose(stepped.objects[0].center, [12.0, 5.0, 0.75])

    def test_wrap_matches_modular_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x = rng.uniform(0.0, 200.0)
            v = rng.uniform(-60.0, 60.0)
            dt = rng.uniform(0.01, 5.0)
            world = make_world([make_object(center=(x, 1.0, 0.75), velocity=(v, 0, 0))])
            stepped = step_world(world, dt)
            expected = math.fmod(x + v * dt, 200.0)
            if expected < 0:
                expected += 200.0
            assert stepped.objects[0].center[0] == pytest.approx(expected, abs=1e-9)
            assert 0.0 <= stepped.objects[0].center[0] < 200.0

    def test_rejects_nonpositive_dt(self):
        world = make_world([make_object()])
        with pytest.raises(ValueError):
            step_world(world, 0.0)

    def test_original_world_unchanged(self):
        world = make_world([make_object(center=(5.0, 1.0, 0.75), velocity=(10.0, 0, 0))])
        step_world(world, 1.0)
        assert world.objects[0].center[0] == 5.0


class TestProjectObject:
    def test_on_axis_object_centered(self):
        cam = make_camera(position=(0, 0, 0))
        obj = make_object(center=(15.0, 0.0, 0.0), dims=(2.0, 2.0, 2.0))
        bbox = project_object(cam, obj)
        assert bbox is not None
        x1, y1, x2, y2 = bbox
        assert (x1 + x2) / 2 == pytest.approx(0.5, abs=1e-9)
        assert (y1 + y2) / 2 == pytest.approx(0.5, abs=1e-9)

    def test_behind_camera_invisible(self):
        cam = make_camera()
        obj = make_object(center=(-15.0, 0.0, 1.0))
        assert project_object(cam, obj) is None

    def test_outside_fov_invisible(self):
        cam = make_camera()
        # far off to the side, outside a 70 degree horizontal FOV
        obj = make_object(center=(5.0, 80.0, 1.0))
        assert project_object(cam, obj) is None

    def test_matches_dense_sampling_oracle(self):
        # Oracle: project a dense grid of box-surface points one by one and
        # take the min/max pixel coordinates; hulls must agree within 1 px.
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            cam = make_camera(position=rng.uniform(-3, 3, size=3) + [0, 0, 3],
                              yaw=rng.uniform(-math.pi, math.pi),
                              pitch=rng.uniform(-0.4, 0.1))
            # object placed in front of the camera
            depth = rng.uniform(6.0, 60.0)
            lateral = rng.uniform(-0.5, 0.5, size=2)
            forward = cam.rotation[2]
            right = cam.rotation[0]
            down = cam.rotation[1]
            center = cam.position + depth * forward + lateral[0] * depth * right \
                + lateral[1] * depth * down
            dims = rng.uniform(1.0, 8.0, size=3)
            obj = make_object(center=center, dims=dims)
            bbox = project_object(cam, obj)

            us, vs = dense_projection_hull(cam, obj, per_edge=25)
            inside = us is not None
            if bbox is None:
                if inside:
                    # oracle hull must be fully outside the image
                    assert (us.max() <= 0 or us.min() >= cam.image_width
                            or vs.max() <= 0 or vs.min() >= cam.image_height)
                continue
            assert inside
            ox1 = max(us.min(), 0.0)
            ox2 = min(us.max(), float(cam.image_width))
            oy1 = max(vs.min(), 0.0)
            oy2 = min(vs.max(), float(cam.image_height))
            x1, y1, x2, y2 = bbox
            assert abs(x1 * cam.image_width - ox1) <= 1.0
            assert abs(x2 * cam.image_width - ox2) <= 1.0
            assert abs(y1 * cam.image_height - oy1) <= 1.0
            assert abs(y2 * cam.image_height - oy2) <= 1.0
            checked += 1
        assert checked == 1000

    def test_near_plane_straddlers_contain_dense_hull(self):
        # Boxes cut by the near plane: the bbox must contain the dense hull
        # of the surface points in front of the camera, and may be None
        # only when that hull misses the image.
        rng = np.random.default_rng(11)
        straddlers = visible = 0
        while straddlers < 300:
            cam = make_camera(position=rng.uniform(-3, 3, size=3) + [0, 0, 3],
                              yaw=rng.uniform(-math.pi, math.pi),
                              pitch=rng.uniform(-0.4, 0.1))
            offset = rng.uniform([-3.0, -2.0, -2.0], [3.0, 2.0, 2.0])
            center = cam.position + offset @ cam.rotation[[2, 0, 1]]
            obj = make_object(center=center, dims=rng.uniform(1.0, 8.0, size=3))
            lo, hi = obj.bounds()
            corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                                for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
            depths = (corners - cam.position) @ cam.rotation[2]
            if not (np.any(depths > 1e-3) and np.any(depths <= 1e-3)):
                continue
            straddlers += 1
            bbox = project_object(cam, obj)
            us, vs = dense_projection_hull(cam, obj, per_edge=25)
            misses = us is None or (us.max() <= 0 or us.min() >= cam.image_width
                                    or vs.max() <= 0 or vs.min() >= cam.image_height)
            if bbox is None:
                assert misses
                continue
            visible += 1
            assert not misses
            x1, y1, x2, y2 = bbox
            assert x1 * cam.image_width <= max(us.min(), 0.0) + 1.0
            assert x2 * cam.image_width >= min(us.max(), float(cam.image_width)) - 1.0
            assert y1 * cam.image_height <= max(vs.min(), 0.0) + 1.0
            assert y2 * cam.image_height >= min(vs.max(), float(cam.image_height)) - 1.0
        assert visible >= 100


class TestProjectBoxes:
    def test_matches_all_points_oracle(self):
        # boxes in front, cut by the near plane and wholly behind the camera,
        # mixed within each call; boxes and visibility must agree bit for bit
        rng = np.random.default_rng(13)
        kinds = np.zeros(3, dtype=int)            # in front, cut, behind
        while kinds.min() < 300:
            cam = make_camera(position=rng.uniform(-3, 3, size=3) + [0, 0, 3],
                              yaw=rng.uniform(-math.pi, math.pi), pitch=rng.uniform(-0.4, 0.1))
            offset = rng.uniform([-8.0, -4.0, -3.0], [8.0, 4.0, 3.0], size=(40, 3))
            centers = cam.position + offset @ cam.rotation[[2, 0, 1]]
            dims = rng.uniform(0.5, 8.0, size=(40, 3))
            got, want = project_boxes(cam, centers, dims), all_points_project_boxes(cam, centers,
                                                                                    dims)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tolist() == want[1].tolist()
            half = dims / 2.0
            corners = centers[:, None, :] + scene._BOX_SIGNS * half[:, None, :]
            front = (corners - cam.position) @ cam.rotation[2] > scene.NEAR_PLANE
            kinds += [np.sum(front.all(1)), np.sum(front.any(1) & ~front.all(1)),
                      np.sum(~front.any(1))]


class TestDetect:
    def test_single_unobstructed_car(self):
        cam = make_camera()
        world = make_world([make_object(center=(20.0, 0.0, 0.75))])
        dets = detect(cam, world)
        assert len(dets) == 1
        assert dets[0].object_class is VehicleClass.CAR
        assert dets[0].confidence == 1.0

    def test_p_miss_one_gives_empty(self):
        cam = make_camera()
        world = make_world([make_object(center=(20.0, 0.0, 0.75))])
        dets = detect(cam, world, DetectorNoiseModel(p_miss=1.0))
        assert dets == []

    def test_fully_occluded_car_absent(self):
        cam = make_camera(position=(0.0, 0.0, 2.0))
        bus = make_object(object_id=1, cls=VehicleClass.BUS, center=(20.0, 0.0, 1.6))
        car = make_object(object_id=2, cls=VehicleClass.CAR, center=(60.0, 0.0, 0.75))
        # geometry sanity: the car's projected box nests inside the bus's
        bb_bus = project_object(cam, bus)
        bb_car = project_object(cam, car)
        assert bb_bus[0] <= bb_car[0] and bb_bus[1] <= bb_car[1]
        assert bb_bus[2] >= bb_car[2] and bb_bus[3] >= bb_car[3]

        world = make_world([bus, car])
        dets = detect(cam, world)
        classes = [d.object_class for d in dets]
        assert VehicleClass.CAR not in classes
        assert VehicleClass.BUS in classes
        # per-pixel rasterization oracle on a coarse global grid agrees
        assert _raster_visible_fraction(cam, car, [bus]) == 0.0

    def test_partial_occlusion_matches_raster_oracle(self):
        cam = make_camera(position=(0.0, 0.0, 2.0))
        bus = make_object(object_id=1, cls=VehicleClass.BUS, center=(20.0, 2.0, 1.6))
        car = make_object(object_id=2, cls=VehicleClass.CAR, center=(45.0, 0.0, 0.75))
        world = make_world([bus, car])
        dets = detect(cam, world, min_visible_fraction=0.0)
        car_det = [d for d in dets if d.object_class is VehicleClass.CAR]
        assert len(car_det) == 1
        oracle = _raster_visible_fraction(cam, car, [bus])
        assert car_det[0].confidence == pytest.approx(oracle, abs=0.03)

    def test_bbox_bounds_after_jitter(self):
        cam = make_camera()
        rng = np.random.default_rng(3)
        world = make_world([
            make_object(object_id=i, center=(rng.uniform(8, 60), rng.uniform(-6, 6), 0.75))
            for i in range(8)
        ])
        noise = DetectorNoiseModel(jitter_sigma=40.0, rng_seed=5)
        for trial in range(30):
            dets = detect(cam, world, noise, rng=np.random.default_rng(trial))
            for d in dets:
                x1, y1, x2, y2 = d.bbox
                assert 0.0 <= x1 < x2 <= 1.0
                assert 0.0 <= y1 < y2 <= 1.0

    def test_noiseless_determinism(self):
        cam = make_camera()
        world = make_world([make_object(object_id=i, center=(10.0 + 7 * i, -3.0 + i, 0.75))
                            for i in range(5)])
        assert detect(cam, world) == detect(cam, world)

    def test_order_independence(self):
        cam = make_camera()
        objs = [make_object(object_id=i, cls=cls, center=(12.0 + 6 * i, -4.0 + 1.5 * i, 0.9))
                for i, cls in enumerate([VehicleClass.CAR, VehicleClass.BUS,
                                         VehicleClass.CAR, VehicleClass.TRUCK,
                                         VehicleClass.CAR])]
        noise = DetectorNoiseModel(p_miss=0.3, jitter_sigma=2.0, rng_seed=9)
        base = detect(cam, make_world(objs), noise, rng=np.random.default_rng(1))
        for perm_seed in range(5):
            shuffled = list(objs)
            np.random.default_rng(perm_seed).shuffle(shuffled)
            assert detect(cam, make_world(shuffled), noise,
                          rng=np.random.default_rng(1)) == base


class TestDetectorNoise:
    def test_matches_scalar_oracle(self):
        # wide jitter clips boxes at the image edges and collapses some
        cam = make_camera(position=(0.0, 0.0, 4.0), pitch=-0.1)
        noise = DetectorNoiseModel(p_miss=0.3, jitter_sigma=60.0, p_false_positive=0.5)
        rng = np.random.default_rng(5)
        clipped = 0
        for trial in range(60):
            classes = [list(VehicleClass)[k] for k in rng.integers(0, 3, size=12)]
            world = make_world([
                make_object(object_id=int(i), cls=cls,
                            center=(rng.uniform(3, 80), rng.uniform(-30, 30), 1.0))
                for i, cls in zip(rng.permutation(40)[:12], classes)])
            got = detect(cam, world, noise, np.random.default_rng(trial), 0.2)
            assert got == scalar_detections(cam, world, noise, np.random.default_rng(trial), 0.2)
            clipped += sum(0.0 in d.bbox or 1.0 in d.bbox for d in got)
        assert clipped > 20


def detect_and_oracle(monkeypatch, boxes, depths):
    """detect's confidences when object i projects to boxes[i] (None: out of
    view) at forward depth depths[i], and the raster-loop oracle's."""
    objects = [make_object(object_id=i, center=(d, 0.0, 0.75)) for i, d in enumerate(depths)]
    # detect's rows are in id order, so row i is object i
    monkeypatch.setattr(scene, "project_boxes", lambda cam, centers, dims: (
        np.array([b or (0.0, 0.0, 0.0, 0.0) for b in boxes], dtype=float).reshape(-1, 4),
        np.array([b is not None for b in boxes], dtype=bool)))
    dets = detect(make_camera(), make_world(objects), min_visible_fraction=0.0)
    shown = [(b, float(d)) for b, d in zip(boxes, depths) if b is not None]
    want = [unoccluded_fraction(b, d, shown[:i] + shown[i + 1:])
            for i, (b, d) in enumerate(shown)]
    return [d.confidence for d in dets], want


def cell_centres(lo, hi):
    return lo + (np.arange(OCCLUSION_GRID) + 0.5) / OCCLUSION_GRID * (hi - lo)


def random_box_set(rng):
    """Up to 8 boxes with edges on a coarse grid or on an earlier box's cell
    centre, and integer depths, so that equal depths are common."""
    boxes, depths = [], []
    for _ in range(int(rng.integers(0, 9))):
        coords = []
        for axis in (0, 1):
            ends = set()
            while len(ends) < 2:
                ref = boxes[int(rng.integers(len(boxes)))] if boxes else None
                if ref is not None and rng.random() < 0.4:
                    ends.add(float(rng.choice(cell_centres(ref[axis], ref[axis + 2]))))
                else:
                    ends.add(int(rng.integers(0, 17)) / 16)
            coords.append(sorted(ends))
        boxes.append((coords[0][0], coords[1][0], coords[0][1], coords[1][1]))
        depths.append(float(rng.integers(1, 5)))
    return boxes, depths


class TestVisibleFractions:
    """The occlusion kernel over a block of frames against the raster loop."""

    def test_random_blocks_of_frames(self):
        rng = np.random.default_rng(29)
        clear = covered = 0
        for _ in range(60):
            # frames of different box counts, some of them empty
            frames = [random_box_set(rng) for _ in range(int(rng.integers(1, 7)))]
            boxes = [b for fb, _ in frames for b in fb]
            depths = [d for _, fd in frames for d in fd]
            frame = np.repeat(np.arange(len(frames)), [len(fb) for fb, _ in frames])
            got = scene._visible_fractions(np.array(boxes).reshape(-1, 4),
                                           np.array(depths), frame).tolist()
            want = []
            for fb, fd in frames:
                for i, (box, depth) in enumerate(zip(fb, fd)):
                    others = [(o, od) for j, (o, od) in enumerate(zip(fb, fd)) if j != i]
                    want.append(unoccluded_fraction(box, depth, others))
                    nearer = [o for o, od in others if od < depth
                              and o[2] > box[0] and o[0] < box[2]
                              and o[3] > box[1] and o[1] < box[3]]
                    clear += not nearer
                    covered += bool(nearer)
            assert got == want
        assert clear > 200 and covered > 200

    def test_boxes_of_other_frames_do_not_occlude(self):
        near, far = (0.1, 0.1, 0.9, 0.9), (0.3, 0.3, 0.5, 0.5)
        boxes = np.array([far, near, far, far, near])
        got = scene._visible_fractions(boxes, np.array([4.0, 1.0, 4.0, 4.0, 4.0]),
                                       np.array([0, 0, 1, 2, 2]))
        # frame 1 holds the far box alone; in frame 2 the boxes share a depth
        assert got.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]

    def test_no_boxes(self):
        assert scene._visible_fractions(np.zeros((0, 4)), np.zeros(0),
                                        np.zeros(0, dtype=int)).shape == (0,)

    @pytest.mark.parametrize("case", ["edges on cell centres", "whole target covered",
                                      "more than 64 occluders"])
    def test_one_frame_edge_cases(self, case):
        boxes, depths, first = occlusion_edge_case(case)
        got = scene._visible_fractions(np.array(boxes, dtype=float), np.array(depths),
                                       np.zeros(len(boxes), dtype=int)).tolist()
        shown = list(zip(boxes, depths))
        assert got == [unoccluded_fraction(b, d, shown[:i] + shown[i + 1:])
                       for i, (b, d) in enumerate(shown)]
        assert got[0] == first if first is not None else 0.0 < got[0] < 0.9


def occlusion_edge_case(case):
    """Boxes and depths of one frame, and the first box's fraction when known."""
    if case == "edges on cell centres":
        # the bounds are inclusive: a cell centre on an occluder edge is covered
        cx, cy = cell_centres(0.2, 0.7), cell_centres(0.1, 0.9)
        boxes = [(0.2, 0.1, 0.7, 0.9),
                 (cx[0], cy[3], cx[0], cy[3]),          # one cell, as a point
                 (cx[17], cy[0], cx[40], cy[63]),       # columns 17-40, every row
                 (0.0, cy[50], cx[63], cy[50])]         # every column of row 50
        return boxes, [6.0, 1.0, 2.0, 3.0], 1.0 - (1 + 24 * 64 + 64 - 24) / OCCLUSION_GRID**2
    if case == "whole target covered":
        return [(0.3, 0.4, 0.5, 0.6), (0.3, 0.4, 0.5, 0.6)], [2.0, 1.0], 0.0
    # 100 thin nearer strips over one target, each a column or none
    rng = np.random.default_rng(3)
    strips = [(x, float(rng.uniform(0.0, 0.5)), x + 0.01, float(rng.uniform(0.5, 1.0)))
              for x in rng.uniform(0.0, 0.99, size=100)]
    return [(0.0, 0.0, 1.0, 1.0), *strips], [9.0, *rng.uniform(1.0, 8.0, size=100)], None


class TestOcclusionOracle:
    """detect confidences equal the per-box raster loop, compared as floats."""

    def test_random_box_sets(self, monkeypatch):
        rng = np.random.default_rng(17)
        cases = 0
        for _ in range(300):
            boxes, depths = random_box_set(rng)
            hidden = rng.random(len(boxes)) < 0.1
            boxes = [None if h else b for b, h in zip(boxes, hidden)]
            got, want = detect_and_oracle(monkeypatch, boxes, depths)
            assert got == want
            cases += len(want)
        assert cases > 1000

    def test_edges_on_cell_centres(self, monkeypatch):
        cx, cy = cell_centres(0.25, 0.75), cell_centres(0.25, 0.75)
        boxes = [(0.25, 0.25, 0.75, 0.75),
                 (cx[10], cy[20], 0.9, 0.9),     # covers columns 10.., rows 20..
                 (0.1, 0.1, cx[5], cy[7])]       # covers columns ..5, rows ..7
        got, want = detect_and_oracle(monkeypatch, boxes, [5.0, 1.0, 2.0])
        assert got == want
        assert got[0] == 1.0 - (54 * 44 + 6 * 8) / OCCLUSION_GRID**2

    def test_equal_depths_do_not_occlude(self, monkeypatch):
        boxes = [(0.2, 0.2, 0.6, 0.6), (0.3, 0.3, 0.7, 0.7)]
        got, want = detect_and_oracle(monkeypatch, boxes, [3.0, 3.0])
        assert got == want == [1.0, 1.0]

    def test_touching_occluder_does_not_overlap(self, monkeypatch):
        # one ulp wide: the first cell centre rounds onto the shared edge
        boxes = [(0.5, 0.2, float(np.nextafter(0.5, 1.0)), 0.8), (0.3, 0.2, 0.5, 0.8)]
        got, want = detect_and_oracle(monkeypatch, boxes, [4.0, 1.0])
        assert got == want
        assert got[0] == 1.0

    def test_fully_covered_target(self, monkeypatch):
        boxes = [(0.3, 0.3, 0.5, 0.5), (0.1, 0.1, 0.9, 0.9)]
        got, want = detect_and_oracle(monkeypatch, boxes, [4.0, 1.0])
        assert got == want == [0.0, 1.0]

    @pytest.mark.parametrize("boxes", [[], [None, None], [None, (0.1, 0.2, 0.3, 0.4)]])
    def test_zero_or_one_visible_box(self, monkeypatch, boxes):
        got, want = detect_and_oracle(monkeypatch, boxes, [2.0] * len(boxes))
        assert got == want == [1.0] * sum(b is not None for b in boxes)

    def test_projected_street(self):
        cam = make_camera(position=(0.0, 0.0, 4.0), pitch=-0.1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            classes = [list(VehicleClass)[k] for k in rng.integers(0, 3, size=12)]
            world = make_world([
                make_object(object_id=i, cls=cls,
                            center=(rng.uniform(5, 80), rng.uniform(-8, 8), 1.0))
                for i, cls in enumerate(classes)])
            boxes = project_objects(cam, world.objects)
            centers = np.stack([o.center for o in world.objects])
            depths = ((centers - cam.position) @ cam.rotation[2]).tolist()
            shown = [(b, d) for b, d in zip(boxes, depths) if b is not None]
            want = [unoccluded_fraction(b, d, shown[:i] + shown[i + 1:])
                    for i, (b, d) in enumerate(shown)]
            dets = detect(cam, world, min_visible_fraction=0.0)
            assert [d.confidence for d in dets] == want


def _raster_visible_fraction(cam, target, occluders, grid=256):
    """Per-pixel occlusion oracle: paint boxes into a global depth raster."""
    def object_depth(cam, obj):
        """Forward distance of the object centre from the camera."""
        return float((obj.center - cam.position) @ cam.rotation[2])

    boxes = [(project_object(cam, o), object_depth(cam, o)) for o in occluders]
    tb = project_object(cam, target)
    td = object_depth(cam, target)
    xs = (np.arange(grid) + 0.5) / grid
    gx, gy = np.meshgrid(xs, xs)
    in_target = (gx >= tb[0]) & (gx <= tb[2]) & (gy >= tb[1]) & (gy <= tb[3])
    blocked = np.zeros_like(in_target)
    for bb, depth in boxes:
        if bb is None or depth >= td:
            continue
        blocked |= (gx >= bb[0]) & (gx <= bb[2]) & (gy >= bb[1]) & (gy <= bb[3])
    visible = in_target & ~blocked
    return visible.sum() / max(in_target.sum(), 1)


class TestBuildWorld:
    def test_paper_scale_defaults(self):
        world = build_world(ScenarioConfig())
        counts = {cls: 0 for cls in VehicleClass}
        for obj in world.objects:
            counts[obj.object_class] += 1
        assert counts[VehicleClass.CAR] == 50
        assert counts[VehicleClass.BUS] == 8
        assert counts[VehicleClass.TRUCK] == 2

    def test_basestation_geometry(self):
        world = build_world(ScenarioConfig(cars=6, buses=1, trucks=1))
        assert len(world.basestations) == 2
        bs1, bs2 = world.basestations
        gap = np.linalg.norm(bs1.position - bs2.position)
        assert gap == pytest.approx(80.0, abs=1e-9)
        assert bs1.position[2] == pytest.approx(4.5)
        assert bs2.position[2] == pytest.approx(4.5)
        # opposite sides of the street
        street_width = world.lanes * world.lane_width
        assert bs1.position[1] < 0 < street_width < bs2.position[1]
        assert [c.camera_id for c in bs1.cameras] == [1, 2, 3]
        assert [c.camera_id for c in bs2.cameras] == [4, 5, 6]

    def test_vehicles_move_along_street(self):
        world = build_world(ScenarioConfig(cars=12, buses=2, trucks=1, seed=5))
        speeds = set()
        for obj in world.objects:
            assert obj.velocity[1] == 0.0 and obj.velocity[2] == 0.0
            assert obj.velocity[0] != 0.0
            speeds.add(abs(obj.velocity[0]))
        assert len(speeds) == len(world.objects)  # all distinct speeds

    def test_height_ordering(self):
        world = build_world(ScenarioConfig(cars=3, buses=2, trucks=1))
        heights = {}
        for obj in world.objects:
            heights[obj.object_class] = obj.dims[2]
        assert heights[VehicleClass.BUS] > heights[VehicleClass.CAR]
        assert heights[VehicleClass.TRUCK] > heights[VehicleClass.CAR]

    def test_deterministic_given_seed(self):
        a = build_world(ScenarioConfig(cars=10, buses=2, trucks=1, seed=3))
        b = build_world(ScenarioConfig(cars=10, buses=2, trucks=1, seed=3))
        for oa, ob in zip(a.objects, b.objects):
            assert np.array_equal(oa.center, ob.center)
            assert np.array_equal(oa.velocity, ob.velocity)


class TestRecordRoundtrip:
    def test_object_roundtrip(self, tmp_path):
        # every field of an object through the trace's columns
        obj = make_object(object_id=17, cls=VehicleClass.TRUCK,
                          center=(12.5, 8.75, 1.8), velocity=(-9.5, 0, 0), lane=4)
        cfg = ScenarioConfig()
        write_trace(tmp_path, cfg, [([obj], np.reshape(obj.center, (1, 1, 3)))])
        rows = read_trace_rows(tmp_path)[2]
        assert rows.ids.tolist() == [obj.object_id] and rows.frame.tolist() == [0]
        assert scene.CLASSES[rows.classes[0]] is obj.object_class
        assert np.array_equal(rows.centers, [obj.center])
        assert np.array_equal(rows.dims, [obj.dims])
        [[back]] = [w.objects for w in read_trace(tmp_path)[1]]
        assert (back.object_id, back.object_class, back.lane) == \
            (obj.object_id, obj.object_class, obj.lane)
        for field in ("center", "dims", "velocity"):
            assert np.array_equal(getattr(back, field), getattr(obj, field)), field
