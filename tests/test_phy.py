import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from beamsight.phy import (
    SPEED_OF_LIGHT,
    ChannelPath,
    Codebook,
    channel_vector,
    los_status,
    path_beams,
    received_power,
    segments_blocked,
    select_beam,
    synthesize_paths,
)
from beamsight.scene import Basestation, SceneObject, UlaGeometry, VehicleClass, World

WAVELENGTH = SPEED_OF_LIGHT / 28e9


def make_ula(elements=8, spacing=None, wavelength=WAVELENGTH, axis_azimuth=0.0):
    return UlaGeometry(elements=elements, spacing=spacing or wavelength / 2,
                       wavelength=wavelength, axis_azimuth=axis_azimuth)


def random_paths(rng, n, max_delay):
    return [
        ChannelPath(
            gain=complex(rng.normal(), rng.normal()),
            delay=rng.uniform(0.0, max_delay * 0.95),
            azimuth=rng.uniform(-math.pi, math.pi),
            elevation=rng.uniform(-0.5, 0.5),
        )
        for _ in range(n)
    ]


class TestSteeringVector:
    def test_unit_norm_all_beams(self):
        cb = Codebook.build(make_ula(elements=32), 64)
        norms = np.linalg.norm(cb.vectors, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_matches_scalar_oracle(self):
        M, Q, d = 4, 12, WAVELENGTH / 2
        vectors = Codebook.build(make_ula(elements=M, spacing=d), Q).vectors
        for q in range(Q):
            phi = 2 * math.pi * q / Q
            for m in range(M):
                expected = cmath.exp(1j * 2 * math.pi / WAVELENGTH * d * m
                                     * math.cos(phi)) / math.sqrt(M)
                assert vectors[q, m] == pytest.approx(expected, abs=1e-14)


from oracles import sampled_segment_oracle, scalar_channel as oracle_channel


class TestChannelVector:
    def test_empty_paths_zero_channel(self):
        ula = make_ula()
        h = channel_vector([], ula, subcarriers=16, cyclic_prefix=8, sample_time=1e-7)
        assert h.shape == (16, 8)
        assert np.all(h == 0)

    def test_single_zero_delay_path_no_phase_ramp(self):
        ula = make_ula()
        # broadside: arrival perpendicular to the array axis
        path = ChannelPath(gain=1.0, delay=0.0, azimuth=math.pi / 2, elevation=0.0)
        h = channel_vector([path], ula, subcarriers=8, cyclic_prefix=4, sample_time=1e-7)
        for k in range(8):
            assert np.allclose(h[k], np.ones(8), atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            M = int(rng.integers(1, 5))
            K = int(rng.integers(1, 9))
            L = int(rng.integers(1, 4))
            D = int(rng.integers(1, 9))
            ts = 10 ** rng.uniform(-8, -6)
            ula = make_ula(elements=M, axis_azimuth=rng.uniform(0, 2 * math.pi))
            paths = random_paths(rng, L, max_delay=D * ts)
            got = channel_vector(paths, ula, K, D, ts)
            want = oracle_channel(paths, ula, K, D, ts)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_rejects_delay_beyond_prefix(self):
        ula = make_ula()
        path = ChannelPath(gain=1.0, delay=9e-7, azimuth=0.0, elevation=0.0)
        with pytest.raises(ValueError):
            channel_vector([path], ula, subcarriers=8, cyclic_prefix=8, sample_time=1e-7)

    def test_linear_in_gains(self):
        rng = np.random.default_rng(5)
        ula = make_ula(elements=4)
        paths = random_paths(rng, 3, max_delay=8e-7)
        h = channel_vector(paths, ula, 8, 8, 1e-7)
        for c in (2.5, -1.0 + 0.5j):
            scaled = [ChannelPath(p.gain * c, p.delay, p.azimuth, p.elevation)
                      for p in paths]
            hs = channel_vector(scaled, ula, 8, 8, 1e-7)
            assert np.max(np.abs(hs - c * h)) < 1e-10


def path_columns(paths):
    """The four (users, L) path arrays of lists of ChannelPaths."""
    return [np.array([[getattr(p, key) for p in ps] for ps in paths])
            for key in ("gain", "delay", "azimuth", "elevation")]


class TestTapBeams:
    """``path_beams``: the scan over the taps folded modulo K, in the path domain."""

    @pytest.mark.parametrize("subcarriers", [1, 3, 5, 8, 15, 16, 17, 64])
    def test_matches_k_domain_scan(self, subcarriers):
        # D = 16 taps: K < D folds the taps, K >= D leaves them as they are
        rng = np.random.default_rng(subcarriers)
        ula = make_ula(elements=8)
        cb = Codebook.build(ula, 16)
        paths = [random_paths(rng, 3, max_delay=16e-7) for _ in range(40)]
        want = [select_beam(channel_vector(ps, ula, subcarriers, 16, 1e-7), cb)
                for ps in paths]
        got = path_beams(*path_columns(paths), ula, cb, 16, 1e-7, subcarriers)
        assert got.tolist() == want

    def test_zero_gain_paths_add_nothing(self):
        rng = np.random.default_rng(4)
        ula = make_ula(elements=8)
        cb = Codebook.build(ula, 32)
        paths = [random_paths(rng, 3, max_delay=16e-7) for _ in range(20)]
        silent = [[*ps[:1], *(replace(p, gain=0j) for p in ps[1:])] for ps in paths]
        want = path_beams(*path_columns([ps[:1] for ps in paths]), ula, cb, 16, 1e-7, 8)
        got = path_beams(*path_columns(silent), ula, cb, 16, 1e-7, 8)
        assert got.tolist() == want.tolist()
        assert len(set(want.tolist())) > 1

    def test_zero_channel_gives_beam_one(self):
        cb = Codebook.build(make_ula(elements=4), 8)
        zeros = np.zeros((2, 3))
        assert path_beams(zeros.astype(complex), zeros, zeros, zeros, make_ula(elements=4),
                          cb, 16, 1e-7, 64).tolist() == [1, 1]

    def test_tie_breaks_to_lowest_index(self):
        # beams q and Q - q are the same vector, and so are beams 1 and Q/2 + 1
        # at half-wavelength spacing: a path matched to beam q (h . f peaks at
        # f = conj(a), at azimuth pi - 2*pi*q/Q) scans to the lowest copy of it
        ula = make_ula(elements=8)
        cb = Codebook.build(ula, 16)
        paths = [[ChannelPath(gain=1.0, delay=2e-7, azimuth=math.pi - angle, elevation=0.0)]
                 for angle in cb.angles]
        want = [next(j for j in range(16) if np.array_equal(cb.vectors[j], f)) + 1
                for f in cb.vectors]
        assert want == [1, 2, 3, 4, 5, 6, 7, 8, 1, 8, 7, 6, 5, 4, 3, 2]
        assert path_beams(*path_columns(paths), ula, cb, 16, 1e-7, 64).tolist() == want

    def test_no_users(self):
        ula = make_ula()
        got = path_beams(*(np.zeros((0, 3)) for _ in range(4)), ula, Codebook.build(ula, 8),
                         16, 1e-7, 64)
        assert got.shape == (0,)

    def test_rejects_delay_beyond_prefix(self):
        ula = make_ula()
        paths = [[ChannelPath(gain=1.0, delay=16e-7, azimuth=0.0, elevation=0.0)]]
        with pytest.raises(ValueError, match="cyclic prefix"):
            path_beams(*path_columns(paths), ula, Codebook.build(ula, 8), 16, 1e-7, 64)


class TestReceivedPower:
    def test_zero_channel(self):
        h = np.zeros((8, 4), dtype=complex)
        f = np.ones(4) / 2.0
        assert received_power(h, f) == 0.0

    def test_conjugate_matched_gives_k_times_power(self):
        cb = Codebook.build(make_ula(elements=8), 16)
        f = cb.beam(5)
        K, P = 12, 3.5
        h = np.tile(np.conj(f), (K, 1))
        assert received_power(h, f, P) == pytest.approx(K * P, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            K, M = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            h = rng.normal(size=(K, M)) + 1j * rng.normal(size=(K, M))
            f = rng.normal(size=M) + 1j * rng.normal(size=M)
            total = 0.0
            for k in range(K):
                acc = sum(h[k, m] * f[m] for m in range(M))
                total += abs(acc) ** 2
            assert received_power(h, f) == pytest.approx(total, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            received_power(np.zeros((4, 3), dtype=complex), np.zeros(5, dtype=complex))


class TestSelectBeam:
    def test_singleton_codebook(self):
        ula = make_ula(elements=4)
        cb = Codebook.build(ula, 1)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        assert select_beam(h, cb) == 1

    def test_matched_beam_wins(self):
        cb = Codebook.build(make_ula(elements=16), 64)
        h = np.tile(np.conj(cb.beam(3)), (8, 1))
        assert select_beam(h, cb) == 3

    def test_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(9)
        cb = Codebook.build(make_ula(elements=8), 16)
        for _ in range(50):
            h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
            best, best_power = None, -1.0
            for q in range(cb.n_beams):
                p = received_power(h, cb.vectors[q])
                if p > best_power:
                    best, best_power = q + 1, p
            assert select_beam(h, cb) == best

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        ula = make_ula(elements=8)
        cb = Codebook.build(ula, 32)
        paths = random_paths(rng, 3, max_delay=8e-7)
        h = channel_vector(paths, ula, 8, 8, 1e-7)
        b = select_beam(h, cb)
        assert select_beam(5.0 * h, cb) == b

    def test_mirror_symmetry(self):
        # Reflecting arrivals about broadside flips the projection onto the
        # array axis; with gains conjugated as well the beam-power profile is
        # exactly reflected, so the selected quantized angle flips its cosine.
        rng = np.random.default_rng(21)
        ula = make_ula(elements=16)
        cb = Codebook.build(ula, 64)
        for _ in range(10):
            paths = random_paths(rng, 2, max_delay=8e-7)
            mirrored = [ChannelPath(np.conj(p.gain), p.delay, math.pi - p.azimuth,
                                    p.elevation)
                        for p in paths]
            h1 = channel_vector(paths, ula, 8, 8, 1e-7)
            h2 = channel_vector(mirrored, ula, 8, 8, 1e-7)
            b1, b2 = select_beam(h1, cb), select_beam(h2, cb)
            p1 = received_power(h1, cb.beam(b1))
            p2 = received_power(h2, cb.beam(b2))
            assert p1 == pytest.approx(p2, rel=1e-9)
            # the mirrored channel peaks at the negated quantized cosine
            # (up to duplicate-beam ties, which share identical vectors)
            c1 = math.cos(cb.angles[b1 - 1])
            q2 = int(np.argmin(np.abs(np.cos(cb.angles) + c1)))
            assert received_power(h2, cb.vectors[q2]) == pytest.approx(p2, rel=1e-9)


def make_bs(position=(0.0, -6.0, 4.5)):
    return Basestation(bs_id=1, position=np.array(position),
                       ula=make_ula(elements=8), cameras=[])


def box_object(object_id, center, dims, cls=VehicleClass.CAR):
    return SceneObject(object_id=object_id, object_class=cls,
                       center=np.array(center, dtype=float),
                       dims=np.array(dims, dtype=float),
                       velocity=np.zeros(3), lane=0)


def make_street(objects):
    return World(objects=objects, street_length=200.0, lanes=6, lane_width=3.5,
                 basestations=[], wall_south=-10.0, wall_north=31.0)


class TestLosStatus:
    def test_empty_street_is_los(self):
        bs = make_bs()
        user = box_object(0, (30.0, 5.25, 0.75), (4.6, 1.8, 1.5))
        assert los_status(bs, user, make_street([user])) == 0

    def test_bus_straddling_midpoint_blocks(self):
        bs = make_bs(position=(0.0, -6.0, 4.5))
        user = box_object(0, (0.0, 19.25, 0.75), (4.6, 1.8, 1.5))
        # midpoint of the segment sits inside this bus
        mid = (bs.position + user.antenna_point) / 2
        bus = box_object(1, mid, (12.0, 2.55, 3.2), cls=VehicleClass.BUS)
        assert los_status(bs, user, make_street([user, bus])) == 1

    def test_agrees_with_sampled_segment_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(2000):
            bs = make_bs(position=(rng.uniform(0, 200), -6.0, 4.5))
            user = box_object(0, (rng.uniform(0, 200), rng.uniform(1, 20), 0.75),
                              (4.6, 1.8, 1.5))
            others = []
            for i in range(int(rng.integers(1, 5))):
                cls = [VehicleClass.CAR, VehicleClass.BUS,
                       VehicleClass.TRUCK][int(rng.integers(0, 3))]
                dims = {VehicleClass.CAR: (4.6, 1.8, 1.5),
                        VehicleClass.BUS: (12.0, 2.55, 3.2),
                        VehicleClass.TRUCK: (9.5, 2.5, 3.6)}[cls]
                others.append(box_object(i + 1, (rng.uniform(0, 200), rng.uniform(1, 20),
                                                 dims[2] / 2), dims, cls=cls))
            world = make_street([user] + others)
            got = los_status(bs, user, world)
            boxes = [o.bounds() for o in others]
            want = sampled_segment_oracle(bs.position, user.antenna_point, boxes)
            assert got == want


    def test_boxes_per_segment_match_shared_boxes(self):
        # per-segment boxes, padded and masked, as the seed pass batches a
        # block of frames: each row equals its own call on shared boxes
        rng = np.random.default_rng(41)
        p0 = np.array([100.0, -6.0, 4.5])
        targets = np.column_stack([rng.uniform(0, 200, 40), rng.uniform(1, 20, 40),
                                   np.full(40, 1.5)])
        counts = rng.integers(1, 7, size=40)
        lo = np.column_stack([rng.uniform(0, 200, (40, 6)), rng.uniform(1, 20, (40, 6)),
                              np.zeros((40, 6))]).reshape(40, 3, 6).transpose(0, 2, 1)
        hi = lo + rng.uniform(1.0, 12.0, size=(40, 6, 3))
        pad = np.arange(6) >= counts[:, None]
        got = segments_blocked(p0, targets, lo, hi, pad)
        want = [segments_blocked(p0, targets[i:i + 1], lo[i, :n], hi[i, :n],
                                 np.zeros((1, n), dtype=bool))[0]
                for i, n in enumerate(counts.tolist())]
        assert got.tolist() == want
        assert 0 < sum(want) < 40

class TestSynthesizePaths:
    def test_los_direct_delay(self):
        bs = make_bs()
        user = box_object(0, (40.0, 10.0, 0.75), (4.6, 1.8, 1.5))
        world = make_street([user])
        paths = synthesize_paths(bs, user, world)
        dist = float(np.linalg.norm(user.antenna_point - bs.position))
        assert any(abs(p.delay - dist / SPEED_OF_LIGHT) < 1e-12 for p in paths)

    def test_blocked_user_has_no_direct_path(self):
        bs = make_bs(position=(0.0, -6.0, 4.5))
        user = box_object(0, (0.0, 19.25, 0.75), (4.6, 1.8, 1.5))
        mid = (bs.position + user.antenna_point) / 2
        bus = box_object(1, mid, (12.0, 2.55, 3.2), cls=VehicleClass.BUS)
        world = make_street([user, bus])
        paths = synthesize_paths(bs, user, world)
        direct_delay = np.linalg.norm(user.antenna_point - bs.position) / SPEED_OF_LIGHT
        assert all(p.delay > direct_delay + 1e-12 for p in paths)

    def test_reflection_matches_image_source_oracle(self):
        bs = make_bs(position=(50.0, -6.0, 4.5))
        user = box_object(0, (80.0, 12.0, 0.75), (4.6, 1.8, 1.5))
        world = make_street([user])
        paths = synthesize_paths(bs, user, world)
        assert len(paths) == 3  # direct + both walls
        for wall_y in (world.wall_south, world.wall_north):
            image = bs.position.copy()
            image[1] = 2 * wall_y - image[1]
            length = float(np.linalg.norm(user.antenna_point - image))
            delays = [p.delay for p in paths]
            assert any(abs(d - length / SPEED_OF_LIGHT) < 1e-15 for d in delays)

    def test_reflection_attenuated_relative_to_direct(self):
        bs = make_bs(position=(50.0, -6.0, 4.5))
        user = box_object(0, (60.0, 10.0, 0.75), (4.6, 1.8, 1.5))
        world = make_street([user])
        paths = sorted(synthesize_paths(bs, user, world), key=lambda p: p.delay)
        direct, first_refl = paths[0], paths[1]
        dist = np.linalg.norm(user.antenna_point - bs.position)
        length = first_refl.delay * SPEED_OF_LIGHT
        # amplitude ratio = (dist/length) * reflection loss
        expected = abs(direct.gain) * dist / length * 10 ** (-10 / 20)
        assert abs(first_refl.gain) == pytest.approx(expected, rel=1e-9)

