import math

import numpy as np
import pytest

from cocyclelab import cli
from cocyclelab import scenarios as sc
from cocyclelab.errors import LiftFailed
from cocyclelab.exact import GOLDEN_MEAN
from cocyclelab.sl2 import operator_norm
from sl2_axes import singular_axes


GOLDEN_ANGLE = 2 * math.pi * float(GOLDEN_MEAN)


class TestHopfGenerator:
    def test_zero_angles(self):
        assert sc.hopf_generator(0.0, 0.0).entries() == (2.0, 0.0, 0.0, 0.5)

    def test_norm_always_two(self):
        rng = np.random.default_rng(1)
        for theta, alpha in rng.uniform(0, 2 * math.pi, size=(50, 2)):
            assert abs(operator_norm(sc.hopf_generator(theta, alpha)) - 2.0) < 1e-12

    def test_unstable_axis(self):
        for theta in (0.2, 1.9, 4.5):
            ax = singular_axes(sc.hopf_generator(theta, 0.8))
            dot = abs(ax.u[0] * math.cos(theta) + ax.u[1] * math.sin(theta))
            assert abs(dot - 1.0) < 1e-12

    def test_axes_orthogonal_and_equivariant(self):
        theta, alpha = 0.6, GOLDEN_ANGLE
        m = sc.hopf_generator(theta, alpha)
        ax = singular_axes(m)
        assert abs(ax.u[0] * ax.s[0] + ax.u[1] * ax.s[1]) < 1e-12
        img = m.apply((math.cos(theta), math.sin(theta)))
        tgt = (math.cos(theta + alpha), math.sin(theta + alpha))
        cross = img[0] * tgt[1] - img[1] * tgt[0]
        assert abs(cross) < 1e-12  # E^u maps to E^u at theta + alpha


class TestHopfSystem:
    def test_invariant_circle(self):
        h = sc.HopfSystem(GOLDEN_ANGLE)
        z, w = h.on_invariant_circle(1.1)
        nz, nw = h.step(z, w)
        assert abs(nz) < 1e-15
        turn = (math.atan2(nw.imag, nw.real) - 1.1) % (2 * math.pi)
        assert abs(turn - GOLDEN_ANGLE % (2 * math.pi)) < 1e-12

    def test_off_circle_attracted_by_conjugate_translation(self):
        # h(z, w) = w/z intertwines with w -> w + 1: |w/z| grows monotonically
        h = sc.HopfSystem(GOLDEN_ANGLE)
        z, w = complex(0.6, 0.0), complex(0.0, 0.8)
        ratios = []
        for _ in range(40):
            ratios.append(abs(w / z))
            z, w = h.step(z, w)
        assert ratios[-1] > ratios[0]


class TestWinding:
    def test_constant_zero(self):
        f = sc.DirectionField(np.full(256, 1.0))
        assert sc.winding_number(f) == 0

    def test_degree_one(self):
        th = np.arange(512) / 512 * 2 * math.pi
        assert sc.winding_number(sc.DirectionField(np.mod(th, math.pi))) == 1

    def test_degree_two(self):
        th = np.arange(512) / 512 * 2 * math.pi
        assert sc.winding_number(sc.DirectionField(np.mod(2 * th, math.pi))) == 2

    def test_lift_failed(self):
        bad = np.zeros(64)
        bad[32] = math.pi / 2 - 0.01
        with pytest.raises(LiftFailed):
            sc.DirectionField(bad)


class TestCertification:
    def test_certificate_and_winding(self):
        cert = sc.certify_restricted_uh(GOLDEN_ANGLE, grid_size=4096)
        assert cert.expansion >= 2 - 1e-6
        assert cert.winding == 1

    def test_other_rotation_angles(self):
        cert = sc.certify_restricted_uh(2 * math.pi * (math.sqrt(2) - 1), grid_size=2048)
        assert cert.expansion >= 2 - 1e-6
        assert cert.winding == 1

    def test_export(self, tmp_path):
        assert cli.main(["demo-hopf", "--out", str(tmp_path), "--base.grid=512"]) == 0
        lines = (tmp_path / "hopf_field.csv").read_text().strip().splitlines()
        assert lines[0] == "theta,direction_angle"
        assert len(lines) == 513
