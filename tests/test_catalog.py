import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brennanlab import Classification, brennan_integral, catalog, p_distortion
from brennanlab.catalog import (
    NEWTON_TOL,
    DescriptorError,
    MapDescriptor,
    MapDomainError,
    NewtonConvergenceError,
    cardioid_map,
    identity_map,
    koebe_map,
    make_pair,
    moebius_map,
    parse_descriptor,
    sector_map,
)

ALL_NAMES = ["identity", "moebius:0.3,0.2,1.1", "koebe",
             "sector:0.5", "sector:1.5", "sector:2", "cardioid"]


def interior_points(n=100, radius=0.9):
    """Quasi-random interior points on a golden-angle spiral."""
    pts = []
    for i in range(n):
        r = radius * math.sqrt((i + 0.5) / n)
        theta = 2.0 * math.pi * ((i * 0.6180339887498949) % 1.0)
        pts.append(r * cmath.exp(1j * theta))
    return pts


ANGLE = st.floats(0.0, 2.0 * math.pi)

#: invert's w and invert_many's may round differently, within this distance times
#: 1 + |w|: over 30,000 points of Koebe, interior and 1e-2 to 1e-8 inward of its
#: singular points, it read at most 0.41 eps (2.0 eps for sector:0.3)
PATHS_AGREE = 4.0 * 2.0 ** -52


def catalog_maps():
    """Descriptor strings of every family, each with or without a twist (|a| <= 0.95)."""
    coord = st.floats(-0.6, 0.6)
    base = st.one_of(
        st.sampled_from(["identity", "koebe", "cardioid"]),
        st.builds("sector:{!r}".format, st.floats(0.05, 2.0)),
        st.builds("moebius:{!r},{!r},{!r}".format, coord, coord, ANGLE))
    twist = st.builds(
        lambda r, t, theta: f"*moebius:{r * math.cos(t)!r},{r * math.sin(t)!r},{theta!r}",
        st.floats(0.0, 0.95), ANGLE, ANGLE)
    return st.builds(str.__add__, base, st.one_of(st.just(""), twist))


class TestDescriptors:
    def test_parse_and_label_round_trip(self):
        for text in ALL_NAMES + ["koebe*moebius:0.3,0,0.5"]:
            d = parse_descriptor(text)
            assert parse_descriptor(d.label()) == d

    def test_unknown_family(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("annulus")

    def test_bad_parameters(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("sector")
        with pytest.raises(DescriptorError):
            parse_descriptor("sector:2.5")
        with pytest.raises(DescriptorError):
            parse_descriptor("moebius:0.3,0.2")
        with pytest.raises(DescriptorError):
            parse_descriptor("moebius:1.5,0,0")
        with pytest.raises(DescriptorError):
            parse_descriptor("koebe:1")
        with pytest.raises(DescriptorError):
            parse_descriptor("koebe*sector:1.5")

    def test_sector_opening_checked_past_the_parser(self):
        with pytest.raises(DescriptorError, match="opening parameter must lie in"):
            sector_map(2.5)
        with pytest.raises(DescriptorError, match=r"^sector:beta takes 1 number\(s\), got 0$"):
            make_pair(MapDescriptor("sector"))

    @pytest.mark.parametrize("make, message", [
        (lambda: MapDescriptor("sector", (0.0,)),
         "sector opening parameter must lie in (0, 2], got 0.0"),
        (lambda: MapDescriptor("moebius", (0.6, 0.8, 0.0)),
         "moebius parameter must satisfy |a| < 1, got (0.6+0.8j)"),
        (lambda: moebius_map(2.0 + 0j), "moebius parameter must satisfy |a| < 1, got (2+0j)"),
        (lambda: replace(MapDescriptor("sector", (1.5,)), params=(3.0,)),
         "sector opening parameter must lie in (0, 2], got 3.0"),
    ], ids=["sector-descriptor", "moebius-descriptor", "moebius-map", "replaced"])
    def test_a_descriptor_checks_itself(self, make, message):
        """Every way of making a descriptor checks it, with the parser's messages."""
        with pytest.raises(DescriptorError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("text, field", [
        ("moebius:0.3,,0.2,1", ""), ("koebe*moebius:,0.1,0,0.5", ""),
        ("moebius:0.3,0.2,1,", ""), ("sector:1.5,", ""), ("sector: ,1.5", " "),
    ])
    def test_empty_fields_are_refused(self, text, field):
        """An empty or blank field is not dropped, which would shift the others into its place."""
        with pytest.raises(DescriptorError) as info:
            parse_descriptor(text)
        assert str(info.value) == f"expected a number, got {field!r}"

    @pytest.mark.parametrize("text", ["koebe*moebius:0,0,nan", "moebius:nan,0,0",
                                      "cardioid*moebius:0.1,0,inf"])
    def test_non_finite_numbers(self, text):
        with pytest.raises(DescriptorError, match="finite"):
            parse_descriptor(text)


class TestEvaluation:
    def test_koebe_at_origin(self):
        pair = koebe_map()
        assert complex(pair.psi(0j)) == 0j
        assert complex(pair.dpsi(0j)) == pytest.approx(1.0)

    def test_koebe_slit_tip_boundary_limit(self):
        # documentation case: the raw closed form sends w = -1 to the slit tip
        pair = koebe_map()
        assert complex(pair.psi(-1.0 + 0j)) == pytest.approx(-0.25)

    def test_identity_passthrough(self):
        pair = identity_map()
        w = 0.3 + 0.4j
        assert complex(pair.psi(w)) == pytest.approx(w)

    def test_sector_two_derivative_at_origin(self):
        # d/dw ((1-w)/(1+w))^beta = -2 beta (1-w)^(beta-1) (1+w)^-(beta+1)
        pair = sector_map(2.0)
        assert complex(pair.dpsi(0j)) == pytest.approx(-4.0)

    def test_cardioid_derivative(self):
        pair = cardioid_map()
        assert complex(pair.dpsi(0.5 + 0j)) == pytest.approx(0.5)

    def test_image_lands_in_domain(self):
        for name in ALL_NAMES:
            pair = make_pair(name)
            for w in interior_points(40):
                assert pair.domain_contains(complex(pair.psi(w)))

    def test_nonvanishing_derivative(self):
        for name in ALL_NAMES:
            pair = make_pair(name)
            mags = np.abs(pair.dpsi(np.array(interior_points(100))))
            assert np.all(mags > 0.0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_finite_differences(self, name):
        pair = make_pair(name)
        h = 1e-5
        for w in interior_points(25, radius=0.8):
            fd = (pair.psi(w + h) - pair.psi(w - h)) / (2.0 * h)
            exact = complex(pair.dpsi(w))
            assert complex(fd) == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_cauchy_riemann(self, name):
        pair = make_pair(name)
        h = 1e-5
        for w in interior_points(100, radius=0.8):
            fx = (pair.psi(w + h) - pair.psi(w - h)) / (2.0 * h)
            fy = (pair.psi(w + 1j * h) - pair.psi(w - 1j * h)) / (2.0 * h)
            # holomorphy: d/dy = i d/dx
            scale = max(abs(complex(fx)), 1e-12)
            assert abs(complex(fy) - 1j * complex(fx)) / scale < 1e-5


def moebius_reference(a, theta):
    """The closed form e^{i theta} (w - a)/(1 - conj(a) w) and its derivative."""
    rot = cmath.exp(1j * theta)

    def psi(w):
        w = np.asarray(w, dtype=complex)
        return rot * (w - a) / (1.0 - np.conj(a) * w)

    def dpsi(w):
        w = np.asarray(w, dtype=complex)
        return rot * (1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * w) ** 2

    return psi, dpsi


class TestMoebius:
    @pytest.mark.parametrize("a, theta", [(0j, 0.0), (0.3 + 0.2j, 1.1),
                                          (-0.9 + 0j, 2.5), (0.5 - 0.4j, -3.0)])
    def test_matches_closed_form_bit_for_bit(self, a, theta):
        rng = np.random.default_rng(7)
        w = np.sqrt(rng.uniform(0.0, 0.99, 500)) * np.exp(2j * np.pi * rng.uniform(size=500))
        ref_psi, ref_dpsi = moebius_reference(a, theta)
        text = f"moebius:{a.real!r},{a.imag!r},{theta!r}"
        for pair in (moebius_map(a, theta), make_pair(text)):
            assert pair.psi(w).tobytes() == ref_psi(w).tobytes()
            assert pair.dpsi(w).tobytes() == ref_dpsi(w).tobytes()
            assert pair.descriptor == parse_descriptor(text)
            assert pair.singular_points == ()


class TestInversion:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip(self, name):
        pair = make_pair(name)
        for w in interior_points(60, radius=0.95):
            z = complex(pair.psi(w))
            w_back = pair.invert(z)[0]
            assert abs(w_back - w) < 1e-10

    @pytest.mark.parametrize("name, w", [
        ("cardioid*moebius:0.05027829237277964,-0.8519746811694262,5.231008658459677",
         0.3721422584364645 - 0.8039647891521694j),
        ("sector:1.7743119799971503*moebius:0.659953454482137,-0.3645805525401863,"
         "5.546246834257937", 0.6850183016218055 - 0.4986670151631651j),
        ("koebe*moebius:0.3917221491936212,0.7124147427901959,3.3506499277177",
         0.4234814214954106 + 0.7457606572380399j),
    ], ids=["cardioid", "sector", "koebe"])
    def test_points_the_default_seeds_miss(self, name, w):
        """Interior points of twisted maps that Newton started at radius <= 1/2 misses."""
        pair = make_pair(name)
        assert abs(pair.invert(complex(pair.psi(w)))[0] - w) < 1e-9

    def test_point_above_the_twisted_slit(self):
        """An interior point (|w| = 0.99) just above the slit of a strongly twisted Koebe map.

        Newton iteration converges here only from starting points within
        about 0.1 of w: of a 60 x 120 polar grid of them only 13 do.
        """
        pair = make_pair("koebe*moebius:0.9,0.2,1")
        w = 0.9454502314484716 + 0.2936389957993172j
        assert abs(pair.invert(complex(pair.psi(w)))[0] - w) < 1e-9

    def test_point_next_to_the_twisted_pole(self):
        """An interior point (|w| = 0.9999) just above the far part of a twisted Koebe slit.

        Its image z is about -288.687+12.391i.  The twist's Moebius map sends
        w to 0.99701+0.05872i, 1.3e-3 from the circle next to Koebe's pole
        at 1, so |psi'| is about 1.2e5 there; damped Newton from 1,809
        starting points spread over the disc never converged.
        """
        pair = make_pair("koebe*moebius:-0.389374,0.786477,3.4407")
        w = -0.497131156877797 + 0.8675601551831107j
        assert abs(pair.invert(complex(pair.psi(w)))[0] - w) < 1e-9

    @pytest.mark.parametrize("name, w", [
        ("koebe*moebius:0.8044244607564529,0.30994223372211926,5.265833882977374",
         0.9117488131037608 + 0.41050470375366416j),
        ("koebe*moebius:0.5452391333251546,-0.7268465072904152,6.0736166416206085",
         0.6400684358187317 - 0.7670159043126563j),
        ("koebe*moebius:-0.6917985983716329,0.6358982169616766,2.423348275929715",
         -0.7638843464605878 + 0.6438025359009397j),
    ], ids=["r0.9999", "r0.999-a", "r0.999-b"])
    def test_points_near_the_twisted_pole(self, name, w):
        """Three more interior points, 0.0054-0.0128 from the circle point the twist sends to 1.

        There |psi'| is 2.7e3 to 8.7e4, and damped Newton from 1,809
        starting points fails, as at the point of the test above.
        """
        pair = make_pair(name)
        assert abs(pair.invert(complex(pair.psi(w)))[0] - w) < 1e-9

    def test_untwisted_koebe_point_next_to_the_pole(self):
        """A point 2.3e-3 from Koebe's pole at 1, where |psi'| is about 1.6e8.

        Its image z is about -1.885e5+1.6e3i; damped Newton from 1,809
        starting points spread over the disc never converged.
        """
        pair = koebe_map()
        w = 0.9999873476183951 + 0.0023031941140786577j
        assert abs(pair.invert(complex(pair.psi(w)))[0] - w) < 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(name=catalog_maps(),
           w=st.lists(st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.9999), ANGLE),
                      min_size=2, max_size=12))
    def test_round_trip_property(self, name, w):
        """Both entry points recover w to 1e-9, with psi'(w) bit for bit; a split batch agrees."""
        pair = make_pair(name)
        z = pair.psi(np.array(w))
        for w_k, z_k in zip(w, z.tolist()):
            w_back, dw = pair.invert(z_k)
            assert abs(w_back - w_k) < 1e-9
            assert repr(dw) == repr(complex(pair.dpsi(w_back)))
        whole = pair.invert_many(z)
        assert whole[1].all() and np.max(np.abs(whole[0] - w)) < 1e-9
        assert whole[2].tobytes() == pair.dpsi(whole[0]).tobytes()
        k = len(w) // 2
        for joined, first, second in zip(whole, pair.invert_many(z[:k]), pair.invert_many(z[k:])):
            assert np.array_equal(joined, np.concatenate([first, second]))

    @pytest.mark.parametrize("name, z", [
        ("koebe", -0.32 + 0.24j),
        ("sector:1.5", -0.18359697561789173 + 0.2543131910579923j),
        ("cardioid*moebius:0.05027829237277964,-0.8519746811694262,5.231008658459677",
         0.4861418197530831 - 0.025292296277159718j),
        ("koebe*moebius:0.9,0.2,1", -0.25585099748369394 + 0.005157626244264086j),
    ], ids=["koebe", "sector", "ring", "chart"])
    def test_inversion_returns_dpsi_at_w(self, name, z):
        pair = make_pair(name)
        w, dw = pair.invert(z)
        assert repr(dw) == repr(complex(pair.dpsi(w)))

    @pytest.mark.parametrize("name", ALL_NAMES + ["koebe*moebius:0.5,0.2,1"])
    def test_psi_dpsi_returns_new_arrays(self, name):
        """invert_many writes into what psi_dpsi and phi return, so neither may share its input."""
        pair = make_pair(name)
        w = np.array(interior_points(5, radius=0.9))
        value, deriv = pair.psi_dpsi(w)
        for out in (value, deriv):
            assert out.flags.writeable and not np.shares_memory(out, w)
        assert not np.shares_memory(value, deriv)
        back = pair.phi(value)
        assert back.flags.writeable and not np.shares_memory(back, value)

    def test_step_target_next_to_the_pole(self):
        """At a point 1e-5 from Koebe's pole phi misses the residual target; the step test accepts it."""
        pair = koebe_map()
        w = (1.0 - 1e-5) * cmath.exp(1e-5j)
        z = complex(pair.psi(w))
        # phi's residual is about 15.7 times the target here
        assert abs(complex(pair.psi(pair.phi(z))) - z) > NEWTON_TOL * (1.0 + abs(z))
        w_back, dw = pair.invert(z)
        assert abs(w_back - w) < 1e-15
        assert repr(dw) == repr(complex(pair.dpsi(w_back)))
        many = pair.invert_many(np.array([z]))
        assert many[1].all()
        assert abs(complex(many[0][0]) - w_back) <= PATHS_AGREE * (1.0 + abs(w_back))
        assert many[2].tobytes() == pair.dpsi(many[0]).tobytes()

    def test_twisted_sector_next_to_its_singular_points(self):
        """Both paths accept phi's w 1e-5 inward of each singular point of 40 twisted sectors.

        At the e = -2.3 point half an ulp of w carried through psi' is
        already several times the residual target in z, so these points are
        accepted by their Newton step in w.  p_distortion there agrees with
        |psi'(w0)|^-2 to the sensitivity of |psi'| to a few ulps of w.
        """
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = rng.uniform(0.5, 0.95) * cmath.exp(2j * math.pi * rng.random())
            pair = make_pair(f"sector:1.3*moebius:{a.real!r},{a.imag!r},"
                             f"{2.0 * math.pi * rng.random()!r}")
            for sp in pair.singular_points:
                w0 = (1.0 - 1e-5) * sp.location * np.exp(1j * rng.uniform(-1e-5, 1e-5, 5))
                z = pair.psi(w0)
                w, ok, _ = pair.invert_many(z)
                assert ok.all() and np.max(np.abs(w - w0)) <= 1e-14
                for z_k, w0_k in zip(z.tolist(), w0.tolist()):
                    assert abs(pair.invert(z_k)[0] - w0_k) <= 1e-14
                    exact = abs(complex(pair.dpsi(w0_k))) ** -2.0
                    assert p_distortion(pair, z_k, 4.0) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("twist", ["", "*moebius:0.6,-0.5,2", "*moebius:0.92,0,1"])
    @pytest.mark.parametrize("head", ALL_NAMES)
    def test_scalar_and_array_paths_accept_the_same_points(self, head, twist):
        """``invert`` and ``invert_many`` accept the same z, and each path's w passes the other's check.

        The points are a spiral of interior points and, for each singular
        point, points 1e-2 to 1e-7 inward of it.  The two paths may differ
        in the last bits of w and psi'(w), but not in which points they
        accept: a w from ``invert`` passes :func:`catalog._accepted` with
        the array closed form, and a w from ``invert_many`` with the scalar one.
        """
        pair = make_pair(head + twist)
        w0 = interior_points(40, radius=0.95) + [
            (1.0 - d) * sp.location * cmath.exp(1j * t * d)
            for sp in pair.singular_points for d in 10.0 ** -np.arange(2, 8)
            for t in (-1.0, 0.0, 0.5)]
        z = pair.psi(np.array(w0))
        many, ok, _ = pair.invert_many(z)
        for z_k, w_k, ok_k in zip(z.tolist(), many.tolist(), ok.tolist()):
            try:
                w = pair.invert(z_k)[0]
            except NewtonConvergenceError:
                w = None
            assert (w is not None) == ok_k, z_k
            if w is None:
                continue
            value, deriv = pair.psi_dpsi(np.array([w]))
            assert catalog._accepted(np.array([w]), np.array([z_k]), value - z_k, deriv).all()
            value, deriv = pair.psi_dpsi(w_k)
            assert catalog._accepted(w_k, z_k, complex(value) - z_k, complex(deriv))

    def test_sector_power_at_zero_and_past_overflow(self):
        """The sector's power is 0 at q = 0 on both paths, and overflow is no exception.

        psi(1) raises (1 - 1)/(1 + 1) = 0 to beta.  At z = 1e20 a sector of
        opening 0.05 pi needs z**20, beyond the largest float: ``invert``
        then misses its targets, as ``invert_many`` does, and neither warns
        of the nan that w becomes.
        """
        pair = sector_map(1.5)
        assert catalog._power(0j, 1.5) == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            assert pair.psi(1.0) == 0.0
            assert pair.psi(np.array([1.0, 0.5])).tolist()[0] == 0.0
        thin = sector_map(0.05)
        with pytest.raises(NewtonConvergenceError):
            thin.invert(1e20 + 0j)
        assert not thin.invert_many(np.array([1e20 + 0j]))[1].any()

    def test_missed_target_raises(self, monkeypatch):
        """With residual and step targets of 0 phi's w is not accepted."""
        monkeypatch.setattr(catalog, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(catalog, "STEP_TOL", 0.0)
        with pytest.raises(NewtonConvergenceError,
                           match=r"^inversion of cardioid at z=0\.05j missed the residual target"):
            make_pair("cardioid").invert(0.05j)

    def test_koebe_origin_with_seed(self):
        pair = koebe_map()
        assert abs(pair.invert(0j)[0]) < 1e-12

    def test_forward_then_invert(self):
        pair = koebe_map()
        z = complex(pair.psi(0.5j))
        assert pair.invert(z)[0] == pytest.approx(0.5j, abs=1e-10)

    def test_identity_inversion(self):
        pair = identity_map()
        z = 0.2 - 0.7j
        assert pair.invert(z)[0] == pytest.approx(z, abs=1e-12)

    def test_outside_domain_rejected(self):
        pair = koebe_map()
        with pytest.raises(MapDomainError):
            pair.invert(-0.3 + 0j)  # on the slit
        sector = sector_map(1.0)
        with pytest.raises(MapDomainError):
            sector.invert(-1.0 + 0j)  # outside the half-plane

    def test_jacobian_chain_rule(self):
        # phi'(z) * psi'(phi(z)) = 1 wherever both are evaluated
        pair = cardioid_map()
        for w in interior_points(20, radius=0.8):
            z = complex(pair.psi(w))
            w_back = pair.invert(z)[0]
            h = 1e-6
            dphi = (pair.invert(z + h)[0] - pair.invert(z - h)[0]) / (2.0 * h)
            assert dphi * complex(pair.dpsi(w_back)) == pytest.approx(1.0, rel=1e-5)

    def test_vectorized_inversion(self):
        pair = koebe_map()
        w = np.array(interior_points(50, radius=0.9))
        z = pair.psi(w)
        w_back, ok, _ = pair.invert_many(z)
        assert np.all(ok)
        assert np.max(np.abs(w_back - w)) < 1e-10

    @pytest.mark.parametrize("name", ["koebe", "sector:1.3*moebius:-0.3,0.8,2"])
    def test_vectorized_inversion_returns_dpsi_at_w(self, name):
        pair = make_pair(name)
        w = np.array(interior_points(64, radius=0.9)).reshape(8, 8)
        w_back, ok, dw = pair.invert_many(pair.psi(w))
        assert np.all(ok) and dw.shape == w.shape
        assert dw.tobytes() == pair.dpsi(w_back).tobytes()

    @pytest.mark.parametrize("twist", ["", "*moebius:0.3,-0.2,1"])
    @pytest.mark.parametrize("head, z", [
        ("koebe", [-100.0, -1000.0, -0.25]),
        # on the edge of the half-plane: |arg z| = pi/2, and its vertex, where phi takes log(0)
        ("sector:1", [2.0j, -3.0j, 0j]),
    ], ids=["koebe-slit", "sector-edge"])
    def test_vectorized_inversion_checks_omega(self, head, z, twist):
        """Points outside Omega read False, as invert raises MapDomainError on them."""
        pair = make_pair(head + twist)
        z = np.array(z, dtype=complex)
        assert not pair.domain_contains(z).any()
        _, ok, _ = pair.invert_many(z)
        assert not ok.any()
        for z_k in z:
            with pytest.raises(MapDomainError):
                pair.invert(complex(z_k))
        # an interior point beside them still reads True
        w = np.array([0.3 + 0.4j])
        assert pair.invert_many(pair.psi(w))[1].all()

    def test_domain_contains_takes_arrays_and_scalars(self):
        z = np.array([[-100.0, -0.3 + 1e-9j], [0.5j, -0.2]])
        inside = koebe_map().domain_contains(z)
        assert inside.tolist() == [[False, True], [True, True]]
        scalars = [koebe_map().domain_contains(complex(v)) for v in z.ravel()]
        assert scalars == inside.ravel().tolist()
        sector = sector_map(1.0)
        assert sector.domain_contains(np.array([1.0, 1j, -1.0, 0.0, 1.0 + 5j])).tolist() == [
            True, False, False, False, True]
        # the cardioid's real-arithmetic test is |phi(z)| < 1, also next to the boundary
        cardioid = cardioid_map()
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.uniform(-1.5, 1.5, 2000) + 1j * rng.uniform(-1.5, 1.5, 2000),
                            cardioid.psi((1.0 - 10.0 ** -rng.uniform(3, 14, 2000))
                                         * np.exp(2j * np.pi * rng.random(2000)))])
        assert np.array_equal(cardioid.domain_contains(z), np.abs(cardioid.phi(z)) < 1.0)
        assert not cardioid.domain_contains(0.5 + 0j)  # the cusp, psi(1)

    def test_vectorized_inversion_of_one_point(self):
        """A 0-d z takes the array path, and agrees with invert to a few eps."""
        pair = koebe_map()
        z = pair.psi(0.5 + 0.2j)
        w_back, ok, dw = pair.invert_many(np.asarray(z))
        assert ok and w_back.shape == () and dw.shape == ()
        assert abs(w_back - (0.5 + 0.2j)) < 1e-12
        assert dw.tobytes() == pair.dpsi(w_back.reshape(1)).tobytes()
        w, _ = pair.invert(z)
        assert abs(complex(w_back) - w) <= PATHS_AGREE * (1.0 + abs(w))


class TestScalarPath:
    """A Python complex takes Python's complex arithmetic and cmath, never a numpy scalar."""

    TWISTS = ["", "*moebius:0.5,0.2,1"]
    #: every family at its extremes: far out along both real directions and up the
    #: imaginary axis, Koebe's tip and a point of its slit, 0, and a z whose |z|
    #: passes the largest float, where Python's abs raises OverflowError
    HOSTILE = [1e20 + 0j, -1e20 + 0j, 1e300 + 0j, 1e300j, -0.25 + 0j, -1.0 + 0j, 0j,
               1.7e308 + 1.7e308j]

    @pytest.mark.parametrize("twist", TWISTS)
    @pytest.mark.parametrize("head", ALL_NAMES)
    def test_python_numbers_in_and_out(self, head, twist):
        pair = make_pair(head + twist)
        for w in interior_points(10, radius=0.9):
            value, deriv = pair.psi_dpsi(w)
            assert type(value) is complex and type(deriv) is complex
            assert type(pair.phi(value)) is complex
            w_back, dw = pair.invert(value)
            assert type(w_back) is complex and type(dw) is complex
            assert type(p_distortion(pair, value, 3.0)) is float

    @pytest.mark.parametrize("twist", TWISTS)
    @pytest.mark.parametrize("head", ALL_NAMES)
    def test_p_distortion_agrees_with_invert_many(self, head, twist):
        """Within 16 eps per unit of |2 - p|; measured at most 9.0 over these maps and points."""
        pair = make_pair(head + twist)
        z = pair.psi(np.array(interior_points(200, radius=0.5)))
        _, ok, dw = pair.invert_many(z)
        assert ok.all()
        for p in (1.0, 2.0, 5.0):
            want = np.abs(dw) ** (2.0 - p)
            got = np.array([p_distortion(pair, z_k, p) for z_k in z.tolist()])
            assert np.all(np.abs(got - want) <= 16.0 * 2.0 ** -52 * abs(2.0 - p) * want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("twist", TWISTS + ["*moebius:-0.9,0.3,2"])
    @pytest.mark.parametrize("head", ALL_NAMES + ["sector:0.05"])
    def test_hostile_points(self, head, twist):
        """invert raises only its two errors, invert_many only masks, and nothing warns.

        Python's complex arithmetic raises ZeroDivisionError and
        OverflowError where numpy's returns inf or nan with a warning.  The
        two paths accept the same points here, and p_distortion is a float
        wherever invert accepts.  ``domain_contains`` raises on neither path
        and gives each point the same answer on both; the array call is
        silenced as in invert_many, since numpy warns where a square overflows.
        """
        pair = make_pair(head + twist)
        _, ok, _ = pair.invert_many(np.array(self.HOSTILE))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inside = pair.domain_contains(np.array(self.HOSTILE))
        for z, in_k in zip(self.HOSTILE, inside.tolist()):
            assert pair.domain_contains(z) == in_k, z
        for z, ok_k in zip(self.HOSTILE, ok.tolist()):
            try:
                w, _ = pair.invert(z)
            except (MapDomainError, NewtonConvergenceError):
                assert not ok_k, z
                continue
            assert ok_k and abs(w) < 1.0, z
            assert type(p_distortion(pair, z, 3.0)) is float

    def test_python_arithmetic_raises_at_a_pole(self):
        """On a Python complex a map raises where an array gets inf; invert turns it into its own error."""
        pair = koebe_map()
        with pytest.raises(ZeroDivisionError):
            pair.psi(1.0 + 0j)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(pair.psi(np.array([1.0 + 0j]))).any()

    def test_p_distortion_past_the_largest_float(self):
        """Where |psi'|^(2-p) overflows p_distortion is inf, as numpy's power is, without a warning."""
        pair = koebe_map()
        # 1e-7 from Koebe's e = 1 point, where |psi'| is about 1.4e-8
        z = complex(pair.psi((1.0 - 1e-7) * cmath.exp(1j * (math.pi - 1e-7))))
        assert p_distortion(pair, z, 40.0) < math.inf
        assert p_distortion(pair, z, 60.0) == math.inf


class TestSingularExponents:
    """Declared local exponents against log-slope measurements of |psi'|.

    The two-point slope of log|psi'(w0(1-t))| in log t between successive
    t values converges to the exponent; a single-point ratio would carry a
    log(prefactor)/log(t) bias that decays too slowly to test against.
    """

    @pytest.mark.parametrize("name", ["koebe", "sector:0.5", "sector:1.5",
                                      "sector:2", "cardioid"])
    def test_log_slope_matches_declared_exponent(self, name):
        pair = make_pair(name)
        ts = [1e-2, 1e-3, 1e-4]
        for sp in pair.singular_points:
            mags = [abs(complex(pair.dpsi(sp.location * (1.0 - t)))) for t in ts]
            for (t1, m1), (t2, m2) in zip(zip(ts, mags), zip(ts[1:], mags[1:])):
                slope = (math.log(m2) - math.log(m1)) / (math.log(t2) - math.log(t1))
                assert slope == pytest.approx(sp.exponent, abs=0.05)

    def test_koebe_declared_data(self):
        pair = koebe_map()
        data = {sp.location: sp.exponent for sp in pair.singular_points}
        assert data == {1.0 + 0j: -3.0, -1.0 + 0j: 1.0}

    def test_sector_declared_data(self):
        pair = sector_map(1.5)
        data = {sp.location: sp.exponent for sp in pair.singular_points}
        assert data[1.0 + 0j] == pytest.approx(0.5)
        assert data[-1.0 + 0j] == pytest.approx(-2.5)


class TestMoebiusComposition:
    def test_trivial_twist_is_identity_behavior(self):
        pair = identity_map().compose_with_moebius(0j, 0.0)
        for w in interior_points(10):
            assert complex(pair.psi(w)) == pytest.approx(w)

    def test_rotation_chain_rule(self):
        pair = koebe_map().compose_with_moebius(0j, math.pi)
        assert complex(pair.dpsi(0j)) == pytest.approx(-1.0)

    def test_singular_points_transported(self):
        pair = koebe_map().compose_with_moebius(0j, math.pi)
        angles = sorted(pair.singular_angles)
        assert angles[0] == pytest.approx(0.0, abs=1e-12)
        assert angles[1] == pytest.approx(math.pi, abs=1e-12)
        # exponents ride along unchanged
        assert sorted(sp.exponent for sp in pair.singular_points) == [-3.0, 1.0]

    def test_twisted_map_still_conformal(self):
        pair = cardioid_map().compose_with_moebius(0.3 + 0.1j, 0.7)
        h = 1e-5
        for w in interior_points(20, radius=0.8):
            fd = (pair.psi(w + h) - pair.psi(w - h)) / (2.0 * h)
            assert complex(fd) == pytest.approx(complex(pair.dpsi(w)), rel=1e-6)

    def test_invalid_parameter(self):
        with pytest.raises(MapDomainError):
            koebe_map().compose_with_moebius(1.0 + 0j, 0.0)
        with pytest.raises(DescriptorError):
            moebius_map(2.0 + 0j)

    @pytest.mark.parametrize("make, error, message", [
        (moebius_map, DescriptorError, "moebius parameter"),
        (lambda a: identity_map().compose_with_moebius(a, 0.0), MapDomainError,
         "automorphism parameter"),
        (lambda a: koebe_map().compose_with_moebius(a, 0.0), MapDomainError,
         "automorphism parameter"),
    ], ids=["moebius-map", "identity-twist", "koebe-twist"])
    def test_parameter_past_the_largest_float(self, make, error, message):
        """|a| overflows Python's complex abs, which raises; a is then outside the disc."""
        a = complex(1.7e308, 1.7e308)
        with pytest.raises(error) as info:
            make(a)
        assert str(info.value) == f"{message} must satisfy |a| < 1, got {a!r}"

    @pytest.mark.parametrize("make, error, message", [
        (lambda: MapDescriptor("koebe", (), 0.3 + 0j, math.nan), DescriptorError,
         "moebius angle theta must be finite, got nan"),
        (lambda: MapDescriptor("koebe", (), 1.5 + 0j), DescriptorError,
         "moebius parameter must satisfy |a| < 1, got (1.5+0j)"),
        (lambda: MapDescriptor("moebius", (0.3, 0.0, math.inf)), DescriptorError,
         "moebius angle theta must be finite, got inf"),
        (lambda: moebius_map(0.3, math.nan), DescriptorError,
         "moebius angle theta must be finite, got nan"),
        (lambda: koebe_map().compose_with_moebius(0.3, -math.inf), MapDomainError,
         "automorphism angle must be finite, got theta=-inf"),
        (lambda: replace(MapDescriptor("koebe"), twist_a=0.3 + 0j, twist_theta=math.nan),
         DescriptorError, "moebius angle theta must be finite, got nan"),
    ], ids=["twist-theta", "twist-a", "moebius-theta", "moebius-map-theta", "compose-theta",
            "replaced-twist"])
    def test_a_twist_is_checked_like_a_moebius_map(self, make, error, message):
        """A twist's a and theta are refused when the descriptor or the pair is made."""
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    def test_twisted_pair_cannot_be_twisted_again(self):
        # a descriptor holds one twist, so a second would be dropped from its label
        with pytest.raises(DescriptorError, match="already carries"):
            koebe_map().compose_with_moebius(0.3, 0.5).compose_with_moebius(0.2j, 1.0)
        pair = make_pair("moebius:0.3,0,1*moebius:0.2,0.1,0.5")
        assert pair.descriptor.label() == "moebius:0.3,0,1*moebius:0.2,0.1,0.5"


def solo_reference(descriptor):
    """``psi`` and ``psi'`` of a descriptor, each written out as its own closed form.

    A twist is the chain rule ``psi(m(w))`` and ``psi'(m(w)) * m'(w)``, with
    ``m`` and ``m'`` evaluated separately; a Moebius map is the identity so
    twisted.  A sector takes its power from ``catalog._power``, the one
    kernel of both of its directions.  Like the catalog's, each form takes
    its input as given: a Python complex takes Python's arithmetic, an array
    numpy's, and a 0-d array numpy's, whose first operation gives a numpy
    scalar.
    """
    d = descriptor
    if d.family in ("identity", "moebius"):
        def psi(w):
            return w + 0j

        def dpsi(w):
            return 1.0 + 0j if type(w) is complex else np.ones_like(w)
    elif d.family == "koebe":
        def psi(w):
            return w / (1.0 - w) ** 2

        def dpsi(w):
            return (1.0 + w) / (1.0 - w) ** 3
    elif d.family == "sector":
        (beta,) = d.params

        def psi(w):
            return catalog._power((1.0 - w) / (1.0 + w), beta)

        def dpsi(w):
            return (-2.0 * beta * catalog._power((1.0 - w) / (1.0 + w), beta)
                    / ((1.0 - w) * (1.0 + w)))
    else:
        def psi(w):
            return w - 0.5 * w ** 2

        def dpsi(w):
            return 1.0 - w

    twists = []
    if d.family == "moebius":
        a_re, a_im, theta = d.params
        twists.append((complex(a_re, a_im), theta))
    if d.twist_a is not None:
        twists.append((d.twist_a, d.twist_theta))
    for a, theta in twists:
        psi, dpsi = _chain_rule(psi, dpsi, a, theta)
    return psi, dpsi


def _chain_rule(base_psi, base_dpsi, a, theta):
    rot = cmath.exp(1j * theta)

    def m(w):
        return rot * (w - a) / (1.0 - a.conjugate() * w)

    def dm(w):
        return rot * (1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * w) ** 2

    return (lambda w: base_psi(m(w))), (lambda w: base_dpsi(m(w)) * dm(w))


class TestFusedForm:
    """psi_dpsi, psi and dpsi match the solo closed forms bit for bit, in each arithmetic.

    The points are an array, Python complexes and 0-d arrays, each passed as
    it is to both sides: a Python complex takes Python's arithmetic, an
    array numpy's, and a 0-d array numpy's, whose first operation gives a
    numpy scalar.
    """

    NAMES = [head + twist
             for head in ["identity", "moebius:0.3,0.2,1.1", "koebe", "cardioid", "sector:0.3",
                          "sector:1", "sector:1.7", "sector:2"]
             for twist in ["", "*moebius:0,0,2", "*moebius:0.57,-0.76,1"]]
    NAMES.append("moebius:0.3,0,1*moebius:0.2,0.1,0.5")

    @staticmethod
    def assert_same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", NAMES)
    def test_matches_psi_and_dpsi(self, name):
        pair = make_pair(name)
        ref_psi, ref_dpsi = solo_reference(pair.descriptor)
        grid = np.array(interior_points(120, radius=0.99)).reshape(10, 12)
        points = [grid] + [point for w in interior_points(12, radius=0.99)
                           for point in (w, np.asarray(w))]
        for point in points:
            want_value, want_deriv = ref_psi(point), ref_dpsi(point)
            value, deriv = pair.psi_dpsi(point)
            self.assert_same(value, want_value)
            self.assert_same(deriv, want_deriv)
            self.assert_same(pair.psi(point), want_value)
            self.assert_same(pair.dpsi(point), want_deriv)


class TestSectorAccuracy:
    """Sector psi and psi' against 30-digit mpmath, out to |w| = 0.9999, on both paths.

    The same points go in as one array and one by one as Python complexes,
    so that ``catalog._power`` takes its real-arithmetic array path and its
    ``cmath`` scalar path.  The reference is the textbook form
    ``((1-u)/(1+u))**beta`` and ``-2 beta (1-u)**(beta-1) (1+u)**(-beta-1)``,
    times ``m'(w)`` under a twist ``u = m(w)``.  An untwisted ``w`` is
    exact, so the bound is flat: the measured worst case is 3.2e-15 on
    both paths (the two-log form ``exp(beta (log(1-w) - log(1+w)))`` reads
    6.4e-15).  A twist first rounds ``m(w)``, which moves ``psi(m(w))`` by
    up to the condition number ``2 (beta + 1) |u|/|1 - u^2|`` of the sector
    map times that rounding, so the twisted bound is a multiple of eps times
    one plus that number: the measured worst multiple is 2.8 on the array
    path and 3.2 on the scalar path (2.9 and 3.2 with numpy's complex
    ``log``, 3.3 for the two-log form).
    """

    RADII = (0.3, 0.9, 0.99, 0.999, 0.9999)
    FLAT_RTOL = 1e-14
    TWISTED_EPS = 8.0

    @pytest.mark.parametrize("twist", ["", "*moebius:0.57,-0.76,1"])
    @pytest.mark.parametrize("beta", [0.3, 1.0, 1.7, 2.0])
    def test_against_mpmath(self, beta, twist):
        mpmath = pytest.importorskip("mpmath")
        pair = make_pair(f"sector:{beta:g}{twist}")
        n = 64
        w = np.array([r * cmath.exp(1j * math.pi * (2 * k + i % 2) / n)
                      for i, r in enumerate(self.RADII) for k in range(n)])
        a, theta = pair.descriptor.twist_a or 0j, pair.descriptor.twist_theta
        rot = cmath.exp(1j * theta)
        u = rot * (w - a) / (1.0 - a.conjugate() * w)
        if twist:
            bound = self.TWISTED_EPS * np.finfo(float).eps * (
                1.0 + 2.0 * (beta + 1.0) * np.abs(u) / np.abs(1.0 - u * u))
        else:
            bound = np.full(w.shape, self.FLAT_RTOL)
        paths = [pair.psi_dpsi(w), tuple(zip(*(pair.psi_dpsi(wk) for wk in w.tolist())))]
        with mpmath.workdps(30):
            b, ma, mrot = mpmath.mpf(beta), mpmath.mpc(a), mpmath.expj(theta)
            for k, wk in enumerate(w):
                x = mpmath.mpc(wk)
                den = 1 - mpmath.conj(ma) * x
                uk, duk = mrot * (x - ma) / den, mrot * (1 - abs(ma) ** 2) / den ** 2
                want = mpmath.power((1 - uk) / (1 + uk), b)
                want_d = (-2 * b * mpmath.power(1 - uk, b - 1) * mpmath.power(1 + uk, -b - 1)
                          * duk)
                for value, deriv in paths:
                    assert abs(mpmath.mpc(complex(value[k])) - want) <= bound[k] * abs(want), wk
                    assert (abs(mpmath.mpc(complex(deriv[k])) - want_d)
                            <= bound[k] * abs(want_d)), wk


class TestFactorForm:
    """abs_dpsi_power, from the declared (zeta_k, e_k), the poles and |psi'(0)|, against dpsi."""

    NAMES = ["identity", "koebe", "cardioid", "sector:0.3", "sector:1", "sector:1.7",
             "sector:2", "identity*moebius:0,0,1.3", "koebe*moebius:0,0,2",
             "koebe*moebius:0.95,0.2,1", "sector:1.7*moebius:-0.6,0.7,2",
             "sector:0.3*moebius:0.1,-0.94,0.4", "cardioid*moebius:0.67,0.67,5",
             "moebius:0.3,0.2,1.1", "moebius:-0.95,0,0", "moebius:0,0,2",
             "moebius:1e-200,0,1", "moebius:0.3,0,1*moebius:0.2,0.1,0.5",
             "moebius:0.9,0.3,2*moebius:-0.8,0.5,4", "moebius:0.5,0,0*moebius:-0.5,0,0"]

    @staticmethod
    def polar_grid(rng, n_r, n_theta):
        r = 0.99 * np.sqrt(rng.random(n_r))
        theta = 2.0 * np.pi * rng.random(n_theta)
        return r, theta, r[:, None] * np.exp(1j * theta)

    @pytest.mark.parametrize("name", NAMES)
    def test_agrees_with_dpsi(self, name):
        """The 20 radii as a block of four rings of five, each ring with its own angles."""
        r, theta, w = self.polar_grid(np.random.default_rng(7), 20, 25)
        pair = make_pair(name)
        parts = [slice(0, 25), slice(3, 11), slice(11, 12), slice(12, 25)]
        for e in (-1.0, 0.0, 0.5, 2.0):
            want = np.abs(pair.dpsi(w)) ** e
            ring = pair.abs_dpsi_power(r.reshape(4, 5), theta, e)
            for i, part in enumerate(parts):
                got = ring(i, part)
                assert got.shape == (5, len(theta[part]))
                assert np.all(np.abs(got - want[5 * i:5 * i + 5, part])
                              <= 1e-12 * want[5 * i:5 * i + 5, part])

    @pytest.mark.parametrize("name", NAMES)
    def test_real_entry_agrees_with_dpsi(self, name):
        """On the grid r x theta: a new array of its shape, with the inputs left untouched."""
        r, theta, w = self.polar_grid(np.random.default_rng(11), 20, 25)
        r_in, theta_in = r.copy(), theta.copy()
        pair = make_pair(name)
        got = pair.abs_dpsi_power(r[None], theta, 1.0)(0, slice(None))
        ref = np.log(np.abs(pair.dpsi(w)))
        assert got.shape == w.shape and got.flags.writeable
        assert not np.shares_memory(got, r) and not np.shares_memory(got, theta)
        assert np.all(np.abs(np.log(got) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(r, r_in) and np.array_equal(theta, theta_in)
        # at e = 0 (either sign) the same contract holds for the ones it returns
        for e in (0.0, -0.0):
            ring = pair.abs_dpsi_power(r[None], theta, e)
            got, again = ring(0, slice(None)), ring(0, slice(None))
            assert got.shape == w.shape and got.flags.writeable and got.dtype == float
            assert not np.shares_memory(got, r) and not np.shares_memory(got, theta)
            assert not np.shares_memory(got, again)
            assert np.array_equal(got, np.ones(w.shape))
            assert np.array_equal(r, r_in) and np.array_equal(theta, theta_in)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(name=catalog_maps(),
           r=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4),
           theta=st.lists(ANGLE, min_size=1, max_size=4),
           e=st.floats(-3.0, 3.0))
    # the singular point at angle 2pi - 0.01, with nodes on both sides of the
    # 0/2pi seam: sin^2((theta + alpha)/2) has period 2pi in theta
    @example(name="koebe*moebius:0,0,0.01", r=[0.5, 0.99, 0.999],
             theta=[0.0, 0.005, 2.0 * math.pi - 0.015, 2.0 * math.pi - 0.005], e=3.0)
    @example(name="koebe*moebius:0,0,0.01", r=[0.5, 0.99, 0.999],
             theta=[0.0, 0.005, 2.0 * math.pi - 0.015, 2.0 * math.pi - 0.005], e=-3.0)
    def test_polar_power_property(self, name, r, theta, e):
        """|psi'|^e on the polar grid equals abs(dpsi(w))**e to 1e-12, w = r*exp(1j*theta)."""
        pair = make_pair(name)
        r, theta = np.array(r), np.array(theta)
        got = pair.abs_dpsi_power(r[None], theta, e)(0, slice(None))
        want = np.abs(pair.dpsi(r[:, None] * np.exp(1j * theta))) ** e
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("shift", [1e-230, 1e-12, 0.5])
    def test_angle_next_to_a_point_across_a_turn(self, shift):
        """Angles a whole turn away from a singular angle, or across 0/2pi, keep their low bits.

        Koebe's point at 1 moves to the angle 2pi - shift, which is 0 where
        it rounds to a whole turn (shift 1e-230).  A ring's angles can lie
        near that angle, a turn above it, or (for a tiny shift) just above
        0, so at 1e-230 on both sides of 0/2pi; against the factor form in
        40 digits at the same float nodes, each node is right to 1e-13,
        down to distances of 1e-13.
        """
        mpmath = pytest.importorskip("mpmath")
        pair = make_pair(f"koebe*moebius:0,0,{shift!r}")
        angle = pair.singular_points[0].angle
        d = np.array([1e-13, 1e-11, 1e-8, 1e-4])
        theta = np.concatenate([angle - d, angle + d, angle + 2.0 * np.pi - d,
                                angle + 2.0 * np.pi + d, [0.0, 1e-13, 3e-12]])
        r = np.array([0.5, 1.0 - 1e-9, 1.0 - 1e-12])
        got = pair.abs_dpsi_power(r[None], theta, 1.0)(0, slice(None))
        with mpmath.workdps(40):
            zetas = [(mpmath.expj(mpmath.mpf(sp.angle)), sp.exponent)
                     for sp in pair.singular_points]
            for i, j in np.ndindex(got.shape):
                w = mpmath.mpf(r[i]) * mpmath.expj(mpmath.mpf(theta[j]))
                want = mpmath.exp(mpmath.mpf(pair.log_scale))
                for zeta, e in zetas:
                    want *= abs(1 - w / zeta) ** e
                assert abs(got[i, j] - want) <= 1e-13 * want, (r[i], theta[j])

    def test_pair_never_calls_dpsi(self):
        """Building, integrating and inverting go through psi_dpsi and the factor form only."""
        def refuse(w):
            raise AssertionError("dpsi was called")

        pair = replace(koebe_map(), dpsi=refuse)
        assert brennan_integral(pair, 3.0).integral.classification is Classification.CONVERGED
        z = complex(pair.psi(0.3 + 0.4j))
        assert abs(pair.invert(z)[0] - (0.3 + 0.4j)) < 1e-12

    def test_factors_of_a_replaced_pair(self):
        """A pair rebuilt with dataclasses.replace builds the factor list of its own fields."""
        pair = make_pair("koebe*moebius:0.5,0.2,1")
        moved = replace(pair, singular_points=pair.singular_points[:1], poles=())
        r, theta = np.array([0.3, 0.9]), np.array([0.2, 4.0])
        zeta, e = pair.singular_points[0].location, pair.singular_points[0].exponent
        w = r[:, None] * np.exp(1j * theta)
        want = np.exp(moved.log_scale) * np.abs(1.0 - w / zeta) ** e
        got = moved.abs_dpsi_power(r[None], theta, 1.0)(0, slice(None))
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name, exponents", [
        ("koebe", ()), ("sector:1.3", ()), ("identity", ()), ("cardioid", ()),
        ("koebe*moebius:0.5,0.2,1", ()), ("sector:1.3*moebius:0.5,0.2,1", ()),
        ("moebius:0.5,0.2,1", (-2.0,)), ("identity*moebius:0.5,0.2,1", (-2.0,)),
        ("cardioid*moebius:0.5,0.2,1", (-3.0,)), ("cardioid*moebius:0,0,1", ()),
        ("moebius:1e-200,0,1", (-2.0,)), ("moebius:0.3,0,1*moebius:0.2,0.1,0.5", (-2.0,)),
        ("moebius:0.3,0,0*moebius:-0.3,0,0", ()), ("moebius:0.5,0.2,1*moebius:-0.5,-0.2,0", ()),
    ])
    def test_pole_exponents(self, name, exponents):
        # sectors sum (beta - 1) - (beta + 1), which rounds near -2, so a twist
        # leaves them no pole; nor does a = 0, or a second twist of a Moebius map;
        # a twist that carries the first pole to c = 0 leaves its factor 1, no pole
        assert tuple(f for _, f in make_pair(name).poles) == exponents

    @pytest.mark.parametrize("name", ["moebius:0.3,0,0*moebius:-0.3,0,0",
                                      "moebius:0.5,0.2,1*moebius:-0.5,-0.2,0"])
    def test_undone_twist_grades_toward_nothing(self, name):
        """|psi'| is 1 on the disc, so the rule is graded toward no angle."""
        assert make_pair(name).grading_angles == ()

    def test_a_second_twist_moves_the_first_pole(self):
        # m2 then m1 is one automorphism, whose pole is where m2 sends 1/conj(a1)
        a1, a2, rot2 = 0.3, 0.2 + 0.1j, cmath.exp(0.5j)
        (c, f), = make_pair("moebius:0.3,0,1*moebius:0.2,0.1,0.5").poles
        pole = 1.0 / c
        assert rot2 * (pole - a2) / (1.0 - a2.conjugate() * pole) == pytest.approx(1.0 / a1)
        assert f == -2.0

    def test_grading_angles_add_the_pole_direction(self):
        twisted = make_pair("koebe*moebius:0.5,0.2,1")
        assert twisted.grading_angles == twisted.singular_angles
        pair = make_pair("cardioid*moebius:-0.6,0.2,2")
        assert pair.grading_angles[:-1] == pair.singular_angles
        assert pair.grading_angles[-1] == pytest.approx(cmath.phase(-0.6 + 0.2j))
        assert make_pair("moebius:0,0.9,0").grading_angles == pytest.approx((0.5 * math.pi,))
        assert make_pair("moebius:-0.5,0,0").grading_angles == pytest.approx((math.pi,))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(name=catalog_maps())
    @example(name="koebe*moebius:0,0,1e-230")
    def test_singular_polar_is_each_location_at_its_grading_angle(self, name):
        """Each finite location's (modulus, angle): 1 and 1/|c| as floats, at its grading angle.

        Every angle the pair derives lies in [0, 2 pi): a phase just below
        0, which reduces to 2 pi itself, lands on 0 (``koebe*moebius:0,0,1e-230``
        puts Koebe's point at 1 there).  The grading angles start with the
        singular angles, the thresholds are read off the singular rows, and
        the polar form gives back the location to rounding.  A pole past
        the largest float is dropped; its grading angle stays.
        """
        pair = make_pair(name)
        n = len(pair.singular_points)
        angles = ([sp.angle for sp in pair.singular_points] + list(pair.singular_angles)
                  + list(pair.grading_angles) + [angle for _, angle in pair.singular_polar])
        assert all(0.0 <= angle < 2.0 * math.pi for angle in angles), angles
        assert pair.grading_angles[:n] == pair.singular_angles
        assert pair.singular_angles == tuple(sp.angle for sp in pair.singular_points)
        exponents = [sp.exponent for sp in pair.singular_points]
        assert pair.thresholds == (
            max((2.0 + 2.0 / e for e in exponents if e < 0.0), default=None),
            min((2.0 + 2.0 / e for e in exponents if e > 0.0), default=None))
        locations = ([(sp.location, 1.0) for sp in pair.singular_points]
                     + [(1.0 / c, 1.0 / abs(c)) for c, _ in pair.poles])
        assert len(locations) == len(pair.grading_angles)
        expected = [(s, rho, angle) for (s, rho), angle in zip(locations, pair.grading_angles)
                    if cmath.isfinite(s)]
        assert len(pair.singular_polar) == len(expected)
        for (rho, angle), (s, modulus, grading) in zip(pair.singular_polar, expected):
            assert type(rho) is float and type(angle) is float
            assert rho == modulus and angle == grading
            assert abs(cmath.rect(rho, angle) - s) <= 1e-14 * abs(s)

    def test_phase_just_below_zero_reads_zero(self):
        """A twist by 1e-230 puts Koebe's point at 1 a phase of -1e-230 away: angle 0, not 2 pi."""
        pair = make_pair("koebe*moebius:0,0,1e-230")
        assert pair.singular_angles == pair.grading_angles == (0.0, math.pi)
        assert tuple(sp.angle for sp in pair.singular_points) == (0.0, math.pi)
        assert pair.singular_polar == ((1.0, 0.0), (1.0, math.pi))

    def test_pole_past_the_largest_float_is_dropped(self):
        """1/|c| overflows at |c| = 2.2e-311: no polar location, but the rule still grades there."""
        pair = make_pair("moebius:0,2.225073858507e-311,0")
        assert pair.singular_polar == ()
        assert pair.grading_angles == (0.5 * math.pi,)

    def test_log_scale(self):
        assert sector_map(1.5).log_scale == pytest.approx(math.log(3.0))
        assert koebe_map().log_scale == 0.0
        # a Moebius map's |m'(0)| is 1 - |a|^2
        assert make_pair("moebius:0.6,0,0").log_scale == pytest.approx(math.log(0.64))

    @staticmethod
    def _carried_log_scale(pair, log_scale, a, theta):
        """log|C| of ``pair`` twisted by (a, theta), carried through every factor.

        ``1 - c m(w) = (1 + c e^{i theta} a)(1 - c' w)/(1 - conj(a) w)`` and
        ``|m'(0)| = 1 - |a|^2``, with ``c = 1/zeta_k`` for a singular point.
        """
        ra = cmath.exp(1j * theta) * a
        factors = [(1.0 / sp.location, sp.exponent) for sp in pair.singular_points]
        factors += list(pair.poles)
        return log_scale + math.log1p(-abs(a) ** 2) + math.fsum(
            e * math.log(abs(1.0 + c * ra)) for c, e in factors)

    TWISTS = ["", "*moebius:0,0,1.3", "*moebius:0.95,0,0.7", "*moebius:-0.57,0.76,4",
              "*moebius:0.2,0.1,0.5"]

    @pytest.mark.parametrize("twist", TWISTS)
    @pytest.mark.parametrize("head", ["identity", "koebe", "cardioid", "sector:0.3", "sector:1",
                                      "sector:1.7", "sector:2", "moebius:0.3,0,1",
                                      "moebius:-0.6,0.7,2"])
    def test_log_scale_is_the_carried_constant(self, head, twist):
        base = make_pair(head)
        d = base.descriptor
        if d.family == "moebius":
            a_re, a_im, theta = d.params
            expected = self._carried_log_scale(identity_map(), 0.0, complex(a_re, a_im), theta)
        else:
            expected = math.log(2.0 * d.params[0]) if d.family == "sector" else 0.0
        pair = make_pair(head + twist)
        if pair.descriptor.twist_a is not None:
            expected = self._carried_log_scale(base, expected, pair.descriptor.twist_a,
                                               pair.descriptor.twist_theta)
        assert abs(pair.log_scale - expected) <= 1e-14
