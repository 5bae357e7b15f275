"""Material record validation, d/e conversion and plane condensation."""

import numpy as np
import pytest

from pzbeam import (
    EPS0,
    Material3D,
    MaterialDForm,
    MaterialError,
    PlaneMaterial,
    as_plane,
    builtin_materials,
    condense_to_plane,
    convert_d_to_e,
    isotropic_elastic,
    load_material_db,
)
from pzbeam.materials import _is_positive_definite


def isotropic_compliance(youngs, poisson):
    s = np.zeros((6, 6))
    s[:3, :3] = -poisson / youngs
    np.fill_diagonal(s[:3, :3], 1.0 / youngs)
    g = youngs / (2 * (1 + poisson))
    s[3, 3] = s[4, 4] = s[5, 5] = 1.0 / g
    return s


def convert_e_to_d(m: Material3D) -> MaterialDForm:
    # inverse conversion, kept test-side only
    sE = np.linalg.inv(m.cE)
    d = m.e @ sE
    epsT = m.epsS + d @ m.e.T
    return MaterialDForm(name=m.name, sE=0.5 * (sE + sE.T), d=d,
                         epsT=0.5 * (epsT + epsT.T), density=m.density)


class TestConvertDToE:
    def test_zero_coupling_material(self):
        m = MaterialDForm(name="glass", sE=isotropic_compliance(69e9, 0.33),
                          d=np.zeros((3, 6)), epsT=5 * EPS0 * np.eye(3), density=2500.0)
        out = convert_d_to_e(m)
        np.testing.assert_allclose(out.epsS, m.epsT, rtol=1e-14)
        np.testing.assert_allclose(out.cE @ m.sE, np.eye(6), atol=1e-12)
        assert not np.any(out.e)

    def test_isotropic_closed_form(self):
        e_mod, nu = 69e9, 0.33
        m = MaterialDForm(name="al", sE=isotropic_compliance(e_mod, nu),
                          d=np.zeros((3, 6)), epsT=EPS0 * np.eye(3), density=2700.0)
        c11 = e_mod * (1 - nu) / ((1 + nu) * (1 - 2 * nu))
        assert convert_d_to_e(m).cE[0, 0] == pytest.approx(c11, rel=1e-12)
        assert c11 == pytest.approx(102.1e9, rel=2e-3)

    def test_pzt5h_regression(self):
        """Frozen from an independent matrix-algebra pass over the shipped record."""
        m = convert_d_to_e(builtin_materials()["PZT-5H"])
        assert m.cE[0, 0] == pytest.approx(127204694594.02873, rel=1e-12)
        assert m.cE[0, 1] == pytest.approx(80212213391.02121, rel=1e-12)
        assert m.cE[0, 2] == pytest.approx(84670187076.0228, rel=1e-12)
        assert m.cE[2, 2] == pytest.approx(117436046453.37128, rel=1e-12)
        assert m.cE[3, 3] == pytest.approx(22988505747.12644, rel=1e-12)
        assert m.e[2, 0] == pytest.approx(-11.337788955801162, rel=1e-12)
        assert m.e[2, 2] == pytest.approx(22.14451046603674, rel=1e-12)
        assert m.e[0, 4] == pytest.approx(17.03448275862069, rel=1e-12)
        assert m.epsS[0, 0] == pytest.approx(1.509105612992607e-08, rel=1e-12)
        assert m.epsS[2, 2] == pytest.approx(1.199579695400338e-08, rel=1e-12)
        # order-of-magnitude sanity on the clamped permittivity
        assert 1200.0 < m.epsS[2, 2] / EPS0 < 1700.0

    def test_pzt5h_independent_recompute(self):
        src = builtin_materials()["PZT-5H"]
        c = np.linalg.inv(src.sE)
        m = convert_d_to_e(src)
        np.testing.assert_allclose(m.cE, c, rtol=1e-10)
        np.testing.assert_allclose(m.e, src.d @ c, rtol=1e-10)
        np.testing.assert_allclose(m.epsS, src.epsT - src.d @ c @ src.d.T, rtol=1e-10)

    @pytest.mark.parametrize("name", ["PZT-5H", "Al-6061"])
    def test_roundtrip_recovers_input(self, name):
        record = builtin_materials()[name]
        if isinstance(record, MaterialDForm):
            back = convert_e_to_d(convert_d_to_e(record))
            np.testing.assert_allclose(back.sE, record.sE, rtol=1e-10)
            np.testing.assert_allclose(back.d, record.d, rtol=1e-10, atol=1e-22)
            np.testing.assert_allclose(back.epsT, record.epsT, rtol=1e-10)
        else:
            back = convert_d_to_e(convert_e_to_d(record))
            np.testing.assert_allclose(back.cE, record.cE, rtol=1e-10)
            np.testing.assert_allclose(back.epsS, record.epsS, rtol=1e-10)

    def test_singular_compliance_rejected(self):
        s = isotropic_compliance(69e9, 0.33)
        s = s.copy()
        s[5, 5] = 0.0
        with pytest.raises(MaterialError):
            MaterialDForm(name="bad", sE=s, d=np.zeros((3, 6)),
                          epsT=EPS0 * np.eye(3), density=1.0)

    def test_inconsistent_constants_rejected(self):
        # free permittivity too small to stay positive after subtracting d cE d^T
        src = builtin_materials()["PZT-5H"]
        with pytest.raises(MaterialError, match="inconsistent constants"):
            convert_d_to_e(MaterialDForm(name="bad", sE=src.sE, d=src.d,
                                         epsT=100 * EPS0 * np.eye(3), density=7800.0))


class TestCondenseToPlane:
    def test_isotropic_plane_stress(self):
        e_mod, nu = 69e9, 0.33
        p = condense_to_plane(isotropic_elastic("al", e_mod, nu, 2700.0))
        assert p.Q11 == pytest.approx(e_mod / (1 - nu ** 2), rel=1e-12)
        assert p.Q12 == pytest.approx(nu * e_mod / (1 - nu ** 2), rel=1e-12)
        assert p.Q22 == p.Q11
        assert p.e31 == 0.0 and p.e32 == 0.0
        assert p.Q11 == pytest.approx(77.4e9, rel=1e-3)
        assert p.Q12 == pytest.approx(25.6e9, rel=2e-3)

    def test_plane_stress_identity(self):
        e_mod, nu = 193e9, 0.27
        p = condense_to_plane(isotropic_elastic("steel", e_mod, nu, 7900.0))
        assert p.Q11 * (1 - (p.Q12 / p.Q11) ** 2) == pytest.approx(e_mod, rel=1e-12)

    def test_pzt5h_regression(self):
        """Frozen from an independent pass of the condensation formulas."""
        p = as_plane(builtin_materials()["PZT-5H"])
        assert p.Q11 == pytest.approx(66158356642.459404, rel=1e-12)
        assert p.Q12 == pytest.approx(19165875439.451874, rel=1e-12)
        assert p.Q22 == p.Q11
        assert p.e31 == pytest.approx(-27.303754266211605, rel=1e-12)
        assert p.e32 == p.e31
        assert p.eps33 == pytest.approx(1.6171510958264576e-08, rel=1e-12)

    def test_pzt5h_independent_recompute(self):
        m = convert_d_to_e(builtin_materials()["PZT-5H"])
        p = condense_to_plane(m)
        c33 = m.cE[2, 2]
        assert p.Q11 == pytest.approx(m.cE[0, 0] - m.cE[0, 2] ** 2 / c33, rel=1e-12)
        assert p.e31 == pytest.approx(m.e[2, 0] - m.e[2, 2] * m.cE[0, 2] / c33, rel=1e-12)
        assert p.eps33 == pytest.approx(m.epsS[2, 2] + m.e[2, 2] ** 2 / c33, rel=1e-12)

    @pytest.mark.parametrize("name", ["PZT-5H", "Al-6061"])
    def test_condensed_invariants(self, name):
        record = builtin_materials()[name]
        m = convert_d_to_e(record) if isinstance(record, MaterialDForm) else record
        p = condense_to_plane(m)
        q = np.array([[p.Q11, p.Q12], [p.Q12, p.Q22]])
        assert np.min(np.linalg.eigvalsh(q)) > 0.0
        # the e33^2/c33 term can only raise the condensed permittivity
        assert p.eps33 >= m.epsS[2, 2]

    def test_degenerate_thickness_stiffness(self):
        # duck-typed stand-in: a record like this cannot pass validation,
        # but the condensation guard must still refuse it
        from types import SimpleNamespace
        c = np.array(builtin_materials()["Al-6061"].cE)
        c[2, :] = 0.0
        c[:, 2] = 0.0
        bad = SimpleNamespace(name="bad", cE=c, e=np.zeros((3, 6)),
                              epsS=EPS0 * np.eye(3), density=2700.0)
        with pytest.raises(MaterialError, match="degenerate thickness stiffness"):
            condense_to_plane(bad)


class TestValidation:
    def test_nonsymmetric_stiffness_named(self):
        c = np.array(builtin_materials()["Al-6061"].cE)
        c.flags.writeable = True
        c[0, 1] *= 1.5
        with pytest.raises(MaterialError, match="lopsided.*cE"):
            Material3D(name="lopsided", cE=c, e=np.zeros((3, 6)),
                       epsS=EPS0 * np.eye(3), density=1.0)

    def test_ragged_matrix_is_material_error(self):
        with pytest.raises(MaterialError, match="^x: cE must be a matrix of numbers: "):
            Material3D(name="x", cE=[[1.0, 2.0], [3.0]], e=np.zeros((3, 6)),
                       epsS=EPS0 * np.eye(3), density=1.0)

    def test_density_positive(self):
        with pytest.raises(MaterialError, match="density"):
            isotropic_elastic("x", 69e9, 0.3, density=0.0)

    @pytest.mark.parametrize("field", ["cE", "e", "epsS", "sE", "d", "epsT"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_named(self, field, bad):
        # checked before symmetry and definiteness: numpy factors a NaN matrix
        # without an error
        record = builtin_materials()["Al-6061" if field in ("cE", "e", "epsS") else "PZT-5H"]
        fields = {f: np.array(getattr(record, f)) for f in ("cE", "e", "epsS", "sE", "d", "epsT")
                  if hasattr(record, f)}
        fields[field][0, 0] = bad
        with pytest.raises(MaterialError, match=f"x: {field} has non-finite entries"):
            type(record)(name="x", density=1.0, **fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density(self, bad):
        with pytest.raises(MaterialError, match="density must be positive and finite"):
            isotropic_elastic("x", 69e9, 0.3, density=bad)

    @pytest.mark.parametrize("field", ["Q11", "Q12", "Q22", "e31", "e32", "eps33", "density"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_plane_constant_named(self, field, bad):
        p = as_plane(builtin_materials()["PZT-5H"])
        values = {f: getattr(p, f) for f in ("Q11", "Q12", "Q22", "e31", "e32", "eps33",
                                             "density")}
        values[field] = bad
        with pytest.raises(MaterialError, match=field):
            PlaneMaterial(name="x", **values)

    def test_non_positive_plane_permittivity(self):
        p = as_plane(builtin_materials()["Al-6061"])
        with pytest.raises(MaterialError, match="x: eps33 must be positive"):
            PlaneMaterial(name="x", Q11=p.Q11, Q12=p.Q12, Q22=p.Q22, e31=0.0, e32=0.0,
                          eps33=0.0, density=p.density)

    def test_as_plane_record_types(self):
        p = as_plane(builtin_materials()["Al-6061"])
        assert as_plane(p) is p
        with pytest.raises(MaterialError, match="unsupported material record type object"):
            as_plane(object())


class TestPositiveDefinite:
    @pytest.mark.parametrize("m, expected", [
        ([[1.0]], True), ([[0.0]], False), ([[-1.0]], False),
        (np.eye(4), True), ([[1.0, 2.0], [2.0, 1.0]], False),
        ([[1.0, 1.0], [1.0, 1.0]], False),    # positive semidefinite, singular
        ([[2.0, 5.0], [-5.0, 2.0]], True),    # symmetric part 2 I
        ([[2.0, -5.0], [5.0, 2.0]], True),
    ])
    def test_cases(self, m, expected):
        assert _is_positive_definite(np.array(m)) is expected

    # 0.5 * (m + m.T) would overflow on the diagonal, then off it
    @pytest.mark.parametrize("m, expected", [([[1e308, 1.0], [1.0, 1e308]], True),
                                             ([[1.0, 1e308], [1e308, 1.0]], False)],
                             ids=["diagonal", "off-diagonal"])
    def test_entries_near_the_float_limit(self, m, expected):
        # the CLI's error state raises on an overflow, so this shows there is none
        for order in (2, 3):
            big = np.eye(order)
            big[:2, :2] = m
            with np.errstate(over="raise"):
                assert _is_positive_definite(big) is expected


class TestMaterialDb:
    def test_builtins_always_available(self):
        db = load_material_db(None)
        assert set(db) == {"PZT-5H", "Al-6061"}

    def test_empty_file_gives_builtins(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("")
        assert set(load_material_db(path)) == {"PZT-5H", "Al-6061"}

    def test_file_shadows_builtin(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("""{"materials": [{"name": "Al-6061", "form": "e",
            "cE_Pa": %s, "e_C_per_m2": %s, "epsS_F_per_m": %s,
            "density_kg_m3": 2800.0}]}""" % (
            np.array(builtin_materials()["Al-6061"].cE).tolist(),
            np.zeros((3, 6)).tolist(),
            (EPS0 * np.eye(3)).tolist()))
        assert load_material_db(path)["Al-6061"].density == 2800.0

    def test_duplicate_names_rejected(self, tmp_path):
        al = builtin_materials()["Al-6061"]
        entry = {"name": "x", "form": "e", "cE_Pa": np.array(al.cE).tolist(),
                 "e_C_per_m2": np.zeros((3, 6)).tolist(),
                 "epsS_F_per_m": (EPS0 * np.eye(3)).tolist(), "density_kg_m3": 1.0}
        import json
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [entry, entry]}))
        with pytest.raises(MaterialError, match="duplicate"):
            load_material_db(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{not json")
        with pytest.raises(MaterialError, match="malformed database"):
            load_material_db(path)

    def test_invalid_entry_names_offender(self, tmp_path):
        import json
        al = builtin_materials()["Al-6061"]
        c = np.array(al.cE)
        c[0, 1] *= 2.0
        entry = {"name": "warped", "form": "e", "cE_Pa": c.tolist(),
                 "e_C_per_m2": np.zeros((3, 6)).tolist(),
                 "epsS_F_per_m": (EPS0 * np.eye(3)).tolist(), "density_kg_m3": 1.0}
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [entry]}))
        with pytest.raises(MaterialError, match="warped"):
            load_material_db(path)

    def test_record_error_names_record_once(self, tmp_path):
        import json
        entry = self._al_entry()
        entry["cE_Pa"][0][1] *= 2.0
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [entry]}))
        with pytest.raises(MaterialError, match="^x: cE is not symmetric$"):
            load_material_db(path)

    @staticmethod
    def _al_entry(**changes):
        al = builtin_materials()["Al-6061"]
        entry = {"name": "x", "form": "e", "cE_Pa": np.array(al.cE).tolist(),
                 "e_C_per_m2": np.zeros((3, 6)).tolist(),
                 "epsS_F_per_m": (EPS0 * np.eye(3)).tolist(), "density_kg_m3": 2700.0}
        entry.update(changes)
        return entry

    def test_overflowing_constant_named(self, tmp_path):
        # 1e400 parses to inf; it is rejected before the symmetry test, which
        # would otherwise warn on inf - inf
        import json
        entry = self._al_entry()
        entry["cE_Pa"][0][0] = "BIG"
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [entry]}).replace('"BIG"', "1e400"))
        with pytest.raises(MaterialError, match="x: cE has non-finite entries"):
            load_material_db(path)

    def test_overflowing_rank_one_stiffness_rejected(self, tmp_path):
        import json
        import warnings
        entry = self._al_entry(name="Big", cE_Pa=np.full((6, 6), 1e308).tolist())
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [entry]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MaterialError, match="^Big: cE is not positive definite$"):
                load_material_db(path)

    @pytest.mark.parametrize("k", range(-300, 297, 4))
    def test_stiffness_scaled_to_the_float_limits_condenses(self, tmp_path, k):
        # cE_i3 * cE_j3 overflowed from k = 144 on, and Q11 came out inf
        import json
        import warnings
        al = builtin_materials()["Al-6061"]
        entry = self._al_entry(name="Scaled", cE_Pa=(np.array(al.cE) * 10.0 ** k).tolist())
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [entry]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane = as_plane(load_material_db(path)["Scaled"])
        reference = as_plane(al)
        for field in ("Q11", "Q12", "Q22"):
            assert getattr(plane, field) == pytest.approx(getattr(reference, field) * 10.0 ** k,
                                                          rel=1e-12)

    def test_coupled_stiffness_near_the_float_limit_condenses(self):
        # e_33 * cE_i3 overflowed at cE x 1e296, with two RuntimeWarnings (errors
        # under the suite's filterwarnings), and e31 came out inf
        pzt = builtin_materials()["PZT-5H"]
        e_form = convert_d_to_e(pzt)
        big = as_plane(Material3D("Big", e_form.cE * 1e296, e_form.e, e_form.epsS,
                                  e_form.density))
        reference = as_plane(pzt)
        assert reference.e31.hex() == reference.e32.hex() == "-0x1.b4dc2d6ef663cp+4"
        for field in ("e31", "e32"):
            want = getattr(reference, field)
            assert abs(getattr(big, field) - want) <= 4 * np.spacing(abs(want))

    @pytest.mark.parametrize("form, field", [("d", "sE"), ("d", "d"), ("d", "epsT"),
                                             ("e", "cE"), ("e", "e"), ("e", "epsS")])
    def test_constants_scaled_to_the_float_limits_condense_or_are_rejected(self, form, field):
        # d x 1e200 overflowed in d cE d^T and e_33 >= 1e160 in e_33 ** 2, each with a
        # RuntimeWarning before the MaterialError
        pzt = builtin_materials()["PZT-5H"]
        record = pzt if form == "d" else convert_d_to_e(pzt)
        values = {name: getattr(record, name) for name in record._fields}
        condensed = []
        for k in range(-300, 301, 4):
            with np.errstate(over="ignore"):    # cE x 1e300 is inf: the record rejects it
                scaled = values[field] * 10.0 ** k
            try:
                plane = as_plane(type(record)(**{**values, field: scaled}))
            except MaterialError:
                continue
            except RuntimeWarning as warning:
                pytest.fail(f"{field} x 1e{k}: {warning}")
            assert all(np.isfinite([plane.Q11, plane.Q12, plane.Q22, plane.e31, plane.e32,
                                    plane.eps33]))
            condensed.append(k)
        assert 0 in condensed

    def test_no_thickness_coupling_leaves_e31_and_e32_as_they_are(self):
        e_form = convert_d_to_e(builtin_materials()["PZT-5H"])
        cE = np.array(e_form.cE)
        cE[0, 2] = cE[2, 0] = cE[1, 2] = cE[2, 1] = 0.0
        plane = condense_to_plane(Material3D("Decoupled", cE, e_form.e, e_form.epsS,
                                             e_form.density))
        assert (plane.e31, plane.e32) == (e_form.e[2, 0], e_form.e[2, 1])

    @pytest.mark.parametrize("key, hint", [("epsS_F_m", "epsS_F_per_m"),
                                           ("density", "density_kg_m3"),
                                           ("sE_per_Pa", None)])
    def test_unknown_record_key_named(self, tmp_path, key, hint):
        import json
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [self._al_entry(**{key: 1.0})]}))
        message = f"unknown e-form record key '{key}'"
        if hint:
            message += f" \\(did you mean '{hint}'\\?\\)"
        with pytest.raises(MaterialError, match=message):
            load_material_db(path)

    @pytest.mark.parametrize("density", [True, "2700.0", None, [2700.0]])
    def test_density_must_be_a_number(self, tmp_path, density):
        import json
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [self._al_entry(density_kg_m3=density)]}))
        with pytest.raises(MaterialError, match="x: field 'density_kg_m3' must be a finite number"):
            load_material_db(path)

    def test_integer_density_accepted(self, tmp_path):
        import json
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"materials": [self._al_entry(density_kg_m3=2700)]}))
        assert load_material_db(path)["x"].density == 2700.0

    @pytest.mark.parametrize("doc", [
        {"materials": ["x"]}, {"materials": 3},
        {"materials": [{"name": ["x"], "form": "e"}]},
        {"materials": [{"name": "x", "form": ["e"]}]},
        pytest.param({"materials": [_al_entry(provenance=[1, 2])]}, id="provenance"),
        pytest.param({"materials": [_al_entry(cE_Pa=np.ones((5, 6)).tolist())]}, id="shape"),
        pytest.param({"materials": [{k: v for k, v in _al_entry().items()
                                     if k != "density_kg_m3"}]}, id="no-density")])
    def test_malformed_records_rejected(self, tmp_path, doc):
        import json
        path = tmp_path / "db.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MaterialError):
            load_material_db(path)

    def test_shipped_example_file_loads(self):
        from pathlib import Path
        example = Path(__file__).resolve().parent.parent / "docs" / "materials.json"
        assert set(load_material_db(example)) == {"PZT-5H", "Al-6061"}


def _json_objects():
    """A valid layup, its first layer, an e-form and a d-form record (named x)."""
    import json
    from pathlib import Path
    docs = Path(__file__).resolve().parent.parent / "docs"
    layup = json.loads((docs / "sandwich.json").read_text())
    records = {r["form"]: dict(r, name="x") for r in
               json.loads((docs / "materials.json").read_text())["materials"]}
    return layup, records


@pytest.mark.parametrize("table, key, value, message", [
    ("layup", "widht", 17.8, "unknown layup key 'widht' \\(did you mean 'width_mm'\\?\\)"),
    ("layup", "layers", None, "layup is missing key 'layers'"),
    ("layup", "layers", "PZT-5H", "field 'layers' must be a list, got 'PZT-5H'"),
    ("layer", "electrode", True, "unknown layer key 'electrode' "
                                 "\\(did you mean 'electroded'\\?\\)"),
    ("layer", "thickness_mm", None, "layer is missing key 'thickness_mm'"),
    ("layer", "electroded", "true", "field 'electroded' must be true or false, got 'true'"),
    ("e", "density", 1.0, "unknown e-form record key 'density' "
                          "\\(did you mean 'density_kg_m3'\\?\\)"),
    ("e", "epsS_F_per_m", None, "e-form record is missing key 'epsS_F_per_m'"),
    ("e", "density_kg_m3", "2700", "field 'density_kg_m3' must be a finite number, got '2700'"),
    ("d", "d31", 1.0, "unknown d-form record key 'd31'"),    # no known key is near
    ("d", "density_kg_m3", None, "d-form record is missing key 'density_kg_m3'"),
    ("d", "provenance", [1], "field 'provenance' must be a string, got \\[1\\]"),
    ("database", None, [], "database must be a JSON object, got \\[\\]"),
    ("database", "material", [], "unknown database key 'material' "
                                 "\\(did you mean 'materials'\\?\\)"),
    ("database", "materials", None, "database is missing key 'materials'"),
    ("database", "materials", 3, "field 'materials' must be a list, got 3"),
])
def test_json_object_rejections_share_one_wording(tmp_path, table, key, value, message):
    # value None stands for the key left out; key None for the whole object replaced
    import json
    from pzbeam import LayupError, build_section
    layup, records = _json_objects()
    entry = {"layup": layup, "layer": layup["layers"][0], "database": {"materials": []},
             **records}[table]
    if key is None:
        entry = value
    elif value is None:
        del entry[key]
    else:
        entry[key] = value
    if table in ("layup", "layer"):
        with pytest.raises(LayupError, match=f"^{message}$"):
            build_section(layup)
        return
    path = tmp_path / "db.json"
    path.write_text(json.dumps(entry if table == "database" else {"materials": [entry]}))
    prefix = "malformed database .*: " if table == "database" else "invalid material x: "
    with pytest.raises(MaterialError, match=f"^{prefix}{message}$"):
        load_material_db(path)
