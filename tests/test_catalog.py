import pytest

from latcurve import (
    BadParams,
    UnknownGerm,
    build_model,
    get,
    lattice_homology,
    list_entries,
)

ALL_SPECS = [
    ("A", 0), ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
    ("E", 6), ("E", 7), ("E", 8),
    ("T", 4, 4), ("T", 3, 6), ("T", 3, 7), ("T", 3, 9),
    ("T", 5, 5), ("T", 5, 7), ("T", 7, 7), ("T", 7, 9),
    ("E12",), ("E13",), ("E14",), ("Z11",), ("Z12",), ("Z13",),
    ("W12",), ("W13",), ("W1_0",), ("E18",),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_metadata_matches_recomputation(spec, model_of, entry_of):
    m = model_of(*spec)
    e = entry_of(*spec).expected
    assert m.multiplicity == e["m"]
    assert m.conductor == e["c"]
    assert m.delta == e["delta"]
    # plane germs: 2 delta = mu + r - 1
    assert 2 * e["delta"] == e["mu"] + m.r - 1


def test_unknown_and_bad_params():
    with pytest.raises(UnknownGerm):
        get("Q")
    with pytest.raises(BadParams):
        get("A", -1)
    with pytest.raises(BadParams):
        get("D", 3)
    with pytest.raises(BadParams):
        get("E", 9)
    with pytest.raises(BadParams):
        get("T", 4, 5)
    with pytest.raises(BadParams):
        get("E12", 3)


def test_aliases():
    assert get("E6").name == "E_6"
    assert get("E7").name == "E_7"


def test_listing():
    names = [n for n, _ in list_entries()]
    assert "A" in names and "D" in names and "E" in names
    assert "E12" in names and "W13" in names and "W1_0" in names
    detail = dict(list_entries())["T"]
    assert "3," in detail or "T_{3,2b+3}" in detail or "odd q" in detail


def test_listing_pins_every_family():
    assert list_entries() == [
        ("A", "A,n for n >= 0 (A_0 is the smooth germ)"),
        ("D", "D,n for n >= 4"),
        ("E", "E,n for n in {6, 7, 8} (aliases E6/E7/E8)"),
        ("T", "T,4,4 | T,3,6 | T,3,q (odd q >= 7, i.e. T_{3,2b+3}) | T,p,q (odd p,q >= 5)"),
        ("E12", "exceptional unimodal E_12 (derived entry)"),
        ("E13", "exceptional unimodal E_13 (derived entry)"),
        ("E14", "exceptional unimodal E_14 (derived entry)"),
        ("Z11", "exceptional unimodal Z_11 (derived entry)"),
        ("Z12", "exceptional unimodal Z_12 (derived entry)"),
        ("Z13", "exceptional unimodal Z_13 (derived entry)"),
        ("W12", "exceptional unimodal W_12 (derived entry)"),
        ("W13", "exceptional unimodal W_13 (derived entry)"),
        ("W1_0", "bimodal W_{1,0} (derived entry)"),
        ("E18", "bimodal E_18 (derived entry)"),
    ]


@pytest.mark.parametrize(
    "group",
    [
        [("E12",), ("T", 3, 6), ("T", 3, 7)],
        [("E13",), ("E14",), ("T", 3, 9)],
        [("Z11",), ("W12",), ("T", 4, 4)],
        [("Z12",), ("Z13",), ("W13",), ("T", 5, 7)],
    ],
    ids=["E12-class", "E13-class", "Z11-class", "Z12-class"],
)
def test_homology_isomorphism_classes(group, model_of):
    """Germs sharing the whole graded homology module: free ranks, torsion,
    and U-map ranks agree degreewise (levels above each germ's top are
    point-homology, which the accessors pad)."""
    reports = [lattice_homology(model_of(*spec).weight) for spec in group]
    ref = reports[0]
    kmax = max(rep.r for rep in reports)
    nmin = min(rep.n_min for rep in reports)
    ntop = max(rep.n_top for rep in reports)
    for rep in reports[1:]:
        for n in range(nmin, ntop + 2):
            for k in range(kmax):
                assert ref.betti(k, n) == rep.betti(k, n), (n, k)
                assert ref.torsion(k, n) == rep.torsion(k, n)
                assert ref.u_rank(k, n) == rep.u_rank(k, n), (n, k)


def test_descriptor_serialization_round_trip():
    from latcurve.germ import descriptor_from_json

    for spec in [("D", 5), ("T", 3, 6), ("E13",)]:
        desc = get(*spec)
        back = descriptor_from_json(desc.to_json())
        m1, m2 = build_model(desc), build_model(back)
        assert m1.conductor == m2.conductor
        assert m1.delta == m2.delta
        import numpy as np

        assert np.array_equal(m1.weight.values, m2.weight.values)
