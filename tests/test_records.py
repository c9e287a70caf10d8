"""The report and record types: pickles, reprs, equality and construction.

Each pinned instance keeps the repr and the protocol-4 pickle bytes it had
while its type was a dataclass, so pickles written then still load, and
pickles written now load there.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from supertropical import (
    CampaignResult,
    Config,
    DetClass,
    DetReport,
    EigenReport,
    Interval,
    PermutationTrack,
    RootReport,
    SymMonomial,
    ghost,
    tangible,
)

HALF_LINE = Interval(Fraction(-1, 2), None, True, False)

# (instance, its repr, its pickle bytes at protocol 4), by type.
PINS = {
    "Interval": (
        HALF_LINE,
        "Interval(lo=Fraction(-1, 2), hi=None, lo_closed=True, hi_closed=False)",
        b"\x80\x04\x95z\x00\x00\x00\x00\x00\x00\x00\x8c\x18supertropical.polynomial"
        b"\x94\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94\x8c\tfractions"
        b"\x94\x8c\x08Fraction\x94\x93\x94J\xff\xff\xff\xffK\x02\x86\x94R\x94\x8c\x02h"
        b"i\x94N\x8c\tlo_closed\x94\x88\x8c\thi_closed\x94\x89ub.",
    ),
    "RootReport": (
        RootReport(((tangible(1), 2), (ghost(Fraction(1, 3)), 1)), (HALF_LINE,), False),
        "RootReport(corner_roots=((Scalar(1), 2), (Scalar(1/3g), 1)), ghost_intervals="
        "(Interval(lo=Fraction(-1, 2), hi=None, lo_closed=True, hi_closed=False),), "
        "is_identically_root=False)",
        b"\x80\x04\x95G\x01\x00\x00\x00\x00\x00\x00\x8c\x18supertropical.polynomial"
        b"\x94\x8c\nRootReport\x94\x93\x94)\x81\x94}\x94(\x8c\x0ccorner_roots\x94\x8c"
        b"\x14supertropical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x06"
        b"\x8c\x04Kind\x94\x93\x94\x8c\x08tangible\x94\x85\x94R\x94\x8c\tfractions\x94"
        b"\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94ebK\x02\x86\x94h\x08)\x81"
        b"\x94]\x94(h\x0c\x8c\x05ghost\x94\x85\x94R\x94h\x12K\x01K\x03\x86\x94R\x94ebK"
        b"\x01\x86\x94\x86\x94\x8c\x0fghost_intervals\x94h\x00\x8c\x08Interval\x94\x93"
        b"\x94)\x81\x94}\x94(\x8c\x02lo\x94h\x12J\xff\xff\xff\xffK\x02\x86\x94R\x94"
        b"\x8c\x02hi\x94N\x8c\tlo_closed\x94\x88\x8c\thi_closed\x94\x89ub\x85\x94\x8c"
        b"\x13is_identically_root\x94\x89ub.",
    ),
    "DetReport": (
        DetReport(
            ghost(3),
            (PermutationTrack((1, 0), tangible(3)), PermutationTrack((0, 1), tangible(3))),
            DetClass.GHOST_BY_TIE,
        ),
        "DetReport(value=Scalar(3g), dominant_tracks=(PermutationTrack(perm=(1, 0), "
        "product=Scalar(3)), PermutationTrack(perm=(0, 1), product=Scalar(3))), "
        "classification=<DetClass.GHOST_BY_TIE: 'ghost-by-tie'>)",
        b"\x80\x04\x95O\x01\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.matrix\x94"
        b"\x8c\tDetReport\x94\x93\x94)\x81\x94}\x94(\x8c\x05value\x94\x8c\x14supertrop"
        b"ical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x06\x8c\x04Kind"
        b"\x94\x93\x94\x8c\x05ghost\x94\x85\x94R\x94\x8c\tfractions\x94\x8c\x08Fractio"
        b"n\x94\x93\x94K\x03K\x01\x86\x94R\x94eb\x8c\x0fdominant_tracks\x94h\x00\x8c"
        b"\x10PermutationTrack\x94\x93\x94)\x81\x94]\x94(K\x01K\x00\x86\x94h\x08)\x81"
        b"\x94]\x94(h\x0c\x8c\x08tangible\x94\x85\x94R\x94h\x12K\x03K\x01\x86\x94R\x94"
        b"ebebh\x17)\x81\x94]\x94(K\x00K\x01\x86\x94h\x08)\x81\x94]\x94(h\x1fh\x12K"
        b"\x03K\x01\x86\x94R\x94ebeb\x86\x94\x8c\x0eclassification\x94h\x00\x8c\x08Det"
        b"Class\x94\x93\x94\x8c\x0cghost-by-tie\x94\x85\x94R\x94ub.",
    ),
    "PermutationTrack": (
        PermutationTrack((2, 0, 1), tangible(Fraction(5, 2))),
        "PermutationTrack(perm=(2, 0, 1), product=Scalar(5/2))",
        b"\x80\x04\x95\xa2\x00\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.matrix\x94"
        b"\x8c\x10PermutationTrack\x94\x93\x94)\x81\x94]\x94(K\x02K\x00K\x01\x87\x94"
        b"\x8c\x14supertropical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h"
        b"\x06\x8c\x04Kind\x94\x93\x94\x8c\x08tangible\x94\x85\x94R\x94\x8c\tfractions"
        b"\x94\x8c\x08Fraction\x94\x93\x94K\x05K\x02\x86\x94R\x94ebeb.",
    ),
    "EigenReport": (
        EigenReport(((tangible(2), 1),), (Interval(None, Fraction(1), False, True),)),
        "EigenReport(eigenvalues=((Scalar(2), 1),), ghost_region=(Interval(lo=None, "
        "hi=Fraction(1, 1), lo_closed=False, hi_closed=True),))",
        b"\x80\x04\x95\x1b\x01\x00\x00\x00\x00\x00\x00\x8c\x16supertropical.spectral"
        b"\x94\x8c\x0bEigenReport\x94\x93\x94)\x81\x94}\x94(\x8c\x0beigenvalues\x94"
        b"\x8c\x14supertropical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h"
        b"\x06\x8c\x04Kind\x94\x93\x94\x8c\x08tangible\x94\x85\x94R\x94\x8c\tfractions"
        b"\x94\x8c\x08Fraction\x94\x93\x94K\x02K\x01\x86\x94R\x94ebK\x01\x86\x94\x85"
        b"\x94\x8c\x0cghost_region\x94\x8c\x18supertropical.polynomial\x94\x8c\x08Inte"
        b"rval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94N\x8c\x02hi\x94h\x12K\x01K\x01"
        b"\x86\x94R\x94\x8c\tlo_closed\x94\x89\x8c\thi_closed\x94\x88ub\x85\x94ub.",
    ),
    "Config": (
        Config(trials=7, seed=3, max_n=3, ghost_prob=0.5, det_bound=5),
        "Config(trials=7, seed=3, min_n=2, max_n=3, min_m=2, max_m=3, value_min=-5, "
        "value_max=5, ghost_prob=0.5, zero_prob=0.05, det_bound=5)",
        b"\x80\x04\x95\xbd\x00\x00\x00\x00\x00\x00\x00\x8c\x12supertropical.fuzz\x94"
        b"\x8c\x06Config\x94\x93\x94)\x81\x94}\x94(\x8c\x06trials\x94K\x07\x8c\x04seed"
        b"\x94K\x03\x8c\x05min_n\x94K\x02\x8c\x05max_n\x94K\x03\x8c\x05min_m\x94K\x02"
        b"\x8c\x05max_m\x94K\x03\x8c\tvalue_min\x94J\xfb\xff\xff\xff\x8c\tvalue_max"
        b"\x94K\x05\x8c\nghost_prob\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\tzero_prob"
        b"\x94G?\xa9\x99\x99\x99\x99\x99\x9a\x8c\tdet_bound\x94K\x05ub.",
    ),
    "CampaignResult": (
        CampaignResult(
            Config(trials=2),
            {"thm36": {"pass": 2, "fail": 0, "na": 0}},
            [{"trial": 1, "check": "thm36"}],
        ),
        "CampaignResult(config=Config(trials=2, seed=0, min_n=2, max_n=4, min_m=2, "
        "max_m=3, value_min=-5, value_max=5, ghost_prob=0.2, zero_prob=0.05, "
        "det_bound=None), tallies={'thm36': {'pass': 2, 'fail': 0, 'na': 0}}, "
        "violations=[{'trial': 1, 'check': 'thm36'}])",
        b"\x80\x04\x95<\x01\x00\x00\x00\x00\x00\x00\x8c\x12supertropical.fuzz\x94\x8c"
        b"\x0eCampaignResult\x94\x93\x94)\x81\x94}\x94(\x8c\x06config\x94h\x00\x8c\x06"
        b"Config\x94\x93\x94)\x81\x94}\x94(\x8c\x06trials\x94K\x02\x8c\x04seed\x94K"
        b"\x00\x8c\x05min_n\x94K\x02\x8c\x05max_n\x94K\x04\x8c\x05min_m\x94K\x02\x8c"
        b"\x05max_m\x94K\x03\x8c\tvalue_min\x94J\xfb\xff\xff\xff\x8c\tvalue_max\x94K"
        b"\x05\x8c\nghost_prob\x94G?\xc9\x99\x99\x99\x99\x99\x9a\x8c\tzero_prob\x94G?"
        b"\xa9\x99\x99\x99\x99\x99\x9a\x8c\tdet_bound\x94Nub\x8c\x07tallies\x94}\x94"
        b"\x8c\x05thm36\x94}\x94(\x8c\x04pass\x94K\x02\x8c\x04fail\x94K\x00\x8c\x02na"
        b"\x94K\x00us\x8c\nviolations\x94]\x94}\x94(\x8c\x05trial\x94K\x01\x8c\x05chec"
        b"k\x94h\x17uaub.",
    ),
    "SymMonomial": (
        SymMonomial((((0, 1), 2), ((1, 0), 1))),
        "SymMonomial(exps=(((0, 1), 2), ((1, 0), 1)))",
        b"\x80\x04\x95L\x00\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.oracle\x94"
        b"\x8c\x0bSymMonomial\x94\x93\x94)\x81\x94}\x94\x8c\x04exps\x94K\x00K\x01\x86"
        b"\x94K\x02\x86\x94K\x01K\x00\x86\x94K\x01\x86\x94\x86\x94sb.",
    ),
}


@pytest.mark.parametrize("name", list(PINS))
def test_pickles_load_and_dump_as_before(name):
    obj, text, data = PINS[name]
    copy = pickle.loads(data)
    assert type(copy) is type(obj) and copy == obj
    assert repr(copy) == repr(obj) == text
    assert pickle.dumps(obj, protocol=4) == data
    assert pickle.dumps(copy, protocol=4) == data
    if name == "CampaignResult":
        with pytest.raises(TypeError, match="unhashable type: 'CampaignResult'"):
            hash(obj)
    else:
        # The hash of the tuple of fields, which the pickled state lists in order.
        state = obj.__reduce_ex__(4)[2]
        fields = tuple(state.values() if isinstance(state, dict) else state)
        assert hash(copy) == hash(obj) == hash(fields)


@pytest.mark.parametrize("name", list(PINS))
def test_equality_needs_the_same_type_and_fields(name):
    obj = PINS[name][0]
    assert obj != PINS["SymMonomial" if name != "SymMonomial" else "Interval"][0]
    assert obj.__eq__(object()) is NotImplemented
    assert obj == pickle.loads(pickle.dumps(obj))


def test_records_with_equal_fields_are_equal():
    assert Interval(None, Fraction(0), False, True) == Interval(None, Fraction(0), False, True)
    assert Interval(None, Fraction(0), False, True) != Interval(None, Fraction(0), False, False)
    assert len({PermutationTrack((0,), tangible(1)), PermutationTrack((0,), tangible(1))}) == 1
    assert SymMonomial.of([((0, 0), 1), ((0, 0), 1)]) == SymMonomial((((0, 0), 2),))


def test_eigen_report_ghost_region_defaults_to_empty():
    eigs = ((tangible(1), 2),)
    report = EigenReport(eigs)
    assert report.eigenvalues == eigs and report.ghost_region == ()
    assert report == EigenReport(eigs, ())
    assert report.to_json_dict() == {
        "eigenvalues": [{"value": "1", "multiplicity": 2}], "ghost_region": []
    }
