"""The package's records are named tuples: equal and hashed by value,
read-only, picklable, and printed as Name(field=value, ...)."""

import pickle

import pytest

from hypersym import catalog as C
from hypersym import numeval, transforms, verify

RECORDS = (C.ParamSpec, C.CatalogEntry, C.PairingClaim,
           transforms.TransformDef, transforms.CheckResult,
           transforms.ConventionResult, transforms.TransformReport,
           transforms.ListIdentity, verify.VerificationReport,
           verify.LemmaDecomposition, numeval.NumericVerdict,
           numeval.FDCheck)


def test_a_claim_is_equal_and_hashed_by_value(catalog):
    claim = catalog.pairings()[0]
    twin = C.PairingClaim(*claim)
    assert twin == claim and twin is not claim
    assert hash(twin) == hash(claim)
    assert {claim: "first"}[twin] == "first"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_every_record_is_read_only(record):
    r = record._make([None] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 1)


def test_a_report_survives_a_pickle_round_trip(catalog):
    # the verify_all pool sends each report back to its parent pickled
    reports = [verify.verify_claim(catalog, catalog.pairings()[0], samples=2),
               verify.verify_pair(catalog.get("hyp3"), catalog.get("ev12"))]
    assert not reports[1].residual_is_zero
    for r in reports:
        copy = pickle.loads(pickle.dumps(r))
        assert copy == r and type(copy) is verify.VerificationReport


def test_a_record_prints_its_fields_by_name():
    assert repr(C.ParamSpec("a", True)) == "ParamSpec(name='a', nonzero=True)"
    assert str(C.ParamSpec("a", True)) == "a != 0"
    assert repr(transforms.CheckResult("R", 0)) == (
        "CheckResult(name='R', term_count=0, text=None)")


def test_a_sample_point_defaults_its_relation_residuals():
    a, b = numeval.SamplePoint({}, 0), numeval.SamplePoint({}, 0)
    assert a.relation_residuals == {}
    assert a.relation_residuals is not b.relation_residuals
