"""Tests for control-plane NFs, the SBI bus, and 3GPP procedures."""

import pytest

from repro import units
from repro.geo import KLAGENFURT, VIENNA
from repro.cn import NetworkFunction, NFKind, ProcedureBuilder, SbiBus, SiteTier
from repro.sim import RngRegistry


def core_nf(kind, name=None, location=VIENNA, tier=SiteTier.REGIONAL_CORE,
            **kw):
    return NetworkFunction(name=name or kind.value, kind=kind,
                           location=location, tier=tier, **kw)


@pytest.fixture
def bus():
    b = SbiBus()
    for kind in (NFKind.AMF, NFKind.SMF, NFKind.PCF, NFKind.UDM,
                 NFKind.AUSF):
        b.register(core_nf(kind))
    return b


# ---------------------------------------------------------------------------
# NetworkFunction
# ---------------------------------------------------------------------------

def test_nf_default_processing_by_kind():
    amf = core_nf(NFKind.AMF)
    udm = core_nf(NFKind.UDM)
    assert amf.processing_s == pytest.approx(2.0e-3)
    assert udm.processing_s == pytest.approx(1.0e-3)


def test_nf_response_grows_with_load():
    calm = core_nf(NFKind.AMF, name="calm", load=0.0)
    busy = core_nf(NFKind.AMF, name="busy", load=0.8)
    assert busy.mean_response_s() > calm.mean_response_s()
    assert calm.mean_response_s() == pytest.approx(2.0e-3)


def test_nf_sampled_response_reproducible():
    nf = core_nf(NFKind.SMF, load=0.5)
    r1 = nf.sample_response_s(RngRegistry(3).stream("nf"))
    r2 = nf.sample_response_s(RngRegistry(3).stream("nf"))
    assert r1 == r2
    assert r1 >= nf.processing_s


def test_nf_validation():
    with pytest.raises(ValueError):
        core_nf(NFKind.AMF, name="bad", load=1.0)
    with pytest.raises(ValueError):
        NetworkFunction(name="", kind=NFKind.AMF, location=VIENNA)


# ---------------------------------------------------------------------------
# SbiBus
# ---------------------------------------------------------------------------

def test_bus_registry(bus):
    assert bus.nf("amf").kind is NFKind.AMF
    with pytest.raises(KeyError):
        bus.nf("nope")
    with pytest.raises(ValueError):
        bus.register(core_nf(NFKind.AMF))   # duplicate name 'amf'


def test_bus_find_by_kind_and_tier(bus):
    bus.register(core_nf(NFKind.AMF, name="amf-edge", location=KLAGENFURT,
                         tier=SiteTier.EDGE))
    assert len(bus.find(NFKind.AMF)) == 2
    assert len(bus.find(NFKind.AMF, tier=SiteTier.EDGE)) == 1


def test_hop_latency_scales_with_distance(bus):
    local = bus.hop_s(KLAGENFURT, KLAGENFURT)
    far = bus.hop_s(KLAGENFURT, VIENNA)
    assert local == pytest.approx(0.3e-3)   # overhead only
    # ~246 km fibre (with circuity) -> ~1.2 ms + overhead
    assert far == pytest.approx(1.53e-3, rel=0.05)


def test_request_response_is_two_hops_plus_residence(bus):
    amf = bus.nf("amf")
    total = bus.request_response_s(KLAGENFURT, amf)
    expected = 2 * bus.hop_s(KLAGENFURT, amf.location) + amf.mean_response_s()
    assert total == pytest.approx(expected)


def test_bus_validation():
    with pytest.raises(ValueError):
        SbiBus(per_message_overhead_s=-1.0)
    with pytest.raises(ValueError):
        SbiBus(circuity=0.5)


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------

def test_registration_has_all_legs(bus):
    builder = ProcedureBuilder(bus, air_one_way_s=units.ms(5.0))
    proc = builder.registration(
        KLAGENFURT, amf=bus.nf("amf"), ausf=bus.nf("ausf"),
        udm=bus.nf("udm"), pcf=bus.nf("pcf"))
    assert len(proc) == 9
    assert proc.total_s > units.ms(20.0)   # centralised core: slow


def test_pdu_session_faster_with_edge_core(bus):
    """Moving AMF/SMF/PCF (and the UPF) to the edge shrinks the setup —
    the quantitative core of Sec. V-C."""
    builder = ProcedureBuilder(bus, air_one_way_s=units.ms(5.0))
    central = builder.pdu_session_establishment(
        KLAGENFURT, amf=bus.nf("amf"), smf=bus.nf("smf"),
        pcf=bus.nf("pcf"), upf_site=VIENNA)

    edge_bus = SbiBus()
    edge = {}
    for kind in (NFKind.AMF, NFKind.SMF, NFKind.PCF):
        edge[kind] = edge_bus.register(core_nf(
            kind, name=f"{kind.value}-edge", location=KLAGENFURT,
            tier=SiteTier.EDGE))
    edge_builder = ProcedureBuilder(edge_bus, air_one_way_s=units.ms(5.0))
    local = edge_builder.pdu_session_establishment(
        KLAGENFURT, amf=edge[NFKind.AMF], smf=edge[NFKind.SMF],
        pcf=edge[NFKind.PCF], upf_site=KLAGENFURT)

    assert local.total_s < central.total_s
    # The air legs are identical; the two gNB<->AMF backhaul legs shrink
    # by ~2.5 ms (Klagenfurt-Vienna round trip) each.
    assert central.total_s - local.total_s > units.ms(4.5)


def test_service_request_is_short(bus):
    builder = ProcedureBuilder(bus, air_one_way_s=units.ms(5.0))
    proc = builder.service_request(KLAGENFURT, amf=bus.nf("amf"))
    assert len(proc) == 3
    assert proc.total_s < units.ms(25.0)


def test_procedure_with_sampled_responses(bus):
    builder = ProcedureBuilder(bus, air_one_way_s=units.ms(5.0))
    rng = RngRegistry(9).stream("proc")
    proc = builder.registration(
        KLAGENFURT, amf=bus.nf("amf"), ausf=bus.nf("ausf"),
        udm=bus.nf("udm"), pcf=bus.nf("pcf"), rng=rng)
    assert proc.total_s > 0


def test_builder_validation(bus):
    with pytest.raises(ValueError):
        ProcedureBuilder(bus, air_one_way_s=-1.0)
