"""Section V-C — control-plane functionality enhancement.

Paper claims reproduced:

* consolidating session + mobility management at the Near-RT RIC
  shortens PDU session establishment and service requests (the N2 and
  N4 legs shed their Vienna round trips);
* registration is a wash under the *hybrid* deployment (subscriber
  data stays central) — the paper's argument for hybrid control;
* the context-aware QoS rule engine ([32]) reduces PDR/QER lookup and
  update latencies.

Timed work: the full procedure comparison; one QoS-cache run.
"""

from repro import units
from repro.core import CpfEnhancementStudy, QosCacheStudy


def test_cpf_procedures(benchmark):
    def compare():
        return CpfEnhancementStudy().compare_all()

    comparisons = benchmark(compare)

    by_name = {c.procedure: c for c in comparisons}
    pdu = by_name["pdu-session-establishment"]
    service = by_name["service-request"]
    assert pdu.improvement_s > units.ms(4.0)
    assert service.improvement_fraction > 0.15
    # hybrid: registration does not regress
    assert by_name["registration"].improvement_s >= -1e-12

    print("\nprocedure latencies (centralised -> RIC-consolidated):")
    for c in comparisons:
        print(f"  {c.procedure}: {units.to_ms(c.centralised_s):.1f} ms -> "
              f"{units.to_ms(c.ric_consolidated_s):.1f} ms "
              f"({100 * c.improvement_fraction:.0f}%)")


def test_qos_rule_cache(benchmark):
    def run_cache_study():
        return QosCacheStudy().run()

    result = benchmark(run_cache_study)
    # On a churn-heavy mix (512 bulk flows over a 64-slot cache)
    # the bulk misses bound the gain; the critical flows inside
    # the cache see ~1000x.
    assert result["context_aware_s"] < result["linear_scan_s"] / 2.0
    assert result["hit_rate"] > 0.5
    print(f"\nPDR/QER lookup: linear scan "
          f"{result['linear_scan_s'] * 1e6:.1f} us vs context-aware "
          f"{result['context_aware_s'] * 1e6:.2f} us "
          f"(hit rate {100 * result['hit_rate']:.0f}%)")
