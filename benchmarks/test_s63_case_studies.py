"""Section 6.3 case studies: replay each exploit and verify the
observable evidence the paper reports (Listings 1-9)."""

import random

from repro.agents.base import VisitContext
from repro.agents.exploits import (elastic_attacks, mongo_attacks,
                                   postgres_attacks, redis_attacks)
from repro.core.campaigns import ransom_templates, tag_profile
from repro.core.loading import IpProfile
from repro.core.reports import format_table
from repro.honeypots import (Elasticpot, MongoHoneypot, RedisHoneypot,
                             StickyElephant)
from repro.honeypots.base import MemoryWire, SessionContext
from repro.netsim.clock import SimClock
from repro.pipeline.sinks import BufferSink

CASES = [
    ("P2PInfect (Listing 1)", lambda: RedisHoneypot("hp"),
     redis_attacks.p2pinfect_script, "P2P infect (Worm)"),
    ("ABCbot (Listing 2)", lambda: RedisHoneypot("hp"),
     redis_attacks.abcbot_script, "ABCbot (Botnet)"),
    ("CVE-2022-0543 (Listing 3)", lambda: RedisHoneypot("hp"),
     redis_attacks.cve_2022_0543_script, "CVE-2022-0543"),
    ("Kinsing (Listing 4)", lambda: StickyElephant("hp"),
     postgres_attacks.kinsing_script, "Kinsing malware"),
    ("Lucifer (Listings 5-6)", lambda: Elasticpot("hp"),
     elastic_attacks.lucifer_script, "Lucifer botnet"),
    ("Ransom note 1 (Listing 7)", lambda: MongoHoneypot("hp"),
     mongo_attacks.ransom_group1_script, "Data theft and ransom"),
    ("Ransom note 2 (Listing 8)", lambda: MongoHoneypot("hp"),
     mongo_attacks.ransom_group2_script, "Data theft and ransom"),
]


def replay(honeypot, script):
    store = BufferSink()
    clock = SimClock()

    def opener(target_key=None):
        return MemoryWire(honeypot, SessionContext(
            "203.0.113.99", 40000, clock, store))

    script(VisitContext(opener=opener, target_key="t",
                        rng=random.Random(0)))
    profile = IpProfile(src_ip="203.0.113.99", dbms=honeypot.dbms)
    for event in store:
        if event.action:
            profile.actions.append(event.action)
        if event.raw:
            profile.raws.append(event.raw)
        if event.event_type == "login_attempt":
            profile.login_attempts += 1
            profile.credentials.add((event.username or "",
                                     event.password or ""))
    return profile


def test_s63_case_studies(benchmark, emit):
    def run_all():
        results = []
        for name, factory, script, expected_tag in CASES:
            profile = replay(factory(), script)
            results.append((name, profile, expected_tag))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, profile, expected_tag in results:
        tags = tag_profile(profile)
        rows.append([name, len(profile.actions), ", ".join(sorted(tags))])
        assert expected_tag in tags, (name, tags)
    emit("s63_case_studies", format_table(
        ["Case study", "#Actions", "Tags"], rows))

    # The two ransom groups leave the two distinct note templates.
    ransom1 = results[5][1]
    ransom2 = results[6][1]
    assert ransom_templates(ransom1) == {"template-1"}
    assert ransom_templates(ransom2) == {"template-2"}
