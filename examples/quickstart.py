"""Quickstart: attack one honeypot and analyze what it saw.

Boots a medium-interaction Redis honeypot in-process, replays the
P2PInfect worm sequence (the paper's Listing 1) against it, then runs
the honeypot's log through classification and campaign tagging.

Run:  python examples/quickstart.py
"""

import random

from repro.agents.base import VisitContext
from repro.agents.exploits import redis_attacks
from repro.core.classification import classify_profile
from repro.core.campaigns import tag_profile
from repro.core.loading import IpProfile
from repro.honeypots import RedisHoneypot
from repro.honeypots.base import MemoryWire, SessionContext
from repro.netsim.clock import SimClock
from repro.pipeline.sinks import BufferSink


def main() -> None:
    honeypot = RedisHoneypot("quickstart-redis", config="default")
    store = BufferSink()
    clock = SimClock()
    attacker_ip = "203.0.113.66"

    def opener(target_key=None):
        context = SessionContext(attacker_ip, 51234, clock, store)
        return MemoryWire(honeypot, context)

    print(f"[*] attacking {honeypot.info.honeypot_id} from "
          f"{attacker_ip} with the P2PInfect sequence...")
    context = VisitContext(opener=opener, target_key="redis",
                           rng=random.Random(0))
    redis_attacks.p2pinfect_script(context)

    print(f"[*] honeypot logged {len(store)} events:")
    for event in store:
        detail = event.action or event.event_type
        print(f"      {event.event_type:13s} {detail}")

    # Build the per-IP profile the analysis layer works with.
    profile = IpProfile(src_ip=attacker_ip, dbms="redis")
    for event in store:
        if event.action:
            profile.actions.append(event.action)
        if event.raw:
            profile.raws.append(event.raw)

    classification = classify_profile(profile)
    tags = tag_profile(profile)
    print(f"[*] classification: {classification.primary.value}"
          f"  (classes: {sorted(c.value for c in classification.classes)})")
    print(f"[*] campaign tags:  {sorted(tags)}")
    print(f"[*] honeypot keyspace afterwards: "
          f"{honeypot.engine.dbsize()} keys, "
          f"role={honeypot.engine.replication.role}, "
          f"config dir={honeypot.engine.config_get('dir')['dir']}")


if __name__ == "__main__":
    main()
