"""Ransom attack, end to end, against the high-interaction MongoDB.

Shows why the high-interaction tier matters: the honeypot's database
really holds (fake) customer data, the attacker really exfiltrates and
deletes it, and the ransom note really replaces it -- including the
paper's observation that repeat visits overwrite the previous note, so
a paying victim may recover nothing but an older ransom note.

Run:  python examples/ransom_attack_demo.py
"""

import random

from repro.agents.base import VisitContext
from repro.agents.exploits import mongo_attacks
from repro.core.campaigns import ransom_templates, tag_profile
from repro.core.loading import IpProfile
from repro.honeypots import MongoHoneypot
from repro.honeypots.base import MemoryWire, SessionContext
from repro.netsim.clock import SimClock
from repro.pipeline.sinks import BufferSink


def profile_from(store: BufferSink, ip: str) -> IpProfile:
    profile = IpProfile(src_ip=ip, dbms="mongodb")
    for event in store:
        if event.src_ip != ip:
            continue
        if event.action:
            profile.actions.append(event.action)
        if event.raw:
            profile.raws.append(event.raw)
    return profile


def main() -> None:
    honeypot = MongoHoneypot("demo-mongo", config="fake_data")
    store = BufferSink()
    clock = SimClock()
    engine = honeypot.engine

    records = engine.count("customers", "records")
    sample = engine.find("customers", "records", limit=2)
    print(f"[*] decoy database holds {records} fake customer records, "
          f"e.g.:")
    for document in sample:
        print(f"      {document['first_name']} {document['last_name']}, "
              f"card {document['credit_card']}")

    def attacker(ip):
        def opener(target_key=None):
            return MemoryWire(honeypot, SessionContext(
                ip, 40000, clock, store))

        return VisitContext(opener=opener, target_key="mongo",
                            rng=random.Random(ip))

    print("\n[*] day 3: ransom group 1 strikes...")
    clock.advance(days=3)
    mongo_attacks.ransom_group1_script(attacker("198.51.100.21"))
    print(f"      records left: "
          f"{engine.count('customers', 'records')}")
    note = engine.find("customers", "README")[0]["content"]
    print(f"      ransom note: {note[:70]}...")

    print("\n[*] day 9: ransom group 2 returns, replacing the note...")
    clock.advance(days=6)
    mongo_attacks.ransom_group2_script(attacker("198.51.100.77"))
    notes = engine.find("customers", "README")
    print(f"      notes present: {len(notes)}")
    print(f"      current note: {notes[0]['content'][:70]}...")
    print("      (a victim paying group 1 now would recover nothing "
          "but group 2's note)")

    print("\n[*] analysis view:")
    for ip in ("198.51.100.21", "198.51.100.77"):
        profile = profile_from(store, ip)
        print(f"      {ip}: tags={sorted(tag_profile(profile))} "
              f"template={sorted(ransom_templates(profile))}")


if __name__ == "__main__":
    main()
