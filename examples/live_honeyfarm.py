"""Live honeyfarm: serve all five honeypot families over real TCP.

Starts one instance of every honeypot family on loopback ports, drives
a mix of scanners, scouts and exploit campaigns against them over real
sockets, then converts the captured logs to SQLite and prints the
classification -- the full Figure 1 pipeline over an actual network.

Run:  python examples/live_honeyfarm.py
"""

import asyncio
import random
from pathlib import Path

from repro.agents.base import VisitContext
from repro.agents.exploits import (mongo_attacks, postgres_attacks,
                                   redis_attacks)
from repro.clients import RedisClient, TcpWire
from repro.core.campaigns import campaign_summary
from repro.core.loading import load_ip_profiles
from repro.core.reports import classification_table, format_table
from repro.honeypots import (Elasticpot, MongoHoneypot, RedisHoneypot,
                             StickyElephant)
from repro.honeypots.tcp import serve_honeypots
from repro.netsim.address_space import AddressSpace
from repro.netsim.asdb import ASType
from repro.netsim.clock import SimClock
from repro.netsim.geoip import GeoIPDatabase
from repro.pipeline.convert import convert_to_sqlite
from repro.pipeline.sinks import BufferSink


async def run() -> None:
    clock = SimClock()
    store = BufferSink()
    honeypots = [
        RedisHoneypot("live-redis", config="fake_data"),
        StickyElephant("live-postgresql"),
        Elasticpot("live-elasticsearch"),
        MongoHoneypot("live-mongodb"),
    ]
    servers = await serve_honeypots(honeypots, clock, store)
    ports = {server.honeypot.dbms: server.port for server in servers}
    print("[*] honeypots listening on 127.0.0.1:")
    for dbms, port in ports.items():
        print(f"      {dbms:15s} port {port}")

    rng = random.Random(7)

    def attack(dbms, script):
        def opener(target_key=None):
            return TcpWire("127.0.0.1", ports[dbms])

        clock.advance(minutes=rng.randint(10, 240))
        script(VisitContext(opener=opener, target_key=dbms, rng=rng))

    loop = asyncio.get_running_loop()
    print("[*] replaying attack campaigns over TCP...")
    for dbms, script, label in [
        ("redis", redis_attacks.p2pinfect_script, "P2PInfect"),
        ("redis", redis_attacks.cve_2022_0543_script, "CVE-2022-0543"),
        ("postgresql", postgres_attacks.kinsing_script, "Kinsing"),
        ("postgresql", postgres_attacks.privilege_manipulation_script,
         "privilege manipulation"),
        ("postgresql", redis_attacks.rdp_scan_script, "RDP probe"),
        ("mongodb", mongo_attacks.ransom_group1_script, "ransom"),
    ]:
        print(f"      {label} -> {dbms}")
        await loop.run_in_executor(None, attack, dbms, script)

    # A few scouts for contrast.
    def scout_redis():
        client = RedisClient(TcpWire("127.0.0.1", ports["redis"]))
        client.connect()
        client.command("INFO")
        keys = client.command("KEYS", "*")
        print(f"      scout saw {len(keys) if isinstance(keys, list) else 0}"
              f" Redis keys (decoys + attacker leftovers)")
        client.close()

    clock.advance(hours=1)
    await loop.run_in_executor(None, scout_redis)

    for server in servers:
        await server.stop()

    print(f"[*] captured {len(store)} events; converting to SQLite...")
    space = AddressSpace()
    space.register_as(64500, "LOOPBACK-LAB", "Netherlands",
                      ASType.HOSTING)
    geoip = GeoIPDatabase.from_address_space(space)
    db = convert_to_sqlite(store.events, Path("live-honeyfarm.sqlite"),
                           geoip)
    profiles = load_ip_profiles(db)
    print("\n-- classification of the live traffic")
    print(format_table(
        ["DBMS", "#IP", "Scan", "Scout", "Exploit", "#Cls"],
        [[r.dbms, r.total_ips, r.scanning, r.scouting, r.exploiting,
          r.clusters]
         for r in classification_table(profiles,
                                       distance_threshold=0.1)]))
    print("\n-- campaigns detected")
    print(format_table(
        ["Category", "Attack", "#IP"],
        [[r.category, r.tag, r.ip_count]
         for r in campaign_summary(profiles)]))


if __name__ == "__main__":
    asyncio.run(run())
