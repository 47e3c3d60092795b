"""Tests for the Elasticpot Elasticsearch honeypot."""

import json

import pytest

from repro.honeypots import Elasticpot
from repro.honeypots.base import MemoryWire
from repro.honeypots.elasticpot import normalize_http_action
from repro.pipeline.logstore import EventType
from repro.protocols import http11


@pytest.fixture
def wire(session_context):
    wire = MemoryWire(Elasticpot("hp"), session_context)
    wire.connect()
    return wire


def get(wire, target):
    return http11.parse_response(wire.send(
        http11.build_request("GET", target)))


class TestNormalization:
    @pytest.mark.parametrize("method,path,action", [
        ("GET", "/_nodes", "GET /_nodes"),
        ("GET", "/_cluster/health", "GET /_cluster/health"),
        ("GET", "/customers/_doc/42", "GET /<index>/_doc/<id>"),
        ("GET", "/users/_doc/deadbeef01", "GET /<index>/_doc/<id>"),
        ("POST", "/idx/_search", "POST /<index>/_search"),
        ("GET", "/", "GET /"),
    ])
    def test_actions(self, method, path, action):
        assert normalize_http_action(method, path) == action

    def test_ids_collapse_to_same_action(self):
        a = normalize_http_action("DELETE", "/logs/_doc/111")
        b = normalize_http_action("DELETE", "/metrics/_doc/999")
        assert a == b


class TestEndpoints:
    def test_banner(self, wire):
        response = get(wire, "/")
        body = json.loads(response.body)
        assert body["version"]["number"] == "1.4.2"
        assert body["tagline"] == "You Know, for Search"

    def test_nodes(self, wire):
        body = json.loads(get(wire, "/_nodes").body)
        assert body["cluster_name"] == "elasticsearch"
        assert body["nodes"]

    def test_cluster_health(self, wire):
        body = json.loads(get(wire, "/_cluster/health").body)
        assert body["status"] == "yellow"

    def test_cat_indices_plain_text(self, wire):
        response = get(wire, "/_cat/indices")
        assert response.headers["content-type"] == "text/plain"
        assert b"customers" in response.body

    def test_global_search_returns_decoy_hits(self, wire):
        body = json.loads(get(wire, "/_search?q=*").body)
        assert body["hits"]["total"] == 64
        assert len(body["hits"]["hits"]) == 10
        assert "credit_card" in body["hits"]["hits"][0]["_source"]

    def test_index_search_scoped(self, wire):
        body = json.loads(get(wire, "/customers/_search").body)
        assert body["hits"]["total"] == 64
        assert get(wire, "/nothere/_search").status == 404

    def test_indexed_documents_become_searchable(self, wire):
        response = http11.parse_response(wire.send(http11.build_request(
            "PUT", "/notes/_doc/1", body=b'{"msg":"pay up"}')))
        assert response.status == 201
        body = json.loads(get(wire, "/notes/_search").body)
        assert body["hits"]["total"] == 1
        assert body["hits"]["hits"][0]["_source"]["msg"] == "pay up"

    def test_delete_index_removes_documents(self, wire):
        wire.send(http11.build_request("PUT", "/tmpidx/_doc/1",
                                       body=b'{"a":1}'))
        response = http11.parse_response(wire.send(http11.build_request(
            "DELETE", "/tmpidx")))
        assert response.status == 200
        assert get(wire, "/tmpidx/_search").status == 404

    def test_cat_indices_reflects_state(self, wire):
        wire.send(http11.build_request("PUT", "/evil/_doc/1",
                                       body=b'{"x":1}'))
        response = get(wire, "/_cat/indices")
        assert b"evil 5 1 1" in response.body
        assert b"customers 5 1 64" in response.body

    def test_stats_reflects_counts(self, wire):
        body = json.loads(get(wire, "/_stats").body)
        assert body["indices"]["customers"]["primaries"]["docs"][
            "count"] == 64

    def test_unknown_path_404(self, wire):
        response = get(wire, "/no/such/path")
        assert response.status == 404
        assert b"index_not_found_exception" in response.body

    def test_put_pretends_to_create(self, wire):
        response = http11.parse_response(wire.send(http11.build_request(
            "PUT", "/evil/_doc/1", body=b'{"x":1}')))
        assert response.status == 201

    def test_delete_acknowledged(self, wire):
        response = http11.parse_response(wire.send(http11.build_request(
            "DELETE", "/customers")))
        assert response.status == 200


class TestLogging:
    def test_request_logged_with_decoded_payload(self, wire, log_store):
        from urllib.parse import quote

        payload = '{"script":"Runtime.getRuntime().exec(\\"id\\")"}'
        wire.send(http11.build_request(
            "GET", f"/_search?source={quote(payload)}"))
        (event,) = [e for e in log_store
                    if e.event_type == EventType.HTTP_REQUEST.value]
        assert "Runtime.getRuntime().exec" in event.raw
        assert event.action == "GET /_search"

    def test_body_included_in_raw(self, wire, log_store):
        wire.send(http11.build_request("POST", "/sdk",
                                       body=b"<soapenv:Envelope/>"))
        (event,) = [e for e in log_store
                    if e.event_type == EventType.HTTP_REQUEST.value]
        assert "soapenv" in event.raw

    def test_garbage_logged_malformed_and_400(self, session_context,
                                              log_store):
        wire = MemoryWire(Elasticpot("hp"), session_context)
        wire.connect()
        reply = wire.send(b"\x16\x03\x01\x02\x00\x01garbage\r\n\r\n")
        assert b"400" in reply.split(b"\r\n")[0]
        assert [e for e in log_store
                if e.event_type == EventType.MALFORMED.value]


def test_custom_templates():
    honeypot = Elasticpot("hp", templates={"/custom": {"hello": "world"}})
    from repro.honeypots.base import SessionContext
    from repro.netsim.clock import SimClock
    from repro.pipeline.sinks import BufferSink

    store = BufferSink()
    context = SessionContext("1.2.3.4", 1, SimClock(), store)
    wire = MemoryWire(honeypot, context)
    wire.connect()
    body = json.loads(get(wire, "/custom").body)
    assert body == {"hello": "world"}
