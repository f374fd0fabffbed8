"""REST helpers: the JSON answer for a route outside the SBI table."""

from repro.net.rest import json_response


def test_json_response_sets_content_type():
    response = json_response({"a": 1})
    assert response.ok
    assert response.headers["Content-Type"] == "application/json"
    assert response.body == b'{"a": 1}'
