"""REST helpers: the JSON answer and the error mapping."""

from repro.net.rest import JsonApiError, error_response, json_response


def test_json_response_sets_content_type():
    response = json_response({"a": 1})
    assert response.ok
    assert response.headers["Content-Type"] == "application/json"
    assert response.body == b'{"a": 1}'


def test_error_response_carries_status_and_message():
    response = error_response(JsonApiError(403, "denied"))
    assert response.status == 403
    assert response.body == b'{"error": "denied"}'
