"""The JSONL read contract every log loader shares."""

import pytest

from repro.utils.jsonl import read_jsonl


def test_rows_carry_their_line_numbers_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\r\n')
    assert read_jsonl(path) == ([(1, {"a": 1}), (4, {"b": 2})], False)


def test_empty_file_is_an_empty_log(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("")
    assert read_jsonl(path) == ([], False)


def test_damaged_trailing_line_is_dropped_and_flagged(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": 2, "c\n\n')  # crash mid-write, then a newline
    assert read_jsonl(path) == ([(1, {"a": 1})], True)


@pytest.mark.parametrize("content, where, why", [
    (b'{"a": 1}\ngarbage\n{"b": 2}\n', ":2:", "malformed trace line"),
    (b'{"a": 1}\n\xff\xfe\n', ":2:", "not UTF-8"),
    (b'\xff{"a": 1}', ":1:", "not UTF-8"),  # even on the last line
    (b'{"a": 1}\n[1, 2]\n', ":2:", "expected a JSON object, got list"),
    (b'"just a string"', ":1:", "expected a JSON object, got str"),
])
def test_anything_else_raises_with_path_and_line(tmp_path, content, where, why):
    path = tmp_path / "log.jsonl"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        read_jsonl(path, "trace line")
    message = str(err.value)
    assert message.startswith(f"{path}{where}") and why in message


def test_limit_reads_only_the_head(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"kind": "meta"}\ngarbage\n{"b": 2}\n')
    assert read_jsonl(path, limit=1) == ([(1, {"kind": "meta"})], False)
