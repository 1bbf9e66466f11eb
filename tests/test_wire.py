"""Tests for the wire serialization format."""

import pytest

from repro.core.wire import (
    FRAME_HEADER_SIZE,
    HELLO_SIZE,
    WIRE_VERSION,
    FrameKind,
    Role,
    VersionMismatchError,
    WireError,
    decode_frame_header,
    decode_hello,
    decode_requests,
    decode_response,
    decode_txn,
    encode_frame,
    encode_hello,
    encode_request,
    encode_responses,
    encode_txn,
    request_size,
    response_size,
    split_record,
)
from repro.errors import CapacityError
from repro.oblivious.soa import BATCH_HEADER_SIZE, BATCH_ROW_SIZE, Batch
from repro.types import BatchEntry, OpType, Request, Response

VS = 4  # value_size of the batches below


def entries_equal(a: BatchEntry, b: BatchEntry) -> bool:
    return (
        a.op == b.op
        and a.key == b.key
        and a.value == b.value
        and a.suboram == b.suboram
        and a.tag == b.tag
        and a.client_id == b.client_id
        and a.seq == b.seq
        and a.is_dummy == b.is_dummy
        and bool(a.permitted) == bool(b.permitted)
    )


def roundtrip(entries, value_size=VS):
    """entries -> Batch -> bytes -> Batch -> entries."""
    data = Batch.from_entries(entries, value_size).to_bytes()
    return Batch.from_buffer(data, value_size).entries()


def read(key, **kw):
    return BatchEntry(op=OpType.READ, key=key, is_dummy=False, **kw)


class TestEntryRoundtrip:
    def test_read_entry(self):
        entry = read(42, seq=7)
        [decoded] = roundtrip([entry])
        assert entries_equal(entry, decoded)

    def test_write_entry_with_value(self):
        entry = BatchEntry(
            op=OpType.WRITE, key=1, value=b"load", is_dummy=False,
            client_id=9, seq=3, suboram=2, tag=5,
        )
        [decoded] = roundtrip([entry])
        assert entries_equal(entry, decoded)

    def test_dummy_entry_negative_key(self):
        entry = BatchEntry(op=OpType.READ, key=-(2**61 + 17), is_dummy=True)
        [decoded] = roundtrip([entry])
        assert entries_equal(entry, decoded)

    def test_denied_entry(self):
        entry = BatchEntry(op=OpType.WRITE, key=3, value=b"xxxx",
                           is_dummy=False, permitted=0)
        [decoded] = roundtrip([entry])
        assert decoded.permitted == 0

    def test_none_vs_empty_value_distinguished(self):
        """The has-value bit, not the bytes, carries absence."""
        [none_entry] = roundtrip([read(1, value=None)], value_size=0)
        [empty_entry] = roundtrip([read(1, value=b"")], value_size=0)
        assert none_entry.value is None
        assert empty_entry.value == b""
        [absent] = roundtrip([read(1)])
        [zeros] = roundtrip([read(1, value=bytes(VS))])
        assert absent.value is None and zeros.value == bytes(VS)

    def test_oversized_key_rejected(self):
        for key in (2**70, -(2**63) - 1):
            with pytest.raises(CapacityError):
                Batch.from_entries([read(key)], VS)
        with pytest.raises(CapacityError):
            Batch.from_requests([Request(OpType.READ, 2**63)], VS)

    def test_wrong_width_value_rejected(self):
        with pytest.raises(CapacityError):
            Batch.from_entries([read(1, value=b"abc")], VS)
        with pytest.raises(CapacityError):
            Batch.from_requests([Request(OpType.WRITE, 1, b"abcde")], VS)


def _shapes(n):
    """Same-shape batches differing in everything the padding hides."""
    return {
        "all-read": [read(k) for k in range(n)],
        "all-write": [
            BatchEntry(op=OpType.WRITE, key=k, value=b"wwww", is_dummy=False)
            for k in range(n)
        ],
        "mixed": [
            BatchEntry(op=OpType.WRITE, key=k, value=b"wwww", is_dummy=False)
            if k % 3 else read(k)
            for k in range(n)
        ],
        "all-dummy": [
            BatchEntry(op=OpType.READ, key=-(2**61 + k), is_dummy=True)
            for k in range(n)
        ],
        # A reply whose keys all exist carries a value in every row ...
        "all-hit": [read(k, value=b"vvvv") for k in range(n)],
        # ... and one whose keys are all absent carries none.
        "all-miss": [read(10**9 + k) for k in range(n)],
    }


class TestBatchRoundtrip:
    def test_batch(self):
        batch = [read(k, seq=k) for k in range(10)]
        decoded = roundtrip(batch)
        assert len(decoded) == 10
        assert all(entries_equal(a, b) for a, b in zip(batch, decoded))

    def test_empty_batch(self):
        assert roundtrip([]) == []
        assert len(Batch.from_entries([], VS).to_bytes()) == BATCH_HEADER_SIZE

    def test_fixed_size_for_fixed_shape(self):
        """Frame length is a function of (rows, value_size) alone."""
        for n in (1, 7, 40):
            sizes = {
                name: len(Batch.from_entries(entries, VS).to_bytes())
                for name, entries in _shapes(n).items()
            }
            expected = BATCH_HEADER_SIZE + n * (BATCH_ROW_SIZE + VS)
            assert set(sizes.values()) == {expected}, sizes

    def test_truncated_rejected(self):
        data = Batch.from_entries([read(1)], VS).to_bytes()
        with pytest.raises(WireError):
            Batch.from_buffer(data[:-1], VS)
        with pytest.raises(WireError):
            Batch.from_buffer(data[:BATCH_HEADER_SIZE - 1], VS)

    def test_trailing_garbage_rejected(self):
        data = Batch.from_entries([read(1)], VS).to_bytes()
        with pytest.raises(WireError):
            Batch.from_buffer(data + b"\x00", VS)

    def test_bad_op_rejected(self):
        data = bytearray(Batch.from_entries([read(1)], VS).to_bytes())
        data[BATCH_HEADER_SIZE] = 0xFF  # first row's op byte
        with pytest.raises(WireError):
            Batch.from_buffer(bytes(data), VS)

    def test_unknown_flag_bit_rejected(self):
        data = bytearray(Batch.from_entries([read(1)], VS).to_bytes())
        data[BATCH_HEADER_SIZE + 1] |= 0x08  # first row's flags byte
        with pytest.raises(WireError):
            Batch.from_buffer(bytes(data), VS)

    def test_wrong_value_size_rejected(self):
        data = Batch.from_entries([read(1)], VS).to_bytes()
        with pytest.raises(WireError):
            Batch.from_buffer(data, VS + 1)


class TestFuzz:
    def test_random_bytes_never_crash_unexpectedly(self):
        """Arbitrary bytes decode cleanly or raise WireError — nothing else."""
        import random as _random

        rng = _random.Random(0)
        for _ in range(300):
            blob = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 200)))
            try:
                Batch.from_buffer(blob, VS)
            except WireError:
                pass

    def test_truncations_of_valid_batch(self):
        batch = [
            BatchEntry(op=OpType.WRITE, key=k, value=b"xyzw", is_dummy=False)
            for k in range(5)
        ]
        data = Batch.from_entries(batch, VS).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(WireError):
                Batch.from_buffer(data[:cut], VS)


class TestHello:
    def test_roundtrip(self):
        version, role, flags = decode_hello(encode_hello(Role.CLIENT))
        assert version == WIRE_VERSION
        assert role == Role.CLIENT
        assert flags == 0

    def test_attested_flag_roundtrip(self):
        from repro.core.wire import HELLO_FLAG_ATTESTED

        hello = encode_hello(Role.SERVER, flags=HELLO_FLAG_ATTESTED)
        assert len(hello) == HELLO_SIZE
        _version, _role, flags = decode_hello(hello)
        assert flags & HELLO_FLAG_ATTESTED

    def test_fixed_size_for_every_role(self):
        sizes = {
            len(encode_hello(role))
            for role in (Role.CLIENT, Role.SERVER, Role.BALANCER, Role.WORKER)
        }
        assert sizes == {HELLO_SIZE}

    def test_version_mismatch_rejected(self):
        frame = encode_hello(Role.CLIENT, version=WIRE_VERSION + 1)
        with pytest.raises(VersionMismatchError) as excinfo:
            decode_hello(frame)
        assert excinfo.value.offered == WIRE_VERSION + 1
        assert WIRE_VERSION in excinfo.value.supported
        # A v2 peer (variable-width batch entries), a v3 peer (the
        # SHAKE-256/HMAC record cipher) and a v4 peer (one worker frame
        # per batch) are refused by name.
        for old in (2, 3, 4):
            with pytest.raises(VersionMismatchError, match=r"\{5\}") as excinfo:
                decode_hello(encode_hello(Role.WORKER, version=old))
            assert (excinfo.value.offered, excinfo.value.supported) == (old, (5,))

    def test_bad_magic_rejected_before_version(self):
        frame = bytearray(encode_hello(Role.CLIENT, version=WIRE_VERSION + 1))
        frame[0] = 0x00
        # Garbage connections fail as malformed, never as version skew.
        with pytest.raises(WireError) as excinfo:
            decode_hello(bytes(frame))
        assert not isinstance(excinfo.value, VersionMismatchError)

    def test_truncated_rejected(self):
        with pytest.raises(WireError):
            decode_hello(encode_hello(Role.SERVER)[:-1])

    def test_unknown_role_rejected(self):
        with pytest.raises(WireError):
            encode_hello(99)
        frame = bytearray(encode_hello(Role.CLIENT))
        frame[5] = 99
        with pytest.raises(WireError):
            decode_hello(bytes(frame))


class TestFrames:
    def test_header_roundtrip(self):
        frame = encode_frame(FrameKind.REQUEST, b"abc")
        kind, length = decode_frame_header(frame)
        assert (kind, length) == (FrameKind.REQUEST, 3)
        assert frame[FRAME_HEADER_SIZE:] == b"abc"

    def test_empty_payload(self):
        kind, length = decode_frame_header(encode_frame(FrameKind.PING))
        assert (kind, length) == (FrameKind.PING, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireError):
            encode_frame(0)
        with pytest.raises(WireError):
            decode_frame_header(b"\x00\x00\x00\x00\x00")

    def test_oversized_length_rejected(self):
        import struct as _struct

        header = _struct.pack(">BI", FrameKind.EPOCH, (1 << 30) + 1)
        with pytest.raises(WireError):
            decode_frame_header(header)

    def test_txn_payload_roundtrip(self):
        assert decode_txn(encode_txn(7, 8)) == (7, 8)
        with pytest.raises(WireError):
            decode_txn(b"\x00" * 3)


def decode_one_request(data, value_size):
    """One REQUEST payload, framed, through the columnar decoder;
    returns ``(req_id, request, load_balancer)``, a negative balancer
    column value read as ``None`` (as the server submits it)."""
    req_ids, balancers, rows = decode_requests(
        encode_frame(FrameKind.REQUEST, data), value_size
    )
    (entry,) = rows.entries()
    request = Request(
        op=entry.op, key=entry.key, value=entry.value,
        client_id=entry.client_id, seq=entry.seq,
    )
    balancer = int(balancers[0])
    return int(req_ids[0]), request, (balancer if balancer >= 0 else None)


def encode_one_response(req_id, response, value_size, **placement):
    """One response as a one-row :class:`Batch` through
    :func:`encode_responses`; returns the frame's payload."""
    rows = Batch.filled(
        1, value_size, key=[response.key],
        value=[list(response.value or bytes(value_size))],
        has_value=[response.value is not None],
        client_id=[response.client_id], seq=[response.seq],
        permitted=[response.ok],
    )
    frame = encode_responses(req_id, rows, **placement)
    assert decode_frame_header(frame) == (
        FrameKind.RESPONSE, response_size(value_size)
    )
    return frame[FRAME_HEADER_SIZE:]


class TestRequestResponse:
    def test_request_roundtrip(self):
        request = Request(OpType.WRITE, 42, b"abcdefgh", client_id=9, seq=3)
        data = encode_request(17, request, value_size=8, load_balancer=1)
        req_id, decoded, balancer = decode_one_request(data, value_size=8)
        assert req_id == 17
        assert balancer == 1
        assert decoded == request

    def test_read_and_write_same_length(self):
        """Request wire length depends only on the public value size."""
        read = encode_request(1, Request(OpType.READ, 5), value_size=16)
        write = encode_request(
            2, Request(OpType.WRITE, 900, b"x" * 16), value_size=16
        )
        assert len(read) == len(write) == request_size(16)

    def test_random_balancer_encodes_as_none(self):
        data = encode_request(3, Request(OpType.READ, 1), value_size=4)
        _, _, balancer = decode_one_request(data, value_size=4)
        assert balancer is None

    def test_oversized_value_rejected(self):
        with pytest.raises(WireError):
            encode_request(
                1, Request(OpType.WRITE, 1, b"toolong"), value_size=4
            )

    def test_wrong_size_rejected(self):
        data = encode_request(1, Request(OpType.READ, 1), value_size=4)
        with pytest.raises(WireError):
            decode_one_request(data[:-1], value_size=4)
        with pytest.raises(WireError):
            decode_one_request(data, value_size=8)
        # A write payload that does not fill the value slot is refused at
        # the connection, before it can reach a balancer's queue.
        short = encode_request(1, Request(OpType.WRITE, 1, b"abc"), 4)
        with pytest.raises(WireError):
            decode_one_request(short, value_size=4)

    def test_response_roundtrip(self):
        response = Response(
            key=5, value=b"vvvvvvvv", client_id=2, seq=7, ok=True
        )
        data = encode_one_response(
            21, response, value_size=8, load_balancer=1, arrival=4, epoch=9
        )
        req_id, decoded, placement, delivery_seq = decode_response(
            data, value_size=8
        )
        assert req_id == 21
        assert decoded == response
        assert placement == (1, 4, 9)
        assert delivery_seq == 0

    def test_response_delivery_seq_roundtrip(self):
        response = Response(
            key=5, value=b"vvvvvvvv", client_id=2, seq=7, ok=True
        )
        data = encode_one_response(
            21, response, value_size=8, load_balancer=1, arrival=4,
            epoch=9, delivery_seq=1234,
        )
        assert len(data) == response_size(8)  # seq never changes the size
        _, _, _, delivery_seq = decode_response(data, value_size=8)
        assert delivery_seq == 1234

    def test_response_none_value_distinguished(self):
        none_resp = Response(key=1, value=None)
        data = encode_one_response(
            1, none_resp, value_size=4, load_balancer=0, arrival=0, epoch=1
        )
        _, decoded, _, _ = decode_response(data, value_size=4)
        assert decoded.value is None
        assert len(data) == response_size(4)

    def test_fixed_size_for_fixed_value_size(self):
        sizes = {
            len(
                encode_one_response(
                    i,
                    Response(key=i, value=bytes([i]) * 8, ok=bool(i % 2)),
                    value_size=8,
                    load_balancer=i,
                    arrival=i,
                    epoch=i,
                )
            )
            for i in range(1, 8)
        }
        assert sizes == {response_size(8)}


class TestPropertyRoundtrip:
    def test_arbitrary_entries_roundtrip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        entries_strategy = st.lists(
            st.builds(
                BatchEntry,
                op=st.sampled_from([OpType.READ, OpType.WRITE]),
                key=st.integers(min_value=-(2**63), max_value=2**63 - 1),
                value=st.one_of(st.none(), st.binary(min_size=6, max_size=6)),
                suboram=st.integers(min_value=0, max_value=2**31 - 1),
                tag=st.integers(min_value=0, max_value=2**63 - 1),
                client_id=st.integers(min_value=0, max_value=2**64 - 1),
                seq=st.integers(min_value=0, max_value=2**64 - 1),
                is_dummy=st.booleans(),
                permitted=st.integers(min_value=0, max_value=1),
            ),
            max_size=12,
        )

        @given(entries_strategy)
        @settings(max_examples=60, deadline=None)
        def check(batch):
            data = Batch.from_entries(batch, 6).to_bytes()
            assert len(data) == (
                BATCH_HEADER_SIZE + len(batch) * (BATCH_ROW_SIZE + 6)
            )
            decoded = Batch.from_buffer(data, 6).entries()
            assert len(decoded) == len(batch)
            for a, b in zip(batch, decoded):
                assert entries_equal(a, b)

        check()


class TestArrayCodec:
    """The columnar codec against the one-frame struct packers."""

    def test_request_record_decodes_like_each_frame(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        requests_strategy = st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.builds(
                    Request,
                    op=st.just(OpType.READ),
                    key=st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    client_id=st.integers(min_value=0, max_value=2**64 - 1),
                    seq=st.integers(min_value=0, max_value=2**64 - 1),
                ) | st.builds(
                    Request,
                    op=st.just(OpType.WRITE),
                    key=st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    value=st.binary(min_size=6, max_size=6),
                    client_id=st.integers(min_value=0, max_value=2**64 - 1),
                    seq=st.integers(min_value=0, max_value=2**64 - 1),
                ),
                st.integers(min_value=-1, max_value=3),
            ),
            min_size=1, max_size=12,
        )

        @given(requests_strategy)
        @settings(max_examples=60, deadline=None)
        def check(rows):
            record = b"".join(
                encode_frame(
                    FrameKind.REQUEST, encode_request(i, r, 6, load_balancer=b)
                )
                for i, r, b in rows
            )
            req_ids, balancers, batch = decode_requests(record, 6)
            assert req_ids.tolist() == [i for i, _, _ in rows]
            assert balancers.tolist() == [b for _, _, b in rows]
            assert [
                Request(e.op, e.key, e.value, e.client_id, e.seq)
                for e in batch.entries()
            ] == [r for _, r, _ in rows]

        check()

    def test_response_array_decodes_like_each_frame(self):
        responses = [
            Response(key=k - 3, value=None if k % 3 else bytes([k]) * 6,
                     client_id=k, seq=2**64 - 1 - k, ok=bool(k % 2))
            for k in range(7)
        ]
        rows = Batch.filled(
            7, 6, key=[r.key for r in responses],
            value=[list(r.value or bytes(6)) for r in responses],
            has_value=[r.value is not None for r in responses],
            client_id=[r.client_id for r in responses],
            seq=[r.seq for r in responses], permitted=[r.ok for r in responses],
        )
        frames = encode_responses(
            list(range(100, 107)), rows, load_balancer=1,
            arrival=list(range(7)), epoch=9, delivery_seq=list(range(5, 12)),
        )
        size = FRAME_HEADER_SIZE + response_size(6)
        assert len(frames) == 7 * size
        for k, response in enumerate(responses):
            frame = frames[k * size:(k + 1) * size]
            assert decode_frame_header(frame) == (
                FrameKind.RESPONSE, response_size(6)
            )
            assert decode_response(frame[FRAME_HEADER_SIZE:], 6) == (
                100 + k, response, (1, k, 9), 5 + k
            )

    def test_split_record_keeps_request_runs_whole(self):
        request = encode_frame(
            FrameKind.REQUEST, encode_request(1, Request(OpType.READ, 1), 6)
        )
        record = (
            encode_frame(FrameKind.SESSION, bytes(16)) + request * 2
            + encode_frame(FrameKind.PING) + request
        )
        assert split_record(record) == [
            (FrameKind.SESSION, bytes(16)),
            (FrameKind.REQUEST, request * 2),
            (FrameKind.PING, b""),
            (FrameKind.REQUEST, request),
        ]
        assert split_record(request * 3) == [(FrameKind.REQUEST, request * 3)]
        for bad in (b"", request[:-1], request + b"\x01"):
            with pytest.raises(WireError):
                split_record(bad)
