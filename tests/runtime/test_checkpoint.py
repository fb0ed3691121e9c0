"""Unit tests for the checkpoint wire codecs and file format.

The integration-level guarantee (resume converges to the byte-identical
fixpoint) lives in ``tests/analysis/test_resume_equivalence.py``; this file
covers the layer below: every codec round-trips exactly, and the file
format fails *closed* — wrong magic, wrong version, flipped payload bytes,
truncation, and configuration mismatches all surface as a one-line
:class:`CheckpointError`, never as a silently wrong restore.
"""

import json
import os

import numpy as np
import pytest

from repro.domains.absloc import AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.octagon import Octagon
from repro.domains.packs import Pack
from repro.domains.state import AbsState
from repro.domains.value import AbsValue, ArrayBlock, intern_value
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    encode_checkpoint,
    interval_from_wire,
    interval_to_wire,
    load_checkpoint,
    loc_from_wire,
    loc_to_wire,
    octagon_from_wire,
    octagon_to_wire,
    pack_from_wire,
    pack_to_wire,
    save_checkpoint,
    state_from_wire,
    state_to_wire,
    value_from_wire,
    value_to_wire,
)
from repro.runtime.errors import CheckpointError


class TestIntervalCodec:
    @pytest.mark.parametrize(
        "itv",
        [
            Interval.top(),
            Interval.bottom(),
            Interval(0, 10),
            Interval(-5, -5),
            Interval(None, 7),   # (-∞, 7]
            Interval(3, None),   # [3, +∞)
        ],
    )
    def test_round_trip(self, itv):
        assert interval_from_wire(interval_to_wire(itv)) == itv

    def test_wire_is_json(self):
        for itv in (Interval.bottom(), Interval(None, 3), Interval(1, 2)):
            json.dumps(interval_to_wire(itv))


class TestLocCodec:
    @pytest.mark.parametrize(
        "loc",
        [
            VarLoc("x", "main"),
            VarLoc("g", None),
            AllocLoc(17),
            RetLoc("callee"),
            FuncLoc("f"),
            FieldLoc(AllocLoc(3), "next"),
            FieldLoc(FieldLoc(AllocLoc(3), "inner"), "tail"),  # nested
        ],
    )
    def test_round_trip(self, loc):
        assert loc_from_wire(loc_to_wire(loc)) == loc

    def test_unknown_tag_fails_closed(self):
        with pytest.raises(CheckpointError):
            loc_from_wire(["Z", "whatever"])


class TestValueAndStateCodec:
    def _value(self):
        return intern_value(
            AbsValue(
                itv=Interval(0, 8),
                ptsto=frozenset({AllocLoc(1), VarLoc("p", "main")}),
                arrays=(
                    ArrayBlock(
                        base=AllocLoc(1),
                        offset=Interval(0, 3),
                        size=Interval(8, 8),
                    ),
                ),
            )
        )

    def test_value_round_trip(self):
        val = self._value()
        back = value_from_wire(value_to_wire(val))
        assert back == val
        # decoding re-interns, so the identity fast paths keep working
        assert back is intern_value(val)

    def test_abs_state_round_trip(self):
        state = AbsState()
        state.set(VarLoc("x", "main"), self._value())
        state.set(VarLoc("g", None), intern_value(AbsValue(itv=Interval(1, 1))))
        wire = state_to_wire(state)
        assert wire[0] == "abs"
        back = state_from_wire(json.loads(json.dumps(wire)))
        assert dict(back.items()) == dict(state.items())

    def test_unknown_state_kind_fails_closed(self):
        with pytest.raises(CheckpointError):
            state_from_wire(["mystery", []])


class TestOctagonCodec:
    def test_bottom_round_trip(self):
        oct_ = Octagon.bottom(3)
        back = octagon_from_wire(octagon_to_wire(oct_))
        assert back.empty and back.dim == 3

    def test_top_round_trip_preserves_infinities(self):
        oct_ = Octagon.top(2)
        wire = json.loads(json.dumps(octagon_to_wire(oct_)))
        back = octagon_from_wire(wire)
        assert back.dim == 2 and not back.empty
        assert np.array_equal(back.matrix, oct_.matrix)

    def test_constrained_round_trip_is_exact(self):
        oct_ = Octagon.top(2).assign_interval(0, Interval(-3, 11))
        oct_ = oct_.assign_interval(1, Interval(2, 5))
        back = octagon_from_wire(json.loads(json.dumps(octagon_to_wire(oct_))))
        assert np.array_equal(back.matrix, oct_.matrix)
        assert back.closed_flag == oct_.closed_flag

    def test_wire_is_the_row_major_dense_matrix(self):
        """The constraint map encodes to exactly the cells of the dense DBM
        (+∞ as None, signed zeros kept): the wire format of existing
        snapshot files."""
        raw = Octagon.top(3).with_lower(1, 0.0).with_diff(2, 2, -1)
        closed = Octagon.top(3).assign_interval(0, Interval(0, 0))
        closed = closed.assign_var_plus(2, 0, Interval(-1, 4), negate=True)
        for oct_ in (Octagon.top(3), raw, closed, closed.widen(raw)):
            wire = octagon_to_wire(oct_)
            dense = [None if x == np.inf else x for x in oct_.matrix.flatten().tolist()]
            assert json.dumps(wire["m"]) == json.dumps(dense)
            back = octagon_from_wire(json.loads(json.dumps(wire)))
            assert back == oct_ and back.closed_flag == oct_.closed_flag
            assert json.dumps(octagon_to_wire(back)) == json.dumps(wire)

    def test_pack_state_round_trip(self):
        from repro.analysis.relational import PackState

        pack = Pack.of([VarLoc("a", "f"), VarLoc("b", "f")])
        assert pack_from_wire(pack_to_wire(pack)) == pack
        state = PackState()
        state.set(pack, Octagon.top(2).assign_interval(0, Interval(0, 4)))
        wire = state_to_wire(state)
        assert wire[0] == "pack"
        back = state_from_wire(json.loads(json.dumps(wire)))
        (p1, o1), = back.items()
        (p0, o0), = state.items()
        assert p1 == p0 and np.array_equal(o1.matrix, o0.matrix)


class TestFileFormat:
    PAYLOAD = {"fingerprint": "fp", "iterations": 7, "table": []}

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        n = save_checkpoint(path, self.PAYLOAD)
        assert n == path.stat().st_size
        assert load_checkpoint(path, expect_fingerprint="fp") == self.PAYLOAD

    def test_no_temp_file_debris(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        save_checkpoint(path, self.PAYLOAD)  # overwrite goes via os.replace
        assert os.listdir(tmp_path) == ["run.ckpt"]

    def _assert_one_line_error(self, exc_info):
        message = str(exc_info.value)
        assert "\n" not in message
        assert message  # non-empty diagnostic

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(tmp_path / "absent.ckpt")
        self._assert_one_line_error(exc)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"magic": "not-a-checkpoint"}\n{}')
        with pytest.raises(CheckpointError, match="bad magic") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.ckpt"
        data = encode_checkpoint(self.PAYLOAD)
        header = json.loads(data.split(b"\n", 1)[0])
        header["version"] = CHECKPOINT_VERSION + 99
        path.write_bytes(
            json.dumps(header).encode() + b"\n" + data.split(b"\n", 1)[1]
        )
        with pytest.raises(CheckpointError, match="format version") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_corrupt_payload_fails_digest(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_truncation(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(CheckpointError, match="truncated") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "noheader.ckpt"
        path.write_bytes(b"no newline anywhere")
        with pytest.raises(CheckpointError, match="truncated") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        with pytest.raises(CheckpointError, match="fingerprint") as exc:
            load_checkpoint(path, expect_fingerprint="different")
        self._assert_one_line_error(exc)

    def test_fingerprint_not_checked_when_not_requested(self, tmp_path):
        path = tmp_path / "any.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        assert load_checkpoint(path)["iterations"] == 7
