"""Harness formatting/measurement unit tests."""

from repro.bench.harness import (
    Measurement,
    _fmt_mem,
    _fmt_time,
    _mem_saving,
    _speedup,
)


def meas(t, m):
    return Measurement(t, m)


class TestFormatting:
    def test_time_format(self):
        assert _fmt_time(meas(1.5, 10)).strip() == "1.50"

    def test_timeout_is_infinity(self):
        assert _fmt_time(Measurement(None, None)) == "∞"
        assert _fmt_mem(Measurement(None, None)) == "N/A"

    def test_speedup(self):
        assert _speedup(meas(10.0, 0), meas(2.0, 0)).strip() == "5.0x"

    def test_speedup_with_timeout(self):
        assert _speedup(Measurement(None, None), meas(1.0, 0)) == "N/A"
        assert _speedup(meas(1.0, 0), Measurement(None, None)) == "N/A"

    def test_mem_saving(self):
        assert _mem_saving(meas(1, 100.0), meas(1, 25.0)).strip() == "75%"

    def test_mem_saving_na(self):
        assert _mem_saving(Measurement(None, None), meas(1, 1.0)) == "N/A"
