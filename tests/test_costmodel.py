import numpy as np
import pytest

from retline.costmodel import (
    beam_memory_summary,
    flops_closed_form,
    flops_instrumented,
    memory_elements,
    sweep_rows,
    write_sweep_csv,
)
from retline.tensor import OpCounter, count_ops


class TestClosedForm:
    def test_vanilla_minimal(self):
        assert flops_closed_form("vanilla", 1, 1).total == 2

    def test_kv_cached_example(self):
        assert flops_closed_form("kv_cached", 4, 8).total == 70

    def test_recurrent_example(self):
        assert flops_closed_form("recurrent", 4, 8).total == 135

    def test_vanilla_example(self):
        assert flops_closed_form("vanilla", 4, 8).total == 299

    def test_recurrent_beats_kv_only_for_long_sequences(self):
        # d=8: kv total 18n-2 first exceeds the constant 135 at n=8
        d = 8
        rec = flops_closed_form("recurrent", 1, d).total
        crossover = min(
            n for n in range(1, 64)
            if flops_closed_form("kv_cached", n, d).total > rec
        )
        assert crossover == 8

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            flops_closed_form("chunked", 4, 4)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            flops_closed_form("vanilla", 0, 4)


class TestInstrumented:
    def test_matches_closed_form_everywhere(self):
        for d in (1, 2, 4, 8, 16):
            for n in range(1, 17):
                for form in ("vanilla", "kv_cached", "recurrent"):
                    inst = flops_instrumented(form, n, d)
                    closed = flops_closed_form(form, n, d)
                    assert inst.mults == closed.mults, (form, n, d)
                    assert inst.adds == closed.adds, (form, n, d)

    @pytest.mark.parametrize("form", ["vanilla", "kv_cached", "recurrent"])
    def test_enclosing_counter_records_the_reported_mults(self, form):
        with count_ops(OpCounter()) as counter:
            report = flops_instrumented(form, 5, 6)
        assert counter.mults == report.mults

    def test_recurrent_constant_per_step(self):
        counts = {flops_instrumented("recurrent", n, 8).total for n in range(1, 17)}
        assert counts == {135}

    def test_kv_step_difference_is_2d_plus_2(self):
        for d in (1, 4, 16):
            totals = [flops_instrumented("kv_cached", n, d).total
                      for n in range(1, 10)]
            diffs = set(np.diff(totals))
            assert diffs == {2 * d + 2}


class TestMemory:
    def test_recurrent_headline_count(self):
        assert memory_elements("recurrent", 10, 94, 768, 12) == 491_520

    def test_kv_persistent_headline_count(self):
        assert memory_elements("kv_persistent", 10, 94, 768, 1) == 1_443_840

    def test_kv_peak_headline_count(self):
        assert memory_elements("kv_peak", 10, 94, 768, 1) == 2_887_680

    def test_recurrent_ignores_decoded_length(self):
        counts = {memory_elements("recurrent", 3, n, 64, 4) for n in (1, 10, 500)}
        assert len(counts) == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            memory_elements("paging", 1, 1, 8, 1)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            memory_elements("recurrent", 1, 1, 10, 3)

    def test_summary_flags_discrepancy(self):
        summary = beam_memory_summary()
        assert summary["recurrent_elements"] == 491_520
        assert summary["kv_persistent_elements"] == 1_443_840
        assert summary["kv_peak_elements"] == 2_887_680
        assert "discrepancy" in summary["note"]
        assert "2,887,680" in summary["note"]
        assert "1,443,840" in summary["note"]


class TestSweep:
    def test_row_count_is_cross_product_times_forms(self):
        rows = sweep_rows([1, 2, 3], [2, 4], [1], [5], [1])
        assert len(rows) == 3 * 2 * 1 * 1 * 1 * 3

    def test_recurrent_memory_constant_in_decoded_length(self):
        rows = sweep_rows([2], [4], [2], [1, 8, 64], [1])
        rec = [r["persistent_elems"] for r in rows if r["form"] == "recurrent"]
        assert len(set(rec)) == 1

    def test_instrumented_equals_closed_in_rows(self):
        for row in sweep_rows([1, 5], [2, 8], [1], [1], [1]):
            assert row["total"] == row["closed_form_total"]

    def test_crossover_flag(self):
        rows = sweep_rows([4, 9], [8], [1], [1], [1])
        flags = {(r["n"], r["crossover"]) for r in rows}
        assert (4, 0) in flags and (9, 1) in flags

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sweep_rows([], [2], [1], [1], [1])

    def test_zero_heads_rejected(self):
        with pytest.raises(ValueError, match="head counts"):
            sweep_rows([1], [8], [1], [1], [4, 0])

    def test_csv_roundtrip(self, tmp_path):
        rows = sweep_rows([1, 2], [2], [1], [1], [1])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("form,n,d,B,N,H,")
        assert len(lines) == len(rows) + 1
