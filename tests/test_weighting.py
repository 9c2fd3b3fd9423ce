"""Mask construction and weight-table behaviour."""

import numpy as np
import pytest

from blockprnu import (
    BlockRecord,
    ConfigError,
    MissingKey,
    SchemaError,
    SchemeConfig,
    TraceFile,
    WeightTable,
    build_mask,
    paint_blocks,
)

MB = 16


def make_map(types, qps=None, bits=None):
    """One-frame trace of a 2x2 grid from row-major lists."""
    qps = qps or [20] * 4
    bits = bits if bits is not None else [100] * 4
    recs = []
    for i, (t, q, b) in enumerate(zip(types, qps, bits)):
        recs.append(BlockRecord(0, i % 2, i // 2, t, q, b))
    return TraceFile(32, 32, 1, recs)


def painted(trace, config, frame_shape=None):
    """The first frame's block weights painted at pixel resolution."""
    return paint_blocks(build_mask(trace, config)[0], frame_shape)


def qp_table(keys, weights):
    return WeightTable(scheme="qp_noskip", keys=np.array(keys, float),
                       weights=np.array(weights, float), anchor_key=15.0)


def test_paint_blocks_blockwise_constant():
    mask = paint_blocks(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert mask.shape == (32, 32)
    assert np.all(mask[:16, :16] == 1.0)
    assert np.all(mask[:16, 16:] == 2.0)
    assert np.all(mask[16:, :16] == 3.0)
    assert np.all(mask[16:, 16:] == 4.0)


def test_paint_blocks_zeros_beyond_grid():
    mask = paint_blocks(np.ones((2, 2)), frame_shape=(40, 40))
    assert mask.shape == (40, 40)
    assert np.all(mask[:32, :32] == 1.0)
    assert np.all(mask[32:, :] == 0.0)
    assert np.all(mask[:, 32:] == 0.0)


def test_skip_eliminate_examples():
    all_coded = make_map(["P", "P", "P", "P"])
    assert np.all(painted(all_coded, SchemeConfig("skip_eliminate")) == 1.0)

    all_skip = make_map(["SKIP"] * 4, bits=[1] * 4)
    assert np.all(painted(all_skip, SchemeConfig("skip_eliminate")) == 0.0)

    one_skip = make_map(["P", "SKIP", "P", "P"], bits=[100, 1, 100, 100])
    mask = painted(one_skip, SchemeConfig("skip_eliminate"))
    assert np.all(mask[0:MB, MB:2 * MB] == 0.0)
    assert mask.sum() == 3 * MB * MB


def test_mask_qp_all_anchor_is_ones():
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    fmap = make_map(["P"] * 4, qps=[15] * 4)
    assert np.all(painted(fmap, SchemeConfig("qp_all", table)) == 1.0)


def test_mask_qp_two_distinct_weights():
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    fmap = make_map(["P", "P", "P", "P"], qps=[10, 20, 10, 20])
    mask = painted(fmap, SchemeConfig("qp_all", table))
    assert set(np.unique(mask)) == {0.4, 0.7}
    assert np.all(mask[:MB, :MB] == 0.7)
    assert np.all(mask[:MB, MB:] == 0.4)


def test_mask_qp_skip_handling():
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    fmap = make_map(["P", "SKIP", "P", "P"], qps=[10, 20, 10, 10],
                    bits=[100, 1, 100, 100])
    keep = painted(fmap, SchemeConfig("qp_all", table))
    assert np.all(keep[:MB, MB:] == 0.4)  # skip keeps its qp weight
    drop = painted(fmap, SchemeConfig("qp_noskip", table))
    assert np.all(drop[:MB, MB:] == 0.0)
    assert np.all(drop[:MB, :MB] == 0.7)


def test_mask_qp_missing_entry_is_an_error():
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    fmap = make_map(["P"] * 4, qps=[25] * 4)
    with pytest.raises(MissingKey, match="qp 25"):
        painted(fmap, SchemeConfig("qp_all", table))


def test_mask_lambda_rate_interpolates():
    table = WeightTable(scheme="lambda_r", keys=np.array([20.0, 60.0, 100.0]),
                        weights=np.array([0.5, 1.0, 0.25]), anchor_key=60.0)
    # qp 12 makes lambda exactly 1, so lambda*rate equals the bit count
    fmap = make_map(["P", "P", "P", "SKIP"], qps=[12] * 4,
                    bits=[60, 80, 200, 1])
    mask = painted(fmap, SchemeConfig("lambda_r", table))
    assert np.all(mask[:MB, :MB] == 1.0)
    assert np.all(mask[:MB, MB:] == pytest.approx(0.625))  # midway 60..100
    assert np.all(mask[MB:, :MB] == 0.25)  # clamped above
    assert np.all(mask[MB:, MB:] == 0.0)  # skip zeroed regardless of table


def test_mask_lambda_rate_clamps_below():
    table = WeightTable(scheme="lambda_r", keys=np.array([20.0, 60.0]),
                        weights=np.array([0.5, 1.0]), anchor_key=60.0)
    fmap = make_map(["P"] * 4, qps=[12] * 4, bits=[5, 5, 5, 5])
    assert np.all(painted(fmap, SchemeConfig("lambda_r", table)) == 0.5)


def test_weight_table_validation():
    with pytest.raises(ConfigError):
        WeightTable("conventional", np.array([15.0]), np.array([1.0]), 15.0)
    with pytest.raises(ConfigError):
        WeightTable("qp_all", np.array([15.0, 20.0]), np.array([1.0]), 15.0)
    with pytest.raises(ConfigError):
        WeightTable("qp_all", np.array([]), np.array([]), 15.0)
    with pytest.raises(ConfigError):
        WeightTable("qp_all", np.array([20.0, 15.0]), np.array([1.0, 1.0]), 15.0)
    with pytest.raises(ConfigError):
        WeightTable("qp_all", np.array([15.0, 20.0]), np.array([1.0, -0.1]), 15.0)
    with pytest.raises(ConfigError):
        WeightTable("qp_all", np.array([15.0, 20.0]), np.array([1.0, 0.5]), 30.0)
    with pytest.raises(ConfigError):
        WeightTable("qp_all", np.array([15.0, 20.0]), np.array([0.9, 0.5]), 15.0)


def test_weight_lookup():
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    assert table.weight_exact(10) == 0.7
    assert table.weight_exact(15.0) == 1.0
    with pytest.raises(MissingKey):
        table.weight_exact(11)
    # interpolation clamps at both ends
    got = table.weight_interp([5.0, 12.5, 17.5, 99.0])
    assert np.allclose(got, [0.7, 0.85, 0.7, 0.4])


def test_table_text_round_trip():
    table = WeightTable(scheme="lambda_r",
                        keys=np.array([1.5, 60.0, 612.25]),
                        weights=np.array([0.123456789012345, 1.0, 0.25]),
                        anchor_key=60.0)
    back = WeightTable.from_text(table.to_text())
    assert back.scheme == table.scheme
    assert back.anchor_key == table.anchor_key
    assert np.array_equal(back.keys, table.keys)
    assert np.array_equal(back.weights, table.weights)
    # plain decimal text, no numpy repr leakage
    assert "np." not in table.to_text()


def test_table_save_load(tmp_path):
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    path = tmp_path / "t.wt"
    table.save(path)
    loaded = WeightTable.load(path)
    assert np.array_equal(loaded.keys, table.keys)
    assert np.array_equal(loaded.weights, table.weights)


def test_table_from_text_errors():
    with pytest.raises(SchemaError):
        WeightTable.from_text("")
    with pytest.raises(SchemaError):
        WeightTable.from_text("15.0,1.0\n")
    with pytest.raises(SchemaError):
        WeightTable.from_text("#scheme=qp_all\n15.0,1.0\n")
    with pytest.raises(SchemaError):
        WeightTable.from_text("#scheme=qp_all anchor_key=15.0\n15.0\n")
    with pytest.raises(SchemaError):
        WeightTable.from_text("#scheme=qp_all anchor_key=15.0\n15.0,abc\n")
    with pytest.raises(SchemaError):
        WeightTable.from_text("#scheme=qp_all anchor_key=oops\n15.0,1.0\n")
    # constructor violations surface as schema errors when read from text
    with pytest.raises(SchemaError):
        WeightTable.from_text("#scheme=qp_all anchor_key=15.0\n20.0,1.0\n")


def test_scheme_config_validation():
    SchemeConfig("conventional")
    SchemeConfig("skip_eliminate")
    with pytest.raises(ConfigError):
        SchemeConfig("deblock")
    for scheme in ("qp_all", "qp_noskip", "lambda_r"):
        with pytest.raises(ConfigError):
            SchemeConfig(scheme)


def test_build_mask_dispatch():
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    lr_table = WeightTable(scheme="lambda_r", keys=np.array([20.0, 60.0]),
                           weights=np.array([0.5, 1.0]), anchor_key=60.0)
    fmap = make_map(["P", "SKIP", "P", "P"], qps=[10, 20, 10, 20],
                    bits=[100, 1, 100, 100])

    conv = painted(fmap, SchemeConfig("conventional"), frame_shape=(40, 33))
    assert conv.shape == (40, 33)
    assert np.all(conv[:32, :32] == 1.0) and np.all(conv[32:, :] == 0.0)
    assert np.array_equal(build_mask(fmap, SchemeConfig("loop_filter_only")),
                          build_mask(fmap, SchemeConfig("conventional")))
    # block weights of every frame, as a (frames, grid_h, grid_w) stack
    expected = [
        (SchemeConfig("skip_eliminate"), [[1.0, 0.0], [1.0, 1.0]]),
        (SchemeConfig("qp_all", table), [[0.7, 0.4], [0.7, 0.4]]),
        (SchemeConfig("qp_noskip", table), [[0.7, 0.0], [0.7, 0.4]]),
        # the coded blocks' lambda*rate exceeds the top key, so they clamp
        (SchemeConfig("lambda_r", lr_table), [[1.0, 0.0], [1.0, 1.0]]),
    ]
    for config, weights in expected:
        assert np.array_equal(build_mask(fmap, config), [weights])


# ---------------------------------------------------------------------------
# each scheme declared once
# ---------------------------------------------------------------------------

def test_schemes_table_derives_the_scheme_lists():
    from blockprnu import ALL_SCHEMES, SCHEMES, TABLE_SCHEMES
    assert ALL_SCHEMES == ("conventional", "loop_filter_only", "skip_eliminate",
                           "qp_all", "qp_noskip", "lambda_r")
    assert TABLE_SCHEMES == ("qp_all", "qp_noskip", "lambda_r")
    assert [s for s in ALL_SCHEMES if SCHEMES[s].zero_skip] == \
        ["skip_eliminate", "qp_noskip", "lambda_r"]


def test_scheme_config_rejects_a_table_the_scheme_cannot_use():
    table = qp_table([10, 15, 20], [0.7, 1.0, 0.4])
    for scheme in ("conventional", "loop_filter_only", "skip_eliminate"):
        with pytest.raises(ConfigError, match="does not take a weight table"):
            SchemeConfig(scheme, table)


def test_skip_eliminate_tables_no_longer_load():
    with pytest.raises(ConfigError):
        WeightTable("skip_eliminate", [15.0], [1.0], 15.0)
    with pytest.raises(SchemaError):
        WeightTable.from_text("#scheme=skip_eliminate anchor_key=15.0\n"
                              "15.0,1.0\n")


# ---------------------------------------------------------------------------
# non-finite tables
# ---------------------------------------------------------------------------

NON_FINITE_TABLES = {
    "nan key": ([10.0, float("nan"), 60.0], [0.5, 0.7, 1.0], 60.0),
    "inf key": ([10.0, 60.0, float("inf")], [0.5, 1.0, 2.0], 60.0),
    "nan weight": ([10.0, 60.0, 90.0], [float("nan"), 1.0, 2.0], 60.0),
    "inf weight": ([10.0, 60.0, 90.0], [0.5, 1.0, float("inf")], 60.0),
    "nan anchor weight": ([10.0, 60.0], [0.5, float("nan")], 60.0),
    "nan anchor": ([10.0, 60.0], [0.5, 1.0], float("nan")),
    "inf anchor": ([10.0, float("inf")], [0.5, 1.0], float("inf")),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_TABLES))
def test_non_finite_tables_are_rejected(case, tmp_path):
    keys, weights, anchor = NON_FINITE_TABLES[case]
    with pytest.raises(ConfigError, match="finite"):
        WeightTable("lambda_r", keys, weights, anchor)
    lines = [f"#scheme=lambda_r anchor_key={anchor!r}"]
    lines += [f"{k!r},{w!r}" for k, w in zip(keys, weights)]
    path = tmp_path / "t.wt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        WeightTable.load(path)


def test_weight_table_file_must_be_utf8(tmp_path):
    path = tmp_path / "t.wt"
    path.write_bytes(b"#scheme=lambda_r anchor_key=60.0\n60.0,1.0\xff\n")
    with pytest.raises(SchemaError, match="not UTF-8"):
        WeightTable.load(path)
