"""Config grammar: defaults, validation messages, round-trip."""

import dataclasses
import math
from dataclasses import fields
from pathlib import Path

import pytest

from meshsim.config import ConfigError, ScenarioConfig, TopologySpec, parse_config, serialize


def test_empty_text_yields_defaults():
    cfg = parse_config("")
    assert cfg == ScenarioConfig()
    assert cfg.sim_time_s == 100.0
    assert cfg.packet_size_bytes == 1000
    assert cfg.data_rate_bps == 1_000_000.0
    assert cfg.queue_capacity == 50
    assert cfg.window == 4
    assert cfg.delta == 0.125 and cfg.theta == 0.1
    assert cfg.rts_mode == "symmetric" and cfg.protocol == "both"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("""
    # scenario description
    topology = chain(6)   # six nodes in a line
    seed = 9
    """)
    assert cfg.topology == TopologySpec(kind="chain", n=6)
    assert cfg.seed == 9


def test_alpha_is_an_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha = 0.5")
    assert exc.value.errors == ["line 1: unknown key 'alpha'"]


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("topology = chain(4)\nwindwo = 2\n")
    assert any("line 2" in e and "windwo" in e for e in exc.value.errors)


def test_every_error_reported_not_just_first():
    with pytest.raises(ConfigError) as exc:
        parse_config("queue_capacity = 0\ndelta = 0\ntheta = -1\nwindow = 0\n")
    assert len(exc.value.errors) == 4


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("seed = 1\nseed = 2\n")
    assert any("duplicate" in e for e in exc.value.errors)


def test_topology_forms():
    assert parse_config("topology = chain(2)").topology == TopologySpec("chain", 2)
    assert parse_config("topology = random(20)").topology == TopologySpec("random", 20)
    assert parse_config("topology = random(20, 7)").topology == TopologySpec("random", 20, 7)
    assert parse_config("topology = mesh8").topology == TopologySpec("mesh8", 8)
    for bad in ("chain(1)", "ring(5)", "chain(6, 3)", "random()"):
        with pytest.raises(ConfigError):
            parse_config(f"topology = {bad}")


def test_channel_plan_forms():
    assert parse_config("channel_plan = overlapping").channel_plan == "overlapping"
    assert parse_config("channel_plan = pcl").channel_plan == "pcl"
    assert parse_config("channel_plan = 1,6; 6,11").channel_plan == "1,6;6,11"
    with pytest.raises(ConfigError):
        parse_config("channel_plan = 1,12")
    with pytest.raises(ConfigError):
        parse_config("channel_plan = nonsense")


def test_flows_grammar():
    assert parse_config("flows = auto").flows == ()
    assert parse_config("flows = 0>5, 2>5").flows == ((0, 5), (2, 5))
    with pytest.raises(ConfigError):
        parse_config("flows = 3>3")
    with pytest.raises(ConfigError):
        parse_config("flows = 1-2")


def test_jammer_keys():
    cfg = parse_config("jammer_channel = 1\njammer_x = 100\njammer_y = -80\n"
                       "jammer_on_s = 0.08\njammer_off_s = 0.01\n")
    assert cfg.jammer_channel == 1 and cfg.jammer_y == -80.0
    assert parse_config("jammer_channel = none").jammer_channel is None
    with pytest.raises(ConfigError):
        parse_config("jammer_channel = 12")
    with pytest.raises(ConfigError):
        parse_config("jammer_on_s = 0")


@pytest.mark.parametrize("seconds,message", [
    ("1e-300", "jammer_on_s must be >= 8.881784197001252e-16, the float spacing at "
               "sim_time_s = 5.0, got 1e-300"),
    ("1e-320", "jammer_on_s must be >= 8.881784197001252e-16, the float spacing at "
               "sim_time_s = 5.0, got 1e-320"),
    ("1e308", "jammer_on_s + jammer_off_s must be a finite number, got 1e+308 + 1e+308"),
], ids=["1e-300", "1e-320", "1e308"])
def test_jammer_schedule_the_float_clock_cannot_resolve_is_rejected(seconds, message):
    text = f"jammer_channel = 1\njammer_on_s = {seconds}\njammer_off_s = {seconds}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text + "sim_time_s = 5\n")
    assert exc.value.errors == [message]
    # the rule holds however the config is built, and only with a jammer
    cfg = parse_config(text.replace("jammer_channel = 1", "jammer_channel = none"))
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(cfg, jammer_channel=1, sim_time_s=5.0)
    assert exc.value.errors == [message]
    # the shortest on-period the rule accepts
    shortest = parse_config(f"jammer_channel = 1\njammer_on_s = {math.ulp(5.0)!r}\n"
                            "sim_time_s = 5\n")
    assert shortest.jammer_on_s == math.ulp(5.0)


def test_data_rate_whose_airtimes_overflow_is_rejected():
    # 8000 bits (the 1000-byte data frame) at 5e-324 bit/s take inf seconds
    message = ("data_rate_bps must give the longest frame, 8000 bits, a finite "
               "airtime, got 5e-324")
    with pytest.raises(ConfigError) as exc:
        parse_config("data_rate_bps = 5e-324")
    assert exc.value.errors == [message]
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(ScenarioConfig(), data_rate_bps=5e-324)
    assert exc.value.errors == [message]
    # a rate the parser refuses is refused on direct construction too
    with pytest.raises(ConfigError, match="a finite airtime, got 0.0"):
        dataclasses.replace(ScenarioConfig(), data_rate_bps=0.0)
    # the 40-byte transport ACK is the longest frame under smaller data
    with pytest.raises(ConfigError, match="the longest frame, 320 bits,"):
        parse_config("packet_size_bytes = 20\ndata_rate_bps = 5e-324")
    # at 1e-300 every airtime is finite, however long
    assert parse_config("data_rate_bps = 1e-300").data_rate_bps == 1e-300
    assert dataclasses.replace(ScenarioConfig(), data_rate_bps=1e-300).data_rate_bps \
        == 1e-300


def test_numeric_guards():
    for text in ("sim_time_s = -1", "packet_size_bytes = 0", "data_rate_bps = 0",
                 "delta = 1", "window = 0", "seed = -3", "radios_per_node = 0",
                 "radios_per_node = 12", "queue_capacity = 0",
                 "packet_size_bytes = 1.5", f"packet_size_bytes = {10**400}"):
        with pytest.raises(ConfigError):
            parse_config(text)
    assert parse_config("sim_time_s = 0").sim_time_s == 0.0


def test_serialize_round_trip():
    texts = [
        "",
        "topology = random(20, 7)\nprotocol = corciar\nflows = 19>0, 18>0\n",
        "topology = mesh8\njammer_channel = 1\njammer_x = 100\njammer_y = -80\n",
        "delta = 0.5\ntheta = 0.3\nsim_time_s = 12.5\n"
        "rts_mode = literal\ntraffic_class = delay_tolerant\nchannel_plan = 1,6;6,11\n",
        "jammer_x = 12.5\njammer_off_s = 0.5\n",   # jammer placed but switched off
    ]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(serialize(cfg)) == cfg


# One invalid value per key (more where a key has several checks), plus the
# line-level errors: each message is pinned byte for byte, because the
# command line prints them verbatim after `config error:`.
ERROR_MESSAGES = [
    ("topology = ring(5)", "line 1: topology must be chain(n), random(n[, seed]), "
                           "or mesh8, got 'ring(5)'"),
    ("topology = chain(1)", "line 1: topology needs at least 2 nodes, got 1"),
    ("topology = chain(6, 3)", "line 1: chain(n) takes no seed argument"),
    ("radios_per_node = 0", "line 1: radios_per_node must be >= 1, got 0"),
    ("radios_per_node = 12", "line 1: radios_per_node must be <= 11, got 12"),
    ("radios_per_node = two", "line 1: radios_per_node must be an integer, got 'two'"),
    ("channel_plan = nonsense", "line 1: channel_plan must be one of "
                                "orthogonal/overlapping/pcl or an explicit "
                                "semicolon-separated per-node list like 1,6;6,11"),
    ("channel_plan = 1,12", "line 1: channel 12 outside 1..11"),
    ("channel_plan = 6,6;6,6;6,6;6,6", "line 1: node 0 channel group lists channel 6 twice"),
    ("channel_plan = 1,6;11, 11", "line 1: node 1 channel group lists channel 11 twice"),
    ("rts_mode = strict", "line 1: rts_mode must be one of ('symmetric', 'literal')"),
    ("traffic_class = bulk", "line 1: traffic_class must be one of "
                             "('qos', 'delay_tolerant')"),
    ("protocol = olsr", "line 1: protocol must be one of "
                        "('aodv_hop', 'corciar', 'both')"),
    ("sim_time_s = -1", "line 1: sim_time_s must be >= 0 seconds"),
    ("sim_time_s = soon", "line 1: sim_time_s must be a number (seconds), got 'soon'"),
    ("packet_size_bytes = 1.5", "line 1: packet_size_bytes must be an integer, got '1.5'"),
    ("packet_size_bytes = 0", "line 1: packet_size_bytes must be >= 1, got 0"),
    ("packet_size_bytes = 1125899906842625",
     "line 1: packet_size_bytes must be <= 1125899906842624, got 1125899906842625"),
    ("data_rate_bps = 0", "line 1: data_rate_bps must be positive"),
    ("data_rate_bps = fast", "line 1: data_rate_bps must be a number (bits/second), "
                             "got 'fast'"),
    ("delta = 1", "line 1: delta must be in (0,1)"),
    ("theta = -1", "line 1: theta must be in [0,1]"),
    ("window = 0", "line 1: window must be >= 1, got 0"),
    ("queue_capacity = 0", "line 1: queue_capacity must be >= 1, got 0"),
    ("flows = 3>3", "line 1: flow source 3 equals its destination"),
    ("flows = 0>5; 2>5", "line 1: flow '0>5; 2>5' must look like src>dst"),
    ("seed = -3", "line 1: seed must be >= 0, got -3"),
    ("jammer_channel = 12", "line 1: jammer_channel must be <= 11, got 12"),
    ("jammer_channel = off", "line 1: jammer_channel must be an integer, got 'off'"),
    ("jammer_x = left", "line 1: jammer_x must be a number (meters), got 'left'"),
    ("jammer_y = up", "line 1: jammer_y must be a number (meters), got 'up'"),
    ("jammer_on_s = 0", "line 1: jammer_on_s must be positive seconds"),
    ("jammer_off_s = -1", "line 1: jammer_off_s must be positive seconds"),
    ("jammer_off_s = x", "line 1: jammer_off_s must be a number (seconds), got 'x'"),
    ("sim_time_s = inf", "line 1: sim_time_s must be a finite number (seconds), got 'inf'"),
    ("data_rate_bps = nan", "line 1: data_rate_bps must be a finite number (bits/second), "
                            "got 'nan'"),
    ("delta = nan", "line 1: delta must be a finite number, got 'nan'"),
    ("theta = -inf", "line 1: theta must be a finite number, got '-inf'"),
    ("jammer_x = nan", "line 1: jammer_x must be a finite number (meters), got 'nan'"),
    ("jammer_y = 1e999", "line 1: jammer_y must be a finite number (meters), got '1e999'"),
    ("jammer_on_s = nan", "line 1: jammer_on_s must be a finite number (seconds), got 'nan'"),
    ("jammer_off_s = inf", "line 1: jammer_off_s must be a finite number (seconds), "
                           "got 'inf'"),
    ("seed = 1\nseed = 2", "line 2: duplicate key seed (first set on line 1)"),
    ("windwo = 2", "line 1: unknown key 'windwo'"),
    ("topology chain(3)  # no equals sign",
     "line 1: expected key = value, got 'topology chain(3)  # no equals sign'"),
    # numerals are ASCII digits alone: no other script's digits, no full-width
    # forms, no digit-group underscores
    ("seed = ١٠", "line 1: seed must be an integer, got '١٠'"),
    ("topology = chain(٣)", "line 1: topology must be chain(n), random(n[, seed]), "
                               "or mesh8, got 'chain(٣)'"),
    ("channel_plan = ١,6;6,11;11,1", "line 1: channel_plan must be one of "
                                       "orthogonal/overlapping/pcl or an explicit "
                                       "semicolon-separated per-node list like 1,6;6,11"),
    ("flows = ٠>2", "line 1: flow '٠>2' must look like src>dst"),
    ("sim_time_s = 1_0", "line 1: sim_time_s must be a number (seconds), got '1_0'"),
    ("jammer_x = １", "line 1: jammer_x must be a number (meters), got '１'"),
]


@pytest.mark.parametrize("text,message", ERROR_MESSAGES,
                         ids=[text.split("\n")[-1] for text, _ in ERROR_MESSAGES])
def test_error_message_text(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [message]


def test_error_messages_cover_every_key():
    keys = {text.split("=")[0].strip() for text, _ in ERROR_MESSAGES}
    assert {f.name for f in fields(ScenarioConfig)} <= keys


def test_readme_key_table_matches_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = "| key | default | meaning |\n| --- | --- | --- |\n"
    start = readme.index(header) + len(header)
    table = readme[start:readme.index("\n\n", start)].splitlines()
    want = [f"| `{f.name}` | `{f.metadata['show'](f.default)}` | {f.metadata['doc']} |"
            for f in fields(ScenarioConfig)]
    assert table == want
