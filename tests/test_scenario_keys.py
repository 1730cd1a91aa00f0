"""Every scenario key moves an output: changing one key's value from a base
scenario changes the CSV rows, a phase's trace hash or the final route rows.
A key that moves none of them would be a setting a user can change without
any visible effect, so it has no place in the config."""

import dataclasses
import functools
from dataclasses import fields

import pytest

from meshsim import cli
from meshsim.config import ScenarioConfig, parse_config, parse_value
from meshsim.experiment import execute

# chain(5) with the overlapping plan: node 3's radios sit on channels 5 and 1,
# a separation of 4 that only the delay-tolerant admission rule accepts
OVERLAPPING = "topology = chain(5)\nchannel_plan = overlapping\nsim_time_s = 5\n"
# orthogonal channels, where the literal pseudocode equalities defer RTSs the
# symmetric rule grants
ORTHOGONAL = "topology = chain(5)\nsim_time_s = 5\n"
# a jammer on channel 3 in the middle of the chain, reaching every node
JAMMED = OVERLAPPING + "jammer_channel = 3\njammer_x = 375\n"

# (key, base scenario, alternative value as config text)
KEY_MOVES = (
    ("topology", JAMMED, "chain(4)"),
    ("radios_per_node", JAMMED, "3"),
    ("channel_plan", JAMMED, "orthogonal"),
    ("rts_mode", ORTHOGONAL, "literal"),
    ("traffic_class", OVERLAPPING, "delay_tolerant"),
    ("protocol", JAMMED, "aodv_hop"),
    ("sim_time_s", JAMMED, "3"),
    ("packet_size_bytes", JAMMED, "500"),
    ("data_rate_bps", JAMMED, "2000000"),
    ("delta", JAMMED, "0.5"),
    ("theta", JAMMED, "0.5"),
    ("window", JAMMED, "1"),
    ("queue_capacity", JAMMED, "2"),
    ("flows", JAMMED, "1>0"),
    ("seed", JAMMED, "2"),
    ("jammer_channel", JAMMED, "6"),
    ("jammer_x", JAMMED, "1000"),       # out of reach of nodes 0 to 2
    ("jammer_y", JAMMED, "500"),        # out of reach of node 0
    ("jammer_on_s", JAMMED, "0.02"),
    ("jammer_off_s", JAMMED, "0.05"),
)


def outputs(config: ScenarioConfig):
    """What a run shows: its CSV cells, each phase's trace hash, and each
    phase's final route rows."""
    rows = execute(config)
    return ([cli._result_cells(row) for row in rows],
            [row.result.trace_hash for row in rows],
            [row.result.route_rows for row in rows])


@functools.lru_cache(maxsize=None)
def base_outputs(text: str):
    return outputs(parse_config(text))


def test_table_names_every_key_once():
    assert [key for key, _, _ in KEY_MOVES] == [f.name for f in fields(ScenarioConfig)]


@pytest.mark.parametrize("key,base,alternative", KEY_MOVES,
                         ids=[key for key, _, _ in KEY_MOVES])
def test_every_key_moves_an_output(key, base, alternative):
    config = parse_config(base)
    changed = dataclasses.replace(config, **{key: parse_value(key, alternative)})
    assert changed != config
    assert outputs(changed) != base_outputs(base)
