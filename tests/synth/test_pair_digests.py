"""Pinned digests of generated aligned pairs.

The same seed must give the same pair byte for byte: every paper number
downstream (features, labels, scores, tables) is a function of the
generated networks, so a change to the generator's sampling code may
not move a single node, edge, attribute or epoch.  Each case below
hashes the full state of its generated networks and compares it with
the committed fixture ``pair_digests.json``.

The cases cover the ``tiny``/``small``/``medium`` presets at three
seeds, ``large`` at the default seed, and configs at the edges of the
post sampler: no posts, a Poisson mean past numpy's algorithm switch at
10, wordless posts, attribute rates and noise at 0 and 1, an empty
platform, a uniform background and a three-platform world.

Regenerate the fixture (only for an intended output change) with
``PYTHONPATH=src:tests python tests/synth/test_pair_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.datasets import foursquare_twitter_like
from repro.networks.aligned import AlignedPair
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.synth.config import PlatformConfig, WorldConfig
from repro.synth.generator import generate_aligned_pair, generate_multi_aligned

FIXTURE = Path(__file__).with_name("pair_digests.json")


def network_state(network: HeterogeneousNetwork) -> dict:
    """Everything a generated network holds, in a hash-seed-free order.

    Schema type names live in a frozenset and adjacency in sets, both
    of which iterate in string-hash order; they are sorted so the state
    (and its digest) is the same in every process.  Everything else is
    kept in its insertion order, which the generator determines.
    """
    schema = network.schema
    state: dict = {"name": network.name, "nodes": {}, "edges": {}, "attributes": {}}
    for node_type in sorted(schema.node_types):
        state["nodes"][node_type] = {
            "slots": network.slots(node_type),
            "epoch": network.node_epoch(node_type),
        }
    for relation in sorted(schema.edge_types):
        spec = schema.edge_type(relation)
        out: List[list] = []
        for source, target in network.edges(relation):
            if not out or out[-1][0] != source:
                out.append([source, []])
            out[-1][1].append(target)
        state["edges"][relation] = {
            "out": [[source, sorted(targets)] for source, targets in out],
            "in": [
                [target, sorted(network.predecessors(relation, target))]
                for target in network.slots(spec.target)
            ],
            "count": network.edge_count(relation),
            "epoch": network.edge_epoch(relation),
        }
    for attribute in sorted(schema.attribute_types):
        spec = schema.attribute_type(attribute)
        state["attributes"][attribute] = {
            "vocabulary": network.attribute_values(attribute),
            "links": [
                [node, list(network.node_attributes(attribute, node).items())]
                for node in network.slots(spec.node_type)
            ],
            "count": network.attribute_link_count(attribute),
            "epoch": network.attribute_epoch(attribute),
        }
    return state


def _sha256(state) -> str:
    text = json.dumps(state, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pair_digest(pair: AlignedPair) -> str:
    """SHA-256 over both networks' state and the sorted anchors."""
    return _sha256(
        {
            "left": network_state(pair.left),
            "right": network_state(pair.right),
            "anchors": sorted(pair.anchors),
        }
    )


def _world(**overrides) -> WorldConfig:
    defaults = dict(n_people=60, friendship_attachment=2, seed=11)
    defaults.update(overrides)
    return WorldConfig(**defaults)


def _platforms(**overrides) -> Dict[str, PlatformConfig]:
    """Both platforms of ``_world`` with the same field overrides."""
    return {
        "left": PlatformConfig(name="left", **overrides),
        "right": PlatformConfig(name="right", **overrides),
    }


def _multi_digest() -> str:
    platforms = [
        PlatformConfig(name="a", membership_rate=0.7, posts_per_user_mean=4.0),
        PlatformConfig(name="b", membership_rate=0.8, post_attribute_noise=0.5),
        PlatformConfig(name="c", membership_rate=0.6, words_per_post=5),
    ]
    networks = generate_multi_aligned(_world(), platforms)
    return _sha256(
        {
            "networks": [
                network_state(networks.network(name))
                for name in networks.network_names
            ],
            "anchors": [
                [list(names), sorted(networks.pair(*names).anchors)]
                for names in networks.pair_names()
            ],
        }
    )


def _config_case(**platform_overrides) -> Callable[[], str]:
    return lambda: pair_digest(
        generate_aligned_pair(_world(**_platforms(**platform_overrides)))
    )


CASES: Dict[str, Callable[[], str]] = {}
for _scale in ("tiny", "small", "medium"):
    for _seed in (7, 23, 1007):
        CASES[f"{_scale}-{_seed}"] = (
            lambda scale=_scale, seed=_seed: pair_digest(
                foursquare_twitter_like(scale, seed=seed)
            )
        )
CASES["large-7"] = lambda: pair_digest(foursquare_twitter_like("large", seed=7))
CASES["posts-mean-0"] = _config_case(posts_per_user_mean=0.0)
CASES["posts-mean-12"] = _config_case(posts_per_user_mean=12.0)
CASES["posts-mean-40"] = _config_case(posts_per_user_mean=40.0)
CASES["words-0"] = _config_case(words_per_post=0)
CASES["rates-0"] = _config_case(timestamp_rate=0.0, checkin_rate=0.0)
CASES["rates-1"] = _config_case(timestamp_rate=1.0, checkin_rate=1.0)
CASES["noise-0"] = _config_case(post_attribute_noise=0.0)
CASES["noise-1"] = _config_case(post_attribute_noise=1.0)
CASES["membership-0"] = lambda: pair_digest(
    generate_aligned_pair(
        _world(
            left=PlatformConfig(name="left", membership_rate=0.0),
            right=PlatformConfig(name="right"),
        )
    )
)
CASES["zipf-0"] = lambda: pair_digest(generate_aligned_pair(_world(background_zipf=0.0)))
CASES["multi-3"] = _multi_digest


@pytest.fixture(scope="module")
def pinned() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_pair_matches_pinned_digest(case, pinned):
    assert CASES[case]() == pinned[case]


def test_digest_sees_one_changed_attribute():
    pair = foursquare_twitter_like("tiny", seed=7)
    before = pair_digest(pair)
    post = pair.left.nodes("post")[0]
    pair.left.attach_attribute("word", post, 10**6)
    assert pair_digest(pair) != before


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({case: CASES[case]() for case in sorted(CASES)}, indent=2)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
