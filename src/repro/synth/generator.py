"""End-to-end generator of aligned attributed heterogeneous social networks.

Pipeline (all driven by one seeded :class:`numpy.random.Generator`):

1. sample a latent scale-free friendship world over ``n_people`` persons;
2. sample each person's spatio-temporal/language profile;
3. for each platform: sample members, project friendships into directed
   follows (plus noise follows), and emit Poisson-many posts per member
   whose attributes come from the author's profile;
4. anchor links are exactly the persons who joined both platforms.

User ids are platform-scoped strings (``"fq:u17"``, ``"tw:u17"``) so code
cannot accidentally match accounts by id equality — all alignment signal
flows through structure and attributes, as in the real task.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

from repro.exceptions import DatasetError
from repro.networks.aligned import AlignedPair
from repro.networks.multi import MultiAlignedNetworks
from repro.networks.builders import SocialNetworkBuilder
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.synth.activity import ActivityModel, PersonProfile
from repro.synth.config import PlatformConfig, WorldConfig
from repro.synth.follow_graph import (
    noise_follows,
    project_directed_follows,
    scale_free_friendships,
)


def _user_id(platform: PlatformConfig, person: int) -> str:
    """Platform-scoped user id for a latent person."""
    return f"{platform.name}:u{person}"


def _build_platform(
    platform: PlatformConfig,
    friendships: List,
    profiles: List[PersonProfile],
    members: List[int],
    activity: ActivityModel,
    rng: np.random.Generator,
) -> HeterogeneousNetwork:
    """Materialize one platform network for the given member set."""
    builder = SocialNetworkBuilder(platform.name)
    member_set: Set[int] = set(members)
    for person in members:
        builder.add_user(_user_id(platform, person))

    follows = project_directed_follows(
        friendships, member_set, platform.edge_retention, rng
    )
    follows.extend(noise_follows(members, platform.extra_edge_rate, rng))
    seen = set()
    for source, target in follows:
        if (source, target) in seen:
            continue
        seen.add((source, target))
        builder.follow(_user_id(platform, source), _user_id(platform, target))

    post_counter = 0
    for person in members:
        n_posts = int(rng.poisson(platform.posts_per_user_mean))
        draws = activity.sample_posts(
            profiles[person],
            n_posts,
            rng,
            attribute_noise=platform.post_attribute_noise,
            checkin_rate=platform.checkin_rate,
            timestamp_rate=platform.timestamp_rate,
            n_words=platform.words_per_post,
        )
        author = _user_id(platform, person)
        for draw in draws:
            builder.post(
                author,
                post_id=f"{platform.name}:p{post_counter}",
                timestamp=draw.timestamp,
                location=draw.location,
                words=draw.words,
            )
            post_counter += 1
    return builder.build()


def generate_aligned_pair(config: WorldConfig) -> AlignedPair:
    """Generate one aligned pair of synthetic social networks.

    Returns
    -------
    AlignedPair
        Two platform networks plus ground-truth anchors (one per person
        present on both platforms).  Fully deterministic given
        ``config.seed``.
    """
    rng = np.random.default_rng(config.seed)
    friendships = scale_free_friendships(
        config.n_people, config.friendship_attachment, rng
    )
    activity = ActivityModel(
        n_locations=config.n_locations,
        n_time_bins=config.n_time_bins,
        n_words=config.n_words,
        locations_per_person=config.locations_per_person,
        time_bins_per_person=config.time_bins_per_person,
        words_per_person=config.words_per_person,
        concentration=config.profile_concentration,
        zipf_exponent=config.background_zipf,
    )
    profiles = activity.sample_profiles(config.n_people, rng)

    membership: Dict[str, List[int]] = {}
    for platform in (config.left, config.right):
        draws = rng.random(config.n_people)
        membership[platform.name] = [
            person
            for person in range(config.n_people)
            if draws[person] < platform.membership_rate
        ]

    left_net = _build_platform(
        config.left,
        friendships,
        profiles,
        membership[config.left.name],
        activity,
        rng,
    )
    right_net = _build_platform(
        config.right,
        friendships,
        profiles,
        membership[config.right.name],
        activity,
        rng,
    )

    shared = set(membership[config.left.name]) & set(membership[config.right.name])
    anchors = [
        (_user_id(config.left, person), _user_id(config.right, person))
        for person in sorted(shared)
    ]
    return AlignedPair(left_net, right_net, anchors)


def generate_multi_aligned(
    config: WorldConfig, platforms: Sequence[PlatformConfig]
) -> MultiAlignedNetworks:
    """Generate n >= 2 platform networks over one latent world.

    Every platform samples the same friendship world and the same
    personal activity profiles, so anchors are mutually consistent by
    construction (the transitivity validator passes trivially).  The
    ``left``/``right`` entries of ``config`` are ignored; ``platforms``
    defines the lineup.

    Returns
    -------
    MultiAlignedNetworks
        With one declared anchor set per platform pair (i < j order).
    """
    if len(platforms) < 2:
        raise DatasetError("need at least two platform configs")
    names = [platform.name for platform in platforms]
    if len(set(names)) != len(names):
        raise DatasetError("platform names must be unique")

    rng = np.random.default_rng(config.seed)
    friendships = scale_free_friendships(
        config.n_people, config.friendship_attachment, rng
    )
    activity = ActivityModel(
        n_locations=config.n_locations,
        n_time_bins=config.n_time_bins,
        n_words=config.n_words,
        locations_per_person=config.locations_per_person,
        time_bins_per_person=config.time_bins_per_person,
        words_per_person=config.words_per_person,
        concentration=config.profile_concentration,
        zipf_exponent=config.background_zipf,
    )
    profiles = activity.sample_profiles(config.n_people, rng)

    membership: Dict[str, Set[int]] = {}
    networks = []
    for platform in platforms:
        draws = rng.random(config.n_people)
        members = [
            person
            for person in range(config.n_people)
            if draws[person] < platform.membership_rate
        ]
        membership[platform.name] = set(members)
        networks.append(
            _build_platform(platform, friendships, profiles, members, activity, rng)
        )

    anchors = {}
    for i, left_platform in enumerate(platforms):
        for right_platform in platforms[i + 1:]:
            shared = membership[left_platform.name] & membership[right_platform.name]
            anchors[(left_platform.name, right_platform.name)] = [
                (
                    _user_id(left_platform, person),
                    _user_id(right_platform, person),
                )
                for person in sorted(shared)
            ]
    return MultiAlignedNetworks(networks, anchors)
