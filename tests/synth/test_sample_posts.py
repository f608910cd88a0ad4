"""The batched post sampler against a one-post-at-a-time scalar oracle.

``reference_post`` is the per-post sampler ``ActivityModel`` used before
posts were drawn in batches: every gate and every choice is its own call
on the generator.  ``sample_posts`` must return the same posts and leave
the generator in the same state, so the next draw from it is the same.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.synth.activity import ActivityModel, PersonProfile, PostDraw


def reference_post(
    model: ActivityModel,
    profile: PersonProfile,
    rng: np.random.Generator,
    attribute_noise: float,
    checkin_rate: float,
    timestamp_rate: float,
    n_words: int,
) -> PostDraw:
    timestamp: Optional[int] = None
    if rng.random() < timestamp_rate:
        if rng.random() < attribute_noise:
            timestamp = int(rng.choice(model.n_time_bins, p=model._time_background))
        else:
            timestamp = int(rng.choice(profile.time_bins, p=profile.time_bin_weights))
    location: Optional[int] = None
    if rng.random() < checkin_rate:
        if rng.random() < attribute_noise:
            location = int(
                rng.choice(model.n_locations, p=model._location_background)
            )
        else:
            location = int(rng.choice(profile.locations, p=profile.location_weights))
    words: Tuple[int, ...] = ()
    if n_words > 0:
        drawn = rng.choice(
            profile.words, size=n_words, replace=True, p=profile.word_weights
        )
        words = tuple(int(w) for w in np.unique(drawn))
    return PostDraw(timestamp=timestamp, location=location, words=words)


@pytest.fixture(scope="module")
def model() -> ActivityModel:
    return ActivityModel(
        n_locations=30,
        n_time_bins=24,
        n_words=60,
        locations_per_person=4,
        time_bins_per_person=5,
        words_per_person=12,
        zipf_exponent=1.1,
    )


RATES = (0.0, 0.5, 1.0)
GRID = list(
    itertools.product(
        (0.0, 0.35, 1.0),  # attribute_noise
        RATES,  # timestamp_rate
        RATES,  # checkin_rate
        (0, 4),  # n_words
        (1, 7),  # n_posts
    )
)


@pytest.mark.parametrize(
    "noise,timestamp_rate,checkin_rate,n_words,n_posts", GRID
)
def test_batch_matches_scalar_oracle(
    model, noise, timestamp_rate, checkin_rate, n_words, n_posts
):
    seed = GRID.index((noise, timestamp_rate, checkin_rate, n_words, n_posts))
    profile = model.sample_profile(0, np.random.default_rng(1000 + seed))
    options = dict(
        attribute_noise=noise,
        checkin_rate=checkin_rate,
        timestamp_rate=timestamp_rate,
        n_words=n_words,
    )
    scalar_rng = np.random.default_rng(seed)
    expected = [
        reference_post(model, profile, scalar_rng, **options)
        for _ in range(n_posts)
    ]
    batch_rng = np.random.default_rng(seed)
    assert model.sample_posts(profile, n_posts, batch_rng, **options) == expected
    assert batch_rng.random() == scalar_rng.random()


def test_single_post_matches_scalar_oracle(model):
    profile = model.sample_profile(0, np.random.default_rng(0))
    scalar_rng = np.random.default_rng(1)
    batch_rng = np.random.default_rng(1)
    for _ in range(50):
        expected = reference_post(model, profile, scalar_rng, 0.35, 0.9, 0.95, 3)
        assert model.sample_post(profile, batch_rng, 0.35, 0.9, 0.95, 3) == expected
    assert batch_rng.random() == scalar_rng.random()


def test_zero_posts_draw_nothing(model):
    profile = model.sample_profile(0, np.random.default_rng(0))
    rng = np.random.default_rng(2)
    assert model.sample_posts(profile, 0, rng) == []
    assert rng.random() == np.random.default_rng(2).random()
