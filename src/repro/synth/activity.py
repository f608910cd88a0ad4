"""Per-person spatio-temporal activity and language profiles.

Each latent person has a small set of habitual locations, habitual time
bins and a personal vocabulary.  When that person posts on *either*
platform, the post's attributes are drawn from the same profile — this is
the mechanism that makes anchored account pairs share location/timestamp/
word co-occurrences (the signal meta paths P5/P6 and the attribute meta
diagrams exploit), while non-anchored pairs agree only by chance.

Posts are drawn in batches, one batch per member, on the caller's
generator.  A post is a sequence of ``rng.random()`` doubles: a presence
gate per timestamp/location, then (if present) a noise gate and one
choice draw, then one draw per word.  ``Generator.choice(a, p=p)`` with
replacement is ``searchsorted`` of one such double in ``p``'s normalized
cdf, so :meth:`ActivityModel.sample_posts` can resolve every choice of
the batch with one ``searchsorted`` per attribute.  It snapshots the bit
generator, draws the most doubles ``n_posts`` posts can use, walks the
gates to find how many they did use, rewinds the generator and consumes
exactly that many.  The posts, and the stream state the caller goes on
with, are those of drawing the posts one at a time, call by call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import DatasetError


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf popularity weights over ``n`` ranked items."""
    if exponent == 0:
        return np.full(n, 1.0 / n)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


@dataclass(frozen=True)
class PersonProfile:
    """Activity profile of one latent person.

    ``locations``/``time_bins``/``words`` hold vocabulary indices; the
    parallel ``*_weights`` arrays are sampling probabilities (Dirichlet
    draws, so some habits dominate).
    """

    person: int
    locations: np.ndarray
    location_weights: np.ndarray
    time_bins: np.ndarray
    time_bin_weights: np.ndarray
    words: np.ndarray
    word_weights: np.ndarray


@dataclass(frozen=True)
class PostDraw:
    """Attributes of one generated post."""

    timestamp: Optional[int]
    location: Optional[int]
    words: Tuple[int, ...]


class ActivityModel:
    """Samples personal profiles and posts from them.

    Parameters
    ----------
    n_locations, n_time_bins, n_words:
        Global vocabulary sizes.
    locations_per_person, time_bins_per_person, words_per_person:
        Profile sizes.
    concentration:
        Dirichlet concentration for habit weights; small values make
        habits peaky (more cross-platform co-occurrence), large values
        flatten them.
    zipf_exponent:
        Popularity skew of the *background* distributions used for
        out-of-habit draws.  Real venues/time-slots/words follow a
        heavy-tailed popularity law, so unrelated users also co-occur at
        hot spots — the confusing collisions that make alignment hard.
        ``0`` makes the background uniform.
    """

    def __init__(
        self,
        n_locations: int,
        n_time_bins: int,
        n_words: int,
        locations_per_person: int,
        time_bins_per_person: int,
        words_per_person: int,
        concentration: float = 0.8,
        zipf_exponent: float = 1.0,
    ) -> None:
        if concentration <= 0:
            raise DatasetError("concentration must be > 0")
        if zipf_exponent < 0:
            raise DatasetError("zipf_exponent must be >= 0")
        self.n_locations = n_locations
        self.n_time_bins = n_time_bins
        self.n_words = n_words
        self.locations_per_person = locations_per_person
        self.time_bins_per_person = time_bins_per_person
        self.words_per_person = words_per_person
        self.concentration = concentration
        self.zipf_exponent = zipf_exponent
        self._location_background = _zipf_weights(n_locations, zipf_exponent)
        self._time_background = _zipf_weights(n_time_bins, zipf_exponent)
        self._location_cdf = _cdf(self._location_background)
        self._time_cdf = _cdf(self._time_background)

    def sample_profile(self, person: int, rng: np.random.Generator) -> PersonProfile:
        """Draw one person's habitual locations, times and vocabulary.

        Habitual venues and time slots are drawn from the Zipf
        background, so popular places appear in many profiles — distinct
        people collide there, as in real check-in data.
        """
        locations = rng.choice(
            self.n_locations,
            size=self.locations_per_person,
            replace=False,
            p=self._location_background,
        )
        time_bins = rng.choice(
            self.n_time_bins,
            size=self.time_bins_per_person,
            replace=False,
            p=self._time_background,
        )
        words = rng.choice(self.n_words, size=self.words_per_person, replace=False)
        return PersonProfile(
            person=person,
            locations=locations,
            location_weights=rng.dirichlet(
                np.full(self.locations_per_person, self.concentration)
            ),
            time_bins=time_bins,
            time_bin_weights=rng.dirichlet(
                np.full(self.time_bins_per_person, self.concentration)
            ),
            words=words,
            word_weights=rng.dirichlet(
                np.full(self.words_per_person, self.concentration)
            ),
        )

    def sample_profiles(
        self, n_people: int, rng: np.random.Generator
    ) -> List[PersonProfile]:
        """Draw profiles for the whole population."""
        return [self.sample_profile(person, rng) for person in range(n_people)]

    def sample_post(
        self,
        profile: PersonProfile,
        rng: np.random.Generator,
        attribute_noise: float = 0.0,
        checkin_rate: float = 1.0,
        timestamp_rate: float = 1.0,
        n_words: int = 3,
    ) -> PostDraw:
        """Draw one post's attributes from a profile (see :meth:`sample_posts`)."""
        return self.sample_posts(
            profile,
            1,
            rng,
            attribute_noise=attribute_noise,
            checkin_rate=checkin_rate,
            timestamp_rate=timestamp_rate,
            n_words=n_words,
        )[0]

    def sample_posts(
        self,
        profile: PersonProfile,
        n_posts: int,
        rng: np.random.Generator,
        attribute_noise: float = 0.0,
        checkin_rate: float = 1.0,
        timestamp_rate: float = 1.0,
        n_words: int = 3,
    ) -> List[PostDraw]:
        """Draw ``n_posts`` posts' attributes from a profile in one batch.

        Each of timestamp/location is present with its rate; a present
        one is replaced by a background draw with probability
        ``attribute_noise`` (out-of-habit activity), else drawn from the
        profile's habits.  Each post carries the distinct words of
        ``n_words`` draws from the personal vocabulary.

        The posts and the state ``rng`` is left in are exactly those of
        drawing the posts one at a time, gate by gate, with
        ``rng.random()`` and ``rng.choice`` (see the module docstring).
        """
        if n_posts == 0:
            return []
        state = rng.bit_generator.state
        uniforms = rng.random(n_posts * (6 + n_words))
        rng.bit_generator.state = state
        u = uniforms.tolist()

        # Walk the gates to find where each post's draws sit in the
        # stream; a failed presence gate skips its noise and choice draw.
        time_draws: List[Tuple[int, bool, int]] = []
        location_draws: List[Tuple[int, bool, int]] = []
        word_at = []
        at = 0
        for post in range(n_posts):
            if u[at] < timestamp_rate:
                time_draws.append((post, u[at + 1] < attribute_noise, at + 2))
                at += 3
            else:
                at += 1
            if u[at] < checkin_rate:
                location_draws.append((post, u[at + 1] < attribute_noise, at + 2))
                at += 3
            else:
                at += 1
            word_at.append(at)
            at += n_words
        rng.random(at)

        timestamps = _resolve_choices(
            uniforms, n_posts, time_draws, self._time_cdf,
            profile.time_bins, profile.time_bin_weights,
        )
        locations = _resolve_choices(
            uniforms, n_posts, location_draws, self._location_cdf,
            profile.locations, profile.location_weights,
        )
        if n_words > 0:
            draws = uniforms[np.asarray(word_at)[:, None] + np.arange(n_words)]
            cdf = _cdf(profile.word_weights)
            drawn = profile.words[cdf.searchsorted(draws, side="right")]
            drawn.sort(axis=1)
            words = [tuple(dict.fromkeys(row)) for row in drawn.tolist()]
        else:
            words = [()] * n_posts
        return [
            PostDraw(timestamp=timestamp, location=location, words=post_words)
            for timestamp, location, post_words in zip(timestamps, locations, words)
        ]


def _cdf(weights: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice`` searches for ``p=weights``."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _resolve_choices(
    uniforms: np.ndarray,
    n_posts: int,
    draws: List[Tuple[int, bool, int]],
    background_cdf: np.ndarray,
    items: np.ndarray,
    weights: np.ndarray,
) -> List[Optional[int]]:
    """Per-post values of one attribute's choice draws, ``None`` if absent.

    ``draws`` holds ``(post, noisy, offset)``: the double at ``offset`` of
    ``uniforms`` indexes the background vocabulary if ``noisy``, else the
    profile's ``items`` under ``weights``.
    """
    values: List[Optional[int]] = [None] * n_posts
    if not draws:
        return values
    posts, noisy, at = zip(*draws)
    picks = uniforms[list(at)]
    noisy_mask = np.array(noisy)
    chosen = np.empty(len(draws), dtype=np.int64)
    chosen[noisy_mask] = background_cdf.searchsorted(
        picks[noisy_mask], side="right"
    )
    chosen[~noisy_mask] = items[
        _cdf(weights).searchsorted(picks[~noisy_mask], side="right")
    ]
    for post, value in zip(posts, chosen.tolist()):
        values[post] = value
    return values
