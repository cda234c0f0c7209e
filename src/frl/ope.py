"""Off-policy evaluation with weighted importance sampling.

Estimates the value of a target policy from logged episodes via
per-episode cumulative importance ratios, normalized by their per-step
averages (weighted importance sampling), with the effective sample size
of the final weights as a reliability gate for model selection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, SelectionError, ShapeError, ValidationError
from .jsonio import read_jsonl


def _check_code(x, what: str) -> None:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"{what} {x!r} is not an integer code")


def _codes(values, what: str) -> np.ndarray:
    """`values` as int64 codes.  A float or bool code is a ValidationError:
    int64 conversion would truncate 5.7 to 5 and read true as 1.  An
    integer array, or a flat sequence of plain ints, is checked by its
    dtype and element types alone; anything else one element at a time."""
    arr = np.asarray(values)
    plain = isinstance(values, np.ndarray) or (arr.ndim == 1 and set(map(type, values)) == {int})
    if arr.dtype.kind not in "iu" or not plain:
        for x in np.asarray(values, dtype=object).ravel():
            _check_code(x, what)
    return arr.astype(np.int64, copy=False)


@dataclass
class EpisodeLog:
    """One logged episode: per-step state, action, reward, propensity.

    States and actions are integer codes for tabular tasks.  The
    propensity is the behavior policy's probability of the action that
    was actually taken, and must be in (0, 1].  `final_state` optionally
    records where the last step landed, which evaluation never needs
    but offline learners do.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    propensities: np.ndarray
    final_state: int | None = None

    def __post_init__(self):
        self.states = _codes(self.states, "state")
        self.actions = _codes(self.actions, "action")
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.propensities = np.asarray(self.propensities, dtype=np.float64)
        if self.final_state is not None:
            _check_code(self.final_state, "final state")
            self.final_state = int(np.int64(self.final_state))
        n = len(self.states)
        if n == 0:
            raise DataError("episode has no steps")
        for name in ("states", "actions", "rewards", "propensities"):
            if getattr(self, name).shape != (n,):
                raise ShapeError(f"{name} is not a list of {n} per-step values")
        p = self.propensities
        if not (p.min() > 0 and p.max() <= 1):  # a NaN makes both compare False
            bad = int(np.flatnonzero(~((p > 0) & (p <= 1)))[0])
            raise DataError(f"propensity out of (0, 1] at step {bad}: {p[bad]}")
        if not np.isfinite(self.rewards).all():
            bad = int(np.flatnonzero(~np.isfinite(self.rewards))[0])
            raise DataError(f"non-finite reward at step {bad}: {self.rewards[bad]}")

    def __len__(self) -> int:
        return len(self.states)

    def to_json(self) -> str:
        doc = {
            "states": self.states.tolist(),
            "actions": self.actions.tolist(),
            "rewards": self.rewards.tolist(),
            "propensities": self.propensities.tolist(),
        }
        if self.final_state is not None:
            doc["final_state"] = int(self.final_state)
        return json.dumps(doc)

    @classmethod
    def from_doc(cls, doc: dict) -> "EpisodeLog":
        """The episode in a `to_json` document; KeyError names a missing field."""
        return cls(
            states=doc["states"],
            actions=doc["actions"],
            rewards=doc["rewards"],
            propensities=doc["propensities"],
            final_state=doc.get("final_state"),
        )


def save_episodes(episodes, path) -> None:
    with open(path, "w") as fh:
        for ep in episodes:
            fh.write(ep.to_json() + "\n")


def load_episodes(path) -> list[EpisodeLog]:
    """Read a non-empty JSON-lines episode log, one episode per line;
    `frl.jsonio` names the file and line of a malformed episode."""
    episodes = read_jsonl(path, "episode", EpisodeLog.from_doc)
    if not episodes:
        raise ValidationError(f"{path} holds no episodes")
    return episodes


@dataclass
class OpeResult:
    wis: float
    ess: float
    episode_weights: np.ndarray  # final cumulative ratio per episode (clipped)
    step_averages: np.ndarray  # mean cumulative ratio at each step index
    clip_count: int
    n_episodes: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "wis": self.wis,
                "ess": self.ess,
                "clip_count": self.clip_count,
                "n_episodes": self.n_episodes,
                "episode_weights": self.episode_weights.tolist(),
                "step_averages": self.step_averages.tolist(),
            }
        )


def soften(policy: np.ndarray, epsilon: float, n_actions: int) -> np.ndarray:
    """Spread a deterministic policy's mass: the chosen action keeps
    1 - epsilon, every other action receives epsilon / (n_actions - 1)."""
    if n_actions < 2:
        raise DomainError("softening needs at least two actions")
    if not 0 <= epsilon < 1:
        raise DomainError(f"epsilon must be in [0, 1), got {epsilon}")
    policy = _codes(policy, "policy action")
    if policy.ndim != 1 or not len(policy):
        raise ShapeError("policy must be a non-empty 1-D per-state action table")
    if policy.min() < 0 or policy.max() >= n_actions:
        raise DomainError("policy actions out of range")
    out = np.full((len(policy), n_actions), epsilon / (n_actions - 1))
    out[np.arange(len(policy)), policy] = 1.0 - epsilon
    return out


def wis_ess(episodes, target, gamma: float = 1.0, clip: float = 1000.0) -> OpeResult:
    """Weighted importance sampling estimate with effective sample size.

    Args:
        episodes: EpisodeLogs with true behavior propensities.
        target: (n_states, n_actions) table of the evaluated policy's
            action probabilities.
        gamma: discount applied to logged rewards.
        clip: ceiling applied to cumulative ratios before averaging.

    The estimate divides each episode's final cumulative ratio by the
    across-episode average at that step, weighting the episode's
    discounted return; an episode that has ended holds its final ratio
    through later steps.  ESS is computed from the final per-episode
    weights.  A logged code outside `target` is a DomainError.
    """
    episodes = list(episodes)
    m = len(episodes)
    if m == 0:
        raise DomainError("need at least one episode")
    lengths = np.array([len(ep) for ep in episodes])
    logged = np.arange(lengths.max()) < lengths[:, None]
    states, actions, props = (
        np.concatenate([getattr(ep, name) for ep in episodes])
        for name in ("states", "actions", "propensities")
    )
    n_states, n_actions = target.shape
    if min(states.min(), actions.min()) < 0 or states.max() >= n_states or actions.max() >= n_actions:
        bad = (states < 0) | (states >= n_states) | (actions < 0) | (actions >= n_actions)
        i = np.flatnonzero(bad)[0]
        j, t = np.argwhere(logged)[i]
        raise DomainError(
            f"episode {j} step {t}: state {states[i]} or action {actions[i]} is outside "
            f"the {n_states} x {n_actions} target table"
        )
    # padding ratios of 1 keep each episode's final ratio in place
    ratios = np.ones(logged.shape)
    ratios[logged] = target[states, actions] / props
    raw = np.cumprod(ratios, axis=1)
    cum = np.minimum(raw, clip)
    clip_count = int((raw[logged] > clip).sum())
    # each return is its own sum: padding would change numpy's summation order
    returns = np.array([np.sum(ep.rewards * gamma ** np.arange(len(ep))) for ep in episodes])
    step_avg = cum.mean(axis=0)
    final = cum[np.arange(m), lengths - 1]
    final_avg = step_avg[lengths - 1]
    if (final_avg <= 0).any():
        j = int(np.flatnonzero(final_avg <= 0)[0])
        raise DataError(f"all cumulative weights vanished at the length of episode {j}")
    wis = float(np.mean(final / final_avg * returns))
    denom = float(np.sum(final**2))
    ess = float(np.sum(final) ** 2 / denom) if denom > 0 else 0.0
    return OpeResult(
        wis=wis,
        ess=ess,
        episode_weights=final,
        step_averages=step_avg,
        clip_count=clip_count,
        n_episodes=m,
    )


def select_model(candidates, ess_cutoff: float):
    """Pick the candidate with the best WIS among those whose ESS clears
    the cutoff; ties prefer higher ESS, then the first-listed candidate.

    Args:
        candidates: iterable of (candidate_id, OpeResult).

    Raises SelectionError when nothing clears the cutoff, reporting the
    best available ESS so the caller can see how far off it was.
    """
    feasible = []
    best_ess = None
    for cid, res in candidates:
        best_ess = res.ess if best_ess is None else max(best_ess, res.ess)
        if res.ess >= ess_cutoff:
            feasible.append((cid, res))
    if not feasible:
        raise SelectionError(
            f"no candidate reached ESS {ess_cutoff}; best available was "
            f"{0.0 if best_ess is None else best_ess:.3f}"
        )
    return min(feasible, key=lambda item: (-item[1].wis, -item[1].ess))
