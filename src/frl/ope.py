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
        self.states = np.asarray(self.states)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.propensities = np.asarray(self.propensities, dtype=np.float64)
        n = len(self.states)
        if n == 0:
            raise DataError("episode has no steps")
        for name in ("actions", "rewards", "propensities"):
            if len(getattr(self, name)) != n:
                raise ShapeError(f"{name} length does not match states")
        bad = np.flatnonzero((self.propensities <= 0) | (self.propensities > 1))
        if len(bad):
            raise DataError(
                f"propensity out of (0, 1] at step {int(bad[0])}: {self.propensities[bad[0]]}"
            )

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
    def from_json(cls, text: str) -> "EpisodeLog":
        """Parse one episode line; ValidationError if it is not a JSON
        object holding every per-step field."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"episode line is not valid JSON: {e}") from e
        if not isinstance(d, dict):
            raise ValidationError("episode line is not a JSON object")
        missing = sorted({"states", "actions", "rewards", "propensities"} - d.keys())
        if missing:
            raise ValidationError(f"episode line lacks {', '.join(missing)}")
        return cls(
            states=np.asarray(d["states"]),
            actions=np.asarray(d["actions"]),
            rewards=np.asarray(d["rewards"]),
            propensities=np.asarray(d["propensities"]),
            final_state=d.get("final_state"),
        )


def save_episodes(episodes, path) -> None:
    with open(path, "w") as fh:
        for ep in episodes:
            fh.write(ep.to_json() + "\n")


def load_episodes(path) -> list[EpisodeLog]:
    out = []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    out.append(EpisodeLog.from_json(line))
                except ValidationError as e:
                    raise ValidationError(f"{path}: line {i}: {e}") from e
    return out


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
    policy = np.asarray(policy, dtype=np.int64)
    if policy.ndim != 1:
        raise ShapeError("policy must be a 1-D per-state action table")
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
    weights.
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
    # padding ratios of 1 keep each episode's final ratio in place
    ratios = np.ones(logged.shape)
    ratios[logged] = target[states.astype(np.int64), actions] / props
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
    the cutoff; ties prefer higher ESS, then the lower candidate id.

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
    feasible.sort(key=lambda item: (-item[1].wis, -item[1].ess, str(item[0])))
    return feasible[0]
