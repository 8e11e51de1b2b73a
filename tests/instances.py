"""Shared builders for the property tests' generated instances."""

from repro.ctg import GeneratorConfig, generate_ctg
from repro.platform import PlatformConfig, generate_platform
from repro.scheduling import set_deadline_from_makespan


def build_instance(nodes, branches, category, pes, seed, factor, speed_levels=None):
    """A generated CTG and platform with its deadline at ``factor`` × the
    nominal makespan; ``speed_levels`` gives every PE that frequency table.

    Raises ``ValueError`` when the generator cannot honour the shape.
    """
    cfg = GeneratorConfig(nodes=nodes, branch_nodes=branches, category=category, seed=seed)
    ctg = generate_ctg(cfg)
    platform = generate_platform(
        ctg.tasks(), PlatformConfig(pes=pes, seed=seed, speed_levels=speed_levels)
    )
    set_deadline_from_makespan(ctg, platform, factor)
    return ctg, platform


def decisions_of(scenario, ctg):
    """A full decision vector realising ``scenario`` (inactive branches
    get an arbitrary outcome — they are never consulted)."""
    vector = {}
    for branch in ctg.branch_nodes():
        chosen = scenario.product.label_for(branch)
        vector[branch] = chosen if chosen is not None else ctg.outcomes_of(branch)[0]
    return vector


def random_distribution(ctg, rng):
    """A branch distribution with every outcome weight in [0.05, 1]
    before normalisation (``rng`` is a numpy ``Generator``)."""
    dist = {}
    for branch in ctg.branch_nodes():
        labels = ctg.outcomes_of(branch)
        weights = rng.uniform(0.05, 1.0, size=len(labels))
        weights /= weights.sum()
        dist[branch] = dict(zip(labels, weights))
    return dist
