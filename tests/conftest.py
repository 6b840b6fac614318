import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no per-example time limit on a
    # loaded machine
    settings.register_profile("elicitrec", derandomize=True, deadline=None, database=None)
    settings.load_profile("elicitrec")

from elicitrec.data_model import (
    Dataset,
    FeatureSchema,
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    SyntheticSpec,
    generate_synthetic,
)


MASK64 = (1 << 64) - 1


def splitmix64(key, i):
    """Output i of the splitmix64 stream seeded with `key`, in python ints."""
    z = (key + i * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


# The oracle of every draw the commands make, in python ints: each is
# written from the documented (key, counter) rule, not from the library.


def stream_key(*values):
    """The stream key of non-negative integers: from 0, each value's 64-bit
    words, low word first and at least one, each making the key output 1
    of the stream keyed key ^ word."""
    key = 0
    for value in values:
        while True:
            key = splitmix64(key ^ (value & MASK64), 1)
            value >>= 64
            if not value:
                break
    return key


def derived_seed(master, stream):
    """`derive_seed`: the key of (master, stream) without its lowest bit."""
    return stream_key(master, stream) >> 1


def lemire(z, bound, bits=64):
    """Lemire's map of a `bits`-bit output z into [0, bound): the value, and
    whether the output is accepted."""
    product = z * bound
    return product >> bits, product % (1 << bits) >= (1 << bits) % bound


def bounded_draws(key, first, count, bound, also_reject=lambda z: False):
    """The first `count` accepted values of key's stream from output `first`
    on (`also_reject` rejects more outputs, to test the skip rule)."""
    out, i = [], first
    while len(out) < count:
        z = splitmix64(key, i)
        value, accepted = lemire(z, bound)
        if accepted and not also_reject(z):
            out.append(value)
        i += 1
    return out


def tree_keys(seed, n_trees):
    """Tree t's key: output t of the seed's key's stream."""
    key = stream_key(seed)
    return [splitmix64(key, t) for t in range(n_trees)]


def root_keys(seed, n_trees):
    """Tree t's root key: output 0 of its tree key's stream."""
    return [splitmix64(k, 0) for k in tree_keys(seed, n_trees)]


def bootstrap_rows(seed, n_trees, n_rows):
    """Tree t's bootstrap: n_rows bounded draws in [0, n_rows) of its tree
    key's stream from output 1 on."""
    return [np.array(bounded_draws(k, 1, n_rows, n_rows)) for k in tree_keys(seed, n_trees)]


def split_rows(seed, n, n_test):
    """(train rows, test rows), ascending: rows ordered by outputs 0..n-1
    of the seed's key's stream, the first n_test of them the test part."""
    key = stream_key(seed)
    order = sorted(range(n), key=lambda i: splitmix64(key, i))
    return sorted(order[n_test:]), sorted(order[:n_test])


def smote_draws(seed, needed, k):
    """Each synthetic row's neighbour pick in [0, k) and interpolation
    draw in [0, 1): the pick key and draw key are outputs 0 and 1 of the
    seed's key's stream; row s takes bounded draw s of the first, and the
    top 53 bits of output s of the second over 2**53."""
    key = stream_key(seed)
    pick_key, draw_key = splitmix64(key, 0), splitmix64(key, 1)
    draws = [(splitmix64(draw_key, s) >> 11) / 2**53 for s in range(needed)]
    return bounded_draws(pick_key, 0, needed, k), draws


@pytest.fixture(scope="session")
def skewed_dataset() -> Dataset:
    """Heavily skewed synthetic data: 282 majority / 41 minority
    (ratio 6.9), 27 features of which 6 carry signal."""
    spec = SyntheticSpec(n_majority=282, n_minority=41, p=27, n_informative=6, seed=7)
    return generate_synthetic(spec)


def make_dataset(X, y, roles=None, levels=None, synthetic=None, names=None) -> Dataset:
    """Small-fixture helper: wrap arrays in a Dataset with generated names."""
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    p = X.shape[1]
    roles = roles or [ROLE_CONTEXT] * p
    names = names or [f"f{j}" for j in range(p)]
    schema = []
    for j in range(p):
        n_levels = levels[j] if levels is not None else int(X[:, j].max()) + 1
        schema.append(
            FeatureSchema(names[j], roles[j], tuple(f"v{i}" for i in range(n_levels)))
        )
    return Dataset(
        schema=tuple(schema),
        target_name="target",
        X=X,
        y=y,
        synthetic=synthetic if synthetic is not None else np.zeros(len(y), dtype=bool),
    )


def xor_dataset(n_per_class: int = 200, seed: int = 5) -> Dataset:
    """Fixture where the signal hides from a means-based scorer.

    Feature 0 is a 4-level carrier whose codes {1,2} mean class 1 and
    {0,3} mean class 0; both class groups have mean code 1.5, so the
    ANOVA F score is exactly 0 while chi-squared and mutual information
    are maximal. Feature 1 is a noisy copy of the target (all methods see
    it), feature 2 a noisier copy, and the rest independent noise.
    """
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    y = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    carrier = np.array([0, 3] * (n_per_class // 2) + [1, 2] * (n_per_class // 2))
    strong = np.where(rng.random(n) < 0.25, 1 - y, y)
    weak = np.where(rng.random(n) < 0.40, 1 - y, y)
    noise = rng.integers(0, 4, size=(n, 3))
    X = np.column_stack([carrier, strong, weak, noise])
    perm = rng.permutation(n)
    roles = [ROLE_CONTEXT, ROLE_CONTEXT, ROLE_TECHNIQUE, ROLE_CONTEXT, ROLE_TECHNIQUE, ROLE_CONTEXT]
    names = ["carrier", "strong", "weak", "noise0", "noise1", "noise2"]
    return make_dataset(
        X[perm], y[perm], roles=roles, levels=[4, 2, 2, 4, 4, 4], names=names
    )


def interviews_score_table():
    """Reference importance scores for an Interviews target, as a
    MutualInfo-tagged table (the method label is immaterial here)."""
    from elicitrec.feature_scoring import FeatureScoreTable, ScoreEntry

    rows = [
        ("Project Size", ROLE_CONTEXT, 0.3),
        ("Experience", ROLE_CONTEXT, 0.28),
        ("WoW", ROLE_CONTEXT, 0.27),
        ("Prototyping", ROLE_TECHNIQUE, 0.25),
        ("Project Category", ROLE_CONTEXT, 0.23),
        ("Company Type", ROLE_CONTEXT, 0.21),
        ("Process analysis", ROLE_TECHNIQUE, 0.19),
        ("Company Size", ROLE_CONTEXT, 0.18),
        ("Industrial Sector", ROLE_CONTEXT, 0.18),
        ("Interface analysis", ROLE_TECHNIQUE, 0.17),
        ("Brainstorming", ROLE_TECHNIQUE, 0.16),
        ("Observations", ROLE_TECHNIQUE, 0.16),
        ("Business rules analysis", ROLE_TECHNIQUE, 0.15),
        ("Workshops and focus groups", ROLE_TECHNIQUE, 0.15),
        ("Document analysis", ROLE_TECHNIQUE, 0.14),
        ("Reuse database and guidelines", ROLE_TECHNIQUE, 0.14),
        ("Stakeholders list, map or Personas", ROLE_TECHNIQUE, 0.13),
        ("System/Service Class", ROLE_CONTEXT, 0.13),
        ("Team Distribution", ROLE_CONTEXT, 0.13),
        ("BA Only Role", ROLE_CONTEXT, 0.13),
        ("Data mining", ROLE_TECHNIQUE, 0.11),
        ("Survey or Questionnaire", ROLE_TECHNIQUE, 0.12),
        ("Benchmarking and Market Analysis", ROLE_TECHNIQUE, 0.11),
        ("Certified", ROLE_CONTEXT, 0.09),
        ("Design Thinking", ROLE_TECHNIQUE, 0.08),
        ("Collaborative games", ROLE_TECHNIQUE, 0.06),
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return FeatureScoreTable(
        entries=tuple(ScoreEntry(n, r, s) for n, r, s in rows),
    )
