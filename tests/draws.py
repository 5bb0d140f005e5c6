"""Seeded random draws for the tests: field elements and morphisms.

The library decides everything without random draws; these samplers feed
only the tests' seeded spot checks.
"""


def random_element(field, rng):
    """A field element: uniform over F_p, an integer in [-4, 4] over Q."""
    if field.char:
        return rng.randrange(field.char)
    return rng.randint(-4, 4)


def random_mor(cat, x, y, rng):
    """Random element of Hom(x, y), one random_element per basis coordinate."""
    space = cat.hom(x, y)
    coords = (random_element(cat.field, rng) for _ in range(space.dim))
    return space.from_coords({j: c for j, c in enumerate(coords) if c})
