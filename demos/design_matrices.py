"""
Design matrices for a 3-item, 2-attribute diagnostic test
=========================================================

Walks the full family of response-rate designs on one small Q-matrix. One
builder, ``design(q, c, g, order)``, makes all of them: the binary
ideal-response table is (c, g) = (1, 0), the slip variant is (c, 0), the
slip-plus-guess variant is (c, g), and the augmented form used for scoring
keeps the zero-profile column and adds a row of ones. Last comes the
guessing-dependent linear transform that strips guessing out again.
"""

import numpy as np

from dinaq import ComboOrder, QMatrix, bit_label, build_d, design, profile_order

# Three items: one needs addition, one needs multiplication, one needs both.
q = QMatrix.from_rows(["10", "01", "11"])
print("Q-matrix (items x attributes):")
print(q.to_text())

order = ComboOrder.saturated(3)
PROFILES = ["GUESS"] + [bit_label(mask, q.k) for mask in profile_order(q.k)]


def show(values, rows=order.labels(), cols=PROFILES[1:]):
    print("combo\t" + "\t".join(cols))
    for lab, row in zip(rows, values):
        print(lab + "\t" + "\t".join(repr(float(v)) for v in row))
    print()


# Rows are item combinations, columns are attribute profiles (the zero
# profile first). Entry = product over the combination's items of c_i where
# the profile is capable and g_i where it is not. At (c, g) = (1, 0) that is
# the pure conjunctive model: 1 when the profile answers every item right.
print("ideal-response design over all item combinations, (c, g) = (1, 0):")
show(design(q, np.ones(3), np.zeros(3), order)[:, 1:])

# A subject capable of an item still misses it sometimes: capable factors
# become c_i. Products over a combination stay exact.
c = np.array([0.9, 0.8, 0.7])
print("slip-only design at c =", c)
show(design(q, c, np.zeros(3), order)[:, 1:])

# Incapable subjects guess right with rate g_i, so zero cells come alive.
g = np.array([0.2, 0.25, 0.5])
print("slip-and-guess design at g =", g)
show(design(q, c, g, order)[:, 1:])

# Scoring needs the rate of the all-zero profile too: keep its pure-guess
# column and close with a row of ones so columns live on the simplex.
aug = np.vstack([design(q, c, g, order), np.ones(len(PROFILES))])
print("augmented design (GUESS column + ones row):")
show(aug, order.labels() + ["ONES"], PROFILES)

# The difference transform depends only on g. Applied to the augmented
# design it recovers the slip-only design at rates c - g, with a zero
# leading column: guessing is linearly removable.
d = build_d(g, order)
product = d @ aug
target = np.column_stack(
    [np.zeros(len(order)), design(q, c - g, np.zeros(3), order)[:, 1:]]
)
print("difference transform check, max |D @ aug - (0 | slip(c-g))| =",
      np.abs(product - target).max())
