"""Counting and streaming every transitive orientation.

Run:  python3 demos/04_count_and_enumerate.py
"""
from itertools import islice

from transor import (
    count_orientations,
    enumerate_orientations,
    is_transitive,
    orientation_at,
    parse_edge_list,
)
from transor.oracle import complete_graph, cycle_graph, fixtures

paw = parse_edge_list("a b\na c\na d\nb c").graph

# Counting never materializes orientations: it multiplies k! per series
# node and 2 per prime node of the tree.
print("orientations of the paw:", count_orientations(paw))
for o in enumerate_orientations(paw):
    print("  ", o.to_json(), " transitive:", is_transitive(paw, o))

print("\nno orientation of an odd hole:", count_orientations(cycle_graph(5)))

# Complete graphs orient as linear orders; the count is n! and exceeds 64
# bits already at n=21, which is why the count is an exact big integer.
print("\ncount for K21:", count_orientations(complete_graph(21)))

# Enumeration is lazy: the first few of K21's 51 quintillion orientations
# cost nothing.
first = list(islice(enumerate_orientations(complete_graph(21)), 2))
print("first K21 orientation starts with:", first[0].sorted_pairs()[:5])

# Every orientation has a rank: its place in the enumeration order, whose
# mixed-radix digits are the per-node choices.  orientation_at builds one
# rank directly; K12 orients as a linear order, and rank 12! - 1 is the
# reverse of rank 0.
k12 = complete_graph(12)
rank = count_orientations(k12) // 2
middle = orientation_at(k12, rank)
print(f"\nK12 orientation at rank {rank}, built without enumerating:")
tails = [t for t, _ in middle.directed]  # a vertex is the tail of one edge per later vertex
print("  linear order:", " < ".join(sorted(k12.vertices, key=tails.count, reverse=True)))
print("  transitive:", is_transitive(k12, middle))
last = orientation_at(k12, count_orientations(k12) - 1)
print("  the last rank reverses the first:", last.directed == {(h, t) for t, h in orientation_at(k12, 0).directed})

print("\nfixture counts:")
for name, g in fixtures().items():
    print(f"  {name:12s} -> {count_orientations(g)}")
