// Package twophase implements AdaptDB's two-phase partitioning (§5.1,
// Fig. 9): a partitioning tree whose first phase splits on a single join
// attribute using recursive medians (producing disjoint, balanced join
// ranges — the property hyper-join needs), and whose second phase splits
// on selection attributes using Amoeba's heterogeneous branching.
//
// Paper mapping:
//
//   - §5.1, Fig. 9 — Builder constructs the two-phase tree from a data
//     sample: JoinLevels median splits on JoinAttr on top, Amoeba-style
//     selection splits below.
package twophase
