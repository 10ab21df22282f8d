// Package tree implements AdaptDB partitioning trees (§3.1, §5.1).
//
// A partitioning tree is a binary tree whose internal nodes are labelled
// Ap — attribute A and cut point p. Records with A ≤ p route to the left
// subtree, the rest to the right. Leaves are data blocks (buckets)
// identified by dense bucket IDs. A tree may be a plain Amoeba tree
// (JoinAttr < 0) or a two-phase tree whose top JoinLevels levels all
// split on JoinAttr using recursive medians (§5.1).
//
// Trees are pure metadata: they route tuples to bucket IDs (Route) and
// prune bucket sets for predicate lookups (Lookup). The physical blocks
// live in the distributed store; the catalog maps (table, tree, bucket)
// to them.
//
// Paper mapping:
//
//   - §3.1 — the partitioning-tree data structure and predicate-based
//     block pruning.
//   - §5.1 — the two-phase shape (join levels above selection levels)
//     produced by internal/twophase and consumed here for routing.
package tree
