// Package exec is the query executor (§6): it runs scan tasks,
// repartitioning iterators, shuffle joins and hyper-joins over the
// blocks of AdaptDB tables, metering every block read and shuffled row
// through the cluster cost model. It plays the role Spark plays for the
// paper's prototype — a dumb, parallel data plane under a smart storage
// manager.
//
// Paper mapping:
//
//   - §4.1 — HyperJoinOp executes the grouped build/probe
//     algorithm over the block-grouping produced by internal/hyperjoin;
//     PlanHyper computes the block-read schedule the optimizer prices.
//   - §4.2 — every operator meters block reads and shuffled rows into a
//     cluster.Meter, from which the cost model derives simulated time.
//   - §4.3 — JoinOptions.BuildCharge/ProbeCharge = ChargeIntermediate
//     charges the cheaper pipelined factor for shuffling materialized
//     intermediates between joins (ChargeShuffle is eq. 1's CSJ factor).
//   - §6 — ScanOp/TableScanOp implement predicate-based data access
//     with tree and zone-map pruning; Executor.RoundRobin and NoPrune
//     are the Fig. 7 locality and §7.3 full-scan baseline switches.
//
// The engine is one batched pipeline (pipeline.go): fixed-capacity,
// columnar Batch chunks stream through Open/Next/Close. Rows enter in
// one place — NewSource transposes an in-memory row slice — and leave
// in one place: Batch.Rows, the client edge's materializer (Collect,
// the serving layer's result rows). Operators: block scans (ScanOp,
// TableScanOp), the hash join (JoinOp), hyper-joins (NewHyperJoinOp),
// filters (Where, WhereColsEq), Project, GroupByOp and in-memory
// sources (NewSource), with scans, hyper-join groups, and the
// radix-partitioned join's build and probe phases all running on a
// bounded worker pool. Blocks are stored column-major, so a scan is
// filter-then-copy: the vectorized predicate kernel
// (predicate.FilterSel) narrows a selection over the block's own
// vectors and the survivors are bulk-copied into a pooled batch. There
// is one hash join and one join table: a columnar build and probe
// (coljoin.go) that spills under a MemBudget (spill.go). A hyper-join
// group and a second-pass load of a spilled partition are that same
// build and probe with a single partition, fed from block vectors or
// decoded run frames; either join can build on the plan's right side
// and still emit (left, right) column order. Drain is the one run loop
// — Collect and Count, the session and the serving layer all pull a
// DAG through it. The structural operators of ops.go — Instrument
// (per-operator rows/batches/time + completion hooks) and Concat
// (sequential stream union) — are what the planner's compiler wires
// around these to turn a whole plan tree into one executable DAG.
//
// The per-node fabric (nodes.go, exchange.go) turns the executor into
// an N-node simulated cluster: EnableNodes gives every dfs node its own
// executor view (pinned worker pool + meter shard), NodeSet.SplitRefs
// schedules scans where blocks live, and Exchange operators
// (Shuffle/ShuffleGlobal/Broadcast/Deal) move batches between node
// fragments, metering the rows and bytes that cross nodes. Gather
// merges per-node streams at the coordinator. A co-located hyper-join
// uses no exchange at all — zero rows cross the simulated network.
//
// One slice-returning join remains: NestedLoopJoin, the test oracle.
// Everything else composes Operators and consumes batches; see
// README.md in this directory for an example pipeline.
package exec
