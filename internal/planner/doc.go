// Package planner implements AdaptDB's query planner (§6): it lowers a
// join-plan tree of arbitrary depth into one pipelined DAG of
// exec.Operators, picking hyper-join, shuffle join, or a combination
// per join with the §4.2 cost model — strategy choices are operator
// choices, decided at compile time from block zone maps alone.
//
// Compile is the engine: scans become ScanOps with predicate pushdown
// over block refs resolved once per compile (the costing, ordering and
// scans of one compile share them) — for a grouped spec, each emitting
// only the join keys and group inputs its table contributes, so the
// grouped projection happens at the scans, not only above the joins —
// base-table joins become
// HyperJoinOp / JoinOp / Concat compositions, and multi-relation joins
// stream their sub-plan DAGs straight into the next join's build side
// (§4.3's semi-shuffle: only the intermediate shuffles when the base
// table has a tree on the join attribute). There is one lowering
// (distributed.go): it compiles against the executor's exec.Fabric,
// which is one node for a centralized executor and N simulated or TCP
// nodes otherwise. Nothing on the compiled path materializes a
// whole-table slice; a caller that wants rows drains the DAG with
// exec.Collect.
//
// Every decision reads the tables' columnar block catalogs
// (internal/core): refs carry row counts, paths and primary replicas,
// and the zone-map unions of the join ordering and the hyper-join
// overlap test read the catalog's typed min/max vectors. A hyper-join's
// schedule is priced once (estimateHyper), cached with the strategy
// decision, and run as priced by the HyperJoinOp.
//
// Every operator is wrapped in exec.Instrument,
// so a drained Compiled DAG reports per-operator rows/batches/time and
// a per-join strategy Report. internal/session drives Compile for each
// query of an adaptive stream, after the optimizer has recorded the
// votes Uses derives from the plan.
//
// The planner's three cases for a base-table join (§6):
//
//  1. both tables have one tree partitioned on the join attribute —
//     hyper-join;
//  2. one or both tables are mid smooth-repartitioning (multiple trees) —
//     a combination of hyper-join over the co-partitioned portions and
//     shuffle join over the residual portions;
//  3. no tree on the join attribute — shuffle join, unless the upfront
//     partitioning happens to make hyper-join cheaper anyway.
//
// Paper mapping:
//
//   - §4.2 — estimateHyper / estimateShuffle price the strategies in
//     block reads before compiling the winner.
//   - §4.3 — distBroadcastJoin reads a base table in place while only
//     the intermediate is exchanged, charged at the intermediate rate;
//     every exchange carries its plan edge's charge class (exec.Charge).
//   - §5.4 — planTableJoin's cost comparison that decides whether a
//     combination join beats a plain shuffle mid-transition.
//   - §6 — Compile walks the plan tree; the Report records per-join
//     strategies the experiments aggregate.
//
// Whatever strategy wins, the data plane underneath is the same
// parallel radix-partitioned hash join core (exec/coljoin.go), so
// strategy choice changes I/O metering and block schedules, never join
// semantics: output column order follows the plan's (left, right) via
// JoinOptions.BuildIsRight or NewHyperJoinOp's buildIsRight, and NULL
// join keys never match.
package planner
