// Package experiments contains one reproducible harness per table and
// figure in the paper's evaluation (§7). Each harness builds its
// workload from scratch (deterministic seeds), runs it through the full
// AdaptDB stack, and returns a Result whose rows mirror the series the
// paper plots. Absolute magnitudes are simulated seconds from the §4.2
// cost model; the shapes (who wins, by what factor, where curves bend)
// are the reproduction targets — see EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/session"
)

// Config holds the common experiment knobs.
type Config struct {
	// SF is the TPC-H scale factor (micro scale; SF 1 ≈ 6M lineitems).
	SF float64
	// RowsPerBlock is the block size analogue.
	RowsPerBlock int
	// Budget is the hyper-join memory budget in blocks (the paper's
	// default splits 4 GB buffers over 64 MB-ish blocks; 8 at our scale).
	Budget int
	// Nodes is the simulated cluster size.
	Nodes int
	// Seed drives all generators.
	Seed int64
	// Model is the cost model (defaults to cluster.Default with Nodes).
	Model cluster.CostModel
}

// DefaultConfig returns the configuration used by the bench harness:
// small enough to run every figure in seconds, large enough that tables
// span dozens of blocks.
func DefaultConfig() Config {
	m := cluster.Default()
	return Config{
		SF:           0.002, // ≈12k lineitem rows
		RowsPerBlock: 256,
		Budget:       8,
		Nodes:        m.Nodes,
		Seed:         42,
		Model:        m,
	}
}

func (c Config) model() cluster.CostModel {
	m := c.Model
	if m.Nodes == 0 {
		m = cluster.Default()
	}
	if c.Nodes > 0 {
		m.Nodes = c.Nodes
	}
	return m
}

// Result is a printable experiment outcome: a header row plus data rows,
// with the raw numeric series kept for tests and benches.
type Result struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	// Series holds named numeric columns for programmatic checks.
	Series map[string][]float64
	Notes  string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddSeries appends values to a named series.
func (r *Result) AddSeries(name string, vs ...float64) {
	if r.Series == nil {
		r.Series = make(map[string][]float64)
	}
	r.Series[name] = append(r.Series[name], vs...)
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Name, r.Title)
	if r.Notes != "" {
		fmt.Fprintf(w, "%s\n", r.Notes)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(r.Header)
	printRow(dashes(widths))
	for _, row := range r.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// staticSession runs queries over store without adapting: ModeStatic
// only records the query windows. budget 0 keeps the planner default.
func staticSession(store *dfs.Store, model cluster.CostModel, budget int, forceShuffle bool) *session.Session {
	return session.New(store, session.Config{
		Model:        model,
		Optimizer:    optimizer.Config{Mode: optimizer.ModeStatic},
		BudgetBlocks: budget,
		ForceShuffle: forceShuffle,
	})
}

// simSeconds runs plan as the next query of s and returns its
// simulated seconds, adaptation included.
func simSeconds(s *session.Session, plan planner.Node) (float64, error) {
	res, err := s.Execute(session.Query{Plan: plan})
	if err != nil {
		return 0, err
	}
	return res.SimSeconds, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }
