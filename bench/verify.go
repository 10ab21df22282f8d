package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"adaptdb/internal/optimizer"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
)

// rowsChecksum is the order-independent result digest serve.Result
// carries: the sum of per-row 64-bit FNV-1a hashes of the binary
// encoding, so equal multisets compare equal in any row order.
func rowsChecksum(rows []tuple.Tuple) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var sum uint64
	var scratch []byte
	for _, r := range rows {
		scratch = r.AppendBinary(scratch[:0])
		h := uint64(offset)
		for _, c := range scratch {
			h ^= uint64(c)
			h *= prime
		}
		sum += h
	}
	return sum
}

// answer is what a query must return.
type answer struct {
	rows int
	sum  uint64
}

// oracle answers queries on its own replica by the plainest path the
// engine has: the initial layout, never adapted, a centralized
// executor, unlimited memory. A result does not depend on layout,
// transport or budget, so every workload must agree with it.
type oracle struct {
	sess *session.Session
	cat  query.Catalog
}

func newOracle(w workload, seed int64, spill string) (*oracle, error) {
	w.mode, w.tcp, w.mem, w.clients = optimizer.ModeStatic, false, 0, 0
	sys, err := setup(w, seed, spill, false)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{
		sess: session.New(sys.store, session.Config{Model: sys.model, Optimizer: w.optimizerConfig(seed)}),
		cat:  sys.cat,
	}, nil
}

func (o *oracle) answer(sp query.Spec) (answer, error) {
	q, err := session.FromSpec(o.cat, sp)
	if err != nil {
		return answer{}, err
	}
	res, err := o.sess.Execute(q)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.RowCount, sum: rowsChecksum(res.Rows)}, nil
}

// execute materializes one query through the system's front door and
// digests the result.
func (s *system) execute(sp query.Spec) (answer, error) {
	q, err := session.FromSpec(s.cat, sp)
	if err != nil {
		return answer{}, err
	}
	if s.svc != nil {
		res, err := s.svc.Execute(context.Background(), tenantName(0), q)
		if err != nil {
			return answer{}, err
		}
		return answer{rows: res.RowCount, sum: res.Checksum}, nil
	}
	res, err := s.sess.Execute(q)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.RowCount, sum: rowsChecksum(res.Rows)}, nil
}

// sampleStride spaces the queries a timed run checks against the
// oracle. It is coprime with every template cycle length (3, 4, 5), so
// the sample walks through all templates and both phases.
const sampleStride = 13

// verifySample checks every sampleStride-th query of a finished run:
// its timed row count (and, where the front door reports one, its
// checksum) against the oracle, and the checksum of a re-execution on
// the system as the run left it — adapted layout, warm cache, live
// sockets. It returns the number of queries that disagreed.
func (s *system) verifySample(specs []query.Spec, run *runResult, or *oracle) (bad int, err error) {
	clients := max(s.w.clients, 1)
	for i := sampleStride / 2; i < len(specs); i += sampleStride {
		want, err := or.answer(specs[i])
		if err != nil {
			return bad, fmt.Errorf("oracle %s #%d: %w", specs[i].Label, i, err)
		}
		ok := true
		for c := 0; c < clients; c++ {
			rec := run.recs[c*len(specs)+i]
			if rec.err != nil {
				continue // already counted as failed
			}
			if rec.rows != want.rows || (s.svc != nil && rec.checksum != want.sum) {
				fmt.Fprintf(os.Stderr, "bench: %s #%d client %d: timed run returned %d rows (checksum %016x), oracle %d (%016x)\n",
					specs[i].Label, i, c, rec.rows, rec.checksum, want.rows, want.sum)
				ok = false
			}
		}
		got, err := s.execute(specs[i])
		if err != nil {
			return bad, fmt.Errorf("re-execute %s #%d: %w", specs[i].Label, i, err)
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "bench: %s #%d: re-execution returned %d rows (checksum %016x), oracle %d (%016x)\n",
				specs[i].Label, i, got.rows, got.sum, want.rows, want.sum)
			ok = false
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// goldenEntry pins one workload's answers for one (seed, queries):
// the digest of the per-query row-count sequence (client 0's queries,
// then client 1's), the total row count, and the sum of the per-query
// result checksums.
type goldenEntry struct {
	Seed      int64  `json:"seed"`
	Queries   int    `json:"queries"`
	RowDigest string `json:"row_digest"`
	TotalRows int    `json:"total_rows"`
	Checksum  string `json:"checksum"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]goldenEntry, error) {
	g := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digestRows folds a run into golden form. Checksum is empty unless
// every record carries one.
func digestRows(seed int64, perClient int, recs []queryRecord, sums bool) goldenEntry {
	h := sha256.New()
	e := goldenEntry{Seed: seed, Queries: perClient}
	var total uint64
	for i := range recs {
		fmt.Fprintf(h, "%d,", recs[i].rows)
		e.TotalRows += recs[i].rows
		total += recs[i].checksum
	}
	e.RowDigest = hex.EncodeToString(h.Sum(nil)[:16])
	if sums {
		e.Checksum = fmt.Sprintf("%016x", total)
	}
	return e
}

// checkGolden compares a run with the pinned answers when they were
// pinned for this seed and schedule length; other seeds rely on the
// oracle alone. It returns whether a comparison was made.
func checkGolden(w workload, got goldenEntry) (checked bool, err error) {
	golden, err := loadGolden()
	if err != nil {
		return false, err
	}
	want, ok := golden[w.name]
	if !ok || want.Seed != got.Seed || want.Queries != got.Queries {
		return false, nil
	}
	if got.Checksum == "" {
		want.Checksum = ""
	}
	if got != want {
		return true, fmt.Errorf("golden mismatch on %s: got %+v, want %+v", w.name, got, want)
	}
	return true, nil
}

// verifyFull is the untimed, exhaustive check behind --verify: every
// query of the schedule is materialized through the system's front
// door and its row count and checksum compared with the pinned golden
// answers (seed 42 at the reference length) or, for any other seed or
// length, with the oracle; a TCP workload is also compared query by
// query with the same schedule on the simulated fabric. writeGolden
// names a golden file to pin this workload's answers in.
func verifyFull(w workload, opt options, writeGolden string) (bool, error) {
	pinProcs()
	spill, _, cleanup, err := makeSpillDir(opt.tmp)
	if err != nil {
		return false, err
	}
	defer cleanup()
	answers := func(w workload) ([]query.Spec, []queryRecord, error) {
		sys, err := setup(w, opt.seed, spill, true)
		if err != nil {
			return nil, nil, err
		}
		defer sys.close()
		specs := w.schedule(sys.data, opt.seed)
		recs := make([]queryRecord, len(specs))
		for i, sp := range specs {
			got, err := sys.execute(sp)
			if err != nil {
				return nil, nil, fmt.Errorf("%s #%d: %w", sp.Label, i, err)
			}
			recs[i] = queryRecord{label: sp.Label, rows: got.rows, checksum: got.sum}
		}
		return specs, recs, nil
	}
	specs, recs, err := answers(w)
	if err != nil {
		return false, err
	}
	ok := true
	if w.tcp {
		sw := w
		sw.tcp = false
		_, sim, err := answers(sw)
		if err != nil {
			return false, err
		}
		for i := range recs {
			if recs[i].rows != sim[i].rows || recs[i].checksum != sim[i].checksum {
				fmt.Fprintf(os.Stderr, "bench: %s #%d: tcp %d rows (%016x), simulated fabric %d rows (%016x)\n",
					recs[i].label, i, recs[i].rows, recs[i].checksum, sim[i].rows, sim[i].checksum)
				ok = false
			}
		}
	}
	// Every tenant runs the same schedule and must get the same answers.
	all := recs
	for c := 1; c < w.clients; c++ {
		all = append(all, recs...)
	}
	got := digestRows(opt.seed, len(specs), all, true)
	if writeGolden != "" {
		return ok, pinGolden(writeGolden, w.name, got)
	}
	pinned, err := checkGolden(w, got)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		ok = false
	}
	if !pinned {
		or, err := newOracle(w, opt.seed, spill)
		if err != nil {
			return false, err
		}
		for i, sp := range specs {
			want, err := or.answer(sp)
			if err != nil {
				return false, fmt.Errorf("oracle %s #%d: %w", sp.Label, i, err)
			}
			if want.rows != recs[i].rows || want.sum != recs[i].checksum {
				fmt.Fprintf(os.Stderr, "bench: %s #%d: got %d rows (%016x), oracle %d rows (%016x)\n",
					sp.Label, i, recs[i].rows, recs[i].checksum, want.rows, want.sum)
				ok = false
			}
		}
	}
	fmt.Fprintf(opt.out, "verify %s seed=%d: %d queries, %d rows, golden pinned: %v, ok: %v\n", w.name, opt.seed, len(all), got.TotalRows, pinned, ok)
	return ok, nil
}

// pinGolden records one workload's answers in the golden file at path.
func pinGolden(path, name string, e goldenEntry) error {
	golden := map[string]goldenEntry{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	golden[name] = e
	raw, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
