package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"adaptdb/internal/exec"
	"adaptdb/internal/net/datasets"
)

// TestSmoke runs every workload, untraced and traced, at a size that
// takes a moment, and checks the report against BENCHMARK.json: every
// metric it names is printed exactly once with its unit, the passes
// agree (runWorkload counts a disagreement, or span coverage under
// 90%, as a failure), and nothing is left behind.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	datasets.Register()
	t.Setenv("TMPDIR", os.Getenv("TMPDIR")) // runWorkload repoints it; restore after
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the bench has %q", i, spec.Workloads[i].Name, w.name)
		}
		const sf = 0.002
		w.mem = int64(float64(w.mem) * sf / w.sf)
		w.sf, w.cycles, w.perPhase = sf, 1, 6
		for _, traced := range []bool{false, true} {
			tmp := t.TempDir()
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			var out bytes.Buffer
			res, err := runWorkload(w, options{
				seed: 42, traced: traced, tmp: tmp, out: &out, traceOut: spans,
				probes: probeConfig{sf: sf, minTime: time.Millisecond},
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != max(w.clients, 1)*w.queries() {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			printed := spec.EndToEnd
			inResult := spec.EndToEnd
			if traced {
				printed = append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
				inResult = spec.PerLayer
			}
			if len(res.Metrics) != len(inResult) {
				t.Errorf("%s traced=%v: result has %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(inResult))
			}
			for _, m := range inResult {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: result metric %s = %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range printed {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +[-0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if n := len(line.FindAllString(out.String(), -1)); n != 1 {
					t.Errorf("%s traced=%v: metric %s [%s] printed %d times, want once", w.name, traced, m.Name, m.Unit, n)
				}
			}
			if st, err := os.Stat(spans); traced && (err != nil || st.Size() == 0) {
				t.Errorf("%s: traced pass wrote no spans to --trace-out: %v", w.name, err)
			}
			if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
				t.Errorf("%s traced=%v: spill directory not empty afterwards: %v %v", w.name, traced, left, err)
			}
			exec.VerifyNoLeaks(t)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

// A run whose answers differ from the pinned ones must be reported.
func TestGoldenMismatchIsAnError(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	e := golden[w.name]
	if pinned, err := checkGolden(w, e); !pinned || err != nil {
		t.Fatalf("pinned entry against itself: pinned=%v err=%v", pinned, err)
	}
	e.TotalRows++
	if _, err := checkGolden(w, e); err == nil {
		t.Error("a wrong total row count passed the golden check")
	}
	e = golden[w.name]
	e.Seed++
	if pinned, err := checkGolden(w, e); pinned || err != nil {
		t.Errorf("another seed: pinned=%v err=%v, want no comparison", pinned, err)
	}
}
