package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/series.golden from this run's figures")

const goldenPath = "testdata/series.golden"

// wallClockSeries are series that measure real time, not the simulated
// cluster, so no two runs agree on them.
var wallClockSeries = map[string]bool{"fig17/ilp_ms": true, "fig17/approx_ms": true}

var goldenMu sync.Mutex

// checkGolden compares every series of res with the golden file, one
// line per series: "<result>/<series> v0 v1 ...", floats exact. With
// -update it replaces res's lines in the file instead.
func checkGolden(t *testing.T, res *Result) {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	golden := readGolden(t)
	got := map[string]string{}
	for name, vs := range res.Series {
		key := res.Name + "/" + name
		if wallClockSeries[key] {
			continue
		}
		cells := make([]string, len(vs))
		for i, v := range vs {
			cells[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		got[key] = strings.Join(cells, " ")
	}
	if *update {
		for key := range golden {
			if strings.HasPrefix(key, res.Name+"/") {
				delete(golden, key)
			}
		}
		for key, line := range got {
			golden[key] = line
		}
		writeGolden(t, golden)
		return
	}
	for key := range golden {
		if strings.HasPrefix(key, res.Name+"/") {
			if _, ok := got[key]; !ok {
				t.Errorf("%s: series missing (golden has it)", key)
			}
		}
	}
	for key, line := range got {
		want, ok := golden[key]
		switch {
		case !ok:
			t.Errorf("%s: series not in %s (run with -update)", key, goldenPath)
		case want != line:
			t.Errorf("%s moved:\n got: %s\nwant: %s", key, line, want)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *update {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, vals, _ := strings.Cut(line, " ")
		out[key] = vals
	}
	return out
}

func writeGolden(t *testing.T, golden map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(golden))
	for key := range golden {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, key := range keys {
		b.WriteString(key + " " + golden[key] + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
