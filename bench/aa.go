package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the tools here read.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runSets produces two sets of run outputs of this binary, rounds runs
// of every workload each, round i using seed i. Interleaved (A,B,A,B,…)
// a slow drift of the host lands on both sets; back to back (all of A,
// then all of B) it lands on one, which is how the acceptance driver
// measures and therefore what the bounds have to survive.
func runSets(spec *benchmarkSpec, rounds int, interleave bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(set string, round int) error {
		dir := filepath.Join(out, set)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, w := range spec.Workloads {
			cmd := osexec.Command(exe, "--workload", w.Name, "--seed", fmt.Sprint(round), "--seconds", fmt.Sprint(spec.RunSeconds))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s round %d set %s: %w", w.Name, round, set, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s.%02d.txt", w.Name, round))
			if err := os.WriteFile(path, stdout, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
		}
		return nil
	}
	if interleave {
		for r := 1; r <= rounds; r++ {
			for _, set := range []string{"A", "B"} {
				if err := one(set, r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, set := range []string{"A", "B"} {
		for r := 1; r <= rounds; r++ {
			if err := one(set, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSet loads every run output in dir: workload → metric → values.
// A run output is a run's standard output; its first line names the
// workload and its last line is the result object.
func readSet(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	set := map[string]map[string][]float64{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var first, last string
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if first == "" {
				first = sc.Text()
			}
			last = sc.Text()
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		fields := strings.Fields(first)
		if len(fields) < 3 || fields[0] != "#" || fields[1] != "bench" {
			return nil, fmt.Errorf("%s: not a run output", path)
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: run was not correct", path)
		}
		w := fields[2]
		if set[w] == nil {
			set[w] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[w][name] = append(set[w][name], m.Value)
		}
	}
	return set, nil
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles, the change of the median, the bound, and a
// verdict: FAIL when B's median is worse than A's by more than the
// bound, unresolved when either set's quartile spread is wider than the
// bound (so the comparison cannot tell), PASS otherwise. It reports
// whether every row passed.
func compareSets(spec *benchmarkSpec, dirA, dirB string) (bool, error) {
	a, err := readSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := readSet(dirB)
	if err != nil {
		return false, err
	}
	allPass := true
	fmt.Printf("| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | spread A / B | delta | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				return false, fmt.Errorf("%s %s: need at least two runs in each set, have %d and %d", w.Name, m.Name, len(va), len(vb))
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			delta := (b2 - a2) / a2
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "PASS"
			switch {
			case worse > m.Bound:
				verdict = "FAIL"
			case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "unresolved"
			}
			if verdict != "PASS" {
				allPass = false
			}
			fmt.Printf("| %s | %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f / %.3f | %+.3f | %.2f | %s |\n",
				w.Name, m.Name, m.Unit, a2, a1, a3, b2, b1, b3, spreadA, spreadB, delta, m.Bound, verdict)
		}
	}
	return allPass, nil
}
