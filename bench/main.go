// Command bench is the repository's one benchmark: four workloads
// (shift_sim, shift_tcp, spill_static, serve_mixed), each run in its
// own process, verified, and reported as named metrics with units. An
// untraced pass gives the end-to-end metrics; a traced pass of the same
// schedule records spans around the calls into each layer and gives the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"adaptdb/internal/net/datasets"
)

func main() {
	// In-process TCP workers resolve their dataset through the same
	// registry spawned ones would.
	datasets.Register()

	var (
		name     = flag.String("workload", "", "workload to run: shift_sim, shift_tcp, spill_static or serve_mixed")
		seed     = flag.Int64("seed", 42, "seed for the dataset and the query parameters")
		seconds  = flag.Int("seconds", refSeconds, "length of the timed phase the schedule is sized for")
		trace    = flag.Int("trace", 0, "1 also runs the traced pass and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for spill files")
		verify   = flag.Bool("verify", false, "instead of timing, materialize every query and check it against golden.json or the oracle")
		pin      = flag.String("pin-golden", "", "with -verify: record the workload's answers in this golden file")
		runs     = flag.Int("runs", 0, "produce two sets (A, B) of this many runs of every workload under -out")
		inter    = flag.Bool("interleave", false, "with -runs: alternate the sets A,B,A,B instead of all of A, then all of B")
		out      = flag.String("out", ".bench_build/sets", "with -runs: directory for the two sets")
		aa       = flag.Bool("aa", false, "compare two sets of run outputs: bench -aa dirA dirB")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition, for -runs and -aa")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *runs > 0 || *aa {
		spec, err := readBenchmarkSpec(*specPath)
		if err != nil {
			fail(err)
		}
		if *runs > 0 {
			if err := runSets(spec, *runs, *inter, *out); err != nil {
				fail(err)
			}
			return
		}
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-aa needs two directories of run outputs"))
		}
		pass, err := compareSets(spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !pass {
			os.Exit(1)
		}
		return
	}

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	w = w.scaled(*seconds)
	opt := options{seed: *seed, traced: *trace == 1, traceOut: *traceOut, tmp: *tmp, out: os.Stdout, probes: defaultProbes}
	if *verify {
		ok, err := verifyFull(w, opt, *pin)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
