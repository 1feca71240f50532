// Command benchjson runs a Go benchmark selection and writes the results
// as machine-readable JSON, for CI artifacts (e.g. BENCH_engine.json) that
// downstream tooling can diff across commits without scraping test output.
//
// Usage:
//
//	benchjson -bench 'BenchmarkEngineWorkers' -pkg ./internal/engine \
//	    -benchtime 2x -out BENCH_engine.json
//
// With -compare, the fresh results are checked against a committed
// baseline artifact and the command exits nonzero when ns/op, bytes/op or
// allocs/op regress beyond -max-regress — the CI benchmark-regression
// gate. An allocation-free baseline (0 allocs/op) is matched exactly: any
// allocation on the fresh side fails the gate.
//
//	benchjson -bench 'BenchmarkDeliver' -pkg ./internal/wire -benchmem \
//	    -benchtime 100x -compare BENCH_wire.json -max-regress 0.25
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line: the canonical ns/op plus any custom
// metrics the benchmark reported (b.ReportMetric units, and B/op /
// allocs/op under -benchmem).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Output is the whole artifact.
type Output struct {
	Package   string   `json:"package"`
	Bench     string   `json:"bench"`
	GoVersion string   `json:"go_version"`
	Results   []Result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		bench      = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
		pkg        = flag.String("pkg", ".", "package to benchmark")
		benchtime  = flag.String("benchtime", "1x", "go test -benchtime value")
		benchmem   = flag.Bool("benchmem", false, "pass -benchmem (records B/op and allocs/op)")
		out        = flag.String("out", "", "output JSON path (default stdout)")
		compare    = flag.String("compare", "", "baseline JSON artifact to compare against")
		maxRegress = flag.Float64("max-regress", 0.25, "fail when ns/op, B/op or allocs/op regress by more than this fraction (with -compare); a 0 allocs/op baseline is matched exactly")
	)
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime}
	if *benchmem {
		args = append(args, "-benchmem")
	}
	args = append(args, *pkg)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		log.Fatalf("go test: %v\n%s", err, buf.String())
	}

	// The child go test inherits this process's GOMAXPROCS.
	o := Output{Package: *pkg, Bench: *bench, Results: parse(&buf, runtime.GOMAXPROCS(0))}
	if v, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		o.GoVersion = strings.TrimSpace(string(v))
	}
	if len(o.Results) == 0 {
		log.Fatalf("no benchmark results matched %q in %s", *bench, *pkg)
	}

	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d results to %s\n", len(o.Results), *out)
	}

	if *compare != "" {
		base, err := readBaseline(*compare)
		if err != nil {
			log.Fatalf("read baseline: %v", err)
		}
		regressions := compareResults(base, o.Results, *maxRegress)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", r)
		}
		if len(regressions) > 0 {
			log.Fatalf("%d benchmark regression(s) beyond %.0f%% against %s",
				len(regressions), *maxRegress*100, *compare)
		}
		fmt.Printf("no regressions beyond %.0f%% against %s\n", *maxRegress*100, *compare)
	}
}

func readBaseline(path string) (Output, error) {
	var o Output
	data, err := os.ReadFile(path)
	if err != nil {
		return o, err
	}
	if err := json.Unmarshal(data, &o); err != nil {
		return o, fmt.Errorf("%s: %w", path, err)
	}
	return o, nil
}

// bytesSlack is the absolute B/op headroom below which the gate stays
// quiet: pool-backed benchmarks report 0–2 B/op of scheduler noise, and a
// relative threshold against a near-zero baseline would flag that as a
// huge regression. Anything past the slack is held to the relative limit,
// and a zero-B/op baseline still catches real allocation creep.
const bytesSlack = 64

// compareResults checks every baseline benchmark that also ran fresh:
// ns/op and the B/op metric (when both sides have it) may not exceed the
// baseline by more than maxRegress. Missing fresh results are regressions
// too — a silently vanished benchmark must not pass the gate. Improvements
// and new benchmarks are fine.
func compareResults(base Output, fresh []Result, maxRegress float64) []string {
	byName := make(map[string]Result, len(fresh))
	for _, r := range fresh {
		byName[r.Name] = r
	}
	var regressions []string
	for _, b := range base.Results {
		f, ok := byName[b.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in baseline, missing from this run", b.Name))
			continue
		}
		check := func(metric string, baseV, freshV, slack float64) {
			if baseV <= 0 && slack <= 0 {
				return
			}
			limit := baseV * (1 + maxRegress)
			if limit < baseV+slack {
				limit = baseV + slack
			}
			if freshV > limit {
				regressions = append(regressions, fmt.Sprintf("%s %s: %.4g -> %.4g (limit %.4g)",
					b.Name, metric, baseV, freshV, limit))
			}
		}
		check("ns/op", b.NsPerOp, f.NsPerOp, 0)
		if bv, ok := b.Metrics["B/op"]; ok {
			if fv, ok := f.Metrics["B/op"]; ok {
				check("B/op", bv, fv, bytesSlack)
			}
		}
		// allocs/op is gated exactly at a 0-alloc baseline: an engine that
		// promises an allocation-free steady state regresses the moment a
		// single allocation appears, so no slack and no relative headroom
		// apply there. Non-zero baselines get the relative limit like the
		// other metrics.
		if bv, ok := b.Metrics["allocs/op"]; ok {
			if fv, ok := f.Metrics["allocs/op"]; ok {
				if bv == 0 {
					if fv > 0 {
						regressions = append(regressions, fmt.Sprintf(
							"%s allocs/op: baseline is allocation-free, this run allocates %.4g/op", b.Name, fv))
					}
				} else {
					check("allocs/op", bv, fv, 0)
				}
			}
		}
	}
	return regressions
}

// parse extracts "BenchmarkX-N  iters  v1 unit1  v2 unit2 ..." lines from
// go test output. procs is the GOMAXPROCS the benchmarks ran at: go test
// appends "-procs" to every name when it is above 1, and that suffix is
// dropped so results carry the same names on every runner as the committed
// baselines do. A name that merely ends in another "-N" is left alone.
func parse(r *bytes.Buffer, procs int) []Result {
	var results []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if procs > 1 {
			name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
		}
		res := Result{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
				continue
			}
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[fields[i+1]] = v
		}
		results = append(results, res)
	}
	return results
}
