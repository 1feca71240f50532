// Command bench is the repository's end-to-end benchmark: five workloads
// that take whole jobs from a graph dump on disk (or a first POST) to
// verified report bytes through the in-memory engine, the out-of-core
// backend, a TCP rpcrt cluster and the vcserve HTTP service, and time every
// layer from outside, around the calls into its public functions.
//
//	bash bench/run.sh -workload mem-fewrounds -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload mem-fewrounds -seed 1 -trace 1   # per-layer metrics + trace
//	bash bench/run.sh -all -out results/                         # both, every workload
//	bash bench/run.sh -compare a/results.json b/results.json
//
// Every run verifies its outputs, prints every metric by name with its unit,
// and ends with one JSON line {correct, attempted, failed, metrics}. See
// README.md in this directory for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// header opens every result file: enough to tell whether two files may be
// compared.
type header struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Passes     map[string]int `json:"timed_passes"` // N per workload, untraced run
}

type resultFile struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "drives source-vertex selection and every task seed")
		seconds = flag.Float64("seconds", 15, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		all     = flag.Bool("all", false, "run every workload, untraced then traced")
		out     = flag.String("out", "", "directory for results.json and trace-<workload>.json")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	type runKey struct {
		workload string
		traced   bool
	}
	var runs []runKey
	switch {
	case *all:
		for _, w := range workloadNames() {
			runs = append(runs, runKey{w, false}, runKey{w, true})
		}
	case *name != "":
		runs = []runKey{{*name, *trace != 0}}
	default:
		flag.Usage()
		return 2
	}

	runtime.GOMAXPROCS(pinnedProcs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Dumps, partition files, checkpoints and traces all live under one
	// root that goes away however the run ends.
	tmp, err := os.MkdirTemp("", "vcmt-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	file := resultFile{Header: header{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: pinnedProcs, Seed: *seed, Seconds: *seconds, Passes: map[string]int{},
	}}
	fmt.Printf("vcmt bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, window %g s\n",
		file.Header.Commit, file.Header.GoVersion, file.Header.NumCPU, pinnedProcs, *seed, *seconds)
	code := 0
	for i, rk := range runs {
		o := runOpts{
			workload: rk.workload, seed: *seed, seconds: *seconds,
			tmp: filepath.Join(tmp, fmt.Sprintf("run%d", i)), outDir: *out, text: os.Stdout,
		}
		mode, run := "untraced", runUntraced
		if rk.traced {
			mode, run = "traced", runTraced
		}
		fmt.Printf("== %s (%s) ==\n", rk.workload, mode)
		res, err := run(ctx, o)
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", rk.workload, err)
			return 1
		}
		os.RemoveAll(o.tmp)
		if err := printResult(res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", rk.workload, err)
			return 1
		}
		file.Runs = append(file.Runs, res)
		if !rk.traced {
			file.Header.Passes[rk.workload] = res.Attempted
		}
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(*out, "results.json"), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// commit asks git for the checkout's revision; a checkout that is not a
// repository is "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult prints every metric by name with its unit, the exact counts,
// the digest, and last the one JSON line the driver reads.
func printResult(res *runResult) error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-30s %16.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if !res.Traced {
		names := make([]string, 0, len(res.Exact))
		for name := range res.Exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("exact %-30s %16.6f\n", name, res.Exact[name])
		}
	}
	fmt.Printf("report_sha256 %s\n", res.ReportSHA256)
	for _, e := range res.Errors {
		fmt.Printf("FAILED: %s\n", e)
	}
	fmt.Printf("passes attempted %d, failed %d, pass_fail_ratio %g\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err // a metric that is not a number
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
