package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, how much worse
// the second file is than the first next to the metric's bound, and holds
// the exact counts and digests of matching runs equal. It returns 0 only if
// no metric is worse by more than its bound, every count matches and no
// pass failed on either side.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(a, b)
}

func compareResults(a, b *resultFile) int {
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Printf("MISMATCH: "+format+"\n", args...)
	}
	ha, hb := a.Header, b.Header
	fmt.Printf("a: commit %s, %s, nproc %d\nb: commit %s, %s, nproc %d\n",
		ha.Commit, ha.GoVersion, ha.NumCPU, hb.Commit, hb.GoVersion, hb.NumCPU)
	if ha.Seed != hb.Seed || ha.Seconds != hb.Seconds || ha.GOMAXPROCS != hb.GOMAXPROCS {
		fail("runs differ in shape: seed %d/%d, window %g/%g s, GOMAXPROCS %d/%d",
			ha.Seed, hb.Seed, ha.Seconds, hb.Seconds, ha.GOMAXPROCS, hb.GOMAXPROCS)
	}
	type key struct {
		workload string
		traced   bool
	}
	other := make(map[key]*runResult, len(b.Runs))
	for _, r := range b.Runs {
		other[key{r.Workload, r.Traced}] = r
	}
	fmt.Printf("%-15s %-18s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, ra := range a.Runs {
		rb := other[key{ra.Workload, ra.Traced}]
		if rb == nil {
			fail("%s (traced=%v) is missing from b", ra.Workload, ra.Traced)
			continue
		}
		delete(other, key{ra.Workload, ra.Traced})
		for _, r := range []*runResult{ra, rb} {
			if !r.Correct || r.Failed != 0 {
				fail("%s (traced=%v): %d of %d passes failed: %v", r.Workload, r.Traced, r.Failed, r.Attempted, r.Errors)
			}
		}
		if ra.ReportSHA256 != rb.ReportSHA256 {
			fail("%s (traced=%v): report_sha256 %s vs %s", ra.Workload, ra.Traced, ra.ReportSHA256, rb.ReportSHA256)
		}
		names := make([]string, 0, len(ra.Exact))
		for name := range ra.Exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if vb, ok := rb.Exact[name]; !ok || vb != ra.Exact[name] {
				fail("%s (traced=%v): exact %s %v vs %v", ra.Workload, ra.Traced, name, ra.Exact[name], vb)
			}
		}
		if ra.Traced {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("%-15s %-18s %14.6f %14.6f %+7.1f%% %5.0f%%\n", ra.Workload, d.Name, va, vb, 100*worse, 100*d.Bound)
			if worse > d.Bound {
				fail("%s %s is worse by %.1f%%, bound %.0f%%", ra.Workload, d.Name, 100*worse, 100*d.Bound)
			}
		}
	}
	for k := range other {
		fail("%s (traced=%v) is missing from a", k.workload, k.traced)
	}
	if bad != 0 {
		fmt.Printf("%d mismatches\n", bad)
		return 1
	}
	fmt.Println("every end-to-end metric within its bound, every exact count and digest equal")
	return 0
}
